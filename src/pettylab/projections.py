"""Projection bodies, polar radial measures, and centroid bodies.

Support functions are the working currency here: a projection body is kept
as a zonotope whose support equals shadow volumes, mixed projection bodies
are support evaluators read off the mixed surface-area measure, and polar
measures integrate a radial density in polar coordinates over 1/h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .bodies import (
    GeometryError,
    VPolytope,
    Zonotope,
    _abs_pairing,
    hull,
    merge_parallel_generators,
    minkowski_sum,
    reduced_form,
    sphere_directions,
    volume,
)
from .mixed import _as_polytope, _surface_measure, centroid, clip_halfspace

DEFAULT_NODES = {2: 4096, 3: 8192}
CERTIFY_REL_TOL = 1e-4
SPHERE_SURFACE = {2: 2.0 * math.pi, 3: 4.0 * math.pi}


class SupportEvaluator:
    """Vectorized support function h(u) with a provenance tag."""

    __slots__ = ("dim", "provenance", "_fn")

    def __init__(self, dim: int, fn, provenance: str):
        self.dim = dim
        self._fn = fn
        self.provenance = provenance

    def __call__(self, U) -> np.ndarray:
        U = np.atleast_2d(np.asarray(U, dtype=float))
        if U.shape[1] != self.dim:
            raise GeometryError("direction dimension mismatch")
        return self._fn(U)

    def value(self, u) -> float:
        return float(self(np.asarray(u, dtype=float)[None, :])[0])


def support_evaluator_of(body) -> SupportEvaluator:
    if isinstance(body, SupportEvaluator):
        return body
    if isinstance(body, Zonotope):
        return SupportEvaluator(body.dim, body.support_batch, "zonotope")
    return SupportEvaluator(body.dim, body.support_batch, "vpolytope")


@dataclass(frozen=True)
class QuadratureSpec:
    """Spherical quadrature request: node count plus doubling certification."""

    nodes: int | None = None
    certify: bool = False

    def node_count(self, dim: int) -> int:
        return self.nodes if self.nodes else DEFAULT_NODES[dim]


@dataclass(frozen=True)
class RadialMeasure:
    """Rotation-invariant measure with a nonincreasing radial density.

    variant: 'lebesgue', 'gaussian' (standard normal scaled by sigma), or
    'ball' (Lebesgue restricted to the centered ball of the given radius).
    """

    variant: str
    sigma: float = 1.0
    radius: float = 1.0

    @staticmethod
    def lebesgue() -> "RadialMeasure":
        return RadialMeasure("lebesgue")

    @staticmethod
    def gaussian(sigma: float = 1.0) -> "RadialMeasure":
        if sigma <= 0:
            raise GeometryError("gaussian sigma must be positive")
        return RadialMeasure("gaussian", sigma=sigma)

    @staticmethod
    def ball(radius: float) -> "RadialMeasure":
        if radius <= 0:
            raise GeometryError("ball radius must be positive")
        return RadialMeasure("ball", radius=radius)

    @staticmethod
    def from_literal(spec: dict) -> "RadialMeasure":
        kind = spec.get("type")
        if kind == "lebesgue":
            return RadialMeasure.lebesgue()
        if kind == "gaussian":
            return RadialMeasure.gaussian(float(spec.get("sigma", 1.0)))
        if kind == "ball":
            return RadialMeasure.ball(float(spec["radius"]))
        raise GeometryError(f"unknown measure literal {kind!r}")

    def radial_integral(self, R: np.ndarray, n: int) -> np.ndarray:
        """integral_0^R rho(r) r^(n-1) dr, vectorized; R may contain inf."""
        if self.variant == "lebesgue":
            if np.any(np.isinf(R)):
                raise GeometryError("polar set is unbounded, Lebesgue measure infinite")
            return R ** n / n
        if self.variant == "ball":
            Rc = np.minimum(R, self.radius)
            return Rc ** n / n
        s = self.sigma
        norm = (2.0 * math.pi * s * s) ** (-n / 2.0)
        if n == 2:
            # exp(-inf) = 0 gives R = inf its limit s^2 with no special case
            out = s * s * (1.0 - np.exp(R * R * (-0.5 / (s * s))))
        else:
            finite = np.isfinite(R)
            Rf = np.where(finite, R, 0.0)
            tail = s * s * Rf * np.exp(-(Rf ** 2) / (2 * s * s))
            main = (s ** 3) * math.sqrt(math.pi / 2.0) * erf(Rf / (s * math.sqrt(2.0)))
            full = (s ** 3) * math.sqrt(math.pi / 2.0)
            out = np.where(finite, main - tail, full)
        return norm * out


def polar_measures(HV: np.ndarray, measure: RadialMeasure, dim: int) -> np.ndarray:
    """Polar-radial quadrature of each row of HV, the support values of one
    body on the canonical node set of that size (uniform weights).

    Elementwise work plus one sum along each row, so a row's value does not
    depend on the rows stacked with it.
    """
    hv = np.asarray(HV, dtype=float)
    if np.any(hv < 0):
        if np.any(hv <= -1e-10):
            raise GeometryError("support evaluator returned negative values")
        hv = np.maximum(hv, 0.0)
    with np.errstate(divide="ignore"):
        R = np.abs(1.0 / hv)  # a zero support of either sign gives R = inf
    inner = measure.radial_integral(R, dim)
    weight = SPHERE_SURFACE[dim] / hv.shape[-1]
    return weight * inner.sum(axis=-1)


def polar_measure_from_support(hv: np.ndarray, measure: RadialMeasure, dim: int) -> float:
    """``polar_measures`` of one body's support values."""
    return float(polar_measures(np.asarray(hv, dtype=float)[None, :], measure, dim)[0])


def _polar_measure_at(h: SupportEvaluator, measure: RadialMeasure, nodes: int) -> float:
    U = sphere_directions(h.dim, nodes)
    return polar_measure_from_support(h(U), measure, h.dim)


def polar_measure(h, measure: RadialMeasure, quad: QuadratureSpec | None = None) -> float:
    """measure({x : h(x) <= 1}) in polar-radial coordinates.

    With certify=True the node count is doubled and both values must agree
    to a relative 1e-4, otherwise the quadrature is rejected.
    """
    h = support_evaluator_of(h)
    quad = quad or QuadratureSpec()
    nodes = quad.node_count(h.dim)
    value = _polar_measure_at(h, measure, nodes)
    if quad.certify:
        refined = _polar_measure_at(h, measure, 2 * nodes)
        denom = max(abs(refined), 1e-300)
        if abs(refined - value) / denom > CERTIFY_REL_TOL:
            raise GeometryError(
                f"quadrature failed doubling certification at {nodes} nodes: "
                f"{value} vs {refined}"
            )
        return refined
    return value


# ---------------------------------------------------------------------------
# projection bodies


def projection_body(K, allow_degenerate: bool = False) -> Zonotope:
    """Zonotope whose support in direction u is the shadow volume |P_{u^perp} K|.

    Generators are (mass/2) * normal over the surface-area measure, merged
    over parallel directions.  Degenerate input is rejected unless
    allow_degenerate is set, in which case the flat-body conventions of that
    measure apply (a segment in the plane or a polygon in space casts shadows
    through its normal, anything flatter has zero shadow volume).
    """
    if isinstance(K, Zonotope):
        return projection_body_of_zonotope(K)
    if K.is_degenerate() and not allow_degenerate:
        raise GeometryError("projection body needs a full-dimensional body")
    normals, masses = _surface_measure(K)
    return merge_parallel_generators(Zonotope(0.5 * masses[:, None] * normals))


def projection_body_of_zonotope(Z: Zonotope) -> Zonotope:
    """Exact projection body of a zonotope from generator pairs."""
    Zm = merge_parallel_generators(Z)
    gens = Zm.generators
    n = Zm.dim
    if n == 2:
        out = np.column_stack([-2.0 * gens[:, 1], 2.0 * gens[:, 0]])
        return merge_parallel_generators(Zonotope(out))
    if n != 3:
        raise GeometryError("projection body supports dimension 2 or 3")
    if len(gens) < 2:
        return Zonotope(np.zeros((0, 3)))
    i, j = np.triu_indices(len(gens), k=1)
    out = 4.0 * np.cross(gens[i], gens[j])
    return merge_parallel_generators(Zonotope(out))


def mixed_projection_support(bodies: list) -> SupportEvaluator:
    """Support evaluator of the mixed projection body Pi(K_1, ..., K_{n-1}).

    h(u) = n V(K_1, ..., K_{n-1}, [0, u]) is linear in the surface-area
    measure, h_{Pi K}(u) = (1/2) sum |<u, v>| S_K(v), and in space
    h_{Pi(A, B)} = [h_{Pi(A + B)} - h_{Pi A} - h_{Pi B}] / 2.  A pair of
    zonotopes takes the closed form of that identity, generator cross
    products, with no hull.
    """
    if len(bodies) == 0:
        raise GeometryError("mixed projection needs n-1 bodies")
    n = bodies[0].dim
    if any(B.dim != n for B in bodies):
        raise GeometryError("mixed projection bodies must share a dimension")
    if len(bodies) != n - 1:
        raise GeometryError(f"dimension {n} needs exactly {n - 1} bodies")

    if n == 3 and all(isinstance(B, Zonotope) for B in bodies):
        ga, gb = bodies[0].generators, bodies[1].generators
        cross = 2.0 * np.cross(ga[:, None, :], gb[None, :, :]).reshape(-1, 3)
        Zc = merge_parallel_generators(Zonotope(cross))
        return SupportEvaluator(3, Zc.support_batch, "zonotope")
    if n == 2:
        terms = [(0.5, bodies[0])]
    else:
        A, B = (_as_polytope(K) for K in bodies)
        terms = [(0.25, minkowski_sum(A, B)), (-0.25, A), (-0.25, B)]
    measures = [_surface_measure(K) for _, K in terms]
    normals = np.vstack([v for v, _ in measures])
    weights = np.concatenate([c * m for (c, _), (_, m) in zip(terms, measures)])
    return SupportEvaluator(n, lambda U: _abs_pairing(U, normals, weights), "surface-measure")


# ---------------------------------------------------------------------------
# centroid bodies


def centroid_body_support(L: VPolytope) -> SupportEvaluator:
    """Support of the centroid body: h(u) = mean of |<x, u>| over L.

    Exact for polytopes: the positive part integral is a clipped-polytope
    moment, and the full signed integral is |L| <centroid, u>.
    """
    R = reduced_form(L)
    if R.affine_dim < R.dim:
        raise GeometryError("centroid body needs a full-dimensional body")
    vol = volume(R)
    cen = centroid(R)

    def h(U):
        out = np.empty(len(U))
        for k, u in enumerate(U):
            pts = clip_halfspace(R, u, 0.0)
            if len(pts) <= R.dim:
                plus = 0.0
            else:
                piece = hull(pts)
                pv = volume(piece)
                plus = pv * float(centroid(piece) @ u) if pv > 0 else 0.0
            out[k] = (2.0 * plus - vol * float(cen @ u)) / vol
        return out

    return SupportEvaluator(R.dim, h, "centroid-exact")


def empirical_centroid_body(samples) -> Zonotope:
    """Zonotope sum of [-X_i/m, X_i/m] over the sample rows."""
    pts = np.atleast_2d(np.asarray(samples, dtype=float))
    return Zonotope(pts / len(pts))


# ---------------------------------------------------------------------------
# the Petty functional


def polar_projection_polytope(K) -> VPolytope:
    """Polar projection body as an explicit polytope (exact route)."""
    from .bodies import polar_of_zonotope

    Z = projection_body(K)
    return polar_of_zonotope(Z)


def petty_product(K, method: str = "auto", quad: QuadratureSpec | None = None) -> float:
    """Affine invariant |Pi^o K| |K|^(n-1).

    method 'exact' builds the polar projection body as a polytope and takes
    its hull volume; 'quadrature' integrates the projection support in
    polar-radial coordinates; 'auto' prefers exact.
    """
    body_vol = volume(K)
    n = K.dim
    if body_vol <= 0:
        raise GeometryError("Petty product needs a full-dimensional body")
    if method not in ("auto", "exact", "quadrature"):
        raise GeometryError(f"unknown petty_product method {method!r}")
    if method in ("auto", "exact"):
        try:
            polar_vol = volume(polar_projection_polytope(K))
            return polar_vol * body_vol ** (n - 1)
        except GeometryError:
            if method == "exact":
                raise
    Z = projection_body(K)
    polar_vol = polar_measure(Z, RadialMeasure.lebesgue(), quad)
    return polar_vol * body_vol ** (n - 1)


def cauchy_surface_bound_defect(K: VPolytope) -> float:
    """S(K) minus the projection-body lower bound; nonnegative up to fp noise."""
    from .bodies import unit_ball_volume
    from .mixed import surface_area

    n = K.dim
    pv = volume(polar_projection_polytope(K))
    bound = unit_ball_volume(n) ** (1.0 / n) * pv ** (-1.0 / n)
    return surface_area(K) - bound
