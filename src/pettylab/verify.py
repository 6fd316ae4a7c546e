"""Self-contained oracle suite for the geometry kernel.

Every check recomputes its expected value with an independent method
(gift wrapping, brute-force support maxima, determinant simplex volumes,
midpoint cubature) and compares against the kernel routines.  The mixed
quantities, which the kernel reads off the mixed area measure, have two
slow exact oracles built from plain hull volumes only:
``mixed_volume_inclusion_exclusion`` (subset Minkowski sums) and
``mixed_projection_polarization`` (three hull volumes per direction).  Both
face the edge crossings of ``mixed.edge_crossings`` on random bodies of
every kind and on bodies whose faces meet in a segment or a polygon
(``coincidence_test_pairs``), where its tie rule holds; mixed volumes also
face the polynomial fit of |a K1 + b K2| (``mixed_volume_fit_check``).  The
stacked trial kernels, planar and spatial, are checked against the hull
route, the batched widths of ``bodies.cloud_widths`` also against their
elementwise form, and the edge-pair kernels of two tetrahedra, and the hull
route of the pairs they mask out, against both oracles.
The polar volume of a zonotope by ``projections.zonotope_polar_measure``,
the route of the exact Petty product, is checked against the hull volume of
the polar polytope, the exact planar polar measures of the experiments
against the polar hull and the 2^16-node grid of ``polar_measure``
(strips too), the spatial arc walk against the polar hull, a 2^16-node
grid and a rule of four times its order, and each Gaussian grid row of
the rule table of ``projections.polar_measures`` against the walk.  The block
sample route is checked against numpy's SeedSequence and each trial's own
generator.
The test suite imports these oracles; the command line runs the whole list.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from .bodies import (
    POLAR_WALK_ORDER,
    VPolytope,
    Zonotope,
    as_polytope,
    ball_body,
    cloud_widths,
    cube_body,
    hull,
    full_dimensional,
    full_rank,
    merge_parallel_generators,
    minkowski_sum,
    planar_hull_areas,
    planar_hull_edges,
    planar_polar_measures,
    point_sums,
    spans_space,
    spatial_polar_measures,
    polar,
    polar_of_zonotope,
    reduced_form,
    scale,
    solid_simplex,
    sphere_directions,
    support,
    translate,
    vertex_set_distance,
    volume,
    volume_of_points,
    zonotope_to_vpolytope,
    zonotope_volume,
    _stacked_walk,
)
from .mixed import (
    mixed_area_measure,
    mixed_projection_generators,
    mixed_volume,
    v1,
    zonotope_projection_generators,
)
from .projections import (
    POLAR_GRID_TOL,
    POLAR_RULES,
    TETRAHEDRON_PAIR_ATOMS,
    RadialMeasure,
    centroid_body_support,
    mixed_projection_support,
    polar_measure_from_support,
    polar_measures,
    projection_body,
    tetrahedron_pair_normals,
    tetrahedron_projection_generators,
    zonotope_polar_measure,
)
from .sampling import INDEX_LIMIT, Density, RngStream, draw_block, draw_per_trial

# ---------------------------------------------------------------------------
# independent oracles


def gift_wrap_2d(points: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Extreme points of a planar set, counterclockwise, by gift wrapping."""
    pts = np.asarray(points, dtype=float)
    m = len(pts)
    start = int(np.lexsort((pts[:, 1], pts[:, 0]))[0])
    order = [start]
    cur = start
    while True:
        nxt = (cur + 1) % m
        for j in range(m):
            if j == cur:
                continue
            a = pts[nxt] - pts[cur]
            b = pts[j] - pts[cur]
            c = a[0] * b[1] - a[1] * b[0]
            if c < -tol or (abs(c) <= tol and b @ b > a @ a):
                nxt = j
        if nxt == start:
            break
        order.append(nxt)
        cur = nxt
    return pts[order]


def brute_hull_vertices_3d(points: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Hull vertices of a full-dimensional spatial set by facet enumeration:
    every point triple whose plane has all points on one side within
    ``tol`` keeps the points on that plane.  All triples run in one pass,
    m^4 / 6 entries for m points."""
    pts = np.asarray(points, dtype=float)
    i, j, k = np.array(list(itertools.combinations(range(len(pts)), 3)), dtype=int).reshape(-1, 3).T
    nrm = np.cross(pts[j] - pts[i], pts[k] - pts[i])
    scale = np.linalg.norm(nrm, axis=1)
    plane = scale >= tol
    s = ((pts[None] - pts[i[plane], None]) * (nrm[plane] / scale[plane, None])[:, None]).sum(axis=2)
    facet = (s <= tol).all(axis=1) | (s >= -tol).all(axis=1)
    return pts[(np.abs(s[facet]) <= tol).any(axis=0)]


def shoelace_area(cycle: np.ndarray) -> float:
    x, y = cycle[:, 0], cycle[:, 1]
    return 0.5 * abs(float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))


def support_brute(points: np.ndarray, u: np.ndarray) -> float:
    return float(np.max(np.asarray(points) @ np.asarray(u)))


def simplex_volume_det(points: np.ndarray) -> float:
    pts = np.asarray(points, dtype=float)
    n = pts.shape[1]
    return abs(float(np.linalg.det(pts[1:] - pts[0]))) / math.factorial(n)


def point_in_polygon(cycle: np.ndarray, p: np.ndarray) -> bool:
    """Ray casting against a counterclockwise vertex cycle."""
    inside = False
    m = len(cycle)
    for i in range(m):
        a, b = cycle[i], cycle[(i + 1) % m]
        if (a[1] > p[1]) != (b[1] > p[1]):
            t = (p[1] - a[1]) / (b[1] - a[1])
            if p[0] < a[0] + t * (b[0] - a[0]):
                inside = not inside
    return inside


def points_in_polygon(cycle: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``point_in_polygon`` for every point (x, y) of the broadcast arrays at
    once, edge by edge."""
    inside = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)), dtype=bool)
    for a, b in zip(cycle, np.roll(cycle, -1, axis=0)):
        if a[1] == b[1]:
            continue  # a horizontal edge is never straddled
        straddles = (a[1] > y) != (b[1] > y)
        t = (y - a[1]) / (b[1] - a[1])
        inside ^= straddles & (x < a[0] + t * (b[0] - a[0]))
    return inside


def centroid_support_cubature(cycle: np.ndarray, u: np.ndarray, grid: int = 400):
    """Midpoint-grid estimate of mean |<x, u>| over the polygon interior."""
    lo = cycle.min(axis=0)
    hi = cycle.max(axis=0)
    xs = lo[0] + (np.arange(grid) + 0.5) * (hi[0] - lo[0]) / grid
    ys = lo[1] + (np.arange(grid) + 0.5) * (hi[1] - lo[1]) / grid
    x, y = xs[:, None], ys[None, :]
    inside = points_in_polygon(cycle, x, y)
    return float(np.abs(x * u[0] + y * u[1])[inside].mean())


def shadow_oracle(K: VPolytope, u: np.ndarray) -> float:
    """Projection volume by flattening the vertex set along u."""
    u = np.asarray(u, dtype=float)
    u = u / np.linalg.norm(u)
    if K.dim == 2:
        r = np.array([-u[1], u[0]])
        vals = K.vertices @ r
        return float(vals.max() - vals.min())
    axis = int(np.argmin(np.abs(u)))
    e = np.zeros(3)
    e[axis] = 1.0
    w1 = np.cross(u, e)
    w1 /= np.linalg.norm(w1)
    w2 = np.cross(u, w1)
    flat = K.vertices @ np.column_stack([w1, w2])
    return shoelace_area(gift_wrap_2d(flat))


def mixed_volume_inclusion_exclusion(bodies: list) -> float:
    """V(K_1, ..., K_n) = (1/n!) sum over subsets S of (-1)^(n-|S|) |sum_S K_i|."""
    bodies = [as_polytope(B) for B in bodies]
    n = len(bodies)
    total = 0.0
    for size in range(1, n + 1):
        for subset in itertools.combinations(bodies, size):
            S = subset[0]
            for B in subset[1:]:
                S = minkowski_sum(S, B)
            total += (-1.0) ** (n - size) * volume(S)
    return total / math.factorial(n)


def mixed_volume_fit_check(K1: VPolytope, K2: VPolytope) -> float:
    """Max relative defect of |a K1 + b K2| against its polynomial expansion,
    over a and b in {1/4, 1/2, 1, 2}."""
    n = K1.dim
    worst = 0.0
    coeffs = []
    for j in range(n + 1):
        args = [K1] * (n - j) + [K2] * j
        coeffs.append(math.comb(n, j) * mixed_volume(args))
    lams = (0.25, 0.5, 1.0, 2.0)
    for a in lams:
        for b in lams:
            s = point_sums([reduced_form(K1).vertices * a, reduced_form(K2).vertices * b])
            direct = volume_of_points(s)
            predicted = sum(
                c * (a ** (n - j)) * (b ** j) for j, c in enumerate(coeffs)
            )
            worst = max(worst, abs(direct - predicted) / max(abs(direct), 1e-300))
    return worst


def mixed_projection_polarization(A, B, U) -> np.ndarray:
    """h_{Pi(A, B)} in space on the rows of U by polarization of
    |K + [0, u]| = |K| + h_{Pi K}(u) over K = A + B, A, B: three hull
    volumes per direction."""
    va, vb = as_polytope(A).vertices, as_polytope(B).vertices
    vab = (va[:, None, :] + vb[None, :, :]).reshape(-1, 3)
    base = [volume_of_points(v) for v in (vab, va, vb)]
    out = []
    for u in np.atleast_2d(np.asarray(U, dtype=float)):
        s_ab, s_a, s_b = (volume_of_points(np.vstack([v, v + u])) - b
                          for v, b in zip((vab, va, vb), base))
        out.append((s_ab - s_a - s_b) / 2.0)
    return np.array(out)


# ---------------------------------------------------------------------------
# checks


def _centered_hull(gen: np.random.Generator, n: int, m: int) -> VPolytope:
    from .mixed import centroid

    K = reduced_form(hull(gen.normal(size=(m, n))))
    return VPolytope(K.vertices - centroid(K), reduced=True)


def check_hull_oracle(seed: int = 0):
    gen = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(40):
        pts = gen.normal(size=(gen.integers(4, 30), 2))
        worst = max(worst, vertex_set_distance(hull(pts).vertices, gift_wrap_2d(pts)))
    for _ in range(20):
        pts = gen.normal(size=(gen.integers(5, 11), 3))
        worst = max(
            worst,
            vertex_set_distance(
                reduced_form(hull(pts)).vertices, brute_hull_vertices_3d(pts)
            ),
        )
    return worst <= 1e-9, f"max vertex-set distance {worst:.2e}"


def check_support_oracle(seed: int = 0):
    gen = np.random.default_rng(seed)
    worst = 0.0
    for n in (2, 3):
        for _ in range(25):
            A = gen.normal(size=(gen.integers(n + 2, 12), n))
            B = gen.normal(size=(gen.integers(n + 2, 12), n))
            u = gen.normal(size=n)
            KA, KB = hull(A), hull(B)
            worst = max(worst, abs(support(KA, u) - support_brute(A, u)))
            lhs = support(minkowski_sum(KA, KB), u)
            worst = max(worst, abs(lhs - support_brute(A, u) - support_brute(B, u)))
    return worst <= 1e-9, f"max support defect {worst:.2e}"


def check_simplex_volume(seed: int = 0):
    gen = np.random.default_rng(seed)
    worst = 0.0
    for n in (2, 3):
        for _ in range(25):
            pts = gen.normal(size=(n + 1, n))
            v = volume(hull(pts))
            worst = max(worst, abs(v - simplex_volume_det(pts)))
    return worst <= 1e-9, f"max simplex volume defect {worst:.2e}"


def check_zonotope_volume(seed: int = 0):
    gen = np.random.default_rng(seed)
    worst = 0.0
    for n in (2, 3):
        for m in range(n, 9):
            for _ in range(10):
                Z = Zonotope(gen.normal(size=(m, n)))
                det_vol = zonotope_volume(Z)
                hull_vol = volume(zonotope_to_vpolytope(Z))
                worst = max(worst, abs(det_vol - hull_vol) / max(det_vol, 1.0))
    return worst <= 1e-9, f"max relative defect {worst:.2e}"


def check_polar_involution(seed: int = 0):
    gen = np.random.default_rng(seed)
    worst = 0.0
    for i in range(100):
        n = 2 if i % 2 == 0 else 3
        K = _centered_hull(gen, n, int(gen.integers(n + 2, 16)))
        KK = polar(polar(K))
        worst = max(worst, vertex_set_distance(K.vertices, KK.vertices))
    return worst <= 1e-8, f"max involution distance {worst:.2e}"


def check_mixed_volume_fit(seed: int = 0):
    gen = np.random.default_rng(seed)
    worst = 0.0
    for n in (2, 3):
        for _ in range(6):
            K1 = hull(gen.normal(size=(n + 4, n)))
            K2 = hull(gen.normal(size=(n + 4, n)))
            worst = max(worst, mixed_volume_fit_check(K1, K2))
    worst = max(
        worst, mixed_volume_fit_check(cube_body(2), solid_simplex(2)),
        mixed_volume_fit_check(cube_body(3), solid_simplex(3)),
    )
    return worst <= 1e-7, f"max polarization fit defect {worst:.2e}"


def _random_body(gen: np.random.Generator, n: int, kind: str):
    """Gaussian body in R^n: a zonotope, or the hull of a few points."""
    if kind == "zonotope":
        return Zonotope(gen.normal(size=(n + 1, n)))
    points = {"segment": 2, "triangle": 3, "solid": n + 4}[kind]
    return hull(gen.normal(size=(points, n)))


def coincidence_test_pairs(gen: np.random.Generator):
    """Pairs of spatial bodies (A, B), one at a time, with faces that meet
    in a segment or a polygon at some normal, where S(A, B) takes the tie
    rule of ``mixed.edge_crossings``.  The first three are the cube and the
    solid simplex, a random hull K and a translate, and two triangles in
    one plane.  Then come the cube beside a shifted half cube and beside
    itself turned 45 degrees, a triangle and a pentagon in one plane, a
    triangle and a segment in a facet plane of the cube, a segment parallel
    to its edges, K beside -K and 2K, the cube beside the zonotope of the
    identity and beside that turned, and a triangle beside a zonotope with
    two generators in its plane."""
    cube = cube_body(3)
    K = hull(gen.normal(size=(8, 3)))
    plane, shift = np.linalg.qr(gen.normal(size=(3, 3)))[0][:2], gen.normal(size=3)
    c = math.sqrt(0.5)
    turn = np.array([[c, -c, 0.0], [c, c, 0.0], [0.0, 0.0, 1.0]])
    angles = 2.0 * math.pi * np.arange(5) / 5

    def flat(points):
        return hull(points @ plane + shift)

    def on_facet(k):
        return hull(np.column_stack([gen.uniform(-1.5, 1.5, size=(k, 2)), np.ones(k)]))

    yield cube, solid_simplex(3)
    yield K, translate(K, gen.normal(size=3))
    yield flat(gen.normal(size=(3, 2))), flat(gen.normal(size=(3, 2)))
    yield cube, translate(cube_body(3, 0.5), [0.5, 0.2, -0.5])
    yield cube, hull(cube.vertices @ turn.T)
    yield flat(gen.normal(size=(3, 2))), flat(np.column_stack([np.cos(angles), np.sin(angles)]))
    yield on_facet(3), cube
    yield on_facet(2), cube
    yield hull(np.array([[2.0, 0.3, -0.4], [2.0, 0.3, 0.9]])), cube
    yield K, hull(-K.vertices)
    yield K, scale(K, 2.0)
    yield cube, Zonotope(np.eye(3))
    yield cube, Zonotope(turn)
    G = np.vstack([gen.normal(size=(2, 2)) @ plane, gen.normal(size=(1, 3))])
    yield flat(gen.normal(size=(3, 2))), Zonotope(G)


def check_mixed_volume_oracle(seed: int = 0):
    """Mixed volumes against inclusion-exclusion on random bodies of every
    kind, and on the first three ``coincidence_test_pairs`` with a random
    third body."""
    gen = np.random.default_rng(seed)
    cases = [[_random_body(gen, len(kinds), k) for k in kinds] for kinds in (
        ("solid", "solid"), ("segment", "solid"), ("segment", "segment"),
        ("solid", "zonotope"), ("solid", "solid", "solid"),
        ("triangle", "solid", "solid"), ("triangle", "segment", "zonotope"),
        ("segment", "segment", "segment"),
    )]
    cases += [[A, B, _random_body(gen, 3, "solid")]
              for A, B in itertools.islice(coincidence_test_pairs(gen), 3)]
    worst = 0.0
    for bodies in cases:
        want = mixed_volume_inclusion_exclusion(bodies)
        worst = max(worst, abs(mixed_volume(bodies) - want) / abs(want))
    return worst <= 1e-9, f"max relative defect {worst:.2e}"


def check_mixed_projection_oracle(seed: int = 0):
    """Mixed projection supports against three-hull polarization on random
    bodies of every kind, and on the first three ``coincidence_test_pairs``."""
    gen = np.random.default_rng(seed)
    U = gen.normal(size=(4, 3))
    pairs = [tuple(_random_body(gen, 3, k) for k in kinds) for kinds in (
        ("solid", "solid"), ("triangle", "solid"), ("triangle", "triangle"),
        ("segment", "solid"), ("segment", "segment"), ("zonotope", "solid"),
        ("zonotope", "zonotope"),
    )]
    worst = 0.0
    for A, B in pairs + list(itertools.islice(coincidence_test_pairs(gen), 3)):
        want = mixed_projection_polarization(A, B, U)
        got = mixed_projection_support([A, B]).support_batch(U)
        worst = max(worst, float(np.max(np.abs(got - want) / want)))
    return worst <= 1e-9, f"max relative defect {worst:.2e}"


def check_projection_of_cube():
    worst = 0.0
    for n in (2, 3):
        Z = projection_body(cube_body(n))
        P = zonotope_to_vpolytope(Z)
        target = cube_body(n, 2.0 ** (n - 1))
        worst = max(worst, vertex_set_distance(P.vertices, target.vertices))
    return worst == 0.0, f"vertex distance {worst:.2e}"


def check_shadow_oracle(seed: int = 0):
    gen = np.random.default_rng(seed)
    worst = 0.0
    for n in (2, 3):
        for _ in range(10):
            K = reduced_form(hull(gen.normal(size=(n + 5, n))))
            Z = projection_body(K)
            for _ in range(5):
                u = gen.normal(size=n)
                u /= np.linalg.norm(u)
                worst = max(worst, abs(support(Z, u) - shadow_oracle(K, u)))
    return worst <= 1e-9, f"max shadow defect {worst:.2e}"


def check_centroid_support_cubature():
    square = cube_body(2)
    h = centroid_body_support(square)
    u = np.array([1.0, 0.0])
    exact = h(u[None, :])[0]
    est = centroid_support_cubature(square.vertices, u)
    defect = max(abs(exact - 0.5), abs(est - 0.5))
    tri = hull(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    ht = centroid_body_support(tri)
    for v in (np.array([1.0, 0.0]), np.array([0.6, -0.8])):
        defect = max(
            defect,
            abs(ht(v[None, :])[0] - centroid_support_cubature(tri.vertices, v)),
        )
    return defect <= 5e-3, f"max cubature defect {defect:.2e}"


def planar_test_clouds(gen: np.random.Generator, count: int, k: int = 5) -> np.ndarray:
    """Stacked planar clouds of k points, cycling through a random cloud, a
    collinear one and one whose last points repeat its first."""
    clouds = []
    for i in range(count):
        if i % 3 == 1:
            pts = np.outer(gen.normal(size=k), gen.normal(size=2)) + gen.normal(size=2)
        else:
            pts = gen.normal(size=(k, 2))
            if i % 3 == 2:
                pts[k // 2 + 1:] = pts[: k - k // 2 - 1]
        clouds.append(pts)
    return np.stack(clouds)


def cloud_widths_elementwise(P: np.ndarray, W: np.ndarray) -> np.ndarray:
    """``bodies.cloud_widths`` by three elementwise passes over a (T, k, N)
    array of pairings, with no matrix product: its oracle."""
    pairs = P[:, :, 0, None] * W[..., None, :, 0] + P[:, :, 1, None] * W[..., None, :, 1]
    return pairs.max(axis=1) - pairs.min(axis=1)


def check_planar_kernels(seed: int = 0):
    """The hull-free planar trial kernels against the hull route, on random,
    collinear and repeated-point clouds: widths against their elementwise
    oracle, within 8 eps max|p| max|w| absolute (a width cancels, so no
    relative bound fits), and against projection body supports, width sums
    against v1, pair-rule areas against hull areas,
    and the thm12 kernel generators, e / 2 over the hull edges e of a cloud
    and 2 g over the generators g of a zonotope, against the projection
    bodies the hull route builds, turned a quarter turn: their supports and
    their exact Gaussian polar measures, where the kernels claim to hold;
    and the masks that send clouds to the hull."""
    gen = np.random.default_rng(seed)
    P = planar_test_clouds(gen, 12)
    U = sphere_directions(2, 64)
    perp = np.column_stack([-U[:, 1], U[:, 0]])
    Z = gen.normal(size=(len(P), 3, 2))
    Zperp = np.stack([-Z[..., 1], Z[..., 0]], axis=-1)
    widths, zwidths = cloud_widths(P, perp), cloud_widths(P, Zperp)
    pairings = zwidths.sum(axis=1)
    width_gap = max(float(np.max(np.abs(got - cloud_widths_elementwise(P, W))))
                    / (8.0 * np.finfo(float).eps * np.abs(P).max() * np.abs(W).max())
                    for got, W in ((widths, perp), (zwidths, Zperp)))
    areas, areas_hold = planar_hull_areas(P)
    edges, edges_hold = planar_hull_edges(P)
    full = full_dimensional(P)
    spans = full_rank(P)
    nu = RadialMeasure.gaussian(0.8)
    pairs = []
    masks_ok = True
    for t, X in enumerate(P):
        K = hull(X)
        pairs += [
            (widths[t], mixed_projection_support([K]).support_batch(U)),
            (pairings[t], v1(K, Zonotope(Z[t]))),
        ]
        for G, holds, body in ((0.5 * edges, edges_hold, K), (2.0 * P, spans, Zonotope(X))):
            if holds[t]:
                Pi = projection_body(body)
                pairs += [(Zonotope(G[t]).support_batch(perp), Pi.support_batch(U)),
                          (planar_polar_measures(G[t:t + 1], nu)[0],
                           planar_polar_measures(Pi.generators[None], nu)[0])]
        if areas_hold[t]:
            pairs.append((areas[t], volume(K)))
        masks_ok &= (bool(full[t]) == (t % 3 != 1) and bool(spans[t]) == spans_space(X)
                     and bool(areas_hold[t]) == bool(edges_hold[t]) == (t % 3 == 0))
    worst = max(float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
                for got, want in pairs)
    return worst <= 1e-12 and width_gap <= 1.0 and masks_ok, (
        f"max relative defect {worst:.2e}, widths at {width_gap:.2f} of their oracle bound, "
        f"masks ok: {masks_ok}")


def spatial_test_clouds(gen: np.random.Generator, count: int, k: int = 4) -> np.ndarray:
    """Stacked spatial clouds of k points, cycling through a random cloud, a
    coplanar one, a collinear one and one whose last points repeat its
    first; the flat ones sit off the origin."""
    clouds = []
    for i in range(count):
        if i % 4 == 1:
            pts = gen.normal(size=(k, 2)) @ gen.normal(size=(2, 3)) + gen.normal(size=3)
        elif i % 4 == 2:
            pts = np.outer(gen.normal(size=k), gen.normal(size=3)) + gen.normal(size=3)
        else:
            pts = gen.normal(size=(k, 3))
            if i % 4 == 3:
                pts[k // 2 + 1:] = pts[: k - k // 2 - 1]
        clouds.append(pts)
    return np.stack(clouds)


def check_spatial_kernels(seed: int = 0):
    """The generator forms of the spatial trial kernels against the
    surface-measure route, on random, coplanar, collinear and repeated-point
    clouds: tetrahedra against the projection body of their hull, zonotopes
    against that of their vertex form, zonotope pairs against the mixed
    projection support of their vertex forms.  The masks the trials use
    must agree with the hull's dimension (tetrahedra) or with the SVD rank
    of the generator rows (zonotopes); flat bodies are compared only through
    the mask, since the trials send them to the hull route."""
    gen = np.random.default_rng(seed)
    U = sphere_directions(3, 64)
    P = spatial_test_clouds(gen, 8, 4)
    A = spatial_test_clouds(gen, 6, 3)
    B = gen.normal(size=A.shape)

    def vertex_form(G):
        return zonotope_to_vpolytope(Zonotope(G))

    forms = [
        (tetrahedron_projection_generators(P),
         full_dimensional(P),
         lambda t: hull(P[t]).affine_dim == 3,
         lambda t: mixed_projection_support([hull(P[t])] * 2).support_batch(U)),
        (zonotope_projection_generators(A), full_rank(A),
         lambda t: spans_space(A[t]),
         lambda t: mixed_projection_support([vertex_form(A[t])] * 2).support_batch(U)),
        (mixed_projection_generators(A, B), full_rank(A) & full_rank(B),
         lambda t: spans_space(A[t]) and spans_space(B[t]),
         lambda t: mixed_projection_support([vertex_form(A[t]), vertex_form(B[t])]).support_batch(U)),
    ]
    worst = 0.0
    masks_ok = True
    for G, full, expected, oracle in forms:
        for t in range(len(G)):
            masks_ok &= bool(full[t]) == expected(t)
            if full[t]:
                want = oracle(t)
                got = Zonotope(G[t]).support_batch(U)
                worst = max(worst, float(np.max(np.abs(got - want)) / np.max(want)))
    return worst <= 1e-12 and masks_ok, f"max relative defect {worst:.2e}, masks ok: {masks_ok}"


def tetrahedron_test_pairs(gen: np.random.Generator, count: int) -> tuple:
    """Stacked pairs of four-point clouds (P, Q), cycling through six kinds:
    a random pair; Q with a face parallel to a face of P; the same face
    tilted by 1e-5; Q with an edge parallel to an edge of P; the same edge
    tilted by 1e-5; a coplanar P.  The exact degeneracies sit at kinds 1,
    3 and 5."""
    P = gen.normal(size=(count, 4, 3))
    Q = gen.normal(size=(count, 4, 3))
    for t in range(count):
        p, q = P[t], Q[t]
        kind = t % 6
        if kind in (1, 2):
            n = np.cross(p[1] - p[0], p[2] - p[0])
            n /= np.linalg.norm(n)
            tilt = 1e-5 * (kind == 2) * np.array([0.0, 1.0, -1.0])
            q[:3] -= np.outer((q[:3] - q[0]) @ n - tilt, n)
        elif kind in (3, 4):
            q[1] = q[0] + 0.7 * (p[1] - p[0]) + 1e-5 * (kind == 4) * gen.normal(size=3)
        elif kind == 5:
            p[3] = p[0] + 0.3 * (p[1] - p[0]) + 0.5 * (p[2] - p[0])
    return P, Q


def check_tetrahedron_pair_kernels(seed: int = 0):
    """The edge-pair kernels of two tetrahedra against the hull oracles, on
    random and near-degenerate pairs (``tetrahedron_test_pairs``): the
    support of Pi(A, B) against three-hull polarization, and V(A, B, C)
    for a coarse ball C against inclusion-exclusion.  The mask must send
    exactly the degenerate pairs to the hull route, and there the hull
    route's ``mixed_projection_support`` and ``mixed_volume``, which take
    the tie rule, face the same oracles.  A held pair's row must hold as
    many nonzero rows, all in front, as the hull route's measure has
    atoms, and those at most TETRAHEDRON_PAIR_ATOMS."""
    gen = np.random.default_rng(seed)
    P, Q = tetrahedron_test_pairs(gen, 6)
    U = gen.normal(size=(2, 3))
    C = ball_body(3, facets=12)
    stack, holds = tetrahedron_pair_normals(P, Q)
    worst, atoms_ok = 0.0, True
    masks_ok = holds.tolist() == [True, False] * 3
    for t, W in enumerate(stack):
        A, B = hull(P[t]), hull(Q[t])
        if holds[t]:
            atoms = len(mixed_area_measure([A, B])[1])
            front = np.arange(len(W)) < atoms
            atoms_ok &= atoms <= TETRAHEDRON_PAIR_ATOMS and np.array_equal(W.any(axis=1), front)
            Pi, V = Zonotope(0.25 * W), float(C.support_batch(W).sum()) / 6.0
        else:
            Pi, V = mixed_projection_support([A, B]), mixed_volume([A, B, C])
        want = mixed_projection_polarization(A, B, U)
        worst = max(worst, float(np.max(np.abs(Pi.support_batch(U) - want) / want)))
        want = mixed_volume_inclusion_exclusion([A, B, C])
        worst = max(worst, abs(V - want) / want)
    return worst <= 1e-9 and masks_ok and atoms_ok, (f"max relative defect {worst:.2e}, masks ok: "
                                                     f"{masks_ok}, atoms ok: {atoms_ok}")


def zonotope_polar_test_cases(gen: np.random.Generator) -> list:
    """(zonotope, known |Z°| or None) pairs: projection bodies of random
    hulls in the plane and in space, the square (2), the cube (4/3), a
    zonotope with three coplanar generators, and one with two generators
    parallel to within 1e-10."""
    cases = [(projection_body(hull(gen.normal(size=(8, n)))), None)
             for n in (2, 2, 3, 3)]
    cases += [(Zonotope(np.eye(2)), 2.0), (Zonotope(np.eye(3)), 4.0 / 3.0)]
    coplanar = gen.normal(size=(5, 3))
    coplanar[2] = 0.6 * coplanar[0] - 1.3 * coplanar[1]
    near = gen.normal(size=(5, 3))
    near[1] = 2.0 * near[0] + 1e-10 * gen.normal(size=3)
    return cases + [(Zonotope(coplanar), None), (Zonotope(near), None)]


def check_zonotope_polar_volume(seed: int = 0):
    """The closed-form polar volume of a zonotope against the hull volume of
    its polar polytope, and against the known value where there is one."""
    gen = np.random.default_rng(seed)
    worst = 0.0
    for Z, known in zonotope_polar_test_cases(gen):
        got = zonotope_polar_measure(Z)
        for want in (volume(polar_of_zonotope(Z)), known):
            if want is not None:
                worst = max(worst, abs(got - want) / want)
    return worst <= 1e-12, f"max relative defect {worst:.2e}"


def planar_polar_test_zonotopes(gen: np.random.Generator) -> list:
    """(zonotope, flat) pairs: two random planar zonotopes, a needle of four
    generators within about 1e-4 of one line, and a flat one of three
    parallel generators."""
    g = gen.normal(size=2)
    return [(Zonotope(gen.normal(size=(4, 2))), False), (Zonotope(gen.normal(size=(7, 2))), False),
            (Zonotope(np.outer(gen.uniform(0.5, 2.0, size=4), g)
                      + 1e-4 * gen.normal(size=(4, 2))), False),
            (Zonotope(np.outer([1.0, -2.5, 0.7], g)), True)]


def check_planar_polar_measures(seed: int = 0):
    """The exact planar polar measures of merged generators against two
    oracles, on random, needle and flat zonotopes: the 2^16-node grid of
    ``polar_measure`` under Gaussian measure and the ball measures whose
    disc lies inside the polar or crosses its boundary, and the polar hull
    volume under Lebesgue measure and a ball that holds the whole polar (not
    for the flat zonotope, whose polar is a strip)."""
    gen = np.random.default_rng(seed)
    U = sphere_directions(2, 1 << 16)
    grid = exact = 0.0
    for Z, flat in planar_polar_test_zonotopes(gen):
        G = merge_parallel_generators(Z).generators[None]
        hv = Z.support_batch(U)
        low, high = float(hv.min()), float(hv.max())
        for nu in (RadialMeasure.gaussian(0.8), RadialMeasure.ball(0.5 / high),
                   RadialMeasure.ball(2.0 / (low + high))):
            want = polar_measure_from_support(hv, nu, 2)
            grid = max(grid, abs(planar_polar_measures(G, nu)[0][0] - want) / want)
        if not flat:
            want = volume(polar_of_zonotope(Z))
            for nu in (None, RadialMeasure.ball(2.0 / low)):
                exact = max(exact, abs(planar_polar_measures(G, nu)[0][0] - want) / want)
    return grid <= 1e-8 and exact <= 1e-11, (f"max relative defect {grid:.2e} against the grid, "
                                             f"{exact:.2e} against the polar hull")


def spatial_polar_test_zonotopes(gen: np.random.Generator) -> list:
    """(generator rows, needle) pairs of spatial zonotopes: the projection
    bodies of a random tetrahedron and of a needle one 1e-3 thin, a 3 x 3
    mixed zonotope (its rows a_i x b_j make coplanar triples by design), and
    the edge-pair row of a random tetrahedron pair, zero rows and all."""
    P = gen.normal(size=(2, 4, 3))
    P[1] = (P[1] * [1.0, 1e-3, 1e-3]) @ np.linalg.qr(gen.normal(size=(3, 3)))[0]
    tets = tetrahedron_projection_generators(P)
    mixed = mixed_projection_generators(gen.normal(size=(1, 3, 3)), gen.normal(size=(1, 3, 3)))
    stack, holds = tetrahedron_pair_normals(*gen.normal(size=(2, 8, 4, 3)))
    return [(tets[0], False), (tets[1], True), (mixed[0], False), (0.25 * stack[holds][0], False)]


def check_spatial_polar_measures(seed: int = 0):
    """The arc walk of ``spatial_polar_measures`` against three oracles on
    ``spatial_polar_test_zonotopes``: the polar hull volume under Lebesgue
    measure (the needle too), the 2^16-node grid of ``polar_measure`` under a
    Gaussian and a ball that crosses the polar's boundary, and in the grid's
    place on the needle the Gaussian rule of four times POLAR_WALK_ORDER.
    The grid runs in blocks of 2^12 nodes (the mean of equal blocks' polar
    measures is the whole grid's), so the check holds a few MB; 2^16 nodes
    keep it near 30 ms, where the grid's own error is some 1e-5 (2^18 nodes
    take 22 ms and 7 MB for the node set alone)."""
    gen = np.random.default_rng(seed)
    U = sphere_directions(3, 1 << 16)
    fine = np.polynomial.legendre.leggauss(4 * POLAR_WALK_ORDER)
    exact = grid = order = 0.0
    for G, needle in spatial_polar_test_zonotopes(gen):
        Z = Zonotope(G)
        want = volume(polar_of_zonotope(Z))
        exact = max(exact, abs(spatial_polar_measures(G[None])[0][0] - want) / want)
        if needle:
            nu = RadialMeasure.gaussian(0.8)
            want = _stacked_walk(G[None], nu, fine)[0][0]
            order = max(order, abs(spatial_polar_measures(G[None], nu)[0][0] - want) / want)
            continue
        blocks = [Z.support_batch(U[s:s + (1 << 12)]) for s in range(0, len(U), 1 << 12)]
        low, high = min(hv.min() for hv in blocks), max(hv.max() for hv in blocks)
        for nu in (RadialMeasure.gaussian(0.8), RadialMeasure.ball(2.0 / (low + high))):
            want = np.mean([polar_measure_from_support(hv, nu, 3) for hv in blocks])
            grid = max(grid, abs(spatial_polar_measures(G[None], nu)[0][0] - want) / want)
    ok = exact <= 1e-11 and grid <= 1e-4 and order <= 1e-5
    return ok, (f"max relative defect {exact:.2e} against the polar hull, {grid:.2e} against "
                f"the grid, {order:.2e} against order {4 * POLAR_WALK_ORDER} on the needle")


def grid_table_test_generators(gen: np.random.Generator, k: int) -> np.ndarray:
    """Three mixed projection bodies of k generators 2 a_i x b_j (the first k
    of them), shape (3, k, 3), with a and b uniform points of the cube over
    their counts p and q, pq >= k, as cor13 builds them: a random one, one
    whose a is 0.05 thin along an axis and one whose a is a needle (1e-3 on
    two axes), each a turned at random."""
    p = math.ceil(math.sqrt(k))
    q = math.ceil(k / p)
    out = []
    for squash in ([1.0, 1.0, 1.0], [1.0, 1.0, 0.05], [1.0, 1e-3, 1e-3]):
        A = (gen.uniform(-1.0, 1.0, size=(p, 3)) / p * squash) @ np.linalg.qr(
            gen.normal(size=(3, 3)))[0]
        B = gen.uniform(-1.0, 1.0, size=(1, q, 3)) / q
        out.append(mixed_projection_generators(A[None], B)[0, :k])
    return np.array(out)


def grid_table_error(G: np.ndarray, nodes: int) -> float:
    """The relative error of the ``nodes``-node grid against the walk of
    ``zonotope_polar_measure`` for the spatial zonotope with generator rows
    G, under the Gaussian of scale 1 that the grid rows of
    ``projections.POLAR_RULES`` were measured with."""
    nu = RadialMeasure.gaussian(1.0)
    want = zonotope_polar_measure(Zonotope(G), nu)
    return abs(polar_measures(G[None], nu, nodes)[0][0] - want) / want


def check_grid_table(seed: int = 0):
    """Each Gaussian grid row of ``projections.POLAR_RULES`` at its first
    generator count, on the three bodies of ``grid_table_test_generators``:
    the grid of the row's nodes within POLAR_GRID_TOL of the walk.  The
    test suite sweeps every count of each row.  The ball's row is not held
    to the bound (see the table)."""
    gen = np.random.default_rng(seed)
    rows = [(k, n) for k, n in POLAR_RULES["gaussian"] if n]
    worst = max(grid_table_error(G, nodes) for k, nodes in rows
                for G in grid_table_test_generators(gen, k))
    return worst <= POLAR_GRID_TOL, (f"max relative error {worst:.2e} over {len(rows)} rows "
                                     f"(bound {POLAR_GRID_TOL:.0e})")


def check_block_streams(seed: int = 0):
    """The block route against the per-trial one, bit for bit: its Philox
    keys against numpy's SeedSequence, its uniform, ball and Gaussian
    samples in the plane and in space against each trial's own generator
    and ``Density.sample``, over blocks of 1, 7 and 64 trials.  The block of
    64 ends at the largest index under a three-word seed; to stay within a
    few milliseconds it draws the uniform density alone, whose finish has the
    most steps."""
    gen = np.random.default_rng(seed)
    keys = entries = trials = 0
    for dim, count, entropy, side, first, kinds in (
            (2, 1, seed, 0, 0, 3),
            (3, 7, int(gen.integers(2 ** 62)), 5, int(gen.integers(2 ** 20)), 3),
            (2, 64, 2 ** 64 + 3, 1, INDEX_LIMIT - 64, 1)):
        stream = RngStream(entropy, (side,))
        want = [np.random.SeedSequence(entropy, spawn_key=(side, i)).generate_state(2, np.uint64)
                for i in range(first, first + count)]
        keys += int(np.count_nonzero(stream.child_keys(first, count) != np.array(want)))
        draws = [(Density.uniform(cube_body(dim, 0.7)), 3), (Density.ball(dim, 1.5), 2),
                 (Density.gaussian(dim, 0.5), 2)][:kinds]
        for a, b in zip(draw_block(stream, first, count, draws),
                        draw_per_trial(stream, first, count, draws)):
            entries += int(np.count_nonzero(a.view(np.uint64) != b.view(np.uint64)))
        trials += count
    return keys == entries == 0, (f"{keys} keys and {entries} sample entries differ "
                                  f"over {trials} trials")


CHECKS = [
    ("hull vs gift wrapping", check_hull_oracle),
    ("support vs brute maxima", check_support_oracle),
    ("simplex volume vs determinant", check_simplex_volume),
    ("zonotope volume det vs hull", check_zonotope_volume),
    ("polar involution", check_polar_involution),
    ("mixed volume polarization fit", check_mixed_volume_fit),
    ("mixed volume vs inclusion-exclusion", check_mixed_volume_oracle),
    ("mixed projection vs three-hull polarization", check_mixed_projection_oracle),
    ("projection body of the cube", check_projection_of_cube),
    ("projection support vs shadow hull", check_shadow_oracle),
    ("centroid body support vs cubature", check_centroid_support_cubature),
    ("planar trial kernels vs hull route", check_planar_kernels),
    ("spatial trial kernels vs hull route", check_spatial_kernels),
    ("tetrahedron pair kernels vs oracles", check_tetrahedron_pair_kernels),
    ("zonotope polar volume vs polar hull", check_zonotope_polar_volume),
    ("planar polar measures vs grid and polar hull", check_planar_polar_measures),
    ("spatial polar measures vs grid and polar hull", check_spatial_polar_measures),
    ("sized spatial grid vs walk", check_grid_table),
    ("block streams vs per-trial generators", check_block_streams),
]


def run_all() -> bool:
    """Run every check and print one line each: its verdict, name, detail and
    wall time in milliseconds."""
    ok_all = True
    for name, fn in CHECKS:
        start = time.perf_counter()
        ok, detail = fn()
        took = (time.perf_counter() - start) * 1e3
        ok_all &= ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail} ({took:.1f} ms)")
    return ok_all
