"""Convex-geometry workbench for projection bodies, mixed volumes, and
randomized rearrangement experiments in the plane and in space."""

import gc as _gc

from .bodies import (
    GeometryError,
    MSpec,
    VPolytope,
    Zonotope,
    ball_body,
    cross_body,
    cube_body,
    hull,
    lp_ball_body,
    m_add,
    minkowski_sum,
    polar,
    polar_of_zonotope,
    reduced_form,
    regular_polygon,
    scale,
    segment,
    solid_simplex,
    sphere_directions,
    support,
    translate,
    unit_ball_volume,
    vertex_set_distance,
    volume,
    zonotope_to_vpolytope,
    zonotope_volume,
)
from .mixed import (
    centroid,
    facets,
    mixed_area_measure,
    mixed_volume,
    surface_area,
    v1,
)
from .projections import (
    RadialMeasure,
    SupportEvaluator,
    cauchy_surface_bound_defect,
    centroid_body_support,
    mixed_projection_support,
    petty_product,
    polar_measure,
    polar_projection_polytope,
    projection_body,
    zonotope_polar_measure,
)
from .sampling import Density, RngStream
from .stats import EstimateWithCI, classify, summarize
from .symmetrize import (
    ShadowSystem,
    chord_profiles,
    chord_shadow_system,
    rearrange_body,
    shadow_at,
    shadow_convexity_probe,
    steiner_symmetrize,
)
from .harness import (
    ConfigError,
    body_from_literal,
    estimate,
    run_corollary_1_3,
    run_emp_mixed,
    run_emp_petty_2,
    run_lln,
    run_theorem_1_1,
    run_theorem_1_2,
)

__version__ = "0.1.0"

# numpy, scipy and the modules above leave some 45 thousand objects that live
# as long as the interpreter, and no full collection has run by the time the
# import ends: the first one (15-30 ms on a 2-vCPU Xeon virtual machine,
# longer than a whole 3-D mixed projection report at 8192 nodes) would land
# on whichever call comes next.  Run it here, once, and freeze the survivors
# so that later full collections skip them; forked pool workers then also
# share those pages instead of copying them.
_gc.collect()
_gc.freeze()

__all__ = [name for name in dir() if not name.startswith("_")]
