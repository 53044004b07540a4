"""Maps on orientable surfaces: surgery, bijections, enumeration."""

from .errors import (
    BudgetError,
    InternalCheckError,
    MapFormatError,
    PreconditionError,
    StructureError,
    SurfmapError,
)
from .rotmap import (
    Corner,
    MapDiagnostics,
    RotationMap,
    add_edge_in_face,
    add_vertex_star,
    corner_face,
    delete_edges,
    delete_vertex_star,
    face_corners,
    next_corner,
    random_rotation_map,
    validate,
)
from .mapio import normalize_darts, parse_map_text, write_map_text
from .labeling import (
    LabeledMap,
    distance_labeling,
    distance_labels,
    edge_variation,
    has_small_variations,
    is_embedded,
    is_well_labeled,
    relabel_nu,
    shift_min_1,
)
from .census import (
    DEFAULT_BUDGETS,
    enumerate_embedded_trees,
    enumerate_g_trees,
    enumerate_quadrangulations,
    enumerate_rooted_maps,
    enumerate_well_labeled_trees,
    iter_one_face_maps,
    iter_quadrangulations_direct,
    iter_rooted_maps,
)
from .quad import bipartition, check_quadrangulation, map_to_quad, quad_to_map
from .bijection import (
    OpeningResult,
    PointedQuad,
    close,
    close_rooted,
    close_rooted_pointed,
    open_rooted,
    open_rooted_pointed,
    predecessor,
)
from .bijection import open  # noqa: A004 - the operation is called "open"
from .sampler import (
    DistanceProfile,
    SampleResult,
    distance_profile,
    sample_embedded_tree,
    sample_quadrangulation,
)
from .schemes import (
    DProfile,
    MotzkinWalk,
    ReducedTree,
    Scheme,
    SchemeDecomposition,
    d_profile,
    dominant_schemes,
    enumerate_schemes,
    extract_scheme,
    graft,
    iter_schemes,
    rebuild,
)
from .schemes import reduce  # noqa: A004 - the operation is called "reduce"
from .series import (
    AsymptoticConstant,
    LaurentPoly,
    TruncatedSeries,
    ULaurentRational,
    asympt_constant,
    rhat,
    rhat_exact,
    series_B,
    series_M,
    series_Q_bullet,
    series_Qg,
    series_T,
    series_Tg,
    series_U,
    tau,
    to_t_rational,
    u_symmetry_check,
    weight,
    weight_series,
)
from .verify import (
    CheckResult,
    VerificationReport,
    check_names,
    run_verification,
)

__version__ = "0.1.0"
