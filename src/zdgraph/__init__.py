"""Finite rings, their ideal-product semigroups, and zero-divisor graphs."""

from .expr import (
    Cyclic,
    Matrix,
    ParseError,
    Product,
    RingExpr,
    TableFile,
    build_ring,
    parse_ring_expr,
    unparse,
)
from .graphs import (
    INF,
    GraphMetrics,
    ZdGraph,
    compute_graph_metrics,
    directed_zd_graph,
    export_dot,
)
from .ideals import (
    OneSidedIdeal,
    additive_generators,
    enumerate_one_sided_ideals,
)
from .report import AnalysisReport, CheckResult, write_report_json
from .rings import (
    DEFAULT_SIZE_CAP,
    CapacityError,
    ElementSet,
    FiniteRing,
    RingValidationError,
    TableFormatError,
    load_table_ring,
    make_cyclic_ring,
    make_matrix_ring,
    make_product_ring,
    validate_ring,
)
from .semigroups import (
    AnnSets,
    ClosureViolationError,
    FiniteSemigroupWithZero,
    SemigroupValidationError,
    ann_sets,
    build_ipo,
    enumerate_semigroups_with_zero,
    validate_semigroup,
)
from .theorems import (
    RingAnalysis,
    annihilating_ideal_graph,
    check_directed_connectivity_iff,
    check_duo_ann_sets,
    check_girth_bound,
    check_matrix_diam_lower,
    check_matrix_diam_monotone,
    check_matrix_girth,
    check_not_tournament,
    check_undirected_connectivity,
    classify_completeness,
    constructive_path,
    prepare_ring_analysis,
    run_all,
    semigroup_checks,
)

__version__ = "0.1.0"
