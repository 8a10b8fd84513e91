"""Exact spanning-tree arithmetic for cyclic covers of finite graphs."""

from .errors import (
    HypothesisViolation,
    OrderUnavailable,
    PrecisionExhausted,
    ResourceLimit,
    TowerError,
    VerificationMismatch,
)
from .graph_core import (
    SerreGraph,
    build_graph,
    euler_characteristic,
    is_connected,
    spanning_tree_count,
    spanning_tree_count_bruteforce,
)
from .ihara import (
    TowerAnalysis,
    analyze,
    ihara_polynomial,
    kappa_sequence,
    kappa_via_formula,
    pierce_lehmer,
    pierce_lehmer_range,
    resultant_row,
    verify_tower,
)
from .mahler import (
    ArchMeasure,
    PadicMeasure,
    archimedean_asymptotic,
    count_unit_circle_roots,
    mahler_archimedean,
    mahler_padic,
    padic_asymptotic_no_unit_roots,
)
from .padic_engine import (
    NewtonPolygon,
    PadicReport,
    UnitRootStructure,
    factor_mod_p,
    friedman_laws,
    iwasawa_invariants,
    lambda_for_n,
    multiplicative_order,
    newton_polygon,
    nu_from_oracle,
    nu_structural,
    ord_delta_exact,
    padic_report,
    sequence_classes,
    unit_root_structure,
    washington_invariants,
)
from .polyring import (
    IntPoly,
    LaurentPoly,
    divide_exact,
    geometric_quotient,
    is_self_reciprocal,
    ord_at,
    poly_matrix_det,
    resultant,
)
from .voltage_cover import (
    VoltageAssignment,
    VoltagedGraph,
    derived_graph,
    fundamental_cycle_voltages,
    monodromy_index,
    voltaged_graph,
)

__version__ = "0.1.0"
