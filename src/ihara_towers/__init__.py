"""Exact spanning-tree arithmetic for cyclic covers of finite graphs.

Importing the package loads none of its modules: each name below is
imported from its module on first use (PEP 562), so a caller that needs
the Ihara polynomial never loads the p-adic engine, and one that needs a
p-adic Mahler measure loads the primality module primes but not the engine.
Every record is a collections.namedtuple, so no module imports dataclasses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "errors": (
        "HypothesisViolation", "OrderUnavailable", "PrecisionExhausted",
        "ResourceLimit", "TowerError", "VerificationMismatch",
    ),
    "graph_core": (
        "SerreGraph", "build_graph", "euler_characteristic", "is_connected",
        "spanning_tree_count", "spanning_tree_count_bruteforce",
    ),
    "ihara": (
        "TowerAnalysis", "analyze", "ihara_polynomial", "kappa_sequence",
        "kappa_via_formula", "pierce_lehmer", "pierce_lehmer_range",
        "resultant_row", "verify_tower",
    ),
    "mahler": (
        "ArchMeasure", "PadicMeasure", "archimedean_asymptotic",
        "count_unit_circle_roots", "mahler_archimedean", "mahler_padic",
        "padic_asymptotic_no_unit_roots",
    ),
    "padic_engine": (
        "NewtonPolygon", "PadicReport", "UnitRootStructure", "factor_mod_p",
        "friedman_laws", "iwasawa_invariants", "lambda_for_n",
        "multiplicative_order", "newton_polygon", "nu_from_oracle",
        "nu_structural", "ord_delta_exact", "padic_report",
        "sequence_classes", "unit_root_structure", "washington_invariants",
    ),
    "polyring": (
        "IntPoly", "LaurentPoly", "divide_exact", "is_self_reciprocal",
        "poly_matrix_det", "resultant",
    ),
    "voltage_cover": (
        "VoltagedGraph", "derived_graph", "fundamental_cycle_voltages",
        "monodromy_index", "voltaged_graph",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    # Submodule names are not in the table: `from ihara_towers import mahler`
    # gets this AttributeError and falls through to the import system.
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
