"""Toolkit for Diophantine graphs: finite graphs on distinct positive
integers where two vertices are adjacent exactly when their product plus
one is a perfect square.

The names below are resolved on first use (PEP 562), so importing the
package imports no submodule: a command that does no array work never
loads numpy.
"""

from importlib import import_module

_EXPORTS = {
    "analysis": (
        "HamiltonPathResult",
        "OmegaDistribution",
        "PruneTrace",
        "hamiltonian_cycle_exists",
        "hamiltonian_path_exists",
        "heuristic_top",
        "near_hamiltonian_path",
        "omega_distribution",
        "prune_low_degree",
    ),
    "coloring": (
        "ColoringResult",
        "chromatic_number",
        "k_colorable",
        "minimality_check",
        "mod4_coloring_shift2",
    ),
    "extension": (
        "NeighborBudgetError",
        "RegularTriple",
        "common_neighbors_bounded",
        "common_neighbors_equal_sqfree",
        "extend_double",
        "extend_isolated",
        "extend_pendant",
        "family_k5_minus_edge",
        "regular_extensions",
        "represent_graph",
    ),
    "graph": (
        "DiophGraph",
        "GraphStats",
        "build_range",
        "build_set",
        "degree_bound_check",
        "edge_test",
        "induced",
        "remove_vertex",
        "stats",
    ),
    "numtheory": (
        "Factorization",
        "FactorizationBudgetError",
        "count_unit_roots",
        "factorize",
        "is_square",
        "square_free_part",
        "unit_roots_mod",
    ),
    "pell": (
        "PellInstance",
        "PellOrbit",
        "PellUnit",
        "fundamental_unit",
        "orbit",
        "unit_order_mod",
    ),
    "witnesses": (
        "C6_COMPLEMENT_WITNESS",
        "FIVE_CHROMATIC_WITNESS",
        "K4_WITNESS",
        "K5_MINUS_EDGE_WITNESS",
    ),
}

_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _SUBMODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SUBMODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
