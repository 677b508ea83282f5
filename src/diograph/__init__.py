"""Toolkit for Diophantine graphs: finite graphs on distinct positive
integers where two vertices are adjacent exactly when their product plus
one is a perfect square."""

from .analysis import (
    HamiltonPathResult,
    OmegaDistribution,
    PruneTrace,
    hamiltonian_cycle_exists,
    hamiltonian_path_exists,
    heuristic_top,
    near_hamiltonian_path,
    omega_distribution,
    prune_low_degree,
)
from .coloring import (
    ColoringResult,
    chromatic_number,
    k_colorable,
    minimality_check,
    mod4_coloring_shift2,
)
from .extension import (
    RegularTriple,
    common_neighbors_bounded,
    common_neighbors_equal_sqfree,
    extend_double,
    extend_isolated,
    extend_pendant,
    family_k5_minus_edge,
    regular_extensions,
    represent_graph,
)
from .graph import (
    DiophGraph,
    GraphStats,
    build_range,
    build_set,
    degree_bound_check,
    edge_test,
    induced,
    remove_vertex,
    stats,
)
from .numtheory import (
    Factorization,
    FactorizationBudgetError,
    count_unit_roots,
    factorize,
    is_square,
    square_free_part,
    unit_roots_mod,
)
from .pell import PellInstance, PellOrbit, PellUnit, fundamental_unit, orbit, unit_order_mod
from .witnesses import (
    C6_COMPLEMENT_WITNESS,
    FIVE_CHROMATIC_WITNESS,
    K4_WITNESS,
    K5_MINUS_EDGE_WITNESS,
)

__version__ = "0.1.0"
