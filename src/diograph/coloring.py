"""k-colorability by candidate-set propagation plus branching.

The search keeps a candidate color set per vertex, as a bitmask over the
k colors.  Deciding a vertex sweeps its color out of all neighboring
sets; sets that shrink to a single color cascade, and an emptied set
kills the branch.  One propagator, `_propagate`, does this for the
initial clique and after every decision.  The decided vertices are
exactly those whose set holds one color, so no other record of them is
kept: a vertex is swept once, when its set reaches one color.  Case
distinctions copy the whole candidate table (an explicit stack, no trail
undo), so the peak number of simultaneously open branches is directly
observable.  Symmetry is broken by pre-assigning colors 0..c-1 to a
maximal clique: the quadruple {1, 3, 8, 120} when it is a clique at
shift 1, otherwise a clique collected greedily along the branch order.

A "colorable" verdict always carries an assignment that has been checked
against every edge before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import DiophGraph, remove_vertex
from .witnesses import K4_WITNESS

__all__ = [
    "ColorStats",
    "ColoringResult",
    "MinimalityReport",
    "chromatic_number",
    "k_colorable",
    "minimality_check",
    "mod4_coloring_shift2",
]


@dataclass
class ColorStats:
    """branches: case distinctions opened; peak_open: most copies alive
    at once; propagation_steps: candidate colors deleted by sweeping."""

    branches: int = 0
    peak_open: int = 0
    propagation_steps: int = 0


@dataclass
class ColoringResult:
    colorable: bool
    assignment: dict[int, int] | None
    stats: ColorStats = field(default_factory=ColorStats)


def _symmetry_clique(G: DiophGraph, order: list[int]) -> list[int]:
    if G.shift == 1 and all(G.has_edge(a, b) for a in K4_WITNESS for b in K4_WITNESS if a < b):
        return list(K4_WITNESS)
    clique: list[int] = []
    for v in order:
        if all(G.has_edge(v, u) for u in clique):
            clique.append(v)
    return clique


def _verify_coloring(
    G: DiophGraph, assignment: dict[int, int], what: str = "engine returned an improper coloring"
) -> None:
    """Raise RuntimeError(what: a and b share c) at the first edge (a, b)
    whose ends share the color c."""
    for a, b in G.edges():
        if assignment[a] == assignment[b]:
            raise RuntimeError(f"{what}: {a} and {b} share {assignment[a]}")


def _propagate(
    table: list[int], adj: list[tuple[int, ...]], queue: list[int], stats: ColorStats
) -> bool:
    """Unit-propagate in place: each queued vertex's single color leaves
    its neighbors' masks, and a deletion that leaves one color queues that
    neighbor.  Such a mask had two colors before, masks only shrink, and
    branching only splits masks of two or more, so a vertex is queued at
    most once, when it reaches one color.  Returns False once a mask
    empties, else True, whose fixpoint and deletion count do not depend on
    queue or adjacency order."""
    while queue:
        v = queue.pop()
        mask = table[v]
        for u in adj[v]:
            cu = table[u]
            if cu & mask:
                cu &= ~mask
                stats.propagation_steps += 1
                if not cu:
                    return False
                table[u] = cu
                if cu & (cu - 1) == 0:
                    queue.append(u)
    return True


def k_colorable(
    G: DiophGraph, k: int, branch_order: list[int] | None = None
) -> ColoringResult:
    """Decide k-colorability; sound and complete for the fixed k.

    Branching follows `branch_order` (default: the graph's vertex order),
    assigning candidate colors in increasing numeric order, with a
    propagation pass after every decision.
    """
    order = list(branch_order) if branch_order is not None else list(G.vertices)
    if sorted(order) != list(G.vertices):
        raise ValueError("branch_order must be a permutation of the vertices")
    stats = ColorStats()
    n = len(order)
    if n == 0:
        return ColoringResult(True, {}, stats)
    if k <= 0:
        return ColoringResult(False, None, stats)
    k = min(k, n)  # n colors always suffice; wider masks only cost memory

    index = {v: i for i, v in enumerate(order)}
    adj = [tuple(index[u] for u in G.adjacency[v]) for v in order]

    clique = _symmetry_clique(G, order)
    if len(clique) > k:
        return ColoringResult(False, None, stats)

    full = (1 << k) - 1
    cand = [full] * n
    for color, v in enumerate(clique):
        cand[index[v]] = 1 << color

    seeds = [i for i in range(n) if cand[i] & (cand[i] - 1) == 0]
    if not _propagate(cand, adj, seeds, stats):
        return ColoringResult(False, None, stats)

    stack: list[tuple[list[int], int]] = [(cand, 0)]
    stats.peak_open = 1
    while stack:
        table, pos = stack.pop()
        while pos < n and table[pos] & (table[pos] - 1) == 0:
            pos += 1
        if pos == n:
            assignment = {order[i]: table[i].bit_length() - 1 for i in range(n)}
            _verify_coloring(G, assignment)
            return ColoringResult(True, assignment, stats)
        mask = table[pos]
        stats.branches += mask.bit_count()
        for color in reversed(range(k)):  # smallest color explored first
            if mask >> color & 1:
                child = table.copy()
                child[pos] = 1 << color
                if _propagate(child, adj, [pos], stats):
                    stack.append((child, pos + 1))
        if len(stack) > stats.peak_open:
            stats.peak_open = len(stack)
    return ColoringResult(False, None, stats)


def chromatic_number(G: DiophGraph) -> int:
    """Smallest k admitting a proper coloring, searched upward from the
    clique-number lower bound."""
    from .graph import _clique_number

    if G.n == 0:
        return 0
    k = max(1, _clique_number(G))
    while not k_colorable(G, k).colorable:
        k += 1
    return k


@dataclass
class MinimalityReport:
    """Vertices whose single removal makes the graph k-colorable; the
    graph is minimal when that is all of them."""

    k: int
    removable: tuple[int, ...]
    minimal: bool


def minimality_check(
    G: DiophGraph, k: int, branch_order: list[int] | None = None
) -> MinimalityReport:
    """For a graph that is not k-colorable, test every single-vertex
    deletion for k-colorability."""
    order = list(branch_order) if branch_order is not None else list(G.vertices)
    if k_colorable(G, k, order).colorable:
        raise ValueError(f"graph is already {k}-colorable; minimality undefined")
    removable = []
    for v in order:
        sub_order = [u for u in order if u != v]
        if k_colorable(remove_vertex(G, v), k, sub_order).colorable:
            removable.append(v)
    return MinimalityReport(k, tuple(removable), len(removable) == G.n)


def mod4_coloring_shift2(G: DiophGraph) -> dict[int, int]:
    """Three-coloring of a shift-2 graph by residue class: evens get 0,
    numbers 1 mod 4 get 1, numbers 3 mod 4 get 2.

    Proper because a*b + 2 is 2 or 3 mod 4 when a and b share a class,
    while squares are 0 or 1 mod 4.  Verified edge-by-edge anyway; a
    violation would be a fatal defect.
    """
    if G.shift != 2:
        raise ValueError(f"mod4 coloring applies to shift-2 graphs, got shift {G.shift}")
    coloring = {v: 0 if v % 2 == 0 else (1 if v % 4 == 1 else 2) for v in G.vertices}
    _verify_coloring(G, coloring, "mod4 coloring is improper, contradicting squares being 0 or 1 mod 4")
    return coloring
