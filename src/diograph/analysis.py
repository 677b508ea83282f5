"""Density amplification by low-degree pruning, the root-count vertex
heuristic, omega-distribution statistics, and the Hamiltonian path/cycle
analysis of range graphs.

The heuristic ranks a by S(a)/sqrt(a), where S(a) counts the roots of
x^2 = 1 (mod a): a vertex a of the range graph on {1..N} has about
sqrt(N/a) * S(a) neighbors (S(a) root classes, sqrt-many multipliers
each), so dividing out the common sqrt(N) leaves S(a)/sqrt(a) as the
expected-degree score.  Its maximum over [1, 10^6] sits at a = 24.

Hamiltonian paths and cycles are searched by one pruned DFS over
neighbor bitmasks built from the graph's CSR arrays, `_hamilton_dfs`; a
cycle is a path from vertex 0 whose last vertex must neighbor vertex 0.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, isqrt, log
from typing import NamedTuple

import numpy as np

from .graph import DiophGraph, _check_range_size, _is_range, _restrict, edge_test
from .numtheory import _passes, _root_counts, _spf_omega, count_unit_roots

__all__ = [
    "HamiltonPathResult",
    "OmegaDistribution",
    "PruneStep",
    "PruneTrace",
    "hamiltonian_cycle_exists",
    "hamiltonian_path_exists",
    "heuristic_score",
    "heuristic_top",
    "mod4_neighbor_premise",
    "near_hamiltonian_path",
    "omega_distribution",
    "prune_low_degree",
]


# ---------------------------------------------------------------------------
# Low-degree pruning
# ---------------------------------------------------------------------------


class PruneStep(NamedTuple):
    """One removal: the vertex and its degree when it was removed."""

    vertex: int
    degree: int


class PruneTrace(NamedTuple):
    """The removals in order; densities e/n are worked out where they are printed."""

    steps: tuple[PruneStep, ...]


def prune_low_degree(G: DiophGraph) -> tuple[DiophGraph, PruneTrace]:
    """Repeatedly remove a minimum-degree vertex while its degree is
    strictly below the edge density e/n (ties broken by smallest label).
    Each removal raises the density: d*n < e gives (e - d)/(n - 1) > e/n.

    One smallest-last peel (Matula & Beck 1983) over CSR positions, with heap
    keys degree * size + position (labels are sorted: a tie by position is a
    tie by label).  Degrees only fall, so a vertex's newest key pops first,
    and its older ones after its removal.  The result keeps G's `_relation`."""
    # imported here: loading the _heapq extension at module import would
    # add to every other command's peak RSS
    import heapq

    size = n = G.n
    e, indptr, degree = G.edge_count, G.indptr.tolist(), G._degrees().tolist()
    heap = [d * size + i for i, d in enumerate(degree)]
    heapq.heapify(heap)
    keep, steps = [True] * size, []
    while heap:
        d, i = divmod(heapq.heappop(heap), size)
        if not keep[i]:
            continue
        if d * n >= e:  # degree >= density: removal no longer helps
            break
        steps.append(PruneStep(G.vertices[i], d))
        keep[i] = False
        for j in G.indices[indptr[i] : indptr[i + 1]].tolist():
            if keep[j]:
                degree[j] -= 1
                heapq.heappush(heap, degree[j] * size + j)
        n, e = n - 1, e - d
    return _restrict(G, np.array(keep, dtype=bool)), PruneTrace(tuple(steps))


# ---------------------------------------------------------------------------
# Root-count heuristic and omega statistics
# ---------------------------------------------------------------------------


def heuristic_score(a: int) -> float:
    """S(a)/sqrt(a), the expected-degree score of a."""
    if a < 1:
        raise ValueError(f"a must be positive, got {a}")
    return count_unit_roots(a) / (a**0.5)


def heuristic_top(N: int, count: int) -> list[int]:
    """The `count` integers in [1, N] with the largest S(a)/sqrt(a),
    ties broken by smaller a.  Ranking is exact: S(a)^2 * b vs S(b)^2 * a
    is compared in integers on a float-preselected slice, the best
    `count + 256` float scores, merged pass by pass."""
    _check_range_size(N)
    if count < 1 or count > N:
        raise ValueError(f"need 1 <= count <= N, got count={count}, N={N}")
    omega = _spf_omega(N).omega
    take = min(N, count + 256)
    best = np.zeros(0, dtype=np.int64)
    best_score = np.zeros(0)
    for lo, hi in _passes(1, N + 1):
        a = np.arange(lo, hi, dtype=np.int64)
        score = _root_counts(omega[lo:hi], a) ** 2 / a
        a, score = np.concatenate([best, a]), np.concatenate([best_score, score])
        if len(a) > take:
            keep = np.argpartition(-score, take - 1)[:take]
            a, score = a[keep], score[keep]
        best, best_score = a, score
    s = _root_counts(omega[best], best).tolist()
    ranked = sorted(zip(best.tolist(), s), key=lambda t: (Fraction(-t[1] ** 2, t[0]), t[0]))
    return [a for a, _ in ranked[:count]]


@dataclass
class OmegaDistribution:
    """counts[k] is the number of a <= x with exactly k distinct prime
    factors; the optional tail check compares sum(k > C*loglog x) with
    x * (log x)^(C - C*log(C) - 1)."""

    x: int
    counts: tuple[int, ...]
    C: float | None = None
    tail_sum: int | None = None
    bound_value: float | None = None
    within_bound: bool | None = None

    def count(self, k: int) -> int:
        return self.counts[k] if 0 <= k < len(self.counts) else 0


def omega_distribution(x: int, C: float | None = None) -> OmegaDistribution:
    if not 1 <= x < 1 << 31:
        raise ValueError(f"x must be between 1 and 2**31 - 1, got {x}")
    omega = _spf_omega(x).omega
    counts = np.zeros(int(omega.max()) + 1, dtype=np.int64)
    for lo, hi in _passes(1, x + 1):
        counts += np.bincount(omega[lo:hi], minlength=len(counts))
    counts = tuple(counts.tolist())
    if C is None:
        return OmegaDistribution(x, counts)
    if not (isfinite(C) and C > 1):
        raise ValueError(f"C must be a finite number above 1, got {C}")
    if x < 3:
        raise ValueError("tail check needs x >= 3")
    threshold = C * log(log(x))
    tail = sum(c for k, c in enumerate(counts) if k > threshold)
    bound = x * log(x) ** (C - C * log(C) - 1)
    return OmegaDistribution(x, counts, C, tail, bound, tail <= bound)


# ---------------------------------------------------------------------------
# Hamiltonian structure of range graphs
# ---------------------------------------------------------------------------


def near_hamiltonian_path(N: int) -> list[int]:
    """Explicit long path in the graph on {1..N}: descend the odds to 1,
    hop 1-8, run 8, 6, 4, 2, then 12 and the evens upward.  Covers all
    of {1..N} except 10 (and everything when N < 10).

    When N = 16k^2 a rearranged pattern covers 10 as well, giving a full
    Hamiltonian path: odds below 4k^2 descending, odds from 16k^2-1 down
    to 4k^2+1, then 16k^2 and the evens descending.
    """
    if N < 8:
        raise ValueError(f"need N >= 8, got {N}")
    k = isqrt(N // 16)
    if 16 * k * k == N and k >= 1:
        path = list(range(4 * k * k - 1, 0, -2))
        path += list(range(16 * k * k - 1, 4 * k * k, -2))
        path += list(range(16 * k * k, 0, -2))
    else:
        top_odd = N if N % 2 else N - 1
        path = list(range(top_odd, 0, -2)) + [8, 6, 4, 2]
        if N >= 12:
            path += list(range(12, N + 1, 2))
    if len(set(path)) != len(path):
        raise RuntimeError("constructed path repeats a vertex")
    for a, b in zip(path, path[1:]):
        if not edge_test(a, b, 1):
            raise RuntimeError(f"constructed path breaks at ({a}, {b})")
    return path


@dataclass
class HamiltonPathResult:
    """exists is None when the size cap was hit without a shortcut."""

    exists: bool | None
    path: tuple[int, ...] | None
    method: str


def _mod4_counts(G: DiophGraph) -> tuple[int, int]:
    """(m2, m0): how many vertices are 2 mod 4 and how many 0 mod 4."""
    residues = [v % 4 for v in G.vertices]
    return residues.count(2), residues.count(0)


def _mod4_path_refutation(G: DiophGraph) -> bool:
    """True when the residue-class count argument rules out a Hamiltonian
    path: vertices 2 mod 4 only neighbor multiples of 4, so m2 <= m0 + 1
    is necessary, with equality only in an alternating path without odds."""
    if G.shift != 1:
        return False
    m2, m0 = _mod4_counts(G)
    if m2 > m0 + 1:
        return True
    return m2 == m0 + 1 and m2 + m0 < G.n


def _bitmask_adjacency(G: DiophGraph) -> list[int]:
    """Per vertex position, the bitmask of its neighbors' positions."""
    adj = [0] * G.n
    for i, j in zip(G._per_entry(np.arange(G.n)).tolist(), G.indices.tolist()):
        adj[i] |= 1 << j
    return adj


def _hamilton_dfs(adj: list[int], path: list[int], unvisited: int, close: int) -> bool:
    """Extend `path`, a list of vertex positions ending at the current
    vertex, through every position in the bitmask `unvisited`.  A nonzero
    `close` asks for a cycle: the last vertex must also neighbor a vertex
    in `close`.  On success the whole path is left in `path` and True
    returned; otherwise `path` is restored and False returned.

    Neighbors are tried fewest unvisited neighbors first.  Two rules cut
    branches that cannot complete, never reordering the rest: some
    unvisited vertex is not reachable from the end through unvisited
    vertices; or more unvisited vertices than there are free path ends
    (one for a path, none for a cycle) have a single live connection,
    to the end, `close` or an unvisited vertex, where every vertex still
    to come but a path's last needs two."""
    v = path[-1]
    if not unvisited:
        return not close or bool(adj[v] & close)
    cand = adj[v] & unvisited
    reach = frontier = cand
    while frontier:
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & unvisited & ~reach
        reach |= frontier
    if reach != unvisited:
        return False
    live = unvisited | 1 << v | close
    free_end = not close  # a path's last vertex needs one live connection
    rest = unvisited
    while rest:
        low = rest & -rest
        rest ^= low
        c = (adj[low.bit_length() - 1] & live).bit_count()
        if c < 2:
            if not free_end:
                return False
            free_end = False
    nbrs = []
    while cand:
        low = cand & -cand
        nbrs.append(low.bit_length() - 1)
        cand ^= low
    nbrs.sort(key=lambda i: (adj[i] & unvisited).bit_count())
    for u in nbrs:
        path.append(u)
        if _hamilton_dfs(adj, path, unvisited & ~(1 << u), close):
            return True
        path.pop()
    return False


def hamiltonian_path_exists(G: DiophGraph, cap: int = 40) -> HamiltonPathResult:
    """Decide Hamiltonian-path existence: the mod-4 counting shortcut
    refutes without search where it applies; otherwise `_hamilton_dfs`
    searches exhaustively from each degree-1 vertex, or from every
    vertex when there is none, up to `cap` vertices.  A search that
    nests deeper than Python's recursion limit raises ValueError rather
    than report a refutation it did not finish."""
    n = G.n
    if n <= 1:
        return HamiltonPathResult(True, tuple(G.vertices), "trivial")
    if _mod4_path_refutation(G):
        return HamiltonPathResult(False, None, "mod4-counting")
    if n > cap:
        return HamiltonPathResult(None, None, "cap-exceeded")
    adj = _bitmask_adjacency(G)
    full = (1 << n) - 1
    degree_one = [i for i in range(n) if adj[i].bit_count() == 1]
    try:
        for s in degree_one or range(n):
            path = [s]
            if _hamilton_dfs(adj, path, full & ~(1 << s), 0):
                return HamiltonPathResult(True, tuple(map(G.vertices.__getitem__, path)), "exhaustive")
    except RecursionError:  # the DFS nests one call per path vertex
        raise ValueError(
            f"the Hamiltonian path search on {n} vertices nested deeper than Python's "
            f"recursion limit ({sys.getrecursionlimit()}); no verdict"
        ) from None
    return HamiltonPathResult(False, None, "exhaustive")


def mod4_neighbor_premise(G: DiophGraph) -> bool:
    """Every neighbor of a vertex 2 mod 4 is divisible by 4: checked at
    every adjacency entry, so each edge in both orientations."""
    residue = np.array([v % 4 for v in G.vertices], dtype=np.int8)
    return not np.any((G._per_entry(residue) == 2) & (residue[G.indices] != 0))


# Range graphs up to this size also get the exhaustive cycle search.
_CYCLE_SEARCH_LIMIT = 16


def hamiltonian_cycle_exists(G: DiophGraph) -> bool:
    """Always False on range graphs {1..N}, N >= 3: vertices 2 mod 4 only
    neighbor multiples of 4, and the former class is at least as large,
    so a cycle would have to alternate the two classes and exclude every
    odd number.  Confirmed for n <= _CYCLE_SEARCH_LIMIT by the path
    search `_hamilton_dfs`, run from vertex 0 and closed back to it."""
    N = G.n
    if G.shift != 1 or not _is_range(G.vertices):
        raise ValueError("cycle analysis applies to shift-1 graphs on {1..N}")
    if N < 3:
        raise ValueError(f"need N >= 3, got {N}")
    if not mod4_neighbor_premise(G):
        raise RuntimeError("mod-4 neighbor premise violated; squares mod 4 broke")
    m2, m0 = _mod4_counts(G)
    if m2 < m0 or m2 < 1:
        raise RuntimeError("mod-4 class counting premise violated on a range")
    path = [0]
    if N <= _CYCLE_SEARCH_LIMIT and _hamilton_dfs(_bitmask_adjacency(G), path, (1 << N) - 2, 1):
        witness = list(map(G.vertices.__getitem__, path))
        raise RuntimeError(f"exhaustive search found a Hamiltonian cycle: {witness}")
    return False
