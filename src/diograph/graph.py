"""Diophantine graphs and their persistence.

Vertices are distinct positive integers; two vertices a, b are adjacent
exactly when a*b + shift is a perfect square (shift = 1 is the classical
relation).  Graphs are immutable once built: mutating operations return
new values, so concurrent readers are always safe.

The range graph on {1..N} at shift 1 rests on the residue-class
enumeration behind the degree bound: the multipliers r with
a*b + 1 = r^2 lie in the root classes of x^2 = 1 (mod a), so the
neighbors of a are swept without touching the other N-1 vertices.  The
roots of every a <= N come from one array pass over a sieve sized to N
(`numtheory._unit_root_batches`), which serves build_range (which
expands each class) and range_edge_count (which counts it in closed
form).  Any other vertex set or shift is tested pair by pair, with one
exact integer square root on int64 arrays while the products stay below
2**62.  `_rebuild` is the one place that picks between the two, and a
graph document is checked against the graph it returns for the
document's vertices and shift.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress

import numpy as np

from .numtheory import _spf_omega, _unit_root_batches, is_square
from .witnesses import (
    WitnessFileError,
    _vertex_list,
    load_witness_file,
    read_json_file,
    save_witness_file,
)

__all__ = [
    "DiophGraph",
    "GraphDefectError",
    "GraphStats",
    "DegreeBoundReport",
    "WitnessFileError",
    "build_range",
    "build_set",
    "degree_bound_check",
    "edge_test",
    "graph_from_doc",
    "graph_to_doc",
    "induced",
    "load_graph_file",
    "load_witness_file",
    "read_json_file",
    "remove_vertex",
    "save_graph_file",
    "save_witness_file",
    "stats",
    "write_edge_list",
]

# Version 2 is the compact layout (no indentation); the fields are those
# of version 1, so both load.
GRAPH_SCHEMA_VERSION = 2
_READABLE_SCHEMA_VERSIONS = (1, 2)


class GraphDefectError(RuntimeError):
    """A structural impossibility was observed (e.g. a 5-clique at shift 1)."""


class DiophGraph:
    """Finite graph on distinct positive integers under the shifted-square
    relation.

    The adjacency is held as compressed sparse rows over vertex
    positions: `vertices` is the sorted tuple of labels (Python ints, so
    labels of any size work), and the neighbors of vertices[i] are the
    labels at positions indices[indptr[i]:indptr[i + 1]], ascending.
    Both arrays are read-only int64.  `adjacency` is a read-only mapping
    from each label to the sorted tuple of its neighbors' labels.

    `DiophGraph(vertices, adjacency, shift)` builds a graph from any
    mapping of each vertex to its neighbors, which must be symmetric and
    loop-free.  A label is found by bisection over `vertices`, so a
    lookup adds no state to the graph.

    `_relation` is true when the edges are known to be exactly the pairs
    a, b with a*b + shift a square: build_range, build_set and the
    document loaders set it (through `_rebuild`), and a restriction
    (induced, remove_vertex, prune's result) takes its parent's.  The
    public constructor leaves it false, whatever the adjacency holds.
    `_clique_number` tests pairs by the relation when it is set."""

    __slots__ = ("vertices", "shift", "indptr", "indices", "_relation")
    __hash__ = None  # equal graphs compare equal; they are not hashed

    def __init__(self, vertices, adjacency, shift: int = 1):
        vs = tuple(sorted(vertices))
        n = len(vs)
        pos = {v: i for i, v in enumerate(vs)}
        if len(pos) != n or len(adjacency) != n:
            raise ValueError("adjacency must map each distinct vertex to its neighbors")
        try:
            keys = [i * n + pos[u] for i, v in enumerate(vs) for u in adjacency[v]]
        except KeyError as exc:
            raise ValueError(f"adjacency and vertices disagree on {exc}") from None
        keys = np.sort(np.array(keys, dtype=np.int64))
        rows, cols = np.divmod(keys, max(n, 1))
        symmetric = np.array_equal(keys, np.sort(cols * n + rows))
        if np.any(rows == cols) or np.any(keys[1:] == keys[:-1]) or not symmetric:
            raise ValueError("adjacency must be symmetric, loop-free and list each neighbor once")
        self._store(vs, keys, shift, relation=False)

    def _store(self, vs: tuple, keys: np.ndarray, shift: int, relation: bool) -> None:
        """Hold the adjacency over the sorted labels `vs` whose entries are
        the sorted keys row * n + column.  `keys` becomes `indices` in
        place, so beside it only the n + 1 row pointers are allocated."""
        n = len(vs)
        self.indptr = _row_pointers(keys, n)
        # keys % n, as keys - (keys // n) * n: numpy divides by a scalar
        # with a fast multiply, but not for %; slices keep the temporaries small
        for at in range(0, len(keys), 1 << 16):
            cut = keys[at : at + (1 << 16)]
            cut -= cut // n * n
        self.indices = keys
        self.indptr.flags.writeable = self.indices.flags.writeable = False
        self.vertices = vs
        self.shift = shift
        self._relation = relation

    @classmethod
    def _from_keys(cls, vs: tuple, keys: np.ndarray, shift: int, relation: bool):
        """Graph on the sorted labels `vs` from sorted keys; see `_store`."""
        G = cls.__new__(cls)
        G._store(vs, keys, shift, relation)
        return G

    @classmethod
    def _from_pairs(cls, vs: tuple, m: int, pairs, shift: int):
        """The graph of the shifted-square relation on the sorted labels
        `vs`, from its m edges, given as chunks (lo, hi) of position arrays
        whose k-th edge joins lo[k] and hi[k].  Each chunk is written in
        both orientations straight into one array of 2m keys row * n +
        column, which is sorted in place (see `_from_keys`)."""
        n = len(vs)
        keys = np.empty(2 * m, dtype=np.int64)
        at = 0
        for lo, hi in pairs:
            end = at + len(lo)
            np.multiply(lo, n, out=keys[at:end])
            keys[at:end] += hi
            np.multiply(hi, n, out=keys[m + at : m + end])
            keys[m + at : m + end] += lo
            at = end
        keys.sort()
        return cls._from_keys(vs, keys, shift, relation=True)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    @property
    def adjacency(self) -> "_AdjacencyView":
        return _AdjacencyView(self)

    def _position(self, v: int) -> int:
        """The position of label v in `vertices`; KeyError when v is not a
        vertex or cannot be compared with the labels."""
        try:
            i = bisect_left(self.vertices, v)
        except TypeError:
            raise KeyError(v) from None
        if i == len(self.vertices) or self.vertices[i] != v:
            raise KeyError(v)
        return i

    def _degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def _per_entry(self, values: np.ndarray, r0: int = 0) -> np.ndarray:
        """values[k] at every adjacency entry of row r0 + k, for the rows
        r0 to r0 + len(values) - 1."""
        return np.repeat(values, np.diff(self.indptr[r0 : r0 + len(values) + 1]))

    def neighbors(self, v: int) -> tuple[int, ...]:
        i = self._position(v)
        row = self.indices[self.indptr[i] : self.indptr[i + 1]].tolist()
        return tuple(map(self.vertices.__getitem__, row))

    def degree(self, v: int) -> int:
        i = self._position(v)
        return int(self.indptr[i + 1] - self.indptr[i])

    def has_edge(self, a: int, b: int) -> bool:
        try:
            i, j = self._position(a), self._position(b)
        except KeyError:
            return False
        row = self.indices[self.indptr[i] : self.indptr[i + 1]]
        k = int(np.searchsorted(row, j))
        return k < len(row) and int(row[k]) == j

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (a, b) with a < b, lexicographically sorted.  The
        pairs hold the label objects of `vertices`, not copies."""
        rows = self._per_entry(np.arange(self.n, dtype=np.int64))
        upper = self.indices > rows
        vs = self.vertices
        return list(zip(
            map(vs.__getitem__, rows[upper].tolist()),
            map(vs.__getitem__, self.indices[upper].tolist()),
        ))

    def __eq__(self, other):
        if not isinstance(other, DiophGraph):
            return NotImplemented
        return (
            self.shift == other.shift
            and self.vertices == other.vertices
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __repr__(self) -> str:
        return f"DiophGraph(n={self.n}, e={self.edge_count}, shift={self.shift})"


class _AdjacencyView(Mapping):
    """Read-only label -> sorted neighbor-label tuple view of a graph."""

    __slots__ = ("_graph",)

    def __init__(self, graph: DiophGraph):
        self._graph = graph

    def __getitem__(self, v: int) -> tuple[int, ...]:
        return self._graph.neighbors(v)

    def __contains__(self, v) -> bool:
        try:
            self._graph._position(v)
        except KeyError:
            return False
        return True

    def __iter__(self):
        return iter(self._graph.vertices)

    def __len__(self) -> int:
        return self._graph.n


def _row_pointers(keys: np.ndarray, n: int) -> np.ndarray:
    """Where each of n rows starts in the sorted keys row * n + column,
    followed by len(keys)."""
    return np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)


def _row_spans(G: DiophGraph, entries: int) -> list[tuple[int, int]]:
    """Runs [r0, r1) of whole rows that hold all adjacency entries, a run
    starting at every `entries` entries."""
    indptr = G.indptr
    firsts = np.searchsorted(indptr, np.arange(0, indptr[-1], entries), "right") - 1
    # the firsts ascend, so dict.fromkeys drops their repeats in order
    # without numpy's unique, which imports numpy.ma (about 20 ms)
    cuts = list(dict.fromkeys([*firsts.tolist(), G.n]))
    return list(zip(cuts, cuts[1:]))


def _row_runs(G: DiophGraph, entries: int):
    """(rows, cols) of the adjacency entries of each run of `_row_spans`:
    entry k lies in row rows[k] and column cols[k]."""
    for r0, r1 in _row_spans(G, entries):
        rows = G._per_entry(np.arange(r0, r1, dtype=np.int64), r0)
        yield rows, G.indices[G.indptr[r0] : G.indptr[r1]]


def _lookup(table: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each of `values` is, or would go, in the sorted array
    `table`, and whether it is there."""
    at = np.searchsorted(table, values)
    found = at < len(table)
    found[found] = table[at[found]] == values[found]
    return at, found


def edge_test(a: int, b: int, shift: int = 1) -> bool:
    """True iff a*b + shift is a perfect square.  a == b is rejected."""
    if a == b:
        raise ValueError(f"edge_test needs distinct vertices, got {a} twice")
    if a < 1 or b < 1 or shift < 1:
        raise ValueError("vertices and shift must be positive")
    return is_square(a * b + shift)


def _pairwise_edges(vs: tuple[int, ...], shift: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions (lo, hi), lo < hi, of every edge among the sorted labels
    `vs`, in lexicographic order.  All pairs are tested directly: one row
    at a time with `_isqrt_array` when every product plus shift is below
    2**62, pure Python otherwise."""
    n = len(vs)
    if n >= 2 and vs[-1] * vs[-2] + shift < 1 << 62:
        arr = np.array(vs, dtype=np.int64)
        keys = []  # lo * n + hi
        for i in range(n - 1):
            prod = arr[i] * arr[i + 1 :] + shift
            root = _isqrt_array(prod)
            keys.append(np.flatnonzero(root * root == prod) + (i * n + i + 1))
    else:
        keys = [np.array([i * n + j for i in range(n - 1) for j in range(i + 1, n)
                          if is_square(vs[i] * vs[j] + shift)], dtype=np.int64)]
    return np.divmod(np.concatenate(keys), max(n, 1))


def build_set(values, shift: int = 1) -> DiophGraph:
    """Graph on an explicit vertex set of distinct positive integers; see
    `_rebuild`."""
    return _rebuild(shift, tuple(sorted(_vertex_list(values))))


def _is_range(vs: tuple[int, ...]) -> bool:
    """True when the sorted distinct integers `vs` are {1..N}, N >= 1."""
    return bool(vs) and vs[0] == 1 and vs[-1] == len(vs)


def _check_range_size(N: int) -> None:
    if not 1 <= N < 1 << 31:
        raise ValueError(f"N must be between 1 and 2**31 - 1, got {N}")


def _isqrt_array(v: np.ndarray) -> np.ndarray:
    """isqrt of int64 values below 2**62: the float64 root is off by at
    most one either way, so one correction each way makes it exact."""
    r = np.sqrt(v.astype(np.float64)).astype(np.int64)
    r -= r * r > v
    r += (r + 1) * (r + 1) <= v
    return r


def _class_batches(N: int):
    """Batches of int64 arrays (a, r0, count): for every vertex a of {1..N}
    and every root class of x^2 = 1 (mod a) that holds a multiplier r in
    (a, rmax], rmax = isqrt(a*N + 1), r0 is the smallest such r and count
    the number of them, r0, r0 + a, ... up to rmax.  Each gives the
    neighbor b = (r^2 - 1)/a > a.  Vertices a >= N - 1 have no neighbor
    above them and are skipped."""
    for a, x in _unit_root_batches(N - 2):
        lo = a[0]
        rmax = _isqrt_array(np.arange(lo, a[-1] + 1) * N + 1)[a - lo]
        # the class of the root x holds r0 = a + x, or 2 for x = 0 (a = 1)
        keep = np.flatnonzero(x <= rmax - a)
        a = a[keep]
        r0 = a + np.maximum(x[keep], 1)
        yield a, r0, (rmax[keep] - r0) // a + 1


def build_range(N: int, shift: int = 1) -> DiophGraph:
    """Graph on {1..N}, N < 2**31; see `_rebuild`."""
    _check_range_size(N)
    return _rebuild(shift, tuple(range(1, N + 1)))


def _range_graph(vs: tuple[int, ...]) -> DiophGraph:
    """The shift-1 graph on vs = (1, ..., N), counted, then filled.  The
    root classes are kept as int32 (a, r0, count) with the closed-form
    multiplier count of each, so the edge count m is known before any
    edge is expanded; then one class batch at a time is expanded straight
    into the 2m keys of `DiophGraph._from_pairs`.  Beside those keys the
    build holds 12 bytes per class and the edges of one batch."""
    N = len(vs)
    classes = []
    m = 0
    for batch in _class_batches(N):
        m += int(batch[2].sum())
        classes.append([x.astype(np.int32) for x in batch])

    def batches():
        while classes:  # each batch is dropped once it is expanded
            a, r0, counts = (x.astype(np.int64) for x in classes.pop())
            first = np.cumsum(counts) - counts
            lo = np.repeat(a, counts)
            # r counts up from r0 in steps of a within each class; r <= N,
            # so r*r stays inside int64
            r = np.arange(len(lo), dtype=np.int64)
            r -= np.repeat(first, counts)
            r *= lo
            r += np.repeat(r0, counts)
            r *= r
            r -= 1
            r //= lo  # the neighbor b = (r^2 - 1)/a
            lo -= 1
            r -= 1
            yield lo, r

    return DiophGraph._from_pairs(vs, m, batches(), 1)


def _rebuild(shift: int, vs: tuple[int, ...]) -> DiophGraph:
    """The graph that a positive shift and sorted distinct positive
    vertices fix: the root-class sweep for {1..N} at shift 1, pairwise
    testing otherwise.  build_range, build_set and the document loaders
    all build through it."""
    if shift < 1:
        raise ValueError(f"shift must be positive, got {shift}")
    if shift == 1 and _is_range(vs):
        return _range_graph(vs)
    lo, hi = _pairwise_edges(vs, shift)
    return DiophGraph._from_pairs(vs, len(lo), [(lo, hi)], shift)


def range_edge_count(N: int) -> int:
    """Edge count of the shift-1 graph on {1..N}, N < 2**31, without
    building it: each root class contributes a closed-form count of its
    multipliers."""
    _check_range_size(N)
    return sum(int(counts.sum()) for _, _, counts in _class_batches(N))


@dataclass
class GraphStats:
    n: int
    e: int
    density: Fraction
    degree_histogram: dict[int, int]
    clique_number: int
    components: int


# Clique sizes the search looks for: a Diophantine quintuple does not
# exist, so at shift 1 a clique of this size is a defect.
_CLIQUE_CAP = 5
# Clique-search work per chunk: adjacency entries per forward-key pass and
# candidate pairs per forward-list matrix, each costing a few int64 words.
_CLIQUE_CHUNK = 1 << 16
# Adjacency entries per run of whole rows in the component and restriction
# passes.
_ROW_CHUNK = 1 << 16


def _forward_keys(G: DiophGraph, order: np.ndarray) -> np.ndarray:
    """Sorted keys rank[u] * n + rank[v] of every edge uv oriented towards
    its higher rank, built over chunks of rows, where the vertex at
    position order[r] has rank r.  The keys of one source form its forward
    list, ascending by rank."""
    n = G.n
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)
    keys = np.empty(G.edge_count, dtype=np.int64)
    filled = 0
    for rows, cols in _row_runs(G, _CLIQUE_CHUNK):
        src, dst = rank[rows], rank[cols]
        forward = dst > src
        chunk = src[forward]
        chunk *= n
        chunk += dst[forward]
        keys[filled : filled + len(chunk)] = chunk
        filled += len(chunk)
    keys.sort()
    return keys


def _grow_cliques(adj: np.ndarray, best: int) -> tuple[int, tuple | None]:
    """Cliques inside m forward lists of length d, whose pairs i < j are
    adjacent where adj[row, i, j] (an (m, d, d) bool array, zero on and
    below the diagonal).  A clique is its row's source vertex plus list
    positions, ascending; it grows by the later positions adjacent to all
    of its members, kept as a candidate mask.  Cliques that cannot pass
    `best` are dropped.  Returns `best` raised to the largest clique size
    seen, and (row, positions) of a clique of size _CLIQUE_CAP once one
    is found, else None."""
    m, d, _ = adj.shape
    rows, members = np.divmod(np.arange(m * d), d)
    members = members[:, None]
    cands = adj.reshape(m * d, d)
    size = 2
    best = max(best, size)
    while True:
        keep = np.flatnonzero(cands.sum(axis=1) > best - size)
        t, x = np.nonzero(cands[keep])
        if not len(t):
            return best, None
        t = keep[t]
        rows, members = rows[t], np.column_stack([members[t], x])
        cands = cands[t] & adj[rows, x]
        size += 1
        best = max(best, size)
        if size >= _CLIQUE_CAP:
            return size, (int(rows[0]), members[0])


def _pair_test(G: DiophGraph, order: np.ndarray, keys: np.ndarray):
    """How `_clique_number` tells which forward pairs are edges: a function
    of an (m, d) matrix of vertex ranks and the list positions lo < hi
    that returns the (m, len(lo)) bool matrix of whether the ranks at lo
    and hi are adjacent.  A graph that holds the relation (`_relation`)
    and whose largest product plus shift is below 2**62 gathers each
    pair's labels from one int64 array of the labels by rank (the vertex
    at position order[r] has rank r) and tests a*b + shift with
    `_isqrt_array`; any other graph looks the rank key up in the sorted
    forward `keys`."""
    n, shift, vs = G.n, G.shift, G.vertices
    if G._relation and n >= 2 and vs[-1] * vs[-2] + shift < 1 << 62:
        ranked = np.fromiter(vs, dtype=np.int64, count=n)[order]

        def adjacent(fwd, lo, hi):
            ends = ranked[fwd]
            prod = ends[:, lo]  # a copy: lo is an index array
            prod *= ends[:, hi]
            prod += shift
            root = _isqrt_array(prod)
            return root * root == prod

    else:

        def adjacent(fwd, lo, hi):
            return _lookup(keys, fwd[:, lo] * n + fwd[:, hi])[1]

    return adjacent


def _clique_number(G: DiophGraph) -> int:
    """Largest clique size, searched exhaustively up to _CLIQUE_CAP (5).

    Ordered k-clique listing (Chiba & Nishizeki 1985; Danisch, Balalau &
    Sozio 2018) on arrays.  Every edge is oriented from the endpoint of
    smaller (degree, label) to the other, so each clique is found once,
    inside the forward list of its first vertex, and the forward lists
    stay short (at most 25 entries on {1..10^5}).  The oriented edges are
    one sorted array of keys (`_forward_keys`).  The sources of each
    forward degree d go in chunks of about _CLIQUE_CHUNK candidate pairs:
    their forward lists form an (m, d) matrix, `_pair_test` finds which
    pairs i < j of each row are adjacent, and cliques grow from there
    (`_grow_cliques`).  On a graph whose edges are the relation (made by
    the builders, the loaders or a restriction of theirs) the pairs are
    tested by a*b + shift square while the products fit int64; on a
    graph of the public constructor, or with larger labels, they are
    looked up in the keys.  The chunks bound the memory to a few arrays
    of _CLIQUE_CHUNK words beside the keys and one int64 label per
    vertex.

    At shift 1 a clique of size 5 contradicts the nonexistence of
    Diophantine quintuples, so finding one raises GraphDefectError naming
    its labels; at other shifts the search returns 5.  On a graph that
    holds the relation this checks the quintuple theorem itself; on the
    public constructor's graphs it checks the stored edges.
    """
    n = G.n
    if n == 0:
        return 0
    order = np.argsort(G._degrees(), kind="stable")
    keys = _forward_keys(G, order)
    adjacent = _pair_test(G, order, keys)
    fptr = _row_pointers(keys, n)
    fdeg = np.diff(fptr)
    best = 1
    # the forward degrees present, largest first (bincount, not numpy's
    # unique, which imports numpy.ma: about 20 ms)
    for d in np.flatnonzero(np.bincount(fdeg))[::-1].tolist():
        if d < best:  # a source of forward degree d is in cliques of at most d + 1
            break
        sources = np.flatnonzero(fdeg == d)
        lo, hi = np.triu_indices(d, 1)
        step = max(1, _CLIQUE_CHUNK // max(len(lo), 1))
        for c0 in range(0, len(sources), step):
            src = sources[c0 : c0 + step]
            fwd = keys[fptr[src][:, None] + np.arange(d)] % n
            adj = np.zeros((len(src), d, d), dtype=bool)
            adj[:, lo, hi] = adjacent(fwd, lo, hi)
            best, found = _grow_cliques(adj, best)
            if found is not None:
                if G.shift == 1:
                    row, pos = found
                    clique = [src[row], *fwd[row, pos].tolist()]
                    labels = sorted(G.vertices[i] for i in order[clique].tolist())
                    raise GraphDefectError(f"{_CLIQUE_CAP}-clique found at shift 1: {labels}")
                return _CLIQUE_CAP
    return best


def _component_count(G: DiophGraph) -> int:
    """Connected components by min-label propagation: every vertex takes
    the smallest label among itself and its neighbors, then labels are
    followed to their fixpoint (pointer jumping), until a pass lowers no
    label.  Labels only fall and stay inside a component, so at the end
    each component carries the position of its smallest vertex.  The
    neighbors' labels are gathered and reduced one run of whole rows at a
    time (`_row_spans`), each run reading the labels the earlier ones
    lowered, so beside the labels a pass holds a few arrays of
    _ROW_CHUNK entries."""
    n = G.n
    indptr = G.indptr
    # positions fit int32: a graph of 2**31 vertices would hold 16 GiB in
    # `vertices` alone
    label = np.arange(n, dtype=np.int32)
    spans = _row_spans(G, _ROW_CHUNK)
    lowered = True
    while lowered:
        lowered = False
        for r0, r1 in spans:
            ptr = indptr[r0 : r1 + 1]
            rows = np.flatnonzero(ptr[1:] != ptr[:-1])  # rows with neighbors
            least = np.minimum.reduceat(label[G.indices[ptr[0] : ptr[-1]]], ptr[rows] - ptr[0])
            rows += r0
            lower = least < label[rows]
            if lower.any():
                label[rows[lower]] = least[lower]
                lowered = True
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
    return int(np.count_nonzero(label == np.arange(n)))


def stats(G: DiophGraph) -> GraphStats:
    """Exact counts; the clique search is exhaustive up to size 5."""
    n = G.n
    e = G.edge_count
    if G.shift == 1 and 8 * e > 3 * n * n:
        raise GraphDefectError(f"edge bound violated: e={e} > (3/8)*{n}^2")
    hist = np.bincount(G._degrees()).tolist()
    return GraphStats(
        n=n,
        e=e,
        density=Fraction(e, n) if n else Fraction(0),
        degree_histogram={d: c for d, c in enumerate(hist) if c},
        clique_number=_clique_number(G),
        components=_component_count(G),
    )


@dataclass
class DegreeBoundReport:
    """Per-vertex check of deg(a) <= 8*sqrt(N/a)*2^omega(a)."""

    N: int
    passed: bool
    max_ratio: float
    argmax_vertex: int
    violations: tuple[int, ...]


def degree_bound_check(G: DiophGraph) -> DegreeBoundReport:
    """Check the root-class degree bound on a shift-1 range graph."""
    N = G.n
    if G.shift != 1 or not _is_range(G.vertices):
        raise ValueError("degree_bound_check needs a shift-1 graph on {1..N}")
    omega = _spf_omega(N).omega[1:].tolist()
    violations = []
    max_ratio = 0.0
    argmax = 1
    for a, deg, w in zip(G.vertices, G._degrees().tolist(), omega):
        pow4 = 4**w
        # deg <= 8*sqrt(N/a)*2^omega  <=>  deg^2 * a <= 64 * N * 4^omega
        if deg * deg * a > 64 * N * pow4:
            violations.append(a)
        ratio = deg / (8.0 * (N / a) ** 0.5 * (pow4**0.5))
        if ratio > max_ratio:
            max_ratio = ratio
            argmax = a
    return DegreeBoundReport(
        N=N,
        passed=not violations,
        max_ratio=max_ratio,
        argmax_vertex=argmax,
        violations=tuple(violations),
    )


def _restrict(G: DiophGraph, keep: np.ndarray) -> DiophGraph:
    """The subgraph induced on the positions `keep` marks, counted, then
    filled: the kept entries are counted one run of rows at a time
    (`_row_spans`), then their keys are written into one array of that
    size, again by runs.  Renumbering keeps the order, so the keys come
    out sorted; beside them and the vertex tables, one run's temporaries
    are all it holds."""
    renumber = np.cumsum(keep) - 1
    vs = tuple(compress(G.vertices, keep.tolist()))
    spans = _row_spans(G, _ROW_CHUNK)

    def kept(r0, r1):  # the columns of the run's entries, and which are kept
        cols = G.indices[G.indptr[r0] : G.indptr[r1]]
        return cols, G._per_entry(keep[r0:r1], r0) & keep[cols]

    keys = np.empty(sum(np.count_nonzero(kept(*span)[1]) for span in spans), dtype=np.int64)
    at = 0
    for r0, r1 in spans:
        cols, mask = kept(r0, r1)
        chunk = G._per_entry(renumber[r0:r1] * len(vs), r0)[mask]
        chunk += renumber[cols[mask]]
        keys[at : at + len(chunk)] = chunk
        at += len(chunk)
    return DiophGraph._from_keys(vs, keys, G.shift, relation=G._relation)


def remove_vertex(G: DiophGraph, v: int) -> DiophGraph:
    try:
        i = G._position(v)
    except KeyError:
        raise ValueError(f"vertex {v} not in graph") from None
    keep = np.ones(G.n, dtype=bool)
    keep[i] = False
    return _restrict(G, keep)


def induced(G: DiophGraph, subset) -> DiophGraph:
    keep = set(subset)
    if not keep <= set(G.vertices):
        extra = sorted(keep - set(G.vertices))
        raise ValueError(f"subset contains non-vertices: {extra}")
    return _restrict(G, np.fromiter((v in keep for v in G.vertices), dtype=bool, count=G.n))


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def _doc_head(G: DiophGraph) -> dict:
    """Every field of G's document but `edges`, in document order."""
    return {
        "schema_version": GRAPH_SCHEMA_VERSION,
        "n": G.n,
        "shift": G.shift,
        "vertices": list(G.vertices),
    }


def graph_to_doc(G: DiophGraph) -> dict:
    """Deterministic document: n, shift, sorted vertices, sorted edges
    (as (a, b) pairs, which JSON writes as arrays)."""
    return {**_doc_head(G), "edges": G.edges()}


# Output bytes per chunk of the encoder, and bytes per read of the document
# check.  The encoder's gather index and the arange added to it take 16
# bytes per output byte, so a chunk takes about 4 MiB at any N; larger
# chunks were no faster on the N = 10^5 range graph.
_CHUNK_BYTES = 1 << 18


def _edge_chunks(G: DiophGraph, inner: str, between: str):
    """The edges (a, b), a < b, of G in lexicographic order as bytes: each
    edge reads str(a) + inner + str(b), and consecutive edges are joined
    by `between`.  The bytes come in chunks of at most about
    _CHUNK_BYTES, taken straight from indptr/indices.  Every label is
    turned into a string once, into one table that holds between + str(v)
    + inner for each v; an edge (a, b) is then two spans of it, between +
    str(a) + inner and str(b), which numpy gathers, so labels of any size
    work."""
    n = G.n
    if not G.edge_count:
        return
    labels = list(map(str, G.vertices))
    table = (between + (inner + between).join(labels) + inner).encode("ascii")
    table = np.frombuffer(table, dtype=np.uint8)
    width = np.fromiter(map(len, labels), dtype=np.int64, count=n)
    del labels  # a Python string per label: more than the chunks take
    head_width = width + (len(between) + len(inner))
    head = np.cumsum(head_width) - head_width
    tail = head + len(between)
    # an edge takes at most edge_bytes, and a run of rows with E entries
    # lists at most E edges in its upper half
    edge_bytes = len(between) + len(inner) + 2 * int(width.max())
    skip = len(between)  # nothing comes before the first edge
    for rows, cols in _row_runs(G, max(1, _CHUNK_BYTES // edge_bytes)):
        upper = cols > rows
        lo, hi = rows[upper], cols[upper]
        if not len(lo):
            continue
        start = np.stack([head[lo], tail[hi]], axis=1).ravel()
        size = np.stack([head_width[lo], width[hi]], axis=1).ravel()
        end = np.cumsum(size)
        pick = np.repeat(start - (end - size), size)
        pick += np.arange(len(pick), dtype=np.int64)
        yield table[pick[skip:]].tobytes()
        skip = 0


def _json_edges(G: DiophGraph, indented: bool = False):
    """The `edges` array of G's document, exactly as `json.dumps` writes
    it, in chunks: compact, or, if `indented`, as `json.dumps(...,
    indent=2)` writes it as a field of the top-level object."""
    if not G.edge_count:
        yield b"[]"
        return
    if indented:
        sep, out, mid, inn = ",", "\n  ", "\n    ", "\n      "
    else:
        sep, out, mid, inn = ", ", "", "", ""
    yield f"[{mid}[{inn}".encode("ascii")
    yield from _edge_chunks(G, sep + inn, f"{mid}]{sep}{mid}[{inn}")
    yield f"{mid}]{out}]".encode("ascii")


def _require_integers(what: str, values) -> None:
    """Reject any document value that is not a JSON integer: a float, a
    bool or a string would otherwise be truncated or parsed into one."""
    if set(map(type, values)) - {int}:
        bad = next(v for v in values if type(v) is not int)
        raise ValueError(f"graph document has a non-integer {what}: {bad!r}")


def _doc_header(doc) -> tuple[int, tuple[int, ...]]:
    """The shift and sorted vertices of a graph document, checked: a
    readable `schema_version` (1 or 2; a document without one is version
    1), a positive integer shift, distinct positive integer vertices and,
    if given, an integer n equal to their count.  `edges` is not read."""
    if not isinstance(doc, dict):
        raise ValueError("malformed graph document: not a JSON object")
    version = doc.get("schema_version", 1)
    if type(version) is not int or version not in _READABLE_SCHEMA_VERSIONS:
        raise ValueError(
            f"graph document has schema_version {version!r}; this reader loads "
            f"versions {', '.join(map(str, _READABLE_SCHEMA_VERSIONS))}"
        )
    try:
        shift = doc["shift"]
        vertices = list(doc["vertices"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed graph document: {exc}") from None
    _require_integers("shift", [shift])
    _require_integers("vertex", vertices)
    vertices = _vertex_list(vertices)
    if shift < 1:
        raise ValueError(f"graph document has shift {shift}; it must be positive")
    if "n" in doc:
        _require_integers("n", [doc["n"]])
        if doc["n"] != len(vertices):
            raise ValueError(
                f"graph document claims n={doc['n']} but lists {len(vertices)} vertices"
            )
    return shift, tuple(sorted(vertices))


def graph_from_doc(doc: dict) -> DiophGraph:
    """Rebuild a graph from its document, validating structure, a positive
    shift and integer values throughout; a `schema_version` other than 1
    or 2 is rejected, and a document without one loads.  The vertex set
    and shift fix the graph (`_rebuild`), so the listed edges must be
    exactly its edges, each once, in any order and orientation."""
    shift, vs = _doc_header(doc)
    ends = np.array(doc.get("edges"), dtype=object)
    if ends.shape == (0,):
        ends = ends.reshape(0, 2)
    if ends.ndim != 2 or ends.shape[1] != 2:
        raise ValueError("malformed graph document: edges must be a list of [a, b] pairs")
    _require_integers("edge end", ends.ravel())
    try:  # object arrays stay only for labels or ends beyond int64
        labels, ends = np.array(vs, dtype=np.int64), ends.astype(np.int64)
    except OverflowError:
        labels = np.array(vs, dtype=object)
    del doc  # load_graph_file holds no other reference: its lists go before the rebuild
    G = _rebuild(shift, vs)
    n = len(vs)
    pos, known = _lookup(labels, ends)
    keys = pos.min(axis=1) * n
    keys += pos.max(axis=1)
    # G's adjacency entries keyed row * n + column, sorted as the CSR is
    real = _lookup(G._per_entry(np.arange(n, dtype=np.int64) * n) + G.indices, keys)[1]
    bad = np.flatnonzero(~(known.all(axis=1) & real))
    if len(bad):
        a, b = ends[bad[0]].tolist()
        if not known[bad[0]].all():
            raise ValueError(f"edge ({a}, {b}) uses unknown vertices")
        raise ValueError(f"({a}, {b}) is not an edge at shift {shift}")
    keys.sort()
    twice = np.flatnonzero(keys[1:] == keys[:-1])
    if len(twice):
        i, j = divmod(int(keys[twice[0]]), n)
        raise ValueError(f"edge ({vs[i]}, {vs[j]}) is listed twice")
    if len(keys) != G.edge_count:
        raise ValueError(
            f"graph document lists {len(keys)} of the {G.edge_count} edges of its "
            f"vertex set at shift {shift}"
        )
    return G


# What precedes the edges in the layout save_graph_file writes.
_EDGES_KEY = b', "edges": '


def save_graph_file(G: DiophGraph, path) -> None:
    """One line of compact JSON, byte-identical to
    `json.dumps(graph_to_doc(G)) + "\n"`: the fields before `edges` go
    through `json.dumps`, and the edges are encoded in chunks straight
    from the adjacency arrays, never as Python pairs."""
    head = json.dumps(_doc_head(G))
    with open(path, "wb") as fh:
        fh.write(head[:-1].encode("ascii"))
        fh.write(_EDGES_KEY)
        for piece in _json_edges(G):
            fh.write(piece)
        fh.write(b"}\n")


def _load_canonical(fh) -> DiophGraph | None:
    """The graph of a document in exactly the layout save_graph_file
    writes, read from the binary file `fh`, or None for any other
    document.

    The file is read in pieces of _CHUNK_BYTES up to the first
    `, "edges": `; only the fields before it are parsed (and checked as
    graph_from_doc checks them).  `_rebuild` makes the graph they fix, and
    each piece of its encoded edges must equal the next bytes of the file,
    which must end with `}` and whitespace.  So beside the graph the check
    holds the header and a piece of the edges, never the whole file, and
    the edges are never parsed."""
    key = _EDGES_KEY
    head = bytearray()
    cut = -1
    while cut < 0:
        piece = fh.read(_CHUNK_BYTES)
        if not piece:
            return None
        start = max(0, len(head) - len(key) + 1)  # a key may straddle two reads
        head += piece
        cut = head.find(key, start)
    rest = bytes(head[cut + len(key) :])
    try:
        # a header object of at least one field (shift and vertices are
        # required) stays valid JSON with the edges appended
        shift, vs = _doc_header(json.loads(head[:cut].decode("utf-8") + "}"))
    except ValueError:  # including invalid JSON and invalid UTF-8
        return None
    del head
    G = _rebuild(shift, vs)
    for piece in chain(_json_edges(G), [b"}"]):
        if len(rest) < len(piece):
            rest += fh.read(len(piece) - len(rest))
        if not rest.startswith(piece):
            return None
        rest = rest[len(piece) :]
    while not rest.strip(b" \t\n\r"):
        rest = fh.read(_CHUNK_BYTES)
        if not rest:
            return G
    return None


def load_graph_file(path) -> DiophGraph:
    """Load a graph document.  A document in the layout save_graph_file
    writes is checked as it is read, by rebuilding its graph and comparing
    encodings piece by piece (`_load_canonical`), so the file is never
    held whole; any other document (version 1, indented, reordered or
    faulty) goes through `read_json_file` and `graph_from_doc`, which
    accept the same documents and name the fault of any other."""
    with open(path, "rb") as fh:
        G = _load_canonical(fh)
    return G if G is not None else graph_from_doc(read_json_file(path))


def write_edge_list(G: DiophGraph, path) -> None:
    """One 'a b' line per edge, a < b, lexicographically sorted."""
    with open(path, "wb") as fh:
        for piece in _edge_chunks(G, " ", "\n"):
            fh.write(piece)
        if G.edge_count:
            fh.write(b"\n")
