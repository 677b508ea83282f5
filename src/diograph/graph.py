"""Diophantine graphs and their persistence.

Vertices are distinct positive integers; two vertices a, b are adjacent
exactly when a*b + shift is a perfect square (shift = 1 is the classical
relation).  Graphs are immutable once built: mutating operations return
new values, so concurrent readers are always safe.

The range graph on {1..N} at shift 1 rests on the residue-class
enumeration behind the degree bound: the multipliers r with
a*b + 1 = r^2 lie in the root classes of x^2 = 1 (mod a), so the
neighbors of a are swept without touching the other N-1 vertices.  One
sweep serves both build_range (which expands each class) and
range_edge_count (which counts it in closed form).  Any other shift
falls back to pairwise testing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .numtheory import is_square, unit_roots_mod

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

# Largest product for which the vectorized float64 square test is exact.
_NUMPY_SQUARE_LIMIT = 1 << 52
# Below this many vertices the plain Python pairwise loop wins.
_NUMPY_MIN_VERTICES = 64


class GraphDefectError(RuntimeError):
    """A structural impossibility was observed (e.g. a 5-clique at shift 1)."""


class WitnessFileError(ValueError):
    """Malformed witness file; the message carries the offending line."""


@dataclass
class DiophGraph:
    """Finite graph on distinct positive integers under the shifted-square
    relation.  `vertices` is sorted; adjacency lists are sorted tuples."""

    vertices: tuple[int, ...]
    adjacency: dict[int, tuple[int, ...]]
    shift: int = 1

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency.values()) // 2

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, a: int, b: int) -> bool:
        if a not in self.adjacency or b not in self.adjacency:
            return False
        small, other = (a, b) if len(self.adjacency[a]) <= len(self.adjacency[b]) else (b, a)
        return other in self.adjacency[small]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (a, b) with a < b, lexicographically sorted."""
        out = []
        for a in self.vertices:
            for b in self.adjacency[a]:
                if b > a:
                    out.append((a, b))
        return out


def edge_test(a: int, b: int, shift: int = 1) -> bool:
    """True iff a*b + shift is a perfect square.  a == b is rejected."""
    if a == b:
        raise ValueError(f"edge_test needs distinct vertices, got {a} twice")
    if a < 1 or b < 1 or shift < 1:
        raise ValueError("vertices and shift must be positive")
    return is_square(a * b + shift)


def _validate_vertices(values) -> list[int]:
    vs = [int(v) for v in values]
    if any(v < 1 for v in vs):
        raise ValueError("vertices must be positive integers")
    if len(set(vs)) != len(vs):
        dup = sorted(v for v in set(vs) if vs.count(v) > 1)
        raise ValueError(f"duplicate vertices: {dup}")
    return vs


def _pairwise_adjacency(vs: list[int], shift: int) -> dict[int, list[int]]:
    """Test all pairs directly.  Vectorized per row when products stay in
    the exact float64 range; pure Python otherwise."""
    vs = sorted(vs)
    adj: dict[int, list[int]] = {v: [] for v in vs}
    n = len(vs)
    use_numpy = (
        n >= _NUMPY_MIN_VERTICES
        and n >= 2
        and vs[-1] * vs[-2] + shift < _NUMPY_SQUARE_LIMIT
    )
    if use_numpy:
        arr = np.array(vs, dtype=np.int64)
        for i in range(n - 1):
            rest = arr[i + 1 :]
            prod = arr[i] * rest + shift
            roots = np.rint(np.sqrt(prod.astype(np.float64))).astype(np.int64)
            hits = rest[roots * roots == prod]
            a = int(arr[i])
            for b in hits:
                b = int(b)
                adj[a].append(b)
                adj[b].append(a)
    else:
        for i in range(n - 1):
            a = vs[i]
            for b in vs[i + 1 :]:
                if is_square(a * b + shift):
                    adj[a].append(b)
                    adj[b].append(a)
    return adj


def build_set(values, shift: int = 1) -> DiophGraph:
    """Graph on an explicit vertex set, pairwise tested."""
    if shift < 1:
        raise ValueError(f"shift must be positive, got {shift}")
    vs = sorted(_validate_vertices(values))
    adj = _pairwise_adjacency(vs, shift)
    return DiophGraph(tuple(vs), {v: tuple(sorted(nb)) for v, nb in adj.items()}, shift)


def _root_classes(N: int):
    """(a, r0, rmax) for every vertex a of {1..N} and every root class of
    x^2 = 1 (mod a) that holds a multiplier r in (a, rmax], rmax =
    isqrt(a*N + 1); r0 is the smallest such r.  Each r in the class up to
    rmax gives the neighbor b = (r^2 - 1)/a > a.  Vertices a >= N - 1 have
    no neighbor above them and are skipped."""
    for a in range(1, N - 1):
        rmax = isqrt(a * N + 1)
        for rho in unit_roots_mod(a).roots:
            r0 = a + 1 + (rho - a - 1) % a
            if r0 <= rmax:
                yield a, r0, rmax


def build_range(N: int, shift: int = 1) -> DiophGraph:
    """Graph on {1..N}.  At shift 1 each vertex's neighbors above it are
    swept from its root classes; other shifts fall back to pairwise
    testing."""
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    if shift != 1:
        return build_set(range(1, N + 1), shift)
    adj: dict[int, list[int]] = {v: [] for v in range(1, N + 1)}
    for a, r, rmax in _root_classes(N):
        nb = adj[a]
        while r <= rmax:
            b = (r * r - 1) // a
            nb.append(b)
            adj[b].append(a)
            r += a
    # candidates from different root classes of the same vertex interleave
    return DiophGraph(
        tuple(range(1, N + 1)), {v: tuple(sorted(nb)) for v, nb in adj.items()}, 1
    )


def range_edge_count(N: int) -> int:
    """Edge count of the shift-1 graph on {1..N} without building it:
    each root class contributes a closed-form count of its multipliers."""
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    return sum((rmax - r0) // a + 1 for a, r0, rmax in _root_classes(N))


@dataclass
class GraphStats:
    n: int
    e: int
    density: Fraction
    degree_histogram: dict[int, int]
    clique_number: int
    components: int


class _CapHit(Exception):
    def __init__(self, clique: list[int]):
        self.clique = clique


def _clique_number(G: DiophGraph, cap: int = 5) -> int:
    """Largest clique size, searched exhaustively up to `cap`.

    At shift 1 a clique of size `cap` (= 5) contradicts the nonexistence
    of Diophantine quintuples, so hitting it raises GraphDefectError.
    """
    if G.n == 0:
        return 0
    adj = {v: set(nb) for v, nb in G.adjacency.items()}
    best = [1]

    def extend(clique: list[int], cands: set[int]) -> None:
        if len(clique) > best[0]:
            best[0] = len(clique)
            if best[0] >= cap:
                raise _CapHit(list(clique))
        if len(clique) + len(cands) <= best[0]:
            return
        for u in sorted(cands):
            extend(clique + [u], {w for w in cands & adj[u] if w > u})

    try:
        for v in G.vertices:
            extend([v], {w for w in adj[v] if w > v})
    except _CapHit as hit:
        if G.shift == 1:
            raise GraphDefectError(
                f"{cap}-clique found at shift 1: {sorted(hit.clique)}"
            ) from None
        return cap
    return best[0]


def _component_count(G: DiophGraph) -> int:
    seen: set[int] = set()
    count = 0
    for v in G.vertices:
        if v in seen:
            continue
        count += 1
        stack = [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            for w in G.adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


def stats(G: DiophGraph) -> GraphStats:
    """Exact counts; the clique search is exhaustive up to size 5."""
    n = G.n
    e = G.edge_count
    hist: dict[int, int] = {}
    for v in G.vertices:
        d = G.degree(v)
        hist[d] = hist.get(d, 0) + 1
    if G.shift == 1 and 8 * e > 3 * n * n:
        raise GraphDefectError(f"edge bound violated: e={e} > (3/8)*{n}^2")
    return GraphStats(
        n=n,
        e=e,
        density=Fraction(e, n) if n else Fraction(0),
        degree_histogram=dict(sorted(hist.items())),
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
    from .numtheory import factorize

    N = G.n
    if G.shift != 1 or G.vertices != tuple(range(1, N + 1)):
        raise ValueError("degree_bound_check needs a shift-1 graph on {1..N}")
    violations = []
    max_ratio = 0.0
    argmax = 1
    for a in G.vertices:
        deg = G.degree(a)
        pow4 = 4 ** factorize(a).omega
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


def remove_vertex(G: DiophGraph, v: int) -> DiophGraph:
    if v not in G.adjacency:
        raise ValueError(f"vertex {v} not in graph")
    adj = {
        u: tuple(w for w in nb if w != v)
        for u, nb in G.adjacency.items()
        if u != v
    }
    return DiophGraph(tuple(u for u in G.vertices if u != v), adj, G.shift)


def induced(G: DiophGraph, subset) -> DiophGraph:
    keep = set(subset)
    if not keep <= set(G.vertices):
        extra = sorted(keep - set(G.vertices))
        raise ValueError(f"subset contains non-vertices: {extra}")
    adj = {
        u: tuple(w for w in nb if w in keep)
        for u, nb in G.adjacency.items()
        if u in keep
    }
    return DiophGraph(tuple(v for v in G.vertices if v in keep), adj, G.shift)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def load_witness_file(path) -> list[int]:
    """Read a witness file: one positive decimal integer per line, '#'
    comments, no duplicates.  The listed order is preserved."""
    values: list[int] = []
    seen: set[int] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                v = int(line)
            except ValueError:
                raise WitnessFileError(
                    f"{path}:{lineno}: not a decimal integer: {line!r}"
                ) from None
            if v < 1:
                raise WitnessFileError(f"{path}:{lineno}: not positive: {v}")
            if v in seen:
                raise WitnessFileError(f"{path}:{lineno}: duplicate value: {v}")
            seen.add(v)
            values.append(v)
    return values


def save_witness_file(values, path, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        for v in values:
            fh.write(f"{v}\n")


def graph_to_doc(G: DiophGraph) -> dict:
    """Deterministic document: n, shift, sorted vertices, sorted edges."""
    return {
        "schema_version": GRAPH_SCHEMA_VERSION,
        "n": G.n,
        "shift": G.shift,
        "vertices": list(G.vertices),
        "edges": [[a, b] for a in G.vertices for b in G.adjacency[a] if b > a],
    }


def graph_from_doc(doc: dict) -> DiophGraph:
    """Rebuild a graph from its document, validating structure, a positive
    shift, the square property of every listed edge and that no edge is
    listed twice.  A `schema_version` other than 1 or 2 is rejected; a
    document without one loads."""
    if not isinstance(doc, dict):
        raise ValueError("malformed graph document: not a JSON object")
    version = doc.get("schema_version", 1)
    if type(version) is not int or version not in _READABLE_SCHEMA_VERSIONS:
        raise ValueError(
            f"graph document has schema_version {version!r}; this reader loads "
            f"versions {', '.join(map(str, _READABLE_SCHEMA_VERSIONS))}"
        )
    try:
        shift = int(doc["shift"])
        vertices = _validate_vertices(doc["vertices"])
        edges = [(int(a), int(b)) for a, b in doc["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed graph document: {exc}") from None
    if shift < 1:
        raise ValueError(f"graph document has shift {shift}; it must be positive")
    if "n" in doc and int(doc["n"]) != len(vertices):
        raise ValueError(
            f"graph document claims n={doc['n']} but lists {len(vertices)} vertices"
        )
    adj: dict[int, list[int]] = {v: [] for v in sorted(vertices)}
    for a, b in edges:
        na, nb = adj.get(a), adj.get(b)
        if na is None or nb is None:
            raise ValueError(f"edge ({a}, {b}) uses unknown vertices")
        # edge_test without its argument checks, which hold here
        if a == b or not is_square(a * b + shift):
            raise ValueError(f"({a}, {b}) is not an edge at shift {shift}")
        na.append(b)
        nb.append(a)
    adjacency = {v: tuple(sorted(nb)) for v, nb in adj.items()}
    for a, nb in adjacency.items():
        if len(set(nb)) != len(nb):
            b = next(u for u, w in zip(nb, nb[1:]) if u == w)
            raise ValueError(f"edge ({min(a, b)}, {max(a, b)}) is listed twice")
    return DiophGraph(tuple(sorted(vertices)), adjacency, shift)


def save_graph_file(G: DiophGraph, path) -> None:
    """One line of compact JSON.  It is encoded with one `json.dumps`:
    `json.dump` and any `indent` use the pure-Python encoder."""
    text = json.dumps(graph_to_doc(G))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def load_graph_file(path) -> DiophGraph:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
            ) from None
    return graph_from_doc(doc)


def write_edge_list(G: DiophGraph, path) -> None:
    """One 'a b' line per edge, a < b, lexicographically sorted."""
    with open(path, "w", encoding="utf-8") as fh:
        for a, b in G.edges():
            fh.write(f"{a} {b}\n")
