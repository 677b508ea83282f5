"""Constructive vertex extensions, common-neighbor solvers, regular
quadruple extensions, parametrized families, and representation search
for small abstract graphs.

The three extension modes attach a new integer w to a witness set V so
that w is adjacent to nobody (isolated), to exactly one chosen element
(pendant), or to exactly two chosen elements with different square-free
parts (double).  Each mode is a stream of candidates from its CRT/Pell
construction that checks what the construction promises; one loop
(`_extend`) takes the candidates that pass one rule, verified by direct
square tests, never trusted.  Square-free-part freshness is checked via
the product test (x and y share a square-free part iff x*y is a perfect
square), which stays exact for orbit elements far beyond factoring
range.

Nothing here needs numpy or imports `graph`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import gcd, isqrt

from .numtheory import (
    _count_unit_roots,
    _crt_unit_roots,
    crt_combine,
    divisors,
    factorize,
    is_square,
    iter_primes,
    same_square_free_part,
)
from .pell import (
    PellBudgetError,
    PellInstance,
    _unit_power,
    fundamental_unit,
    iter_orbit,
    unit_order_mod,
)
from .witnesses import _vertex_list

__all__ = [
    "NeighborBudgetError",
    "PendantPlan",
    "RegularTriple",
    "RepresentResult",
    "WitnessSet",
    "common_neighbors_bounded",
    "common_neighbors_equal_sqfree",
    "extend_double",
    "extend_isolated",
    "extend_pendant",
    "family_k5_minus_edge",
    "pendant_plan",
    "regular_extensions",
    "represent_graph",
]

# Consecutive candidate rejections before the generators give up; the
# constructions succeed infinitely often, so hitting this is a defect.
_GENERATOR_STALL_LIMIT = 512
# Candidates common_neighbors_bounded may test: about a second of work in
# CPython on a 2-core host, far above the few thousand a bounded neighbour
# query of small elements needs (and the 500 of a representation pool).
_NEIGHBOR_CANDIDATE_BUDGET = 500_000


class NeighborBudgetError(ValueError):
    """A bounded common-neighbor search would test more than
    _NEIGHBOR_CANDIDATE_BUDGET candidates."""


def _fresh_against(w: int, others) -> bool:
    return all(not same_square_free_part(w, v) for v in others)


def _chosen(vs, *indices) -> list[int]:
    """The elements of the witness list vs at the chosen indices, which
    must be distinct positions of it."""
    for k in indices:
        if not isinstance(k, int) or not 0 <= k < len(vs):
            raise ValueError(
                f"extension index must be an integer in [0, {len(vs)}), got {k!r}"
            )
    if len(set(indices)) < len(indices):
        raise ValueError(f"extension indices must be distinct, got {list(indices)}")
    return [vs[k] for k in indices]


def _distinct_primes_avoiding(values: list[int]) -> tuple[list[int], int]:
    """Pairwise distinct primes p_i with p_i not dividing v_i (smallest
    admissible, in index order), plus the smallest prime q coprime to
    every v and distinct from all p_i."""
    used: set[int] = set()
    ps: list[int] = []
    for v in values:
        for p in iter_primes():
            if p not in used and v % p != 0:
                ps.append(p)
                used.add(p)
                break
    for q in iter_primes():
        if q not in used and all(v % q != 0 for v in values):
            return ps, q
    raise AssertionError("unreachable")


def _extend(
    mode: str, vs: list[int], count: int, chosen: tuple[int, ...], candidates
) -> list[int]:
    """The first `count` values w of the stream `candidates` that extend
    the witness list vs: w is not in vs, is adjacent to none of its
    elements but those at the `chosen` indices, and has a square-free
    part fresh against vs and the earlier outputs.  The stream makes its
    own construction checks; more than _GENERATOR_STALL_LIMIT rejections
    in a row mean the construction is broken."""
    if count < 1:
        raise ValueError("count must be positive")
    others = [v for idx, v in enumerate(vs) if idx not in chosen]
    out: list[int] = []
    stall = 0
    for w in candidates:
        if (
            w not in vs
            and all(not is_square(v * w + 1) for v in others)
            and _fresh_against(w, vs)
            and _fresh_against(w, out)
        ):
            out.append(w)
            if len(out) == count:
                return out
            stall = 0
        else:
            stall += 1
            if stall > _GENERATOR_STALL_LIMIT:
                raise RuntimeError(f"{mode} extension generator stalled")


def _isolated_candidates(vs: list[int]):
    ps, q = _distinct_primes_avoiding(vs)
    congruences = []
    for v, p in zip(vs, ps):
        p2 = p * p
        congruences.append((((p - 1) * pow(v, -1, p2)) % p2, p2))
    congruences.append((q, q * q))
    x0, M = crt_combine(congruences)
    w = x0 if x0 >= 1 else x0 + M
    while True:
        for v in vs:
            if is_square(v * w + 1):
                raise RuntimeError(
                    f"constructed isolated extension {w} is adjacent to {v}"
                )
            if same_square_free_part(w, v):
                raise RuntimeError(
                    f"constructed isolated extension {w} shares a "
                    f"square-free part with {v}"
                )
        yield w
        w += M


def extend_isolated(V, count: int) -> list[int]:
    """Integers w joined to nothing in V, with square-free parts fresh
    against V and pairwise distinct among the returned values.

    Construction: solve v_i*x + 1 = p_i (mod p_i^2) for distinct primes
    p_i not dividing v_i, plus x = q (mod q^2) for a prime q coprime to
    everything.  Then v_i*w + 1 is divisible by p_i exactly once (so not
    a square) and q divides w exactly once (so its square-free part is
    new).  Each candidate is still verified directly.
    """
    vs = _vertex_list(V)
    return _extend("isolated", vs, count, (), _isolated_candidates(vs))


@dataclass(frozen=True)
class PendantPlan:
    """The congruence data behind a pendant extension: the auxiliary
    prime q, the fundamental solution (z0, y0) of z^2 - q*v_i*y^2 = 1
    with y0 = q^t * y1, the combined modulus M = q^(2t+2) * v_i, and the
    base residue x0."""

    v_i: int
    q: int
    z0: int
    y0: int
    t: int
    modulus: int
    x0: int


def pendant_plan(V, i: int) -> PendantPlan:
    vs = _vertex_list(V)
    (v_i,) = _chosen(vs, i)
    for q in iter_primes():
        if all(v % q != 0 for v in vs):
            break
    unit = fundamental_unit(q * v_i)
    z0, y0 = unit.mu, unit.nu
    t = 0
    y1 = y0
    while y1 % q == 0:
        y1 //= q
        t += 1
    qpow = q ** (2 * t + 2)
    x0, M = crt_combine([(1, v_i), (z0, qpow)])
    return PendantPlan(v_i=v_i, q=q, z0=z0, y0=y0, t=t, modulus=M, x0=x0)


def _pendant_candidates(vs: list[int], i: int):
    plan = pendant_plan(vs, i)
    v_i, q, M = plan.v_i, plan.q, plan.modulus
    x = plan.x0
    if x <= 1:
        x += M
    while True:
        # x >= 2, so w >= 1
        w, rem = divmod(x * x - 1, v_i)
        if rem:
            raise RuntimeError(f"candidate x={x} is not 1 mod {v_i}")
        if not is_square(v_i * w + 1):
            raise RuntimeError(f"pendant candidate {w} lost its square")
        val_q = 0
        ww = w
        while ww % q == 0:
            ww //= q
            val_q += 1
        if val_q % 2 != 1:
            raise RuntimeError(
                f"pendant candidate {w} has even q-valuation {val_q}"
            )
        if not _fresh_against(w, vs):
            raise RuntimeError(
                f"pendant candidate {w} shares a square-free part with V"
            )
        yield w
        x += M


def extend_pendant(V, i: int, count: int) -> list[int]:
    """Integers w joined to v_i and nothing else in V.

    Candidates come from x = 1 (mod v_i), x = z0 (mod q^(2t+2)) with
    w = (x^2 - 1)/v_i: then v_i*w + 1 = x^2 and q divides the square-free
    part of w, so freshness against V is automatic.  Adjacency to the
    other elements is killed by filtering (only O(log X) candidates up to
    X can fail, so the filter passes infinitely often).
    """
    vs = _vertex_list(V)
    return _extend("pendant", vs, count, (i,), _pendant_candidates(vs, i))


def _double_candidates(vs: list[int], i: int, j: int):
    v_i, v_j = _chosen(vs, i, j)
    if same_square_free_part(v_i, v_j):
        raise ValueError(
            f"{v_i} and {v_j} share a square-free part; only finitely many "
            "common neighbors exist (use common_neighbors_equal_sqfree)"
        )
    if v_j < v_i:
        # the adjacency contract is symmetric; anchoring the orbit at the
        # smaller value keeps the unit order (and the orbit elements) small
        v_i, v_j = v_j, v_i
    d = gcd(v_i, v_j)
    vi_, vj_ = v_i // d, v_j // d
    D = vi_ * vj_
    instance = PellInstance(D, vi_ * (vi_ - vj_))
    unit = fundamental_unit(D)
    t0 = unit_order_mod(unit, D, v_i)
    points = iter_orbit(instance, (vi_, 1), _unit_power(unit, D, t0))
    next(points)  # the seed gives w = 0; every later Y is at least 2, so w >= 1
    for X, Y in points:
        if instance.residual(X, Y) != 0:
            raise RuntimeError("orbit left the Pell conic")
        w, rem = divmod(Y * Y - 1, v_i)
        if rem:
            raise RuntimeError(f"Y={Y} is not 1 mod {v_i} despite stepping by t0={t0}")
        if not (is_square(v_i * w + 1) and is_square(v_j * w + 1)):
            raise RuntimeError(f"double candidate {w} lost a square")
        yield w


def extend_double(V, i: int, j: int, count: int) -> list[int]:
    """Integers w joined to v_i and v_j (of different square-free parts)
    and to nothing else in V.

    Write v_i = d*vi', v_j = d*vj' with d = gcd.  Solutions of the pair
    of squares v_i*w + 1 = Y^2, v_j*w + 1 = (X/vi')^2 correspond to
    solutions of X^2 - vi'*vj'*Y^2 = vi'*(vi' - vj'), seeded by
    (X, Y) = (vi', 1) and stepped by the fundamental unit.  Stepping by
    the unit's order t0 modulo v_i keeps Y = 1 (mod v_i), so
    w = (Y^2 - 1)/v_i is integral.  Adjacency to other elements and
    square-free freshness are filtered; both exclusions are finite.
    """
    vs = _vertex_list(V)
    return _extend("double", vs, count, (i, j), _double_candidates(vs, i, j))


def common_neighbors_equal_sqfree(a: int, b: int) -> list[int]:
    """All w >= 1 adjacent to both a and b when a and b share a
    square-free part.  Exact and finite, no search bound.

    With a = g*alpha^2, b = g*beta^2, A/B = beta/alpha in lowest terms,
    which is isqrt(a*b)/a (a*b = (g*alpha*beta)^2), so neither a nor b
    is factored.  The squares a*w + 1 = r^2, b*w + 1 = t^2 force
    (A*r)^2 - (B*t)^2 = A^2 - B^2, a fixed nonzero difference, so all
    solutions come from its divisor pairs.  The divisors come from a
    factorization of |A^2 - B^2|, so the run time is bounded: a difference
    rho cannot split raises FactorizationBudgetError.
    """
    if a == b:
        raise ValueError("need two distinct integers")
    if a < 1 or b < 1:
        raise ValueError("inputs must be positive")
    if not same_square_free_part(a, b):
        raise ValueError(
            "square-free parts differ; use common_neighbors_bounded instead"
        )
    root = isqrt(a * b)
    delta = gcd(root, a)
    A, B = root // delta, a // delta
    diff = A * A - B * B
    out: set[int] = set()
    for p in divisors(abs(diff)):
        qq = abs(diff) // p
        if qq < p:
            break
        if (p + qq) % 2:
            continue
        u, wv = (p + qq) // 2, (qq - p) // 2
        # diff > 0: u = A*r, wv = B*t; diff < 0: roles swap
        ar, bt = (u, wv) if diff > 0 else (wv, u)
        r, rem_r = divmod(ar, A)
        t, rem_t = divmod(bt, B)
        if rem_r or rem_t or r < 1 or t < 1:
            continue
        w, rem_w = divmod(r * r - 1, a)
        if rem_w or w < 1:
            continue
        if not (is_square(a * w + 1) and is_square(b * w + 1)):
            raise RuntimeError(f"divisor-pair solution w={w} failed verification")
        out.add(w)
    return sorted(out)


def common_neighbors_bounded(S, bound: int) -> list[int]:
    """All w <= bound adjacent to every element of S, increasing.

    With m the smallest element, m*w + 1 = r^2 puts r in a root class of
    x^2 = 1 (mod m), so those classes are walked and the other elements
    filter.  When the S(m) classes hold more r than there are w <= bound
    (m has many prime factors), each w is tested directly instead and the
    roots are never listed, so after one `factorize(m)` the work is at
    most `bound` candidates either way.  A search that would test more
    than _NEIGHBOR_CANDIDATE_BUDGET candidates raises NeighborBudgetError
    before it starts."""
    values = sorted(_vertex_list(S))
    if not values:
        raise ValueError("S must be nonempty")
    if bound < 1:
        raise ValueError("bound must be positive")
    m = values[0]
    rest = values[1:]
    sset = set(values)
    rmax = isqrt(m * bound + 1)
    factors = factorize(m).factors
    walk = _count_unit_roots(factors) * (rmax // m + 1)
    work = min(walk, bound)
    if work > _NEIGHBOR_CANDIDATE_BUDGET:
        raise NeighborBudgetError(
            f"common neighbors of {values} up to {bound} need {work} candidate "
            f"tests, above the budget of {_NEIGHBOR_CANDIDATE_BUDGET}"
        )
    if walk > bound:
        return [
            w for w in range(1, bound + 1)
            if w not in sset and all(is_square(v * w + 1) for v in values)
        ]
    out = []
    for rho in _crt_unit_roots(factors):
        for r in range(rho, rmax + 1, m):
            w = (r * r - 1) // m
            if w >= 1 and w not in sset and all(is_square(v * w + 1) for v in rest):
                out.append(w)
    return sorted(out)


@dataclass(frozen=True)
class RegularTriple:
    """A Diophantine triple a, b, c together with the square roots
    r, s, t of ab+1, ac+1, bc+1."""

    a: int
    b: int
    c: int
    r: int
    s: int
    t: int

    @classmethod
    def from_values(cls, a: int, b: int, c: int) -> "RegularTriple":
        if len({a, b, c}) != 3 or min(a, b, c) < 1:
            raise ValueError("need three distinct positive integers")
        r, s, t = isqrt(a * b + 1), isqrt(a * c + 1), isqrt(b * c + 1)
        if r * r != a * b + 1 or s * s != a * c + 1 or t * t != b * c + 1:
            raise ValueError(f"({a}, {b}, {c}) is not a Diophantine triple")
        return cls(a, b, c, r, s, t)


def regular_extensions(triple: RegularTriple) -> tuple[int, int]:
    """The two regular quadruple extensions d-+ = a+b+c+2abc -+ 2rst.

    Every nonzero d distinct from a, b, c is verified to complete a
    Diophantine quadruple by three direct square tests.
    """
    a, b, c, r, s, t = triple.a, triple.b, triple.c, triple.r, triple.s, triple.t
    base = a + b + c + 2 * a * b * c
    d_minus, d_plus = base - 2 * r * s * t, base + 2 * r * s * t
    if d_minus < 0 or d_plus <= max(a, b, c):
        raise RuntimeError(f"regular extensions out of order: {d_minus}, {d_plus}")
    for d in (d_minus, d_plus):
        if d > 0 and d not in (a, b, c):
            for v in (a, b, c):
                if not is_square(v * d + 1):
                    raise RuntimeError(
                        f"regular extension {d} of ({a}, {b}, {c}) fails at {v}"
                    )
    return d_minus, d_plus


def family_k5_minus_edge(k: int) -> tuple[int, int, int, int, int]:
    """Member k of the parametrized 5-tuple family realizing K5 minus
    one edge: the quadruple (k-1, k+1, 4k, 16k^3-4k) plus the upper
    regular extension of its three largest elements."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    values = (
        k - 1,
        k + 1,
        4 * k,
        16 * k**3 - 4 * k,
        256 * k**5 + 256 * k**4 - 32 * k**3 - 64 * k**2 + k + 3,
    )
    non_edges = [(a, b) for a, b in combinations(values, 2) if not is_square(a * b + 1)]
    if len(non_edges) != 1:
        raise RuntimeError(
            f"family member k={k} is not K5 minus one edge: "
            f"{len(non_edges)} edges missing"
        )
    return values


# ---------------------------------------------------------------------------
# Representation search for small abstract graphs
# ---------------------------------------------------------------------------


@dataclass
class WitnessSet:
    """Integers that represent an abstract graph, with the vertex mapping.
    Each witness is checked edge for edge before it is returned."""

    values: tuple[int, ...]
    mapping: dict


@dataclass
class RepresentResult:
    status: str  # "found" | "unknown"
    witness: WitnessSet | None
    known_impossible: bool
    nodes_searched: int


def _positions(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _contains_k5(adj: list[int]) -> bool:
    return any(
        all(adj[u] >> v & 1 for u, v in combinations(combo, 2))
        for combo in combinations(range(len(adj)), 5)
    )


def _verify_mapping(vertices: list, adj: list[int], mapping: dict) -> bool:
    """Whether the mapped values are distinct and adjacent (ab + 1 a
    square) exactly where the target's edges are."""
    for i, j in combinations(range(len(vertices)), 2):
        a, b = mapping[vertices[i]], mapping[vertices[j]]
        if a == b:
            raise ValueError(f"two target vertices map to {a}")
        if is_square(a * b + 1) != bool(adj[i] >> j & 1):
            return False
    return True


def _search_core(
    adj: list[int], core: list[int], pool_bound: int, budget: list[int]
) -> dict | None:
    """Backtracking assignment of values in {1..pool_bound} to the target
    positions `core` (bit j of adj[i] marks the edge ij): {position:
    value} in search order, or None.

    Positions are ordered to maximize assigned neighbors.  The candidates
    are the pool neighbors of the smallest assigned neighbor's value, or
    the whole pool without one, ascending.  Each costs one unit of
    `budget` and is taken when it is in the allowed mask: unused, and
    adjacent to exactly the assigned neighbors' values.
    """
    core_mask = sum(1 << i for i in core)
    order: list[int] = []
    while len(order) < len(core):
        placed = sum(1 << i for i in order)
        order.append(min((i for i in core if i not in order), key=lambda i: (
            -(adj[i] & placed).bit_count(), -(adj[i] & core_mask).bit_count(), i)))
    # links[k][j]: whether the positions searched at depths j < k and k are adjacent
    links = [[adj[v] >> u & 1 for u in order[:k]] for k, v in enumerate(order)]
    values: list[int] = []

    @cache
    def neighbors(w: int) -> tuple[list[int], int]:
        """w's neighbors in {1..pool_bound}, ascending, and their bitmask."""
        ws = common_neighbors_bounded([w], pool_bound)
        return ws, sum(1 << x for x in ws)

    def backtrack(k: int) -> bool:
        if k == len(order):
            return True
        anchors = [w for w, linked in zip(values, links[k]) if linked]
        cands = neighbors(min(anchors))[0] if anchors else range(1, pool_bound + 1)
        allowed = -1  # every bit set
        for w, linked in zip(values, links[k]):
            mask = neighbors(w)[1]
            allowed &= (mask if linked else ~mask) & ~(1 << w)
        for w in cands:
            budget[0] -= 1
            if budget[0] <= 0:
                return False
            if allowed >> w & 1:
                values.append(w)
                if backtrack(k + 1):
                    return True
                values.pop()
        return False

    if backtrack(0):
        return dict(zip(order, values))
    return None


def _target_adjacency(vertices, edges) -> tuple[list, list[int]]:
    """The target's vertices and one adjacency bitmask per vertex, checked:
    at most eight distinct hashable labels that can be ordered (the peel
    breaks degree ties by label), and edges that are pairs of two of them."""
    verts = list(vertices)
    if len(verts) > 8:
        raise ValueError("representation search is limited to 8 vertices")
    try:
        distinct = len(set(verts)) == len(verts)
    except TypeError:
        raise ValueError("target vertices must be hashable") from None
    if not distinct:
        raise ValueError("duplicate target vertices")
    try:
        sorted(verts)
    except TypeError:
        raise ValueError("target vertices must be labels that can be ordered") from None
    try:
        pairs = [(a, b) for a, b in edges]
    except (TypeError, ValueError):
        raise ValueError("target edges must be pairs of vertices") from None
    adj = [0] * len(verts)
    for a, b in pairs:  # `in` compares, so an unhashable end is a bad edge too
        if a == b or a not in verts or b not in verts:
            raise ValueError(f"bad edge ({a}, {b})")
        adj[verts.index(a)] |= 1 << verts.index(b)
        adj[verts.index(b)] |= 1 << verts.index(a)
    return verts, adj


def represent_graph(
    vertices,
    edges,
    node_budget: int = 2_000_000,
    pool_bound: int = 500,
) -> RepresentResult:
    """Find a witness realizing the given abstract graph (at most eight
    vertices), or report "unknown".

    Vertices of degree at most two are peeled recursively and rebuilt
    by the isolated, pendant or double extension lemma for their 0, 1 or
    2 remaining neighbors; a leftover core of minimum degree three or
    more goes to a budgeted brute-force search over {1..pool_bound}.
    `nodes_searched` counts the candidates tried; each open level of the
    search charges one more once the budget runs out, so it can pass
    node_budget by up to the search depth.  A target containing K5 is
    flagged as known impossible (no Diophantine quintuples exist) and
    reported without searching.  A malformed target (`_target_adjacency`)
    raises ValueError.
    """
    verts, adj = _target_adjacency(vertices, edges)
    if node_budget < 1 or pool_bound < 1:
        raise ValueError("node_budget and pool_bound must be positive")

    if _contains_k5(adj):
        return RepresentResult("unknown", None, True, 0)

    # Peel min-degree <= 2 vertices, smallest label first on ties.
    active = (1 << len(verts)) - 1
    peeled: list[tuple[object, list]] = []
    while active:
        degree = {i: (adj[i] & active).bit_count() for i in _positions(active)}
        i = min(degree, key=lambda i: (degree[i], verts[i]))
        if degree[i] > 2:
            break
        peeled.append((verts[i], [verts[u] for u in _positions(adj[i] & active)]))
        active &= ~(1 << i)

    nodes = [node_budget]
    core = _search_core(adj, _positions(active), pool_bound, nodes)
    searched = node_budget - nodes[0]
    unknown = RepresentResult("unknown", None, False, searched)
    if core is None:
        return unknown
    mapping = {verts[i]: w for i, w in core.items()}
    for v, nbrs in reversed(peeled):
        values = tuple(mapping.values())
        ends = [values.index(mapping[u]) for u in nbrs]
        if len(ends) == 2 and same_square_free_part(mapping[nbrs[0]], mapping[nbrs[1]]):
            # Lemma's precondition broken by the core assignment;
            # report honestly rather than claim a negative.
            return unknown
        lemma = (extend_isolated, extend_pendant, extend_double)[len(ends)]
        try:
            mapping[v] = lemma(values, *ends, 1)[0]
        except PellBudgetError:
            return unknown  # nor is a Pell period or unit order too long to compute

    if not _verify_mapping(verts, adj, mapping):
        raise RuntimeError("constructed representation failed verification")
    witness = WitnessSet(tuple(mapping[v] for v in verts), dict(mapping))
    return RepresentResult("found", witness, False, searched)
