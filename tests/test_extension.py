import hashlib
import random
import re
import time
from itertools import combinations, repeat
from math import gcd, isqrt

import pytest

from diograph import cli, extension
from diograph.extension import (
    NeighborBudgetError,
    _search_core,
    _verify_mapping,
    RegularTriple,
    common_neighbors_bounded,
    common_neighbors_equal_sqfree,
    extend_double,
    extend_isolated,
    extend_pendant,
    family_k5_minus_edge,
    pendant_plan,
    regular_extensions,
    represent_graph,
)
from diograph.graph import build_set, edge_test
from diograph.numtheory import is_square, same_square_free_part, square_free_part
from diograph.witnesses import C6_COMPLEMENT_WITNESS, K4_WITNESS


def check_extension(V, out, linked):
    """Re-verify an extension batch: adjacency pattern, freshness against
    V, pairwise-fresh square-free parts among the outputs."""
    for w in out:
        assert w >= 1 and w not in V
        for v in V:
            assert is_square(v * w + 1) == (v in linked), (V, w, v)
            assert not same_square_free_part(w, v)
    for w1, w2 in combinations(out, 2):
        assert w1 != w2
        assert not same_square_free_part(w1, w2)


def test_extend_isolated_examples():
    out = extend_isolated(K4_WITNESS, 3)
    check_extension(K4_WITNESS, out, linked=set())
    # V = {1}: p1 = 2, q = 3 force x = 1 (mod 4), x = 3 (mod 9) -> 21
    out = extend_isolated([1], 2)
    assert out[0] == 21
    assert not is_square(21 + 1)
    assert square_free_part(21) == 21 != 1
    # V = {2}: 2w+1 is divisible by the chosen prime exactly once
    out = extend_isolated([2], 1)
    w = out[0]
    p = 3  # smallest prime not dividing 2
    assert (2 * w + 1) % p == 0 and (2 * w + 1) % (p * p) != 0


def test_extend_pendant_outputs_lie_in_oracle():
    V = [1, 3, 8, 120]
    oracle = [
        w
        for w in range(1, 10**6)
        if is_square(w + 1)
        and not any(is_square(v * w + 1) for v in (3, 8, 120))
    ]
    assert 24 in oracle
    out = extend_pendant(V, 0, 3)
    check_extension(V, out, linked={1})
    for w in out:
        if w < 10**6:
            assert w in oracle
    assert out[0] == 63  # first CRT candidate x=8 mod 49 gives 63


def test_extend_pendant_single_vertex():
    for v in (1, 2, 7, 12):
        out = extend_pendant([v], 0, 1)
        assert is_square(v * out[0] + 1)
        check_extension([v], out, linked={v})


def test_extend_pendant_sqfree_divisible_by_q():
    V = [1, 3, 8, 120]
    plan = pendant_plan(V, 0)
    assert plan.q == 7 and plan.modulus == 49
    for w in extend_pendant(V, 0, 3):
        assert square_free_part(w) % plan.q == 0


def test_extend_double_examples():
    out = extend_double([1, 3], 0, 1, 3)
    assert out == [8, 120, 1680]
    check_extension([1, 3], out, linked={1, 3})
    # with 8 present, 120 is excluded since 8*120+1 = 31^2
    out = extend_double([1, 3, 8], 0, 1, 2)
    assert out[0] == 1680 and 120 not in out
    check_extension([1, 3, 8], out, linked={1, 3})
    # {2, 4} is allowed: square-free parts 2 and 1 differ
    out = extend_double([2, 4], 0, 1, 2)
    assert out[0] == 12
    check_extension([2, 4], out, linked={2, 4})


def test_extend_double_orientation_irrelevant():
    assert extend_double([1, 3], 0, 1, 3) == extend_double([1, 3], 1, 0, 3)


def test_extend_double_rejects_equal_sqfree():
    with pytest.raises(ValueError, match="square-free"):
        extend_double([1, 16], 0, 1, 1)


def test_extend_double_agrees_with_bounded_search():
    for V in ([1, 3], [2, 4], [3, 5], [1, 8]):
        out = extend_double(V, 0, 1, 3)
        within = [w for w in out if w <= 10**7]
        oracle = common_neighbors_bounded(V, 10**7)
        for w in within:
            assert w in oracle


def _digest(out):
    """Digit counts and sha256 of the comma-joined decimals of `out`."""
    return [len(str(w)) for w in out], hashlib.sha256(",".join(map(str, out)).encode()).hexdigest()


# Outputs of the three lemmas at count 3 on seeded 8-element witness sets
# (the shape of the arith benchmark's extend jobs): pendant at indices 0
# and 7, double at (0, 1) and (7, 2).  The double extensions run to
# hundreds of digits, so they are pinned by _digest.
LEMMA_PINS = [
    (
        [24, 35, 105, 96, 39, 2, 140, 20],
        [32239868055228271, 82010296700065171, 131780725344902071],
        [44462, 645832, 1949970],
        [118734, 784476, 2035858],
        ([84, 168, 253], "b8c84e33e084735260647e29715e9f1c45ead35c195df20646796f5eb083c173"),
        ([15, 32, 48], "d4c0ffce366a7683b593c77b3b017d6d060eb51bf29b40f6c28714f3c95b2889"),
    ),
    (
        [110, 105, 120, 4, 102, 9, 22, 13],
        [43932064232595601, 93702492877432501, 143472921522269401],
        [5276148, 37005160, 97404792],
        [1056495, 5426400, 13184651],
        ([161, 323, 486], "5d2a2f8cb7027d1c2594f561cc0722a4e60555fa1250445abf5423bc24808965"),
        ([56, 113, 171], "bb677d5066e0bee16ddcb4903818a71959fcf7765871293f14aed9779c32a3a4"),
    ),
    (
        [84, 46, 30, 24, 9, 70, 168, 132],
        [77868850889734481, 156993483196554581, 236118115503374681],
        [400062, 4758572, 13915330],
        [89284, 5019690, 17490200],
        ([464, 930, 1395], "4a0dc390f9f583febef09843e14e6bbd030b905420b7d872e0b0c5466d68f6d0"),
        ([64, 129, 194], "965cffa5fd21e5426b95b9b839b7e65ce3382e23c06d1d1017dfa77078bea3e0"),
    ),
]


@pytest.mark.parametrize("V, isolated, pendant0, pendant7, double01, double72", LEMMA_PINS)
def test_lemma_outputs_are_pinned(V, isolated, pendant0, pendant7, double01, double72):
    assert extend_isolated(V, 3) == isolated
    assert extend_pendant(V, 0, 3) == pendant0
    assert extend_pendant(V, 7, 3) == pendant7
    assert _digest(extend_double(V, 0, 1, 3)) == double01
    assert _digest(extend_double(V, 7, 2, 3)) == double72


@pytest.mark.parametrize("mode, run", [
    ("isolated", lambda V: extend_isolated(V, 1)),
    ("pendant", lambda V: extend_pendant(V, 0, 1)),
    ("double", lambda V: extend_double(V, 0, 1, 1)),
])
def test_a_stream_of_rejected_candidates_stalls(monkeypatch, mode, run):
    # a candidate already in V is rejected every time
    monkeypatch.setattr(extension, f"_{mode}_candidates", lambda vs, *idx: repeat(vs[0]))
    with pytest.raises(RuntimeError, match=f"^{mode} extension generator stalled$"):
        run([1, 3, 8])


@pytest.mark.parametrize("bad", [2.9, 3.0, "3", True])
def test_extensions_reject_non_integer_elements(bad):
    V = [1, bad, 8]
    calls = [
        lambda: extend_isolated(V, 1),
        lambda: extend_pendant(V, 0, 1),
        lambda: extend_double(V, 0, 2, 1),
        lambda: common_neighbors_bounded(V, 200),
        lambda: pendant_plan(V, 0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(f"vertices must be integers, got {bad!r}")):
            call()


@pytest.mark.parametrize("i", [None, 2, -1, 1.0])
def test_pendant_plan_rejects_a_bad_index_with_a_value_error(i):
    with pytest.raises(ValueError, match=re.escape(f"in [0, 2), got {i!r}")):
        pendant_plan([1, 3], i)


def test_extension_lemmas_and_the_cli_mode_choice(capsys, tmp_path):
    assert extend_double([1, 3], 0, 1, 2) == [8, 120]
    assert extend_isolated([1], 1) == [21]
    with pytest.raises(ValueError):
        extend_double([1, 16], 0, 1, 1)
    wf = tmp_path / "w.txt"
    wf.write_text("1\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        cli.main(["extend", "--witness-file", str(wf), "--mode", "weird"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "argument --mode: invalid choice: 'weird'" in err


def test_common_neighbors_equal_sqfree_examples():
    assert common_neighbors_equal_sqfree(1, 16) == [3]
    assert common_neighbors_equal_sqfree(1, 4) == []
    assert common_neighbors_equal_sqfree(1, 9) == []
    with pytest.raises(ValueError, match="differ"):
        common_neighbors_equal_sqfree(1, 3)


def test_common_neighbors_equal_sqfree_leaves_the_sieve_unbuilt():
    assert common_neighbors_equal_sqfree(3, 12) == []
    assert common_neighbors_equal_sqfree(1, 16) == [3]


def test_common_neighbors_equal_sqfree_matches_bounded():
    pairs = [(1, 4), (1, 9), (1, 16), (1, 25), (2, 8), (3, 12), (2, 18),
             (5, 45), (12, 27), (8, 50)]
    for a, b in pairs:
        exact = common_neighbors_equal_sqfree(a, b)
        assert exact == common_neighbors_bounded([a, b], 10**6), (a, b)
        for w in exact:
            assert is_square(a * w + 1) and is_square(b * w + 1)


def walk_common_neighbors(a, b, x, y):
    """Brute force for a = s*x^2, b = s*y^2: with g = gcd(x, y) and
    A = x/g, B = y/g, (B*r)^2 - (A*t)^2 = B^2 - A^2 bounds r below
    |B^2 - A^2| + 2, so every r is walked."""
    g = gcd(x, y)
    out = []
    for r in range(2, abs((y // g) ** 2 - (x // g) ** 2) + 2):
        w, rem = divmod(r * r - 1, a)
        if not rem and w >= 1 and is_square(b * w + 1):
            out.append(w)
    return out


def test_common_neighbors_equal_sqfree_matches_r_walk():
    rng = random.Random(20261018)
    hits = 0
    for _ in range(400):
        s = rng.randint(1, 30)
        x, y = rng.sample(range(1, 80), 2)
        a, b = s * x * x, s * y * y
        got = common_neighbors_equal_sqfree(a, b)
        assert got == walk_common_neighbors(a, b, x, y), (s, x, y)
        hits += len(got)
    assert hits > 0


def test_common_neighbors_bounded_examples():
    assert common_neighbors_bounded([1, 3, 8], 10**6) == [120]
    assert common_neighbors_bounded([1, 2, 3], 10**6) == []
    assert common_neighbors_bounded([1, 3, 120], 10**6) == [8, 1680]


def test_common_neighbors_bounded_brute_force():
    rng = random.Random(17)
    for _ in range(20):
        S = rng.sample(range(1, 30), rng.randint(1, 3))
        bound = 3000
        brute = [
            w
            for w in range(1, bound + 1)
            if w not in S and all(is_square(v * w + 1) for v in S)
        ]
        assert common_neighbors_bounded(S, bound) == brute, S


def test_regular_triple_examples():
    t = RegularTriple.from_values(1, 3, 8)
    assert (t.r, t.s, t.t) == (2, 3, 5)
    assert regular_extensions(t) == (0, 120)
    t = RegularTriple.from_values(1, 3, 120)
    assert (t.r, t.s, t.t) == (2, 11, 19)
    assert regular_extensions(t) == (8, 1680)
    with pytest.raises(ValueError, match="triple"):
        RegularTriple.from_values(1, 2, 3)


def test_regular_extension_ordering_invariant():
    for a, b, c in [(1, 3, 8), (1, 3, 120), (1, 8, 120), (3, 8, 120), (2, 4, 12)]:
        t = RegularTriple.from_values(a, b, c)
        d_minus, d_plus = regular_extensions(t)
        assert 0 <= d_minus < max(a, b, c) < d_plus


def test_family_k5_minus_edge():
    assert family_k5_minus_edge(2) == (1, 3, 8, 120, 11781)
    for k in (2, 3, 4, 10):
        values = family_k5_minus_edge(k)
        quad = values[:4]
        assert quad == (k - 1, k + 1, 4 * k, 16 * k**3 - 4 * k)
        for a, b in combinations(quad, 2):
            assert edge_test(a, b)
        g = build_set(values)
        assert g.edge_count == 9
    with pytest.raises(ValueError):
        family_k5_minus_edge(1)


def test_family_fifth_element_is_dplus_of_largest_three():
    for k in (2, 3, 7):
        values = family_k5_minus_edge(k)
        t = RegularTriple.from_values(*values[1:4])
        assert regular_extensions(t)[1] == values[4]


def test_represent_max_degree_two_always_succeeds():
    cases = [
        ("empty3", [0, 1, 2], []),
        ("path4", [0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)]),
        ("cycle5", [0, 1, 2, 3, 4], [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
        ("cycle3+pendant", [0, 1, 2, 3], [(0, 1), (1, 2), (2, 0), (2, 3)]),
        ("two_paths", [0, 1, 2, 3], [(0, 1), (2, 3)]),
    ]
    for name, vs, es in cases:
        res = represent_graph(vs, es)
        assert res.status == "found", name
        g = build_set(res.witness.values)
        for u, v in combinations(vs, 2):
            want = (u, v) in es or (v, u) in es
            assert g.has_edge(res.witness.mapping[u], res.witness.mapping[v]) == want


def test_represent_k5_reports_impossible():
    res = represent_graph(list(range(5)), list(combinations(range(5), 2)))
    assert res.status == "unknown"
    assert res.known_impossible
    assert res.witness is None


def test_represent_c6_complement():
    # the known witness realizes it ...
    g = build_set(C6_COMPLEMENT_WITNESS)
    degs = sorted(g.degree(v) for v in g.vertices)
    assert degs == [3] * 6
    non_edges = {
        frozenset((a, b))
        for a, b in combinations(C6_COMPLEMENT_WITNESS, 2)
        if not g.has_edge(a, b)
    }
    assert len(non_edges) == 6  # the complement is the 6-cycle
    # ... and the search rediscovers one from scratch
    edges = [(a, b) for a, b in combinations(range(6), 2) if abs(a - b) not in (1, 5)]
    res = represent_graph(list(range(6)), edges, pool_bound=200)
    assert res.status == "found"
    assert set(res.witness.values) == set(C6_COMPLEMENT_WITNESS)


def test_represent_budget_exhaustion_is_unknown():
    edges = [(a, b) for a, b in combinations(range(6), 2) if abs(a - b) not in (1, 5)]
    res = represent_graph(list(range(6)), edges, node_budget=3, pool_bound=200)
    assert res.status == "unknown"
    assert not res.known_impossible


def test_verify_mapping_matches_edge_test():
    # target 0-1-2 path: adjacency bitmasks, then mappings that do and do not
    # realise it; two vertices on one value are rejected as edge_test does
    adj = [0b010, 0b101, 0b010]
    assert _verify_mapping([0, 1, 2], adj, {0: 1, 1: 3, 2: 5})
    assert not _verify_mapping([0, 1, 2], adj, {0: 1, 1: 3, 2: 8})  # 1*8 + 1 = 9
    assert not _verify_mapping([0, 1, 2], adj, {0: 1, 1: 2, 2: 4})
    with pytest.raises(ValueError, match="map to 3"):
        _verify_mapping([0, 1, 2], adj, {0: 3, 1: 3, 2: 1})


def test_represent_k4_core():
    res = represent_graph([0, 1, 2, 3], list(combinations(range(4), 2)))
    assert res.status == "found"
    assert set(res.witness.values) == set(K4_WITNESS)


def reference_search_core(vertices, edge_set, pool_bound, budget):
    """The representation search as it was before the bitmask rewrite:
    candidates by a divmod walk over r <= sqrt(m*pool) on every visit and
    edge_test consistency against every assigned vertex."""
    order = []
    remaining = set(vertices)
    degree = {v: sum(1 for u in vertices if frozenset((u, v)) in edge_set) for v in vertices}
    while remaining:
        if order:
            key = lambda v: (
                -sum(1 for u in order if frozenset((u, v)) in edge_set),
                -degree[v],
                vertices.index(v),
            )
        else:
            key = lambda v: (-degree[v], vertices.index(v))
        nxt = min(remaining, key=key)
        order.append(nxt)
        remaining.discard(nxt)

    assignment = {}
    used = set()

    def candidates_for(v):
        anchors = [u for u in order if u in assignment and frozenset((u, v)) in edge_set]
        if not anchors:
            return list(range(1, pool_bound + 1))
        m = min(assignment[u] for u in anchors)
        cands = []
        for r in range(2, isqrt(m * pool_bound + 1) + 1):
            w, rem = divmod(r * r - 1, m)
            if not rem and 1 <= w <= pool_bound:
                cands.append(w)
        return cands

    def consistent(v, w):
        if w in used:
            return False
        for u, wu in assignment.items():
            want = frozenset((u, v)) in edge_set
            if wu == w or edge_test(wu, w) != want:
                return False
        return True

    def backtrack(pos):
        if pos == len(order):
            return True
        v = order[pos]
        for w in candidates_for(v):
            budget[0] -= 1
            if budget[0] <= 0:
                return False
            if consistent(v, w):
                assignment[v] = w
                used.add(w)
                if backtrack(pos + 1):
                    return True
                del assignment[v]
                used.discard(w)
        return False

    if backtrack(0):
        return dict(assignment)
    return None


def test_search_core_matches_reference():
    rng = random.Random(6)
    found = exhausted = 0
    for _ in range(80):
        n = rng.randint(4, 7)
        pairs = [p for p in combinations(range(n), 2) if rng.random() < 0.6]
        adj = [0] * n
        for a, b in pairs:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        core = sorted(rng.sample(range(n), rng.randint(3, n)))
        pool = rng.randint(30, 200)
        budget = rng.choice([rng.randint(1, 60), rng.randint(200, 4000)])
        want_left, got_left = [budget], [budget]
        want = reference_search_core(core, {frozenset(p) for p in pairs}, pool, want_left)
        got = _search_core(adj, core, pool, got_left)
        assert (got is None) == (want is None), (n, pairs, core, pool, budget)
        if want is not None:
            assert list(got.items()) == list(want.items())
        assert got_left == want_left
        found += want is not None
        exhausted += want_left[0] <= 0
    assert found and exhausted


REPRESENT_K33 = ([1, 2, 3, 4, 5, 6], [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)])
REPRESENT_W5 = (
    [0, 1, 2, 3, 4, 5],
    [(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)],
)


def test_represent_node_counts_are_pinned():
    # an exhausted budget is charged once more per open level above
    res = represent_graph(*REPRESENT_K33, node_budget=20_000)
    assert (res.status, res.nodes_searched) == ("unknown", 20_004)
    res = represent_graph(*REPRESENT_W5)
    assert (res.status, res.known_impossible, res.nodes_searched) == ("unknown", False, 152_973)


def test_represent_rebuild_through_all_three_lemmas_is_pinned():
    # K4 on a..d, e pendant to a, f double to b and c, g isolated: the rebuild
    # calls the double (f), pendant (e) and isolated (g) lemmas, in that order
    vs = list("abcdefg")
    es = [*combinations("abcd", 2), ("e", "a"), ("f", "b"), ("f", "c")]
    res = represent_graph(vs, es)
    assert res.status == "found" and res.nodes_searched == 14
    assert res.witness.mapping == {
        "a": 1, "b": 3, "c": 8, "d": 120, "e": 63, "f": 191793804840, "g": 208622489893,
    }
    assert res.witness.values == tuple(res.witness.mapping[v] for v in vs)


def test_represent_rejects_nonpositive_budget_and_pool():
    for kw in ({"node_budget": 0}, {"node_budget": -5}, {"pool_bound": 0}, {"pool_bound": -3}):
        with pytest.raises(ValueError, match="positive"):
            represent_graph(*REPRESENT_K33, **kw)


def test_represent_rejects_malformed_targets_with_value_error():
    cases = [
        (([[1], [2]], []), "hashable"),
        (([1, 2], [5]), "pairs"),
        (([1, "a"], []), "ordered"),
        (([1j, 2j], []), "ordered"),  # one type, still without an order
        (([1, 2], None), "pairs"),
        (([1, 2], [[1, 2, 3]]), "pairs"),
        (([1, 2], [[[1], 2]]), r"bad edge \(\[1\], 2\)"),  # an unhashable end
    ]
    for target, text in cases:
        with pytest.raises(ValueError, match=text):
            represent_graph(*target)
    # labels of two types that compare are a target like any other
    assert represent_graph([0, 1.5], []).status == "found"


def test_represent_and_bounded_neighbors_leave_the_sieve_unbuilt():
    assert represent_graph(*REPRESENT_K33, node_budget=2_000).status == "unknown"
    assert represent_graph([0, 1, 2, 3], list(combinations(range(4), 2))).status == "found"
    assert common_neighbors_bounded([1, 3, 8], 10**6) == [120]


def r_walk_common_neighbors(S, bound):
    """common_neighbors_bounded before the root-class walk: every r up to
    sqrt(m*bound + 1) for the smallest element m."""
    values = sorted(S)
    m, rest = values[0], values[1:]
    out = []
    for r in range(2, isqrt(m * bound + 1) + 1):
        w, rem = divmod(r * r - 1, m)
        if rem or w < 1 or w > bound or w in values:
            continue
        if all(is_square(v * w + 1) for v in rest):
            out.append(w)
    return out


def test_common_neighbors_bounded_many_prime_factors_is_quick():
    # m has 30 odd prime factors and 2^30 root classes: the walk cannot
    # list them, so each w <= bound is tested directly
    primes = [p for p in range(3, 200) if all(p % d for d in range(2, p))][:30]
    m = 1
    for p in primes:
        m *= p
    for S, bound in (([m, m + 1], 10), ([m], 50), ([m, 2 * m], 10)):
        start = time.perf_counter()
        got = common_neighbors_bounded(S, bound)
        assert time.perf_counter() - start < 1
        assert got == [w for w in range(1, bound + 1) if w not in S
                       and all(is_square(v * w + 1) for v in S)], (S, bound)


def test_common_neighbors_bounded_candidate_budget(monkeypatch):
    # the budget caps the candidates of the branch that runs: the root-class
    # walk of 1 (isqrt(bound + 1) + 1 multipliers) or the direct test of
    # every w <= bound for a 30-prime m
    monkeypatch.setattr(extension, "_NEIGHBOR_CANDIDATE_BUDGET", 1000)
    m = 1
    for p in [p for p in range(3, 200) if all(p % d for d in range(2, p))][:30]:
        m *= p
    for S, allowed, refused in (([1, 3], 999**2 - 1, 1000**2 - 1), ([m, m + 1], 1000, 1001)):
        assert common_neighbors_bounded(S, allowed) == [
            w for w in range(1, allowed + 1)
            if w not in S and all(is_square(v * w + 1) for v in S)]
        with pytest.raises(NeighborBudgetError, match="above the budget of 1000"):
            common_neighbors_bounded(S, refused)
    assert issubclass(NeighborBudgetError, ValueError)


def test_common_neighbors_bounded_direct_tests_match_r_walk():
    # S(m) = 2^6 and 2^7: bounds below S(m) test each w directly, larger
    # ones walk the root classes; both must agree with the plain r walk
    hits = set()
    for m in (255_255, 4_849_845):
        for bound in (1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 328, 329, 399):
            for S in ([m], [m, 4 * m], [m, m + 1]):
                got = common_neighbors_bounded(S, bound)
                assert got == r_walk_common_neighbors(S, bound), (S, bound)
                hits.update((bound < 64, w) for w in got)
    assert (True, 8) in hits and (False, 329) in hits


def test_common_neighbors_bounded_matches_r_walk():
    rng = random.Random(2026)
    hits = 0
    for _ in range(300):
        S = rng.sample(range(1, rng.choice([50, 2_000, 10**6])), rng.randint(1, 3))
        bound = rng.randint(1, 20_000)
        got = common_neighbors_bounded(S, bound)
        assert got == r_walk_common_neighbors(S, bound), (S, bound)
        hits += len(got)
    assert hits > 0

