import random

import numpy as np
import pytest

from diograph.coloring import (
    ColoringResult,
    ColorStats,
    _propagate,
    _symmetry_clique,
    _verify_coloring,
    chromatic_number,
    k_colorable,
    minimality_check,
    mod4_coloring_shift2,
)
from diograph.graph import DiophGraph, build_range, build_set
from diograph.witnesses import FIVE_CHROMATIC_WITNESS, K4_WITNESS


def abstract_graph(n, edges):
    """Abstract test graph on 1..n (bypasses the square relation)."""
    vs = tuple(range(1, n + 1))
    adj = {v: [] for v in vs}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return DiophGraph(vs, {v: tuple(sorted(nb)) for v, nb in adj.items()}, shift=10**9)


def cycle_graph(n):
    return abstract_graph(n, [(i, i % n + 1) for i in range(1, n + 1)])


def exhaustive_colorable(G, k):
    """Dumb oracle: enumerate all k^n assignments, vectorized."""
    n = G.n
    if n == 0:
        return True
    if k == 0:
        return False
    idx = {v: i for i, v in enumerate(G.vertices)}
    grids = np.meshgrid(*([np.arange(k)] * n), indexing="ij")
    cols = np.stack([g.ravel() for g in grids], axis=1)
    ok = np.ones(len(cols), dtype=bool)
    for a in G.vertices:
        for b in G.adjacency[a]:
            if a < b:
                ok &= cols[:, idx[a]] != cols[:, idx[b]]
    return bool(ok.any())


def propagate(g, k, decided, rng=None):
    """Run the propagator from the pre-decisions {vertex: color}.  `rng`
    shuffles the seed queue and every adjacency tuple.  Returns the
    verdict, the candidate masks by vertex, the vertices left with one
    color (the decided ones) and the deletion count."""
    order = list(g.vertices)
    index = {v: i for i, v in enumerate(order)}
    adj = [[index[u] for u in g.adjacency[v]] for v in order]
    table = [(1 << k) - 1] * len(order)
    queue = []
    for v, c in decided.items():
        i = index[v]
        table[i] = 1 << c
        queue.append(i)
    if rng:
        for nb in adj:
            rng.shuffle(nb)
        rng.shuffle(queue)
    stats = ColorStats()
    ok = _propagate(table, [tuple(nb) for nb in adj], queue, stats)
    masks = {v: table[index[v]] for v in order}
    swept = {v for v, m in masks.items() if m & (m - 1) == 0}
    return ok, masks, swept, stats.propagation_steps


# The colour search as it was when it kept a `decided` bitmask beside
# the candidate masks; the search derives that set from the masks, with
# the same verdicts, assignments and counters.
def reference_propagate(table, adj, decided, queue, stats):
    while queue:
        v = queue.pop()
        mask = table[v]
        for u in adj[v]:
            cu = table[u]
            if cu & mask:
                cu &= ~mask
                stats.propagation_steps += 1
                if not cu:
                    return False, decided
                table[u] = cu
                if cu & (cu - 1) == 0 and not (decided >> u) & 1:
                    decided |= 1 << u
                    queue.append(u)
    return True, decided


def reference_k_colorable(G, k, branch_order=None):
    order = list(branch_order) if branch_order is not None else list(G.vertices)
    stats = ColorStats()
    n = len(order)
    if n == 0:
        return ColoringResult(True, {}, stats)
    if k <= 0:
        return ColoringResult(False, None, stats)
    k = min(k, n)
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
    decided = sum(1 << i for i in seeds)
    ok, decided = reference_propagate(cand, adj, decided, seeds, stats)
    if not ok:
        return ColoringResult(False, None, stats)
    stack = [(cand, decided, 0)]
    stats.peak_open = 1
    while stack:
        table, decided, pos = stack.pop()
        while pos < n and table[pos] & (table[pos] - 1) == 0:
            pos += 1
        if pos == n:
            assignment = {order[i]: table[i].bit_length() - 1 for i in range(n)}
            _verify_coloring(G, assignment)
            return ColoringResult(True, assignment, stats)
        mask = table[pos]
        bits = []
        while mask:
            low = mask & -mask
            bits.append(low)
            mask ^= low
        stats.branches += len(bits)
        for bit in reversed(bits):
            child = table.copy()
            child[pos] = bit
            ok, child_decided = reference_propagate(
                child, adj, decided | (1 << pos), [pos], stats
            )
            if ok:
                stack.append((child, child_decided, pos + 1))
        if len(stack) > stats.peak_open:
            stats.peak_open = len(stack)
    return ColoringResult(False, None, stats)


def witness_orders():
    """{name: order}: the certified order of the 80-vertex witness, its
    `random.Random(b).shuffle` for b = 1, 2, 3, and the certified order
    without 1365."""
    orders = {"certified": list(FIVE_CHROMATIC_WITNESS)}
    for b in (1, 2, 3):
        order = list(FIVE_CHROMATIC_WITNESS)
        random.Random(b).shuffle(order)
        orders[f"shuffle{b}"] = order
    orders["minus1365"] = [v for v in FIVE_CHROMATIC_WITNESS if v != 1365]
    return orders


def assert_matches_reference(G, k, order=None):
    got = k_colorable(G, k, order)
    want = reference_k_colorable(G, k, order)
    assert (got.colorable, got.assignment, got.stats) == (want.colorable, want.assignment, want.stats)
    return got


def test_sweep_forces_last_clique_color():
    g = build_set(K4_WITNESS)
    ok, masks, swept, _ = propagate(g, 4, {1: 0, 3: 1, 8: 2})
    assert ok
    assert masks[120] == 1 << 3
    assert swept == set(K4_WITNESS)


def test_sweep_chain_propagation():
    g = abstract_graph(3, [(1, 2), (2, 3)])
    ok, masks, swept, steps = propagate(g, 2, {1: 0})
    assert ok
    assert masks == {1: 0b01, 2: 0b10, 3: 0b01}
    assert swept == {1, 2, 3} and steps == 2


def test_sweep_contradiction_on_triangle():
    g = abstract_graph(3, [(1, 2), (1, 3), (2, 3)])
    ok, _, _, _ = propagate(g, 2, {1: 0, 2: 1})
    assert not ok


def test_sweep_confluence_under_random_orders():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(4, 9)
        edges = [
            (a, b)
            for a in range(1, n)
            for b in range(a + 1, n + 1)
            if rng.random() < 0.5
        ]
        g = abstract_graph(n, edges)
        decided = {1: 0}
        if n >= 5:
            decided[5] = 1
        base = propagate(g, 3, decided)
        for seed in range(5):
            shuffled = propagate(g, 3, decided, rng=random.Random(seed))
            # the contradiction verdict is order-independent; the full
            # fixpoint (masks, decided set, deletions) is only reached,
            # and unique, without one
            assert shuffled[0] == base[0]
            if base[0]:
                assert shuffled == base


def test_sweep_is_monotone():
    g = abstract_graph(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    decided = {1: 0}
    ok, masks, _, _ = propagate(g, 3, decided)
    assert ok
    for v in g.vertices:
        before = 1 << decided[v] if v in decided else 0b111
        assert masks[v] & ~before == 0
    assert masks[2] == masks[4] == 0b110


def test_k_colorable_odd_cycle():
    c5 = cycle_graph(5)
    assert not k_colorable(c5, 2).colorable
    assert k_colorable(c5, 3).colorable


def test_k_colorable_zero_k():
    g = build_set([1, 3])
    assert not k_colorable(g, 0).colorable
    empty = DiophGraph((), {}, 1)
    assert k_colorable(empty, 0).colorable


def test_k_beyond_n_is_capped_at_n():
    g = build_set(FIVE_CHROMATIC_WITNESS[:10])
    at_n = k_colorable(g, g.n)
    for k in (11, 10**5, 10**7):
        res = k_colorable(g, k)
        assert res.colorable and res.stats == at_n.stats
        assert res.assignment == at_n.assignment


def test_witness_is_proper():
    g = build_range(60)
    res = k_colorable(g, 3)
    if res.colorable:
        for a in g.vertices:
            for b in g.adjacency[a]:
                assert res.assignment[a] != res.assignment[b]


def test_completeness_against_exhaustive_enumeration():
    rng = random.Random(20260810)
    for _ in range(200):
        size = rng.randint(2, 8)
        values = rng.sample(range(1, 400), size)
        g = build_set(values)
        for k in range(1, 5):
            got = k_colorable(g, k).colorable
            want = exhaustive_colorable(g, k)
            assert got == want, (values, k)


def test_branch_order_validation():
    g = build_set([1, 3, 8])
    with pytest.raises(ValueError, match="permutation"):
        k_colorable(g, 2, branch_order=[1, 3])


def test_chromatic_number_examples():
    assert chromatic_number(build_set(K4_WITNESS)) == 4
    assert chromatic_number(build_set([5])) == 1
    assert chromatic_number(DiophGraph((), {}, 1)) == 0
    assert chromatic_number(cycle_graph(6)) == 2
    assert chromatic_number(cycle_graph(7)) == 3


def test_symmetry_clique_needs_the_quadruple_edges():
    # the public constructor takes any adjacency: labels 1, 3, 8, 120 at
    # shift 1 without their edges are no clique to pre-colour
    quad = DiophGraph(K4_WITNESS, {v: () for v in K4_WITNESS}, 1)
    assert k_colorable(quad, 1).colorable
    assert chromatic_number(quad) == 1
    vs = (*K4_WITNESS, 5)
    one_edge = DiophGraph(vs, {v: {1: (3,), 3: (1,)}.get(v, ()) for v in vs}, 1)
    assert chromatic_number(one_edge) == 2
    assert _symmetry_clique(build_set(vs), list(vs)) == list(K4_WITNESS)


def test_minimality_on_k5_scaffold():
    vs = tuple(range(1, 6))
    adj = {v: tuple(u for u in vs if u != v) for v in vs}
    k5 = DiophGraph(vs, adj, shift=10**9)  # abstract: skip shift-1 tripwires
    report = minimality_check(k5, 4)
    assert report.minimal and set(report.removable) == set(vs)


def test_minimality_rejects_colorable_input():
    with pytest.raises(ValueError, match="already"):
        minimality_check(build_set(K4_WITNESS), 4)


def test_mod4_coloring_shift2():
    g = build_range(100, shift=2)
    coloring = mod4_coloring_shift2(g)
    assert set(coloring.values()) <= {0, 1, 2}
    single = build_set([7], shift=2)
    assert mod4_coloring_shift2(single) == {7: 2}
    with pytest.raises(ValueError):
        mod4_coloring_shift2(build_range(10, shift=1))


def test_verify_coloring_names_the_first_improper_edge():
    g = build_set(K4_WITNESS)
    _verify_coloring(g, {1: 0, 3: 1, 8: 2, 120: 3})
    with pytest.raises(RuntimeError, match="improper coloring: 3 and 8 share 1$"):
        _verify_coloring(g, {1: 0, 3: 1, 8: 1, 120: 1})
    with pytest.raises(RuntimeError, match="^mod4 rule: 1 and 120 share 0$"):
        _verify_coloring(g, {1: 0, 3: 1, 8: 2, 120: 0}, "mod4 rule")


def test_thousand_vertex_heuristic_graph_refutation():
    # the 1000 integers with the largest S(a)/sqrt(a) induce a graph that
    # is not 4-colorable; the refutation must stay at desk scale
    import time

    from diograph.analysis import heuristic_top

    top = heuristic_top(10**6, 1000)
    g = build_set(top)
    t0 = time.perf_counter()
    res = k_colorable(g, 4, branch_order=top)
    elapsed = time.perf_counter() - t0
    assert res.colorable is False
    assert elapsed < 60.0
    assert res.stats.peak_open < 10**4


def test_stats_counters_populated():
    refuted = k_colorable(cycle_graph(5), 2)
    assert refuted.stats.propagation_steps > 0
    branched = k_colorable(cycle_graph(5), 3)
    assert branched.stats.branches >= 2
    assert branched.stats.peak_open >= 1


# (branches, peak_open, propagation_steps) of the 4-colour search
WITNESS_STATS = {
    "certified": (1662, 15, 42275),
    "shuffle1": (46549, 26, 967912),
    "shuffle2": (40025, 20, 1062619),
    "shuffle3": (75902, 20, 1817682),
    "minus1365": (793, 11, 20383),
}


@pytest.mark.parametrize("name", list(WITNESS_STATS))
def test_witness_search_matches_reference_and_pinned_stats(name):
    order = witness_orders()[name]
    res = assert_matches_reference(build_set(order), 4, order)
    assert res.colorable == (name == "minus1365")
    s = res.stats
    assert (s.branches, s.peak_open, s.propagation_steps) == WITNESS_STATS[name]


def test_random_graphs_match_reference():
    # drawn mostly from the witness, so that about half the 2-colour and
    # some 3-colour searches refute
    rng = random.Random(20261020)
    pool = sorted(set(FIVE_CHROMATIC_WITNESS) | set(range(1, 100)))
    for _ in range(300):
        values = rng.sample(pool, rng.randint(1, 48))  # a shuffled order
        g = build_set(values)
        for k in range(1, 5):
            assert_matches_reference(g, k, values)


def test_cycles_and_k5_match_reference():
    vs = tuple(range(1, 6))
    k5 = DiophGraph(vs, {v: tuple(u for u in vs if u != v) for v in vs}, shift=10**9)
    for k in range(1, 6):
        assert_matches_reference(k5, k)
        for n in (3, 5, 7, 9):
            assert_matches_reference(cycle_graph(n), k)
