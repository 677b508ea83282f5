import random
from fractions import Fraction
from math import log

import pytest

from diograph import graph
from diograph.analysis import (
    PruneStep,
    PruneTrace,
    _bitmask_adjacency,
    _hamilton_dfs,
    hamiltonian_cycle_exists,
    hamiltonian_path_exists,
    heuristic_score,
    heuristic_top,
    mod4_neighbor_premise,
    near_hamiltonian_path,
    omega_distribution,
    prune_low_degree,
)
from diograph.graph import DiophGraph, build_range, build_set, edge_test, remove_vertex
from diograph.numtheory import factorize
from diograph.witnesses import C6_COMPLEMENT_WITNESS, FIVE_CHROMATIC_WITNESS


def abstract_graph(n, edges, shift=10**9):
    vs = tuple(range(1, n + 1))
    adj = {v: [] for v in vs}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return DiophGraph(vs, {v: tuple(sorted(nb)) for v, nb in adj.items()}, shift)


def test_prune_star_is_fixpoint():
    star = abstract_graph(6, [(1, v) for v in range(2, 7)])
    pruned, trace = prune_low_degree(star)
    assert trace.steps == ()
    assert pruned.vertices == star.vertices


def test_prune_removes_isolated_vertex_first():
    g = abstract_graph(4, [(1, 2), (2, 3), (1, 3)])  # vertex 4 isolated
    pruned, trace = prune_low_degree(g)
    assert trace.steps[0].vertex == 4
    assert trace.steps[0].degree == 0


def test_prune_strict_density_increase_on_range_graph():
    g = build_range(1000)
    pruned, trace = prune_low_degree(g)
    assert len(trace.steps) > 0
    # the densities e/n before and after each removal, from the running (n, e)
    n, e = g.n, g.edge_count
    for step in trace.steps:
        assert Fraction(step.degree) < Fraction(e, n) < Fraction(e - step.degree, n - 1)
        n, e = n - 1, e - step.degree
    assert (n, e) == (pruned.n, pruned.edge_count)
    assert Fraction(e, n) > Fraction(g.edge_count, g.n)


def prune_by_rebuilding(G):
    """Reference pruning: scan for a minimum (degree, label) vertex and
    rebuild the graph without it, once per removal."""
    cur = G
    steps = []
    while cur.n:
        e, n = cur.edge_count, cur.n
        v = min(cur.vertices, key=lambda u: (cur.degree(u), u))
        d = cur.degree(v)
        if d * n >= e:
            break
        steps.append(PruneStep(v, d))
        cur = remove_vertex(cur, v)
    return cur, PruneTrace(tuple(steps))


# prune --N: (initial e, removed vertices, final n, final e), as perfbench
# checks them
PRUNE_FACTS = {2000: (8394, 1242, 758, 4283), 300: (916, 128, 172, 634)}


@pytest.mark.parametrize("N", [300, 1000, 2000])
def test_prune_matches_rebuild_oracle_on_range_graphs(N):
    g = build_range(N)
    pruned, trace = prune_low_degree(g)
    assert (pruned, trace) == prune_by_rebuilding(build_range(N))
    removed = sum(step.degree for step in trace.steps)
    assert (pruned.n, pruned.edge_count) == (g.n - len(trace.steps), g.edge_count - removed)
    if N in PRUNE_FACTS:
        got = (g.edge_count, len(trace.steps), pruned.n, pruned.edge_count)
        assert got == PRUNE_FACTS[N]


def test_prune_matches_rebuild_oracle_on_random_graphs():
    graphs = [
        # labels past int64, among them a Diophantine quadruple
        build_set([1, 3, 8, 120, 2**80, 2**80 + 1, 46341**2 - 1, 65537**2 - 1, 10**30]),
        # a triangle with a pendant: the least degree equals e/n, so none goes
        abstract_graph(4, [(1, 2), (1, 3), (2, 3), (3, 4)]),
    ]
    for seed in range(20):
        rng = random.Random(seed)
        if seed % 2:
            # Diophantine graphs on sparse sets: many isolated vertices
            graphs.append(build_set(rng.sample(range(1, 400), rng.randrange(20, 80))))
        else:
            # random abstract graphs with few distinct degrees: many ties
            n, p = rng.randrange(10, 60), rng.choice((0.05, 0.1, 0.3))
            pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
            g = abstract_graph(n, [ab for ab in pairs if rng.random() < p])
            # the same graph on shuffled labels 7k: positions are not labels,
            # and ties by label fall in another order
            label = dict(zip(g.vertices, rng.sample(range(7, 7 * n + 1, 7), n)))
            adjacency = {label[v]: [label[u] for u in g.neighbors(v)] for v in g.vertices}
            graphs += [g, DiophGraph(label.values(), adjacency, g.shift)]
    removed_degrees = set()
    for at, g in enumerate(graphs):
        pruned, trace = prune_low_degree(g)
        assert (pruned, trace) == prune_by_rebuilding(g), at
        assert pruned._relation == g._relation, at
        removed_degrees |= {step.degree for step in trace.steps}
    assert {0, 1, 2} <= removed_degrees
    assert graphs[0]._relation and not graphs[1]._relation
    assert prune_low_degree(graphs[1])[1].steps == ()


def test_prune_reads_only_the_csr_arrays(monkeypatch):
    def refuse(*args):
        raise AssertionError("prune must read the CSR arrays, not labels")

    expected = prune_by_rebuilding(build_range(2000))
    monkeypatch.setattr(DiophGraph, "neighbors", refuse)
    monkeypatch.setattr(graph, "induced", refuse)
    assert prune_low_degree(build_range(2000)) == expected


def test_heuristic_score_values():
    assert abs(heuristic_score(24) - 8 / 24**0.5) < 1e-12
    assert abs(heuristic_score(24) - 1.63299) < 1e-4
    assert abs(heuristic_score(120) - 1.46059) < 1e-4
    assert heuristic_score(1) == 1.0


def test_heuristic_top_small_range():
    # hand-ranked top of [1, 30]: 24 (1.633), 8 (1.414), 12/3/15 (1.155)
    top = heuristic_top(30, 5)
    assert top[0] == 24
    assert top[1] == 8
    assert set(top[2:5]) == {3, 12, 15}
    assert top[2:5] == [3, 12, 15]  # equal scores tie-break by smaller a


def test_heuristic_exact_tie_break():
    # S(a)^2/a is exactly 4/3 for a in {3, 12, 48}: ties resolve by smaller a
    from fractions import Fraction

    from diograph.numtheory import count_unit_roots

    scores = {a: Fraction(count_unit_roots(a) ** 2, a) for a in (3, 12, 48)}
    assert scores[3] == scores[12] == scores[48] == Fraction(4, 3)
    top = heuristic_top(48, 6)
    assert [a for a in top if a in (3, 12, 48)] == [3, 12, 48]


def test_heuristic_top_matches_exact_ranking():
    from fractions import Fraction

    from diograph.numtheory import count_unit_roots

    N = 3000
    score = {a: Fraction(count_unit_roots(a) ** 2, a) for a in range(1, N + 1)}
    exact = sorted(score, key=lambda a: (-score[a], a))
    assert heuristic_top(N, 200) == exact[:200]


def test_omega_distribution_matches_factorize():
    x = 5000
    brute = [0] * 6
    for a in range(1, x + 1):
        brute[factorize(a).omega] += 1
    assert list(omega_distribution(x).counts) == brute


@pytest.mark.parametrize("size", [1, 3, 7])
def test_table_passes_of_any_size(monkeypatch, size):
    from diograph import numtheory
    from diograph.numtheory import count_unit_roots

    monkeypatch.setattr(numtheory, "_TABLE_PASS", size)
    x = 5000
    brute = [0] * 6
    for a in range(1, x + 1):
        brute[factorize(a).omega] += 1
    assert list(omega_distribution(x).counts) == brute
    score = {a: Fraction(count_unit_roots(a) ** 2, a) for a in range(1, x + 1)}
    exact = sorted(score, key=lambda a: (-score[a], a))
    assert heuristic_top(x, 50) == exact[:50]


def test_whole_range_statistics_stay_in_bounded_memory():
    # each reads about 5.4 MiB here, the spf and omega tables and the
    # sieve's masks; with whole-table temporaries, 21.9 MiB
    import tracemalloc

    for call in (lambda: heuristic_top(10**6, 1000), lambda: omega_distribution(10**6)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak / 2**20


def test_heuristic_argmax_1e6_is_24():
    assert heuristic_top(10**6, 1)[0] == 24


def test_omega_distribution_examples():
    dist = omega_distribution(100)
    assert dist.count(0) == 1
    assert dist.count(1) == 35
    brute = [len([a for a in range(1, 101) if factorize(a).omega == k]) for k in range(4)]
    assert list(dist.counts) == brute
    assert omega_distribution(1).counts == (1,)


def test_omega_tail_bound():
    dist = omega_distribution(10**6, C=2.0)
    threshold = 2.0 * log(log(10**6))
    brute_tail = sum(c for k, c in enumerate(dist.counts) if k > threshold)
    assert dist.tail_sum == brute_tail
    assert dist.within_bound
    with pytest.raises(ValueError):
        omega_distribution(100, C=1.0)


def test_near_hamiltonian_path_examples():
    assert near_hamiltonian_path(8) == [7, 5, 3, 1, 8, 6, 4, 2]
    assert near_hamiltonian_path(13) == [13, 11, 9, 7, 5, 3, 1, 8, 6, 4, 2, 12]
    assert near_hamiltonian_path(16) == [
        3, 1, 15, 13, 11, 9, 7, 5, 16, 14, 12, 10, 8, 6, 4, 2,
    ]
    with pytest.raises(ValueError):
        near_hamiltonian_path(7)


def test_near_hamiltonian_path_coverage():
    for N in range(8, 200):
        path = near_hamiltonian_path(N)
        assert len(set(path)) == len(path)
        for a, b in zip(path, path[1:]):
            assert edge_test(a, b, 1)
        missed = set(range(1, N + 1)) - set(path)
        assert missed <= {10}


def test_sixteen_k_squared_paths_are_hamiltonian():
    for k in (1, 2, 3):
        N = 16 * k * k
        path = near_hamiltonian_path(N)
        assert sorted(path) == list(range(1, N + 1))


def test_hamiltonian_path_small_cases():
    res = hamiltonian_path_exists(build_range(8))
    assert res.exists is True
    assert list(res.path) and len(res.path) == 8
    res = hamiltonian_path_exists(build_range(14))
    assert res.exists is False and res.method == "mod4-counting"
    res = hamiltonian_path_exists(build_range(16))
    assert res.exists is True
    for a, b in zip(res.path, res.path[1:]):
        assert edge_test(a, b, 1)


def test_hamiltonian_path_shortcut_counting():
    # N = 2, 3 (mod 4) always refutes by counting
    for N in (10, 11, 14, 15, 18, 19, 22, 23):
        res = hamiltonian_path_exists(build_range(N))
        assert res.exists is False and res.method == "mod4-counting", N


def test_hamiltonian_path_cap():
    res = hamiltonian_path_exists(build_range(41), cap=40)
    assert res.exists is None and res.method == "cap-exceeded"


def test_hamiltonian_path_exhaustive_matches_brute_enumeration():
    from itertools import permutations

    for N in (5, 6, 8, 9):
        g = build_range(N)
        brute = any(
            all(g.has_edge(a, b) for a, b in zip(p, p[1:]))
            for p in permutations(g.vertices)
        )
        res = hamiltonian_path_exists(g)
        assert res.exists is brute, N


# The paths hamiltonian_path_exists finds on {1..N}, N <= 40.  Every
# other N has none: shown by counting when N = 2, 3 (mod 4), else by search.
RANGE_PATHS = {
    1: (1,),
    8: (2, 4, 6, 8, 1, 3, 5, 7),
    9: (2, 4, 6, 8, 1, 3, 5, 7, 9),
    12: (11, 9, 7, 5, 3, 1, 8, 6, 4, 2, 12, 10),
    13: (13, 11, 9, 7, 5, 3, 1, 8, 6, 4, 2, 12, 10),
    16: (1, 15, 13, 11, 9, 7, 5, 3, 16, 14, 12, 2, 4, 6, 8, 10),
    20: (19, 17, 15, 13, 11, 9, 7, 5, 3, 1, 8, 10, 12, 2, 4, 6, 20, 18, 16, 14),
    21: (1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 8, 10, 12, 2, 4, 6, 20, 18, 16, 14),
    24: (
        23, 21, 19, 17, 15, 13, 11, 9, 7, 5, 3, 1, 8, 10, 12, 14, 16, 18, 20, 6, 4, 2, 24, 22,
    ),
    25: (
        25, 23, 21, 19, 17, 15, 13, 11, 9, 7, 5, 3, 1, 8, 10, 12, 14, 16, 18, 20, 6, 4, 2,
        24, 22,
    ),
    28: (
        27, 25, 23, 21, 19, 17, 15, 13, 11, 9, 7, 5, 3, 1, 8, 10, 12, 14, 16, 18, 20, 22, 24,
        2, 4, 6, 28, 26,
    ),
    29: (
        29, 27, 25, 23, 21, 19, 17, 15, 13, 11, 9, 7, 5, 3, 1, 8, 10, 12, 14, 16, 18, 20, 22,
        24, 2, 4, 6, 28, 26,
    ),
    36: (
        1, 35, 33, 31, 29, 27, 25, 23, 21, 19, 17, 15, 13, 11, 9, 7, 5, 3, 16, 14, 12, 2, 4,
        30, 32, 34, 36, 10, 8, 6, 28, 26, 24, 22, 20, 18,
    ),
    37: (
        37, 35, 33, 31, 29, 27, 25, 23, 21, 19, 17, 15, 13, 11, 9, 7, 5, 3, 1, 8, 10, 36, 34,
        32, 30, 28, 26, 24, 22, 20, 6, 4, 2, 12, 14, 16, 18,
    ),
    40: (
        1, 35, 37, 39, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31, 33, 3, 16, 14, 12,
        10, 8, 6, 4, 2, 40, 38, 36, 34, 32, 30, 28, 26, 24, 22, 20, 18,
    ),
}


def test_hamiltonian_paths_on_ranges_are_pinned():
    for N in range(1, 41):
        res = hamiltonian_path_exists(build_range(N))
        if N in RANGE_PATHS:
            expected = (True, "trivial" if N == 1 else "exhaustive", RANGE_PATHS[N])
        else:
            expected = (False, "mod4-counting" if N % 4 in (2, 3) else "exhaustive", None)
        assert (res.exists, res.method, res.path) == expected, N


def grown_witness_subset(seed, size):
    """`size` vertices of the 80-vertex witness, grown from a random one
    by adding a random neighbor of the set at each step."""
    rng = random.Random(seed)
    whole = build_set(FIVE_CHROMATIC_WITNESS)
    sub = {rng.choice(FIVE_CHROMATIC_WITNESS)}
    while len(sub) < size:
        sub.add(rng.choice(sorted({u for v in sub for u in whole.adjacency[v]} - sub)))
    return sorted(sub)


# seed -> the path found in grown_witness_subset(seed, 18 + seed % 13), or None
WITNESS_SUBSET_PATHS = {
    10: None,
    12: (
        1, 80, 30, 168, 96, 380, 2380, 2520, 2, 180, 28, 60, 84, 152, 240, 840, 52, 14, 360,
        23, 816, 35, 24, 210, 8, 105, 48, 20, 6, 280,
    ),
    24: (
        16, 60, 132, 32, 9, 11, 2184, 20, 120, 52, 462, 204, 140, 408, 180, 28, 6, 840, 2,
        420, 4, 56, 30, 168, 96, 44, 12, 24, 1365,
    ),
    49: (
        2, 264, 7, 120, 14, 12, 2380, 380, 96, 3, 40, 21, 88, 5, 72, 4, 56, 33, 35, 136, 210,
        24, 22, 204, 360, 560, 1140, 456,
    ),
    50: None,
    60: (
        1, 728, 408, 3, 56, 30, 4, 110, 360, 14, 132, 34, 312, 140, 36, 10, 96, 23, 88, 21,
        40, 24, 70, 2184, 52, 840,
    ),
    64: None,
}


@pytest.mark.parametrize("seed", sorted(WITNESS_SUBSET_PATHS))
def test_hamiltonian_paths_on_witness_subsets_are_pinned(seed):
    res = hamiltonian_path_exists(build_set(grown_witness_subset(seed, 18 + seed % 13)))
    path = WITNESS_SUBSET_PATHS[seed]
    assert (res.exists, res.method, res.path) == (path is not None, "exhaustive", path)


def hamiltonian_cycle(G):
    """A Hamiltonian cycle of G as a vertex list, or None."""
    path = [0]
    if G.n >= 3 and _hamilton_dfs(_bitmask_adjacency(G), path, (1 << G.n) - 2, 1):
        return [G.vertices[i] for i in path]
    return None


def test_hamilton_dfs_matches_brute_force_on_random_graphs():
    from itertools import combinations, permutations

    rng = random.Random(18)
    graphs = [build_set(C6_COMPLEMENT_WITNESS)]
    for _ in range(400):
        n = rng.randrange(1, 9)
        pairs = list(combinations(range(1, n + 1), 2))
        graphs.append(abstract_graph(n, rng.sample(pairs, rng.randrange(len(pairs) + 1))))
    found = {"path": 0, "cycle": 0}
    for g in graphs:
        edges = set(g.edges())
        edges |= {(b, a) for a, b in edges}
        first, *rest = g.vertices
        brute_path = any(
            all(map(edges.__contains__, zip(p, p[1:]))) for p in permutations(g.vertices)
        )
        brute_cycle = g.n >= 3 and any(
            all(map(edges.__contains__, zip((first, *p), (*p, first)))) for p in permutations(rest)
        )
        res = hamiltonian_path_exists(g)
        assert res.exists is brute_path, g
        cycle = hamiltonian_cycle(g)
        assert (cycle is not None) is brute_cycle, g
        if res.path:
            assert sorted(res.path) == list(g.vertices)
            assert all(map(g.has_edge, res.path, res.path[1:]))
        if cycle:
            assert sorted(cycle) == list(g.vertices)
            assert all(map(g.has_edge, cycle, cycle[1:] + cycle[:1]))
        found["path"] += brute_path
        found["cycle"] += brute_cycle
    assert hamiltonian_cycle(graphs[0]) is not None
    assert found["path"] > 100 and found["cycle"] > 50, found


def test_mod4_neighbor_premise():
    assert mod4_neighbor_premise(build_range(2000))
    bad = abstract_graph(3, [(2, 3)])  # 2 adjacent to 3: premise breaks
    assert not mod4_neighbor_premise(bad)
    for edge in ((1, 2), (2, 6), (3, 6), (6, 5)):  # a vertex 2 mod 4 on either end
        assert not mod4_neighbor_premise(abstract_graph(6, [edge])), edge
    assert mod4_neighbor_premise(abstract_graph(6, [(2, 4), (1, 3), (4, 5)]))


def test_hamiltonian_cycle_always_false():
    for N in range(3, 17):
        assert hamiltonian_cycle_exists(build_range(N)) is False
    assert hamiltonian_cycle_exists(build_range(100)) is False
    with pytest.raises(ValueError):
        hamiltonian_cycle_exists(build_range(2))
    with pytest.raises(ValueError):
        hamiltonian_cycle_exists(build_set([1, 3, 8]))


def test_mod4_class_counting_premise():
    for N in range(2, 2001):
        m2 = sum(1 for a in range(1, N + 1) if a % 4 == 2)
        m0 = sum(1 for a in range(1, N + 1) if a % 4 == 0)
        assert m2 >= m0
