import random
from fractions import Fraction
from math import log

import pytest

from diograph.analysis import (
    PruneStep,
    PruneTrace,
    hamiltonian_cycle_exists,
    hamiltonian_path_exists,
    heuristic_score,
    heuristic_top,
    mod4_neighbor_premise,
    near_hamiltonian_path,
    omega_distribution,
    prune_low_degree,
)
from diograph.graph import DiophGraph, build_range, build_set, edge_test, remove_vertex, stats
from diograph.numtheory import factorize


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
    for step in trace.steps:
        assert step.density_after > step.density_before
        assert Fraction(step.degree) < step.density_before
    assert trace.final.density > trace.initial.density
    assert pruned.n == trace.final.n


def prune_by_rebuilding(G):
    """Reference pruning: scan for a minimum (degree, label) vertex and
    rebuild the graph without it, once per removal."""
    initial = stats(G)
    cur = G
    steps = []
    while cur.n:
        e, n = cur.edge_count, cur.n
        v = min(cur.vertices, key=lambda u: (cur.degree(u), u))
        d = cur.degree(v)
        if d * n >= e:
            break
        steps.append(PruneStep(v, d, Fraction(e, n), Fraction(e - d, n - 1)))
        cur = remove_vertex(cur, v)
    return cur, PruneTrace(tuple(steps), initial, stats(cur))


# prune --N: (initial e, removed vertices, final n, final e), as perfbench
# checks them
PRUNE_FACTS = {2000: (8394, 1242, 758, 4283), 300: (916, 128, 172, 634)}


@pytest.mark.parametrize("N", [300, 1000, 2000])
def test_prune_matches_rebuild_oracle_on_range_graphs(N):
    pruned, trace = prune_low_degree(build_range(N))
    assert (pruned, trace) == prune_by_rebuilding(build_range(N))
    if N in PRUNE_FACTS:
        got = (trace.initial.e, len(trace.steps), trace.final.n, trace.final.e)
        assert got == PRUNE_FACTS[N]


def test_prune_matches_rebuild_oracle_on_random_graphs():
    removed_degrees = set()
    for seed in range(20):
        rng = random.Random(seed)
        if seed % 2:
            # Diophantine graphs on sparse sets: many isolated vertices
            g = build_set(rng.sample(range(1, 400), rng.randrange(20, 80)))
        else:
            # random abstract graphs with few distinct degrees: many ties
            n, p = rng.randrange(10, 60), rng.choice((0.05, 0.1, 0.3))
            pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
            g = abstract_graph(n, [ab for ab in pairs if rng.random() < p])
        pruned, trace = prune_low_degree(g)
        assert (pruned, trace) == prune_by_rebuilding(g), seed
        removed_degrees |= {step.degree for step in trace.steps}
    assert {0, 1, 2} <= removed_degrees


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


def test_mod4_neighbor_premise():
    assert mod4_neighbor_premise(build_range(2000))
    bad = abstract_graph(3, [(2, 3)])  # 2 adjacent to 3: premise breaks
    assert not mod4_neighbor_premise(bad)


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
