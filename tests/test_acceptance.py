"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured numbers.  Tolerances and bounds are pinned here."""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import log, pi

import numpy as np
import pytest

from diograph.analysis import (
    hamiltonian_cycle_exists,
    hamiltonian_path_exists,
    heuristic_top,
    mod4_neighbor_premise,
    near_hamiltonian_path,
    prune_low_degree,
)
from diograph.coloring import k_colorable, minimality_check, mod4_coloring_shift2
from diograph.extension import (
    RegularTriple,
    common_neighbors_bounded,
    common_neighbors_equal_sqfree,
    extend_double,
    extend_isolated,
    extend_pendant,
    family_k5_minus_edge,
    regular_extensions,
)
from diograph.graph import build_range, build_set, degree_bound_check, edge_test, stats
from diograph.numtheory import (
    count_unit_roots,
    is_square,
    same_square_free_part,
    unit_roots_mod,
)
from diograph.witnesses import FIVE_CHROMATIC_WITNESS


def test_criterion_01_five_chromatic_reproduction(five_chromatic_graph):
    order = list(FIVE_CHROMATIC_WITNESS)
    t0 = time.perf_counter()
    r4 = k_colorable(five_chromatic_graph, 4, branch_order=order)
    r5 = k_colorable(five_chromatic_graph, 5, branch_order=order)
    elapsed = time.perf_counter() - t0
    assert r4.colorable is False
    assert r5.colorable is True
    for a in five_chromatic_graph.vertices:  # verify the witness edge-by-edge
        for b in five_chromatic_graph.adjacency[a]:
            assert r5.assignment[a] != r5.assignment[b]
    assert elapsed < 10.0
    print(f"PASS criterion 1: not 4-colorable, 5-colorable with verified "
          f"witness, {elapsed:.2f}s (< 10 s)")


def test_criterion_02_five_chromatic_minimality(five_chromatic_graph):
    order = list(FIVE_CHROMATIC_WITNESS)
    t0 = time.perf_counter()
    report = minimality_check(five_chromatic_graph, 4, branch_order=order)
    elapsed = time.perf_counter() - t0
    assert report.minimal
    assert len(report.removable) == 80
    assert elapsed < 15 * 60
    print(f"PASS criterion 2: all 80 single-vertex deletions 4-colorable, "
          f"{elapsed:.1f}s (< 900 s)")


@pytest.mark.parametrize("N", [10**3, 10**4])
def test_criterion_03_oracle_equivalence(N, graph_10k):
    g = graph_10k if N == 10**4 else build_range(N)
    arr = np.arange(1, N + 1, dtype=np.int64)
    oracle_edges = []
    for a in range(1, N + 1):
        rest = arr[a:]
        prod = a * rest + 1
        roots = np.rint(np.sqrt(prod.astype(np.float64))).astype(np.int64)
        for b in rest[roots * roots == prod]:
            oracle_edges.append((a, int(b)))
    assert g.edges() == oracle_edges
    print(f"PASS criterion 3 (N={N}): fast builder edge set equals the "
          f"O(N^2) pairwise oracle exactly ({len(oracle_edges)} edges)")


def test_criterion_04_root_count_closed_form():
    for a in range(1, 10**4 + 1):
        x = np.arange(a, dtype=np.int64)
        brute = int(((x * x) % a == 1).sum()) if a > 1 else 1
        enum = unit_roots_mod(a)
        assert count_unit_roots(a) == brute == enum.count == len(enum.roots), a
    print("PASS criterion 4: S(a) closed form equals brute-force "
          "enumeration for all a <= 10^4")


def test_criterion_05_degree_bound(graph_10k):
    report = degree_bound_check(graph_10k)
    assert report.passed
    assert not report.violations
    print(f"PASS criterion 5: deg(a) <= 8*sqrt(N/a)*2^omega(a) for all "
          f"a <= 10^4, zero violations (max ratio {report.max_ratio:.3f})")


def test_criterion_06_common_neighbors():
    assert common_neighbors_bounded([1, 3, 8], 10**6) == [120]
    assert common_neighbors_bounded([1, 2, 3], 10**6) == []
    assert common_neighbors_equal_sqfree(1, 16) == [3]
    assert common_neighbors_equal_sqfree(1, 4) == []
    print("PASS criterion 6: {1,3,8} -> {120}, {1,2,3} -> {}, "
          "(1,16) -> {3}, (1,4) -> {} exactly")


def test_criterion_07_regular_extensions():
    assert regular_extensions(RegularTriple.from_values(1, 3, 8)) == (0, 120)
    assert family_k5_minus_edge(2) == (1, 3, 8, 120, 11781)
    g = build_set(family_k5_minus_edge(2))
    assert g.edge_count == 9 and stats(g).clique_number == 4
    for k in range(2, 51):
        values = family_k5_minus_edge(k)  # verifies K5-minus-one-edge inside
        non_edges = [
            (a, b)
            for a, b in combinations(values, 2)
            if not is_square(a * b + 1)
        ]
        assert len(non_edges) == 1, k
    print("PASS criterion 7: d+-(1,3,8) = (0, 120); family k=2 gives "
          "{1,3,8,120,11781}; K5-minus-edge verified for 2 <= k <= 50")


def test_criterion_08_extension_lemmas():
    rng = random.Random(20260810)
    worst = 0.0
    for trial in range(100):
        while True:
            size = rng.randint(2, 6)
            V = rng.sample(range(1, 61), size)
            double_pairs = [
                (i, j)
                for i in range(size)
                for j in range(i + 1, size)
                if not same_square_free_part(V[i], V[j])
            ]
            if double_pairs:
                break
        t0 = time.perf_counter()
        iso = extend_isolated(V, 3)
        pivot = rng.randrange(size)
        pen = extend_pendant(V, pivot, 3)
        i, j = rng.choice(double_pairs)
        dbl = extend_double(V, i, j, 3)
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        assert elapsed < 30.0, (trial, V)
        for out, linked in (
            (iso, set()),
            (pen, {V[pivot]}),
            (dbl, {V[i], V[j]}),
        ):
            assert len(out) == 3
            for w in out:
                assert w not in V
                for v in V:
                    assert is_square(v * w + 1) == (v in linked), (V, w, v)
                    assert not same_square_free_part(w, v)
            for w1, w2 in combinations(out, 2):
                assert not same_square_free_part(w1, w2)
    print(f"PASS criterion 8: 100 random witness sets, 3 verified "
          f"extensions per mode each, worst set {worst:.2f}s (< 30 s)")


def test_criterion_09_hamiltonian_suite(graph_10k):
    for N in range(8, 501):
        path = near_hamiltonian_path(N)
        assert len(set(path)) == len(path)
        for a, b in zip(path, path[1:]):
            assert edge_test(a, b, 1)
        assert set(range(1, N + 1)) - set(path) <= {10}
    for N in (16, 64):
        path = near_hamiltonian_path(N)
        assert sorted(path) == list(range(1, N + 1))
    t0 = time.perf_counter()
    for N in (17, 32, 33):
        res = hamiltonian_path_exists(build_range(N))
        assert res.exists is False and res.method == "exhaustive", N
    refute_time = time.perf_counter() - t0
    assert refute_time < 600
    for N in range(3, 17):
        assert hamiltonian_cycle_exists(build_range(N)) is False
    assert mod4_neighbor_premise(graph_10k)
    print(f"PASS criterion 9: near-paths verified for 8..500; full paths at "
          f"16 and 64; no path at 17/32/33 ({refute_time:.1f}s < 600 s); no "
          f"cycle for N <= 16; mod-4 premise holds to 10^4")


def test_criterion_10_clique_turan_invariants(graph_10k):
    s = stats(graph_10k)  # raises GraphDefectError on any 5-clique
    assert s.clique_number <= 4
    assert 8 * s.e <= 3 * s.n * s.n
    rng = random.Random(1729)
    for _ in range(1000):
        sub = stats(build_set(rng.sample(range(1, 10**6 + 1), 30)))
        assert sub.clique_number <= 4
        assert 8 * sub.e <= 3 * sub.n * sub.n
    print(f"PASS criterion 10: clique number <= 4 and e <= (3/8)n^2 on "
          f"D(V_1e4) (clique {s.clique_number}, e={s.e}) and on 1000 random "
          f"30-element subsets of [1, 10^6]")


def test_criterion_11_heuristic_argmax():
    top = heuristic_top(10**6, 1)
    assert top == [24]
    print("PASS criterion 11: argmax of S(a)/sqrt(a) over [1, 10^6] is 24")


def test_criterion_12_shift2_coloring():
    g = build_range(10**4, shift=2)
    coloring = mod4_coloring_shift2(g)  # verifies properness on every edge
    assert set(coloring.values()) <= {0, 1, 2}
    print(f"PASS criterion 12: mod-4 three-coloring proper on the shift-2 "
          f"graph over {{1..10^4}} ({g.edge_count} edges checked)")


def assert_density_rises(G, pruned, steps):
    """Each pruning step removes a vertex of degree d < e/n and raises the
    density to (e - d)/(n - 1), from the running (n, e) of G; the pruned
    graph ends denser than G."""
    n, e = G.n, G.edge_count
    for step in steps:
        assert step.degree < Fraction(e, n) < Fraction(e - step.degree, n - 1)
        n, e = n - 1, e - step.degree
    assert (n, e) == (pruned.n, pruned.edge_count)
    assert Fraction(e, n) > Fraction(G.edge_count, G.n)


def test_criterion_13_density():
    g = build_range(10**5)
    ratio = g.edge_count / ((6 / pi**2) * 10**5 * log(10**5))
    assert 0.75 <= ratio <= 1.25
    small = build_range(1000)
    pruned, trace = prune_low_degree(small)
    assert len(trace.steps) > 0
    assert_density_rises(small, pruned, trace.steps)
    print(f"PASS criterion 13: Dujella ratio at N=10^5 is {ratio:.4f} in "
          f"[0.75, 1.25]; pruning strictly increases density at each of "
          f"{len(trace.steps)} steps on D(V_1000)")


def test_criterion_14_asymptotic_bound_substitutes(graph_10k):
    # The n(log n)^(2 log 2 - eps) lower bound holds only for arbitrarily
    # large n and is not desk-verifiable; its operational content is
    # covered by the degree bound (criterion 5), the density checks
    # (criterion 13), and the strict-increase pruning invariant re-checked
    # here.
    assert degree_bound_check(graph_10k).passed
    g = build_range(1000)
    pruned, trace = prune_low_degree(g)
    assert_density_rises(g, pruned, trace.steps)
    print("PASS criterion 14: asymptotic edge bound substituted by the "
          "degree-bound, density-band and prune-trace checks")
