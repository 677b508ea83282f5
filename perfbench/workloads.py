"""The benchmark's workloads: seeded inputs, the `diograph` CLI jobs that
run on them, an output check per job, and the in-process calls the traced
run makes for each job.

Each workload is built from three job families: `range` (build, stats and
prune on {1..N}), `search` (colouring, minimality, Hamiltonian and
representation searches) and `arith` (extensions, neighbour solvers, regular
extensions, ranking and omega counts).  A workload times its own family
at full size; its traced run adds the other two families at smoke size.
In smoke mode every family runs at smoke size.

Expected outputs are constants taken once from an independent oracle (a
brute-force pairwise builder, networkx cliques and components, a separate
omega sieve and an exact S(a)^2/a ranking), from the paper, or from direct
`isqrt` tests made here; none of them calls the code under test.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from functools import cache
from math import gcd, isqrt
from pathlib import Path
from typing import Callable

WORKLOADS = ("range", "search", "arith")

# The untimed warm-up job of each set-up: it imports diograph and builds the
# lazy smallest-prime-factor table (build_range factorises every vertex).
WARMUP_ARGV = ("build", "--N", "8")

# The unique Diophantine quadruple extending {1, 3, 8}: a K4.
K4 = (1, 3, 8, 120)

# The 80-vertex five-chromatic witness, in the branch order under which
# the 4-colouring refutation was certified (it starts with 1, 3, 8, 120).
FIVE_CHROMATIC = (
    1, 3, 8, 120, 2, 4, 12, 20, 24, 6, 22, 92, 204, 420, 36, 78, 84, 140,
    210, 360, 364, 560, 60, 14, 40, 136, 220, 312, 33, 9, 10, 52, 56, 728,
    11, 48, 90, 168, 408, 840, 5, 7, 28, 30, 34, 35, 46, 70, 88, 132, 180,
    240, 2184, 280, 16, 21, 32, 44, 156, 816, 380, 13, 39, 72, 80, 96, 462,
    528, 1140, 2380, 23, 102, 105, 110, 152, 264, 456, 858, 2520, 1365,
)

# Range graphs on {1..N}: edge count, clique number and component count.
# e(10^5) from the paper; the smaller ones from a brute-force pairwise
# builder checked with networkx.
RANGE_FACTS = {
    100_000: {"e": 657_504, "clique_number": 4, "components": 1},
    2_000: {"e": 8_394, "clique_number": 4, "components": 1},
    300: {"e": 916, "clique_number": 4, "components": 1},
}
# prune --N: (initial e, removed vertices, final n, final e), from an
# independent implementation of the same removal rule on brute-force edges.
PRUNE_FACTS = {2_000: (8_394, 1_242, 758, 4_283), 300: (916, 128, 172, 634)}
# omega --x: counts of a <= x by number of distinct prime factors.
OMEGA_FACTS = {
    1_000_000: [1, 78_734, 288_726, 379_720, 208_034, 42_492, 2_285, 8],
    10_000: [1, 1_280, 4_097, 3_695, 894, 33],
}
# rank --N --top: sha256 of the JSON list, from an exact S(a)^2/a ranking.
RANK_FACTS = {
    (1_000_000, 1_000): "59a95acc056283a5b07591cf318cadf5c41b49a580832d010cea2ff32f758ef8",
    (10_000, 10): "25d3180eb07750fd0074171bef858de8b82cb8b27deec6d57a3634b9ff8e2bf4",
}
# represent: the search ends with status unknown once its core search is
# exhausted (default budget) or its node budget runs out; counts recorded
# at the seed commit and deterministic.
REPRESENT_TARGETS = {
    "k33": ([1, 2, 3, 4, 5, 6], [[a, b] for a in (1, 2, 3) for b in (4, 5, 6)]),
    "w5": ([0, 1, 2, 3, 4, 5],
           [[0, i] for i in range(1, 6)] + [[i, i % 5 + 1] for i in range(1, 6)]),
}
REPRESENT_NODES = {
    ("k33", None): 530_122, ("w5", None): 152_973,
    ("k33", 20_000): 20_004,
}

# 2^89 - 1 is prime and above the deterministic Miller-Rabin range.
M89 = 2**89 - 1
KNOWN_332 = (332, 971, 5)


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def _is_small_prime(n: int) -> bool:
    return n > 1 and all(n % p for p in range(2, isqrt(n) + 1))


@dataclass
class Job:
    """One CLI job.  `argv` follows `python -m diograph --format json`;
    `metric` names the command metric its wall time feeds; `check`
    returns an error message or None; `trace` makes the same library calls
    in-process, inside spans, for the traced run."""

    id: str
    metric: str | None
    argv: list[str]
    exit_code: int
    check: Callable[[dict, Path], str | None] | None
    trace: Callable[["object", Path], None] | None


@dataclass
class Workload:
    name: str
    seed: int
    jobs: list[Job]  # one timed pass, in order
    traced_jobs: list[Job]  # one traced pass
    files: dict[str, str]  # input files to write, name -> content


def _expect(**want) -> Callable[[dict, Path], str | None]:
    def check(doc: dict, _work: Path) -> str | None:
        for key, value in want.items():
            if doc.get(key) != value:
                return f"{key}={doc.get(key)!r}, expected {value!r}"
        return None
    return check


# ---------------------------------------------------------------------------
# range family
# ---------------------------------------------------------------------------


def _traced_range_build(t, N: int):
    """build_range(N), preceded by unit_roots_mod(a) for a in 1..N on the
    same inputs, so the sweep's self time can be estimated."""
    from diograph import graph, numtheory

    with t.span("numtheory.unit_roots") as c:
        roots = 0
        for a in range(1, N + 1):
            roots += numtheory.unit_roots_mod(a).count
        c["numtheory.unit_roots_calls"] = N
        c["numtheory.roots"] = roots
    with t.span("graph.build_range") as c:
        G = graph.build_range(N)
        c["graph.edges"] = G.edge_count
    return G


def range_jobs(full: bool) -> list[Job]:
    N, Np = (100_000, 2_000) if full else (2_000, 300)
    facts = RANGE_FACTS[N]
    doc = f"g{N}.json"

    def trace_build(t, work: Path) -> None:
        from diograph import graph

        G = _traced_range_build(t, N)
        with t.span("graph.save") as c:
            graph.save_graph_file(G, work / doc)
        c["graph.doc_bytes"] = (work / doc).stat().st_size

    def trace_stats(t, work: Path) -> None:
        from diograph import graph

        with t.span("graph.load"):
            G = graph.load_graph_file(work / doc)
        with t.span("graph.stats"):
            graph.stats(G)

    def trace_prune(t, _work: Path) -> None:
        from diograph import analysis, graph

        G = _traced_range_build(t, Np)
        # prune_low_degree starts with stats(G); time that call on its own
        with t.span("graph.stats"):
            graph.stats(G)
        with t.span("analysis.prune") as c:
            _, trace = analysis.prune_low_degree(G)
            c["analysis.prune_steps"] = len(trace.steps)

    e0, removed, n1, e1 = PRUNE_FACTS[Np]

    def check_prune(d: dict, _work: Path) -> str | None:
        got = (d["initial"]["e"], len(d["steps"]), d["final"]["n"], d["final"]["e"])
        if got != (e0, removed, n1, e1):
            return f"(initial e, steps, final n, final e)={got}, expected {(e0, removed, n1, e1)}"
        return None

    build = Job(f"build/N={N}", "build_s", ["build", "--N", str(N), "--out", doc], 0,
                _expect(n=N, e=facts["e"]), trace_build)
    stats = Job(f"stats/N={N}", "stats_s", ["stats", "--graph-file", doc], 0,
                _expect(n=N, **facts), trace_stats)
    prune = Job(f"prune/N={Np}", "prune_s", ["prune", "--N", str(Np)], 0,
                check_prune, trace_prune)
    return [build, stats, prune]


# ---------------------------------------------------------------------------
# search family
# ---------------------------------------------------------------------------


def _swap_pairs(order: list[int], rng: random.Random) -> list[int]:
    """Swap each adjacent pair after the first four positions with
    probability 1/2: a seeded order whose search cost stays within a few
    per cent of the base order's."""
    out = list(order)
    for i in range(4, len(out) - 1, 2):
        if rng.random() < 0.5:
            out[i], out[i + 1] = out[i + 1], out[i]
    return out


def _witness_text(values) -> str:
    return "".join(f"{v}\n" for v in values)


def _traced_color(t, order: list[int], colorable: bool):
    from diograph import coloring, graph

    with t.span("graph.build_set"):
        G = graph.build_set(order)
    with t.span("coloring.k_colorable") as c:
        res = coloring.k_colorable(G, 4, branch_order=order)
        c["coloring.branches"] = res.stats.branches
        c["coloring.peak_open"] = res.stats.peak_open
        c["coloring.propagation_steps"] = res.stats.propagation_steps
    if res.colorable != colorable:
        raise RuntimeError(f"k_colorable returned {res.colorable}")


def search_jobs(full: bool, seed: int) -> tuple[list[Job], dict[str, str]]:
    rng = random.Random(f"search:{seed}")
    cert = list(FIVE_CHROMATIC)
    if full:
        # fixed base orders (the first three shuffles of the certified
        # order), each perturbed by the run seed
        bases = []
        for b in (1, 2, 3):
            base = list(cert)
            random.Random(b).shuffle(base)
            bases.append(base)
    else:
        bases = [cert]
    orders = {f"perm{i}.txt": _swap_pairs(base, rng) for i, base in enumerate(bases, 1)}
    dropped = rng.choice(cert)
    minus = [v for v in cert if v != dropped]
    # smoke size: minimality and chromatic number of the quadruple K4, a
    # Hamiltonian path that exists at N = 16, one budgeted representation
    critical, k_critical, chi = (cert, 4, 5) if full else (list(K4), 3, 4)
    hamilton_N = 33 if full else 16
    budget = None if full else 20_000
    targets = ("k33", "w5") if full else ("k33",)

    files = {"w80.txt": _witness_text(cert), "minus.txt": _witness_text(minus),
             "critical.txt": _witness_text(critical)}
    files.update({name: _witness_text(o) for name, o in orders.items()})
    for name, (vs, es) in REPRESENT_TARGETS.items():
        files[f"{name}.json"] = json.dumps({"vertices": vs, "edges": es})

    def color_job(name: str, order: list[int]) -> Job:
        return Job(f"color/{name}", "color_s", ["color", "--k", "4", "--witness-file", name],
                   1, _expect(colorable=False),
                   lambda t, _w: _traced_color(t, order, False))

    def check_coloring(d: dict, work: Path) -> str | None:
        if d.get("colorable") is not True:
            return f"colorable={d.get('colorable')!r}, expected True"
        colors = {}
        for line in (work / "minus.colors").read_text().splitlines():
            v, c = line.split()
            colors[int(v)] = int(c)
        if sorted(colors) != sorted(minus) or not set(colors.values()) <= set(range(4)):
            return "exported colouring does not cover the graph with colours 0..3"
        for i, a in enumerate(minus):
            for b in minus[i + 1:]:
                if colors[a] == colors[b] and is_square(a * b + 1):
                    return f"exported colouring gives edge ({a}, {b}) one colour"
        return None

    def check_minimal(d: dict, _w: Path) -> str | None:
        if d.get("minimal") is True and sorted(d.get("removable", [])) == sorted(critical):
            return None
        return "expected every vertex to be removable"

    def trace_minimal(t, _w) -> None:
        from diograph import coloring, graph

        with t.span("graph.build_set"):
            G = graph.build_set(critical)
        with t.span("coloring.minimality"):
            coloring.minimality_check(G, k_critical, branch_order=critical)

    def trace_chroma(t, _w) -> None:
        from diograph import coloring, graph

        with t.span("graph.build_set"):
            G = graph.build_set(critical)
        with t.span("coloring.chromatic"):
            coloring.chromatic_number(G)

    def check_hamilton(d: dict, _w: Path) -> str | None:
        if not full:  # a path exists at N = 16 (16k^2 with k = 1)
            path = d.get("path") or []
            if sorted(path) != list(range(1, hamilton_N + 1)) or not all(
                    is_square(a * b + 1) for a, b in zip(path, path[1:])):
                return f"not a Hamiltonian path: {path}"
            return None
        # no path at N = 33, shown by exhaustive search (paper, criterion 9)
        return _expect(exists=False, method="exhaustive")(d, _w)

    def trace_hamilton(t, _w) -> None:
        from diograph import analysis

        G = _traced_range_build(t, hamilton_N)
        with t.span("analysis.hamilton"):
            analysis.hamiltonian_path_exists(G)

    def represent_job(name: str) -> Job:
        vs, es = REPRESENT_TARGETS[name]
        nodes = REPRESENT_NODES[(name, budget)]
        extra = [] if budget is None else ["--budget", str(budget)]

        def trace(t, _w) -> None:
            from diograph import extension

            kw = {} if budget is None else {"node_budget": budget}
            with t.span("extension.represent") as c:
                c["extension.nodes_searched"] = extension.represent_graph(vs, es, **kw).nodes_searched

        return Job(f"represent/{name}", "represent_s",
                   ["represent", "--graph-file", f"{name}.json", *extra], 1,
                   _expect(status="unknown", known_impossible=False, nodes_searched=nodes),
                   trace)

    jobs = [color_job("w80.txt", cert)]
    jobs += [color_job(name, o) for name, o in orders.items()]
    jobs += [
        Job("color/minus", "color_s",
            ["color", "--k", "4", "--witness-file", "minus.txt", "--coloring-out", "minus.colors"],
            0, check_coloring, lambda t, _w: _traced_color(t, minus, True)),
        Job(f"minimal/n={len(critical)}", "minimal_s",
            ["minimal", "--k", str(k_critical), "--witness-file", "critical.txt"], 0,
            check_minimal, trace_minimal),
        Job(f"chroma/n={len(critical)}", None, ["chroma", "--witness-file", "critical.txt"], 0,
            _expect(chromatic_number=chi), trace_chroma),
        Job(f"hamilton/N={hamilton_N}", "hamilton_s",
            ["hamilton", "--path", "--N", str(hamilton_N)], 1 if full else 0,
            check_hamilton, trace_hamilton),
    ]
    jobs += [represent_job(name) for name in targets]
    return jobs, files


# ---------------------------------------------------------------------------
# arith family
# ---------------------------------------------------------------------------


def _seeded_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        p = rng.randrange(lo, hi)
        if _is_small_prime(p):
            return p


def _check_extension(V: list[int], count: int, adjacent: set[int]):
    def check(d: dict, _work: Path) -> str | None:
        out = d.get("extensions", [])
        if len(out) != count or len(set(out)) != count:
            return f"expected {count} distinct extensions, got {len(out)}"
        for w in out:
            if w < 1 or w in V:
                return f"extension {w} is not a new positive integer"
            got = {v for v in V if is_square(v * w + 1)}
            if got != adjacent:
                return f"extension {w} is adjacent to {sorted(got)}, expected {sorted(adjacent)}"
            if any(is_square(v * w) for v in V):
                return f"extension {w} shares a square-free part with the witness"
        return None
    return check


def _exact_neighbors(a: int, b: int, x: int, y: int) -> list[int]:
    """All w >= 1 with a*w+1 = r^2 and b*w+1 = t^2, for a = s*x^2 and
    b = s*y^2.  Then (B*r)^2 - (A*t)^2 = B^2 - A^2 with A = x/g, B = y/g,
    so B*r + A*t is at most |B^2 - A^2|: r is bounded and walked directly."""
    g = gcd(x, y)
    limit = abs((y // g) ** 2 - (x // g) ** 2) + 2
    out = []
    for r in range(2, limit):
        w, rem = divmod(r * r - 1, a)
        if not rem and w >= 1 and is_square(b * w + 1):
            out.append(w)
    return out


@cache
def _bounded_neighbors(S: tuple[int, ...], bound: int) -> list[int]:
    """All w <= bound adjacent to every element of S, walking the root
    classes of the largest element (found by brute force)."""
    m = max(S)
    classes = [r for r in range(m) if (r * r) % m == 1 % m]
    out = set()
    rmax = isqrt(m * bound + 1)
    for rho in classes:
        for r in range(rho, rmax + 1, m):
            w = (r * r - 1) // m
            if 1 <= w <= bound and w not in S and all(is_square(v * w + 1) for v in S):
                out.add(w)
    return sorted(out)


def arith_jobs(full: bool, seed: int) -> tuple[list[Job], dict[str, str]]:
    rng = random.Random(f"arith:{seed}")
    # endpoints at most 210 keep every double-extension output below
    # Python's 4300-digit int-to-str limit (the known failure covers it)
    small = [v for v in FIVE_CHROMATIC if v <= 210]
    V = rng.sample(small, 8 if full else 4)
    j = next(k for k in range(1, len(V)) if not is_square(V[0] * V[k]))
    count = 3 if full else 1
    if full:
        prime_lo, prime_hi, xy_hi = 900_000, 1_000_000, 40
        ks = [rng.randrange(300, 390) for _ in range(2)]
        bound = 10**9
        rank_N, rank_top, omega_x = 1_000_000, 1_000, 1_000_000
    else:
        prime_lo, prime_hi, xy_hi = 3_200, 5_000, 10
        ks = [rng.randrange(5, 20)]
        bound = 10**5
        rank_N, rank_top, omega_x = 10_000, 10, 10_000
    exact = []
    for _ in range(2 if full else 1):
        p = _seeded_prime(rng, prime_lo, prime_hi)
        q = _seeded_prime(rng, p + 1, prime_hi + (prime_hi - prime_lo))
        x, y = rng.sample(range(1, xy_hi + 1), 2)
        exact.append((p * q * x * x, p * q * y * y, x, y))

    files = {"sub.txt": _witness_text(V), "known_332.txt": _witness_text(KNOWN_332)}

    def extend_job(mode: str, extra: list[str], adjacent: set[int], trace) -> Job:
        return Job(f"extend/{mode}", "extend_s",
                   ["extend", "--witness-file", "sub.txt", "--mode", mode, *extra,
                    "--count", str(count)],
                   0, _check_extension(V, count, adjacent), trace)

    def record_bits(c: dict, out: list[int]) -> None:
        c["extension.output_bits"] = sum(w.bit_length() for w in out)

    def trace_isolated(t, _w) -> None:
        from diograph import extension

        with t.span("extension.isolated") as c:
            record_bits(c, extension.extend_isolated(V, count))

    def trace_pendant(t, _w) -> None:
        from diograph import extension, pell

        plan = extension.pendant_plan(V, 0)
        with t.span("pell.fundamental_unit") as c:
            unit = pell.fundamental_unit(plan.q * plan.v_i)
            c["pell.unit_bits"] = unit.mu.bit_length()
        with t.span("extension.pendant") as c:
            record_bits(c, extension.extend_pendant(V, 0, count))

    def trace_double(t, _w) -> None:
        from diograph import extension, pell

        vi, vj = sorted((V[0], V[j]))
        d = gcd(vi, vj)
        D = (vi // d) * (vj // d)
        with t.span("pell.fundamental_unit") as c:
            unit = pell.fundamental_unit(D)
            c["pell.unit_bits"] = unit.mu.bit_length()
        with t.span("pell.unit_order"):
            pell.unit_order_mod(unit, D, vi)
        with t.span("extension.double") as c:
            record_bits(c, extension.extend_double(V, 0, j, count))

    def exact_job(k: int, a: int, b: int, x: int, y: int) -> Job:
        def check(d: dict, _w: Path) -> str | None:
            got = d.get("neighbors")
            if any(not (is_square(a * w + 1) and is_square(b * w + 1)) for w in got):
                return "a listed neighbour fails the square test"
            want = _exact_neighbors(a, b, x, y)
            return None if got == want else f"neighbors={got}, expected {want}"

        def trace(t, _w) -> None:
            from diograph import extension

            _traced_square_free_part(t, a)
            with t.span("extension.neighbors_exact"):
                extension.common_neighbors_equal_sqfree(a, b)

        return Job(f"neighbors/exact{k}", "neighbors_s", ["neighbors", "--set", f"{a},{b}"],
                   0, check, trace)

    def bounded_job(k: int) -> Job:
        S = (k - 1, k + 1, 4 * k)

        def check(d: dict, _w: Path) -> str | None:
            want = _bounded_neighbors(S, bound)
            got = d.get("neighbors")
            return None if got == want else f"neighbors={got}, expected {want}"

        def trace(t, _w) -> None:
            from diograph import extension

            with t.span("extension.neighbors_bounded"):
                extension.common_neighbors_bounded(S, bound)

        return Job(f"neighbors/bounded-k={k}", "neighbors_s",
                   ["neighbors", "--set", ",".join(map(str, S)), "--bound", str(bound)],
                   0, check, trace)

    def dplus_job(k: int) -> Job:
        def trace(t, _w) -> None:
            from diograph import extension

            extension.regular_extensions(extension.RegularTriple.from_values(k - 1, k + 1, 4 * k))

        return Job(f"dplus/k={k}", None, ["dplus", "--triple", f"{k - 1},{k + 1},{4 * k}"], 0,
                   _expect(d_minus=0, d_plus=16 * k**3 - 4 * k), trace)

    def check_rank(d: dict, _w: Path) -> str | None:
        digest = hashlib.sha256(json.dumps(d.get("top")).encode()).hexdigest()
        return None if digest == RANK_FACTS[(rank_N, rank_top)] else "ranking differs from the oracle"

    def trace_rank(t, _w) -> None:
        from diograph import analysis

        with t.span("analysis.heuristic_top"):
            analysis.heuristic_top(rank_N, rank_top)

    def trace_omega(t, _w) -> None:
        from diograph import analysis

        with t.span("analysis.omega"):
            analysis.omega_distribution(omega_x)

    jobs = [
        extend_job("isolated", [], set(), trace_isolated),
        extend_job("pendant", ["--i", "0"], {V[0]}, trace_pendant),
        extend_job("double", ["--i", "0", "--j", str(j)], {V[0], V[j]}, trace_double),
    ]
    jobs += [exact_job(n, *e) for n, e in enumerate(exact, 1)]
    jobs += [bounded_job(k) for k in ks]
    if full:
        jobs += [dplus_job(k) for k in ks]
    jobs += [
        Job(f"rank/N={rank_N}", "rank_s", ["rank", "--top", str(rank_top), "--N", str(rank_N)],
            0, check_rank, trace_rank),
        Job(f"omega/x={omega_x}", "rank_s", ["omega", "--x", str(omega_x)], 0,
            _expect(counts=OMEGA_FACTS[omega_x]), trace_omega),
    ]
    return jobs, files


def _traced_square_free_part(t, n: int) -> None:
    """square_free_part(n) above the sieve: trial division, counted as a
    failure when it raises."""
    from diograph import numtheory

    with t.span("numtheory.factorize_big") as c:
        c["numtheory.factorize_big_calls"] = 1
        try:
            numtheory.square_free_part(n)
        except ValueError:
            c["numtheory.factorize_big_failed"] = 1


def known_failures() -> list[tuple[Job, str]]:
    """Inputs that fail at the seed commit, each with the stderr text of its
    failure.  They run once per `arith` run, outside the timed loop, and are
    reported under their job id; once fixed, each must give the output its
    check expects."""
    V = list(KNOWN_332)
    a, b = 2 * M89, 18 * M89
    return [
        (Job("known/double-extension-over-4300-digits", None,
             ["extend", "--witness-file", "known_332.txt", "--mode", "double",
              "--i", "0", "--j", "1", "--count", "1"],
             0, _check_extension(V, 1, {332, 971}), None),
         "Exceeds the limit (4300 digits)"),
        (Job("known/factorize-beyond-miller-rabin", None, ["neighbors", "--set", f"{a},{b}"], 0,
             lambda d, _w: None if d.get("neighbors") == _exact_neighbors(a, b, 1, 3)
             else "wrong neighbours", None),
         "exceeds the deterministic Miller-Rabin range"),
    ]


def trace_known_failures(t, _work: Path) -> None:
    """The traced run's view of the known failures.  Only the factorisation
    fails in-process; the double extension fails only when the CLI prints
    its output, so it is not repeated here."""
    _traced_square_free_part(t, 2 * M89)


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """The jobs and input files of one workload.

    The timed pass runs the workload's own family at full size.  The traced
    pass also runs every smoke-size job of the other two families, so every
    layer has a measured time on every workload.  In smoke mode every
    family runs at smoke size in both passes.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    home: list[Job] = []
    others: list[Job] = []
    files: dict[str, str] = {}
    for family in WORKLOADS:
        full = family == name and not smoke
        if family == "range":
            fam_jobs, fam_files = range_jobs(full), {}
        else:
            fam_jobs, fam_files = (search_jobs if family == "search" else arith_jobs)(full, seed)
        (home if full else others).extend(fam_jobs)
        files.update(fam_files)
    if smoke:
        return Workload(name, seed, others, others, files)
    return Workload(name, seed, home, home + others, files)
