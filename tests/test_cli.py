import argparse
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from diograph.cli import _emit, main
from diograph.numtheory import is_square
from diograph.witnesses import FIVE_CHROMATIC_WITNESS, K4_WITNESS


@pytest.fixture
def quadruple_file(tmp_path):
    path = tmp_path / "quad.txt"
    path.write_text("".join(f"{v}\n" for v in K4_WITNESS), encoding="utf-8")
    return str(path)


@pytest.fixture
def five_chromatic_file(tmp_path):
    path = tmp_path / "w80.txt"
    lines = ["# 80-vertex five-chromatic witness\n"]
    lines += [f"{v}\n" for v in FIVE_CHROMATIC_WITNESS]
    path.write_text("".join(lines), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_then_stats(capsys, tmp_path):
    gf = str(tmp_path / "g.json")
    code, out, _ = run_cli(capsys, "build", "--N", "1", "--out", gf)
    assert code == 0
    code, out, _ = run_cli(capsys, "--format", "json", "stats", "--graph-file", gf)
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 1 and doc["e"] == 0
    assert doc["schema_version"] == 1


def test_build_with_out_encodes_the_document_once(capsys, tmp_path, monkeypatch):
    from diograph import graph

    # the edges go from the adjacency arrays to the file: no document
    # dict and no list of Python pairs is built on the way
    calls = []
    real_doc, real_edges = graph.graph_to_doc, graph.DiophGraph.edges
    monkeypatch.setattr(graph, "graph_to_doc", lambda G: calls.append("doc") or real_doc(G))
    monkeypatch.setattr(
        graph.DiophGraph, "edges", lambda G: calls.append("edges") or real_edges(G)
    )
    gf = tmp_path / "g.json"
    code, out, _ = run_cli(capsys, "build", "--N", "30", "--out", str(gf))
    assert code == 0 and calls == []
    assert gf.read_text() == json.dumps(real_doc(graph.build_range(30))) + "\n"


def test_build_json_to_stdout_streams_the_json_dumps_bytes(capsys, tmp_path, monkeypatch):
    from diograph import graph

    no_edges = tmp_path / "w.txt"
    no_edges.write_text("1\n2\n5\n", encoding="utf-8")
    sources = [(["--N", str(N)], graph.build_range(N)) for N in (1, 2, 8, 300)]
    sources.append((["--witness-file", str(no_edges)], graph.build_set([1, 2, 5])))
    # the document's schema_version (2) overrides the CLI's (1)
    expected = [
        json.dumps({"schema_version": 1, "command": "build", **graph.graph_to_doc(G)},
                   indent=2, sort_keys=True) + "\n"
        for _, G in sources
    ]
    # the edges go from the adjacency arrays to stdout, never as Python pairs
    calls = []
    monkeypatch.setattr(graph, "graph_to_doc", lambda G: calls.append("doc"))
    monkeypatch.setattr(graph.DiophGraph, "edges", lambda G: calls.append("edges"))
    for (args, _), text in zip(sources, expected):
        code, out, _ = run_cli(capsys, "--format", "json", "build", *args)
        assert code == 0
        assert out == text, args
    assert calls == []


def prune_doc(G):
    """The `prune --format json` document of G, built whole, with each
    step's densities made as Fractions from the running (n, e)."""
    from diograph import analysis

    pruned, trace = analysis.prune_low_degree(G)
    n, e = G.n, G.edge_count
    steps = []
    for step in trace.steps:
        before, after = Fraction(e, n), Fraction(e - step.degree, n - 1)
        steps.append({
            "vertex": step.vertex,
            "degree": step.degree,
            "density_before": [before.numerator, before.denominator],
            "density_after": [after.numerator, after.denominator],
        })
        n, e = n - 1, e - step.degree
    return {
        "schema_version": 1,
        "command": "prune",
        "initial": {"n": G.n, "e": G.edge_count},
        "final": {"n": pruned.n, "e": pruned.edge_count},
        "steps": steps,
    }


def test_prune_json_to_stdout_streams_the_json_dumps_bytes(capsys, tmp_path, monkeypatch):
    from diograph import graph

    empty, pair = tmp_path / "empty.txt", tmp_path / "pair.txt"
    empty.write_text("", encoding="utf-8")
    pair.write_text("1\n3\n", encoding="utf-8")
    sources = [(["--N", str(N)], graph.build_range(N)) for N in (1, 2, 8, 300, 2000)]
    sources += [
        (["--N", "300", "--shift", "3"], graph.build_range(300, 3)),
        (["--witness-file", str(empty)], graph.build_set([])),
        (["--witness-file", str(pair)], graph.build_set([1, 3])),
    ]
    docs = [prune_doc(G) for _, G in sources]

    def refuse(*args, **kwargs):
        raise AssertionError("prune must not call this")

    # no stats pass: neither its clique search nor its component count runs
    for name in ("stats", "_clique_number", "_component_count"):
        monkeypatch.setattr(graph, name, refuse)
    expected = [json.dumps(doc, indent=2, sort_keys=True) + "\n" for doc in docs]
    # the steps are written from a fixed layout: only the head is encoded
    calls, real = [], json.dumps
    monkeypatch.setattr(json, "dumps", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    for (args, _), want in zip(sources, expected):
        calls.clear()
        code, out, _ = run_cli(capsys, "--format", "json", "prune", *args)
        assert code == 0
        assert out == want, args
        assert len(calls) == 1, args
    # text output encodes no step record
    monkeypatch.setattr(json, "dumps", refuse)
    for (args, _), doc in zip(sources, docs):
        (n0, e0), (n1, e1) = (doc[k].values() for k in ("initial", "final"))
        code, out, _ = run_cli(capsys, "prune", *args)
        assert code == 0
        assert out.splitlines() == [
            f"removed {len(doc['steps'])} vertices",
            f"n: {n0} -> {n1}",
            f"e: {e0} -> {e1}",
            f"density: {Fraction(e0, n0) if n0 else 0} -> {Fraction(e1, n1) if n1 else 0}",
        ], args


def test_structured_output_is_deterministic(capsys):
    outputs = set()
    for _ in range(2):
        code, out, _ = run_cli(capsys, "--format", "json", "build", "--N", "30")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_threads_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "build", "--N", "8"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_graph_file_with_duplicate_edge_exits_2(capsys, tmp_path):
    from diograph import graph

    doc = graph.graph_to_doc(graph.build_range(8))
    doc["edges"].append(doc["edges"][0])
    gf = tmp_path / "dup.json"
    gf.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "stats", "--graph-file", str(gf))
    assert code == 2 and out == ""
    assert "listed twice" in err


def test_edge_on_empty_vertex_set_exits_2(capsys, tmp_path):
    gf = tmp_path / "empty.json"
    doc = {"schema_version": 2, "n": 0, "shift": 1, "vertices": [], "edges": [[1, 2]]}
    gf.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "stats", "--graph-file", str(gf))
    assert code == 2 and out == ""
    assert "edge (1, 2) uses unknown vertices" in err


def test_graph_file_with_unknown_schema_version_exits_2(capsys, tmp_path):
    from diograph import graph

    doc = {**graph.graph_to_doc(graph.build_range(8)), "schema_version": 3}
    gf = tmp_path / "v3.json"
    gf.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "stats", "--graph-file", str(gf))
    assert code == 2 and out == ""
    assert "schema_version 3" in err


def test_truncated_graph_file_exits_2_with_position(capsys, tmp_path):
    gf = tmp_path / "g.json"
    assert run_cli(capsys, "build", "--N", "100", "--out", str(gf))[0] == 0
    text = gf.read_text()
    gf.write_text(text[:-20], encoding="utf-8")
    code, out, err = run_cli(capsys, "stats", "--graph-file", str(gf))
    assert code == 2 and out == ""
    assert f"{gf}:1:{len(text) - 20 + 1}: invalid JSON" in err


def test_loading_a_built_file_never_parses_its_edges(capsys, tmp_path, monkeypatch):
    from diograph import graph

    gf = tmp_path / "g.json"
    assert run_cli(capsys, "build", "--N", "2000", "--out", str(gf))[0] == 0
    parsed = []
    real = json.loads
    monkeypatch.setattr(json, "loads", lambda s, *a, **k: parsed.append(s) or real(s, *a, **k))
    monkeypatch.setattr(json, "load", lambda *a, **k: pytest.fail("json.load was called"))
    assert graph.load_graph_file(gf) == graph.build_range(2000)
    assert len(parsed) == 1 and "vertices" in parsed[0] and "edges" not in parsed[0]


def test_graph_file_with_non_integer_edge_exits_2(capsys, tmp_path):
    gf = tmp_path / "g.json"
    assert run_cli(capsys, "build", "--N", "100", "--out", str(gf))[0] == 0
    text = gf.read_text(encoding="utf-8")
    assert text.count("[1, 3]") == 1
    gf.write_text(text.replace("[1, 3]", "[1, 3.0]"), encoding="utf-8")
    code, out, err = run_cli(capsys, "stats", "--graph-file", str(gf))
    assert code == 2 and out == ""
    assert "non-integer edge end: 3.0" in err


def test_incomplete_graph_file_exits_2(capsys, tmp_path):
    from diograph import graph

    doc = graph.graph_to_doc(graph.build_set(FIVE_CHROMATIC_WITNESS))
    del doc["edges"][-40:]
    gf = tmp_path / "cut.json"
    gf.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "stats", "--graph-file", str(gf))
    assert code == 2 and out == ""
    assert "edges of its vertex set" in err


def test_incomplete_range_graph_file_exits_2(capsys, tmp_path):
    gf = tmp_path / "g300.json"
    code, _, _ = run_cli(capsys, "build", "--N", "300", "--out", str(gf))
    assert code == 0
    doc = json.loads(gf.read_text(encoding="utf-8"))
    del doc["edges"][-5:]
    gf.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "stats", "--graph-file", str(gf))
    assert code == 2 and out == ""
    assert "lists 911 of the 916 edges" in err


def test_incomplete_shift_2_range_graph_file_exits_2(capsys, tmp_path):
    gf = tmp_path / "g2.json"
    code, _, _ = run_cli(capsys, "build", "--N", "200", "--shift", "2", "--out", str(gf))
    assert code == 0
    doc = json.loads(gf.read_text(encoding="utf-8"))
    listed = len(doc["edges"])
    del doc["edges"][listed // 2]
    gf.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "stats", "--graph-file", str(gf))
    assert code == 2 and out == ""
    assert f"lists {listed - 1} of the {listed} edges" in err


def test_build_beyond_int32_exits_2_at_once(capsys):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "build", "--N", "10000000000")
    assert code == 2 and out == ""
    assert "2**31 - 1" in err
    assert time.perf_counter() - t0 < 1


def test_prune_out_round_trips(capsys, tmp_path):
    from diograph import analysis, graph

    gf = tmp_path / "pruned.json"
    code, _, _ = run_cli(capsys, "prune", "--N", "300", "--out", str(gf))
    assert code == 0
    pruned, _ = analysis.prune_low_degree(graph.build_range(300))
    assert graph.load_graph_file(gf) == pruned
    code, out, _ = run_cli(capsys, "--format", "json", "stats", "--graph-file", str(gf))
    assert code == 0
    assert (json.loads(out)["n"], json.loads(out)["e"]) == (172, 634)


def test_chroma_on_five_chromatic_witness(capsys, five_chromatic_file):
    code, out, _ = run_cli(capsys, "chroma", "--witness-file", five_chromatic_file)
    assert code == 0
    assert out.strip() == "5"


def test_color_exit_codes(capsys, quadruple_file):
    code, out, _ = run_cli(capsys, "color", "--k", "4", "--witness-file", quadruple_file)
    assert code == 0 and "yes" in out
    code, out, _ = run_cli(capsys, "color", "--k", "3", "--witness-file", quadruple_file)
    assert code == 1 and "no" in out


def test_color_and_minimal_with_huge_k(capsys, tmp_path):
    wf = tmp_path / "w10.txt"
    wf.write_text("".join(f"{v}\n" for v in FIVE_CHROMATIC_WITNESS[:10]), encoding="utf-8")
    code, out, _ = run_cli(capsys, "color", "--k", "100000", "--witness-file", str(wf))
    assert code == 0 and "yes" in out
    code, _, err = run_cli(capsys, "minimal", "--k", "100000", "--witness-file", str(wf))
    assert code == 2 and "already" in err


def test_color_witness_export(capsys, quadruple_file, tmp_path):
    cf = str(tmp_path / "coloring.txt")
    code, _, _ = run_cli(
        capsys, "color", "--k", "4", "--witness-file", quadruple_file,
        "--coloring-out", cf,
    )
    assert code == 0
    lines = open(cf).read().strip().splitlines()
    parsed = {int(a): int(c) for a, c in (ln.split() for ln in lines)}
    assert set(parsed) == set(K4_WITNESS)
    assert len(set(parsed.values())) == 4


def test_minimal_command(capsys, tmp_path):
    # an edge is not 1-colorable, and both deletions fix that
    wf = tmp_path / "edge.txt"
    wf.write_text("1\n3\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "--format", "json", "minimal", "--k", "1",
                           "--witness-file", str(wf))
    assert code == 0
    doc = json.loads(out)
    assert doc["minimal"] is True and doc["removable"] == [1, 3]


def test_minimal_rejects_colorable(capsys, quadruple_file):
    code, _, err = run_cli(capsys, "minimal", "--k", "4",
                           "--witness-file", quadruple_file)
    assert code == 2
    assert "already" in err


def test_neighbors_bounded(capsys):
    code, out, _ = run_cli(capsys, "neighbors", "--set", "1,3,8",
                           "--bound", "1000000")
    assert code == 0
    assert out.strip() == "120"


def test_neighbors_bound_zero_is_rejected(capsys):
    # a zero bound is an input error, not a request for the exact solver
    for bound in ("0", "-4"):
        code, out, err = run_cli(capsys, "neighbors", "--set", "1,16", "--bound", bound)
        assert (code, out) == (2, "")
        assert "--bound must be positive" in err


def test_shift_zero_is_rejected(capsys, quadruple_file):
    for command in ("build", "stats"):
        for source in (["--N", "6"], ["--witness-file", quadruple_file]):
            code, out, err = run_cli(capsys, command, *source, "--shift", "0")
            assert (code, out) == (2, ""), (command, source)
            assert "shift must be positive" in err


def test_neighbors_exact_large_pair_is_quick(capsys):
    # A = 10^9, B = 1: the divisors of A^2 - B^2 come from its factorization
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "--format", "json", "neighbors", "--set", "3,3000000000000000000"
    )
    assert time.perf_counter() - start < 10
    assert code == 0
    found = json.loads(out)["neighbors"]
    assert found == [83333333333333333]
    for w in found:
        assert is_square(3 * w + 1) and is_square(3 * 10**18 * w + 1)


def test_neighbors_exact_needs_no_factorization_of_a(capsys):
    # a = p*q (p ~ 10^15, q ~ 2*10^15), b = 4a: A/B = 2, |A^2 - B^2| = 3
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "--format", "json", "neighbors", "--set",
        "2000000000000095000000000000777,8000000000000380000000000003108",
    )
    assert time.perf_counter() - start < 2
    assert code == 0
    assert json.loads(out)["neighbors"] == []


def test_neighbors_exact(capsys):
    code, out, _ = run_cli(capsys, "neighbors", "--set", "1,16")
    assert code == 0
    assert out.strip() == "3"
    code, _, err = run_cli(capsys, "neighbors", "--set", "1,3")
    assert code == 2  # different square-free parts need --bound


def test_dplus(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "dplus", "--triple", "1,3,8")
    assert code == 0
    doc = json.loads(out)
    assert (doc["d_minus"], doc["d_plus"]) == (0, 120)


def test_extend_command(capsys, tmp_path):
    wf = tmp_path / "pair.txt"
    wf.write_text("1\n3\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "extend", "--witness-file", str(wf),
                           "--mode", "double", "--i", "0", "--j", "1",
                           "--count", "3")
    assert code == 0
    assert out.split() == ["8", "120", "1680"]


@pytest.mark.parametrize(
    "mode, idx, text",
    [
        ("pendant", [], "extension index must be an integer in [0, 3), got None"),
        ("pendant", [3], "extension index must be an integer in [0, 3), got 3"),
        ("pendant", [-1], "extension index must be an integer in [0, 3), got -1"),
        ("double", [0], "extension index must be an integer in [0, 3), got None"),
        ("double", [2, 2], "extension indices must be distinct, got [2, 2]"),
        ("double", [0, 1], "1 and 16 share a square-free part"),
    ],
)
def test_bad_extension_requests_read_the_same_in_the_cli_and_the_library(
    capsys, tmp_path, mode, idx, text
):
    from diograph import extension

    V = [1, 16, 3]
    wf = tmp_path / "w.txt"
    wf.write_text("".join(f"{v}\n" for v in V), encoding="utf-8")
    flags = [arg for flag, k in zip(("--i", "--j"), idx) for arg in (flag, str(k))]
    code, out, err = run_cli(capsys, "extend", "--witness-file", str(wf), "--mode", mode,
                             *flags)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {text}")
    ij = (idx + [None, None])[:2]
    lemma = {
        "pendant": lambda: extension.extend_pendant(V, ij[0], 1),
        "double": lambda: extension.extend_double(V, *ij, 1),
    }[mode]
    with pytest.raises(ValueError) as exc:
        lemma()
    assert str(exc.value).startswith(text)


def test_prune_command(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "prune", "--N", "100")
    assert code == 0
    doc = json.loads(out)
    assert doc["final"]["n"] <= doc["initial"]["n"]
    for step in doc["steps"]:
        before = step["density_before"][0] / step["density_before"][1]
        after = step["density_after"][0] / step["density_after"][1]
        assert after > before


def test_hamilton_commands(capsys):
    code, out, _ = run_cli(capsys, "hamilton", "--path", "--N", "16")
    assert code == 0 and "yes" in out
    code, out, _ = run_cli(capsys, "hamilton", "--path", "--N", "14")
    assert code == 1 and "mod4-counting" in out
    code, out, _ = run_cli(capsys, "hamilton", "--cycle", "--N", "12")
    assert code == 1 and "no" in out


def test_hamilton_path_on_empty_vertex_set_is_the_empty_path(capsys, tmp_path):
    wf = tmp_path / "empty.txt"
    wf.write_text("# no vertices\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "--format", "json", "hamilton", "--path", "--witness-file", str(wf))
    doc = json.loads(out)
    assert code == 0
    assert (doc["exists"], doc["method"], doc["path"]) == (True, "trivial", [])


@pytest.mark.parametrize("mode", ["--path", "--cycle"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_hamilton_nonpositive_cap_exits_2(capsys, mode, value):
    code, out, err = run_cli(capsys, "hamilton", mode, "--N", "5", "--cap", value)
    assert code == 2 and out == ""
    assert "--cap must be positive" in err


def test_hamilton_search_past_the_recursion_limit_exits_2_at_once():
    # the DFS nests one call per path vertex; on {1..1200} it passes
    # Python's default limit within about a second, and must not report
    # the exit code of a refuted path
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "diograph", "hamilton", "--path", "--N", "1200", "--cap", "1200"],
        capture_output=True, text=True, timeout=60,
    )
    assert time.perf_counter() - start < 10
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.startswith("error: ") and "recursion limit" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_represent_command(capsys, tmp_path):
    target = {
        "schema_version": 1,
        "n": 4,
        "vertices": [0, 1, 2, 3],
        "edges": [[0, 1], [1, 2], [2, 3]],
    }
    tf = tmp_path / "target.json"
    tf.write_text(json.dumps(target), encoding="utf-8")
    code, out, _ = run_cli(capsys, "--format", "json", "represent",
                           "--graph-file", str(tf))
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "found"
    assert len(doc["witness"]) == 4


def test_truncated_represent_target_exits_2_with_position(capsys, tmp_path):
    tf = tmp_path / "target.json"
    tf.write_text('{"vertices": [0, 1, 2],\n"edges": [[0, 1]', encoding="utf-8")
    code, out, err = run_cli(capsys, "represent", "--graph-file", str(tf))
    assert code == 2 and out == ""
    assert f"{tf}:2:" in err and "invalid JSON" in err


@pytest.mark.parametrize("flag", ["--budget", "--pool"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_represent_nonpositive_budget_or_pool_exits_2(capsys, tmp_path, flag, value):
    tf = tmp_path / "target.json"
    tf.write_text('{"vertices": [0, 1, 2, 3], "edges": [[0, 1], [1, 2]]}', encoding="utf-8")
    code, out, err = run_cli(capsys, "represent", "--graph-file", str(tf), flag, value)
    assert code == 2 and out == ""
    assert f"{flag} must be positive" in err


def test_represent_with_a_pool_past_the_candidate_budget_exits_2(capsys, tmp_path):
    # --budget counts search nodes, not the pool lists behind them; the
    # pool neighbours of 1 up to 10^12 are 10^6 candidates, past the
    # candidate budget of the first list
    tf = tmp_path / "k33.json"
    tf.write_text(json.dumps({"vertices": [1, 2, 3, 4, 5, 6],
                              "edges": [[a, b] for a in (1, 2, 3) for b in (4, 5, 6)]}),
                  encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "represent", "--graph-file", str(tf),
                             "--pool", str(10**12), "--budget", "100")
    assert time.perf_counter() - start < 2
    assert code == 2 and out == ""
    assert "above the budget of 500000" in err


@pytest.mark.parametrize("target", [
    {"vertices": 5, "edges": []},
    {"vertices": [[0], [1]], "edges": []},
    {"vertices": [0, "a", 1, 2], "edges": []},
    {"vertices": [0, 1, 2], "edges": [[0, 1, 2]]},
    {"vertices": [0, 1, 2], "edges": [5]},
    {"vertices": [0, 1, 2]},
])
def test_malformed_represent_target_exits_2(capsys, tmp_path, target):
    tf = tmp_path / "target.json"
    tf.write_text(json.dumps(target), encoding="utf-8")
    code, out, err = run_cli(capsys, "represent", "--graph-file", str(tf))
    assert code == 2 and out == ""
    assert err.startswith("error: malformed target document") and err.count("\n") == 1


def test_represent_with_an_overlong_pell_period_is_unknown(capsys, tmp_path):
    # every vertex peels; the sixth rebuild needs the unit of a 193-digit D
    target = {
        "vertices": [5, 14, 8, 0, 3, 10, 9],
        "edges": [[5, 8], [5, 3], [5, 10], [14, 0], [14, 3], [14, 10], [14, 9],
                  [8, 0], [8, 3], [3, 9]],
    }
    tf = tmp_path / "target.json"
    tf.write_text(json.dumps(target), encoding="utf-8")
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "--format", "json", "represent", "--graph-file", str(tf))
    assert time.perf_counter() - start < 10
    assert code == 1
    doc = json.loads(out)
    assert (doc["status"], doc["known_impossible"], doc["witness"]) == ("unknown", False, None)


def test_extend_past_the_pell_step_budget_exits_2(capsys, tmp_path, monkeypatch):
    from diograph import pell

    monkeypatch.setattr(pell, "_PELL_STEP_BUDGET", 20)
    wf = tmp_path / "pair.txt"
    wf.write_text("13\n139\n", encoding="utf-8")  # D = 13 * 139, period 28
    code, out, err = run_cli(capsys, "extend", "--witness-file", str(wf),
                             "--mode", "double", "--i", "0", "--j", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "period" in err and err.count("\n") == 1


def test_neighbors_bounded_large_smallest_element_is_quick(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "neighbors", "--set",
                           "100000000000000000000,100000000000000000001", "--bound", "1000000")
    assert time.perf_counter() - start < 2
    assert code == 0 and out == ""


def test_neighbors_past_the_candidate_budget_exit_2_at_once():
    # 1 walks 10^9 multipliers up to 10^18; the product of the first 22
    # primes lists 2^21 root classes of about 6 candidates each
    primorial = 1
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
              73, 79):
        primorial *= p
    for values, bound in (("1,3", 10**18), (str(primorial), 10**32)):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "diograph", "neighbors", "--set", values,
             "--bound", str(bound)],
            capture_output=True, text=True, timeout=60,
        )
        assert time.perf_counter() - start < 5
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
        assert "above the budget of 500000" in proc.stderr


def test_rank_command(capsys):
    code, out, _ = run_cli(capsys, "rank", "--top", "2", "--N", "1000")
    assert code == 0
    assert out.split() == ["24", "120"]


def test_omega_command(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "omega", "--x", "100")
    assert code == 0
    doc = json.loads(out)
    assert doc["counts"][0] == 1 and doc["counts"][1] == 35


def test_omega_beyond_int32_exits_2_at_once(capsys):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "omega", "--x", "3000000000")
    assert code == 2 and out == ""
    assert "x must" in err and "2**31 - 1" in err
    assert time.perf_counter() - t0 < 1


def test_rank_beyond_int32_exits_2_at_once(capsys):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "rank", "--N", "3000000000", "--top", "1")
    assert code == 2 and out == ""
    assert "N must be between 1 and 2**31 - 1" in err
    assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize("C", ["nan", "inf", "-inf"])
def test_omega_rejects_a_non_finite_C(capsys, C):
    for fmt in ("human", "json"):
        code, out, err = run_cli(capsys, "--format", fmt, "omega", "--x", "100", f"--C={C}")
        assert (code, out) == (2, "")
        assert f"C must be a finite number above 1, got {C}" in err


def test_json_output_refuses_nan_and_infinity(capsys):
    # strict JSON has no NaN or Infinity, so no command may print them
    args = argparse.Namespace(subcommand="omega", format="json")
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="JSON compliant"):
            _emit(args, {"C": value}, [])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, message", [
    (["dplus", "--triple", "1,3"],
     "--triple needs exactly three comma-separated integers, got 2"),
    (["dplus", "--triple", "1,3,8,4"],
     "--triple needs exactly three comma-separated integers, got 4"),
    (["dplus", "--triple", "1,x,8"], "--triple field 2 is not an integer: 'x'"),
    (["neighbors", "--set", "3,x"], "--set field 2 is not an integer: 'x'"),
    (["neighbors", "--set", "3,,8", "--bound", "100"], "--set field 2 is not an integer: ''"),
    (["neighbors", "--set", "1,3,8,", "--bound", "100"], "--set field 4 is not an integer: ''"),
])
def test_integer_list_flags_name_the_bad_field(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_malformed_witness_file_gives_line_number(capsys, tmp_path):
    wf = tmp_path / "bad.txt"
    wf.write_text("1\n3\nnot-a-number\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "chroma", "--witness-file", str(wf))
    assert code == 2
    assert ":3" in err


def test_missing_source_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "stats")
    assert code == 2
    assert "required" in err


@pytest.mark.parametrize("argv", [["color", "--k", "4", "--N", "5"], ["build", "--N", "5"]])
def test_memory_exhaustion_exits_2_not_as_a_negative_decision(capsys, monkeypatch, argv):
    from diograph import graph

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(graph, "build_range", exhausted)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "error: MemoryError\n")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs RLIMIT_AS")
def test_memory_exhaustion_under_an_address_space_limit_exits_2():
    # the limit is set in the child only: each command asks for a table of
    # several GiB and must end with one error line, not a traceback and
    # not the exit code of a refutation
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    for argv in (["color", "--k", "4", "--N", "2000000000"], ["build", "--N", "2000000000"],
                 ["rank", "--top", "3", "--N", "1500000000"]):
        proc = subprocess.run([sys.executable, "-m", "diograph", *argv], capture_output=True,
                              text=True, timeout=120, preexec_fn=limit)
        assert (proc.returncode, proc.stdout) == (2, ""), (argv, proc.stderr)
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "diograph", "neighbors", "--set", "1,3,8",
         "--bound", "1000000"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "120"


def test_scalar_commands_start_without_numpy(tmp_path):
    # dplus, neighbors, extend and represent do no array work: running
    # them must import neither numpy nor the array-backed modules
    quad, k33, prism = tmp_path / "quad.txt", tmp_path / "k33.json", tmp_path / "prism.json"
    quad.write_text("".join(f"{v}\n" for v in K4_WITNESS), encoding="utf-8")
    k33.write_text(json.dumps({"vertices": [1, 2, 3, 4, 5, 6],
                               "edges": [[a, b] for a in (1, 2, 3) for b in (4, 5, 6)]}),
                   encoding="utf-8")
    # the triangular prism is found (1, 3, 8, 35, 33, 136) and its witness verified
    prism.write_text(json.dumps({"vertices": [1, 2, 3, 4, 5, 6],
                                 "edges": [[1, 2], [2, 3], [1, 3], [4, 5], [5, 6], [4, 6],
                                           [1, 4], [2, 5], [3, 6]]}),
                     encoding="utf-8")
    argvs = [
        ["dplus", "--triple", "1,3,8"],
        ["neighbors", "--set", "1,16"],
        ["neighbors", "--set", "306,308,1228", "--bound", "1000000"],
        ["extend", "--witness-file", str(quad), "--mode", "isolated", "--count", "2"],
        ["represent", "--graph-file", str(k33), "--budget", "2000"],
        ["represent", "--graph-file", str(prism)],
    ]
    script = (
        "import json, sys\n"
        "from diograph.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "from diograph.extension import family_k5_minus_edge\n"
        "assert family_k5_minus_edge(2) == (1, 3, 8, 120, 11781)\n"
        "heavy = ['numpy', 'diograph.graph', 'diograph.analysis', 'diograph.coloring']\n"
        "print(json.dumps([codes, [m for m in heavy if m in sys.modules]]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0, 0, 1, 0]  # K3,3 ends "unknown" within its budget
    assert loaded == []


def test_graph_commands_start_without_numpy_ma(tmp_path):
    # numpy 2's np.unique imports numpy.ma (about 20 ms): building, writing,
    # loading, the clique search, pruning and colouring must not reach it
    quad, g = tmp_path / "quad.txt", tmp_path / "g.json"
    quad.write_text("".join(f"{v}\n" for v in K4_WITNESS), encoding="utf-8")
    argvs = [
        ["build", "--N", "300", "--out", str(g)],
        ["stats", "--graph-file", str(g)],
        ["prune", "--N", "300"],
        ["chroma", "--witness-file", str(quad)],
    ]
    script = (
        "import json, sys\n"
        "from diograph.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, 'numpy.ma' in sys.modules]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0, 0]
    assert not loaded
