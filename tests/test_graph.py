import gc
import io
import json
import random
import re
import tracemalloc
from itertools import combinations
from math import isqrt

import numpy as np
import pytest

from diograph import graph as graph_module
from diograph.graph import (
    DiophGraph,
    _class_batches,
    _isqrt_array,
    _clique_number,
    _component_count,
    GraphDefectError,
    WitnessFileError,
    build_range,
    build_set,
    degree_bound_check,
    edge_test,
    graph_from_doc,
    graph_to_doc,
    induced,
    load_graph_file,
    load_witness_file,
    range_edge_count,
    remove_vertex,
    save_graph_file,
    save_witness_file,
    stats,
    write_edge_list,
)
from diograph.numtheory import is_square, unit_roots_mod
from diograph.witnesses import C6_COMPLEMENT_WITNESS, K4_WITNESS, K5_MINUS_EDGE_WITNESS

N8_EDGES = [(1, 3), (1, 8), (2, 4), (3, 5), (3, 8), (4, 6), (5, 7), (6, 8)]


def brute_edges(values, shift=1):
    vs = sorted(values)
    return [
        (a, b)
        for i, a in enumerate(vs)
        for b in vs[i + 1 :]
        if is_square(a * b + shift)
    ]


def test_edge_test_examples():
    assert edge_test(3, 8, 1)
    for a in (1, 2, 17, 1000):
        assert edge_test(a, a + 2, 1)
    assert not edge_test(1, 2, 1)
    with pytest.raises(ValueError):
        edge_test(5, 5, 1)


def test_build_range_n8():
    g = build_range(8)
    assert g.edges() == N8_EDGES == brute_edges(range(1, 9))


def test_build_range_n1():
    g = build_range(1)
    assert g.vertices == (1,)
    assert g.edge_count == 0


def test_build_range_matches_pairwise_oracle_small():
    for N in list(range(1, 60)) + [100, 500, 1000]:
        fast = build_range(N)
        assert fast.edges() == brute_edges(range(1, N + 1)), N


def test_build_range_equals_build_set():
    for N in (7, 8, 50, 200, 1000):
        assert build_range(N).edges() == build_set(range(1, N + 1)).edges()


def test_adjacency_is_sorted_and_symmetric():
    g = build_range(500)
    for v in g.vertices:
        nb = g.adjacency[v]
        assert list(nb) == sorted(nb)
        assert v not in nb
        for u in nb:
            assert v in g.adjacency[u]


def test_build_set_examples():
    k4 = build_set(K4_WITNESS)
    assert k4.edge_count == 6  # complete on 4 vertices
    c6c = build_set(C6_COMPLEMENT_WITNESS)
    degs = sorted(c6c.degree(v) for v in c6c.vertices)
    assert degs == [3] * 6 and c6c.edge_count == 9
    k5m = build_set(K5_MINUS_EDGE_WITNESS)
    assert k5m.edge_count == 9
    assert not k5m.has_edge(1, 11781)


def test_build_set_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        build_set([1, 3, 3, 8])


def test_build_set_numpy_and_python_paths_agree():
    rng = random.Random(3)
    values = rng.sample(range(1, 10**6), 80)
    g = build_set(values)  # products below 2**62 take the array path
    assert g.edges() == brute_edges(values)


@pytest.mark.parametrize("shift", [1, 2])
def test_build_set_small_sets_match_the_pairwise_oracle(shift):
    # every product below 2**62 takes the array path, at any set size
    rng = random.Random(shift)
    for n in range(64):
        values = rng.sample(range(1, 3000), n)
        assert build_set(values, shift).edges() == brute_edges(values, shift)


@pytest.mark.parametrize("shift", [1, 2])
def test_build_set_labels_below_2_to_31_match_the_pairwise_oracle(shift):
    # a = t^2 - shift and b = a + 2t + 1 make a*b + shift = (a + t)^2, and
    # (2**31 - 3)(2**31 - 1) + 1 is a square, so the products reach 2**62
    rng = random.Random(10 + shift)
    pool = [2**31 - 3, 2**31 - 1]
    for _ in range(40):
        t = rng.randrange(2**13 + 1, 46_000)
        a = t * t - shift
        pool += [a, a + 2 * t + 1, rng.randrange(2**26, 2**31)]
    for n in (0, 1, 2, 7, 40, 63, len(pool)):
        values = pool[:n]
        edges = build_set(values, shift).edges()
        assert edges == brute_edges(values, shift)
    assert len(edges) >= 40


@pytest.mark.parametrize("values, bad", [
    ([1, 3.7, 8], "3.7"), ([1, 3.0, 8], "3.0"), (["1", "3", 8], "'1'"), ([1, True], "True"),
])
def test_build_set_rejects_non_integer_vertices(values, bad):
    with pytest.raises(ValueError, match=re.escape(f"vertices must be integers, got {bad}")):
        build_set(values)


def test_build_set_takes_numpy_integers_as_python_ints():
    g = build_set(np.array([1, 3, 8, 120], dtype=np.int64))
    assert g == build_set([1, 3, 8, 120])
    assert all(type(v) is int for v in g.vertices)


def test_range_edge_count_matches_build():
    for N in (1, 2, 8, 100, 1234):
        assert range_edge_count(N) == build_range(N).edge_count


def root_classes_by_vertex(N):
    """Reference for `_class_batches`: the per-vertex sweep it replaced,
    one `unit_roots_mod(a)` call per vertex a, each class with the count
    of its multipliers r0, r0 + a, ... up to isqrt(a*N + 1)."""
    for a in range(1, N - 1):
        rmax = isqrt(a * N + 1)
        for rho in unit_roots_mod(a).roots:
            r0 = a + 1 + (rho - a - 1) % a
            if r0 <= rmax:
                yield a, r0, len(range(r0, rmax + 1, a))


@pytest.mark.parametrize("N", [1, 2, 3, 4, 8, 33, 300, 2000, 10**4])
def test_class_batches_match_the_per_vertex_sweep(N):
    got = [
        triple
        for batch in _class_batches(N)
        for triple in zip(*(col.tolist() for col in batch))
    ]
    assert sorted(got) == sorted(root_classes_by_vertex(N))


def test_isqrt_array_is_exact_up_to_2_62():
    rng = random.Random(11)
    # 94906267^2 is just above 2**53, where float64 stops holding every int
    roots = [rng.randrange(1, 2**31) for _ in range(2000)] + [94906265, 94906267, 2**31 - 1]
    values = [v for r in roots for v in (r * r - 1, r * r, r * r + 1) if v < 2**62]
    values += [rng.randrange(2**62) for _ in range(2000)]
    got = _isqrt_array(np.array(values, dtype=np.int64)).tolist()
    assert got == [isqrt(v) for v in values]


def test_range_builders_reject_n_outside_int32():
    for N in (0, -3, 2**31, 10**10):
        with pytest.raises(ValueError, match=r"2\*\*31 - 1"):
            build_range(N)
        with pytest.raises(ValueError, match=r"2\*\*31 - 1"):
            range_edge_count(N)
    with pytest.raises(ValueError, match=r"2\*\*31 - 1"):
        build_range(10**10, shift=2)


def test_range_builders_and_range_documents_leave_the_sieve_unbuilt():
    from diograph.analysis import heuristic_top, omega_distribution

    g = build_range(33)
    assert range_edge_count(2000) == 8394
    assert graph_from_doc(graph_to_doc(g)) == g
    assert degree_bound_check(g).passed
    assert heuristic_top(1000, 3) == [24, 120, 8]
    assert omega_distribution(1000).counts[1] == 193


def test_stats_examples():
    s8 = stats(build_range(8))
    assert (s8.n, s8.e, s8.components) == (8, 8, 1)
    k4 = stats(build_set(K4_WITNESS))
    assert k4.clique_number == 4
    empty = stats(DiophGraph((), {}, 1))
    assert (empty.n, empty.e, empty.components) == (0, 0, 0)


def test_stats_histogram_and_density():
    s = stats(build_range(8))
    assert s.degree_histogram == {1: 2, 2: 4, 3: 2}
    assert s.density == 1


def test_connectivity_of_ranges():
    # incremental union-find over D(V_2000): D(V_N) is its induced prefix
    g = build_range(2000)
    parent = list(range(2001))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = 0
    for v in range(1, 2001):
        comps += 1
        for u in g.adjacency[v]:
            if u < v:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
                    comps -= 1
        if v >= 8:
            assert comps == 1, f"D(V_{v}) is disconnected"


def test_degree_bound_check_small():
    report = degree_bound_check(build_range(8))
    assert report.passed
    # a = 3: bound 8*sqrt(8/3)*2 ~ 26.1, actual degree 3
    g = build_range(8)
    assert g.degree(3) == 3
    report = degree_bound_check(build_range(1000))
    assert report.passed and report.max_ratio <= 1.0


def test_degree_of_one_matches_square_count():
    from math import isqrt

    for N in (8, 100, 5000):
        g = build_range(N)
        assert g.degree(1) == isqrt(N + 1) - 1


def test_remove_and_induced():
    k4 = build_set(K4_WITNESS)
    tri = remove_vertex(k4, 120)
    assert tri.vertices == (1, 3, 8) and tri.edge_count == 3
    tri2 = induced(build_range(8), [1, 3, 8])
    assert tri2.edge_count == 3
    g = build_range(20)
    assert induced(g, g.vertices) == g
    with pytest.raises(ValueError):
        remove_vertex(k4, 7)
    with pytest.raises(ValueError):
        induced(k4, [1, 2])


def test_witness_file_round_trip(tmp_path):
    path = tmp_path / "w.txt"
    save_witness_file([120, 1, 8, 3], path, comment="a quadruple")
    assert load_witness_file(path) == [120, 1, 8, 3]  # order preserved


def test_witness_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1\nx\n", encoding="utf-8")
    with pytest.raises(WitnessFileError, match=":2"):
        load_witness_file(path)
    path.write_text("1\n3\n1\n", encoding="utf-8")
    with pytest.raises(WitnessFileError, match="duplicate"):
        load_witness_file(path)
    path.write_text("0\n", encoding="utf-8")
    with pytest.raises(WitnessFileError, match="positive"):
        load_witness_file(path)


def test_graph_doc_round_trip(tmp_path):
    g = build_range(50)
    doc = graph_to_doc(g)
    assert doc["n"] == 50 and doc["shift"] == 1
    assert doc["edges"] == sorted(doc["edges"])
    assert graph_from_doc(doc) == g
    path = tmp_path / "g.json"
    save_graph_file(g, path)
    assert load_graph_file(path) == g
    # byte-identical serialization
    text1 = path.read_text()
    save_graph_file(build_range(50), path)
    assert path.read_text() == text1


def test_graph_file_is_one_compact_line(tmp_path):
    g = build_range(200)
    path = tmp_path / "g.json"
    save_graph_file(g, path)
    text = path.read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    assert json.loads(text)["schema_version"] == 2
    assert text == json.dumps(graph_to_doc(g)) + "\n"
    save_graph_file(build_range(200), path)
    assert path.read_text() == text


def test_version_1_indented_file_still_loads(tmp_path):
    g = build_range(200)
    doc = {**graph_to_doc(g), "schema_version": 1}
    path = tmp_path / "v1.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    assert load_graph_file(path) == g


def test_graph_doc_schema_version():
    doc = graph_to_doc(build_range(8))
    del doc["schema_version"]
    assert graph_from_doc(doc) == build_range(8)
    for version in (0, 3, "2", None, True):
        doc["schema_version"] = version
        with pytest.raises(ValueError, match=f"schema_version {version!r}"):
            graph_from_doc(doc)
    with pytest.raises(ValueError, match="not a JSON object"):
        graph_from_doc([1, 2])


def test_graph_doc_rejects_fake_edges():
    for fake in ([1, 2], [3, 3]):  # a loop is no edge either
        doc = graph_to_doc(build_range(8))
        doc["edges"].append(fake)
        with pytest.raises(ValueError, match="not an edge"):
            graph_from_doc(doc)


def test_graph_doc_rejects_duplicate_edges():
    doc = graph_to_doc(build_range(8))
    doc["edges"].append([8, 3])
    with pytest.raises(ValueError, match=r"edge \(3, 8\) is listed twice"):
        graph_from_doc(doc)


def test_graph_doc_rejects_nonpositive_shift():
    for shift in (0, -7):
        doc = {"n": 2, "shift": shift, "vertices": [1, 2], "edges": []}
        with pytest.raises(ValueError, match="shift"):
            graph_from_doc(doc)


def test_edge_list_export(tmp_path):
    path = tmp_path / "edges.txt"
    write_edge_list(build_range(8), path)
    lines = path.read_text().strip().splitlines()
    assert lines == [f"{a} {b}" for a, b in N8_EDGES]



def test_graph_doc_rejects_non_integer_values(tmp_path):
    # each of these used to load as the triangle {1, 3, 8}: int() and
    # np.array(..., int64) truncated floats and parsed strings
    base = {"n": 3, "shift": 1, "vertices": [1, 3, 8], "edges": [[1, 3], [1, 8], [3, 8]]}
    assert graph_from_doc(base) == build_set([1, 3, 8])
    path = tmp_path / "g.json"
    for field, value, named in (
        ("vertices", [1, 3.7, 8], "vertex: 3.7"),
        ("vertices", [1, "3", 8], "vertex: '3'"),
        ("vertices", [1, 3, True], "vertex: True"),
        ("shift", 1.5, "shift: 1.5"),
        ("shift", True, "shift: True"),
        ("shift", "1", "shift: '1'"),
        ("n", 3.9, "n: 3.9"),
        ("n", 3.0, "n: 3.0"),
        ("edges", [[1, 3.2], [1, 8], [3, 8]], "edge end: 3.2"),
        ("edges", [[1, 3], [True, 8], [3, 8]], "edge end: True"),
        ("edges", [[1, 3], [1, 8], ["3", "8"]], "edge end: '3'"),
        ("edges", [[1, 3], [1, 8], [3, None]], "edge end: None"),
    ):
        doc = {**base, field: value}
        with pytest.raises(ValueError, match=re.escape(f"non-integer {named}")):
            graph_from_doc(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"non-integer {named}")):
            load_graph_file(path)


# the same examples on every run, and nothing written to disk
PROPERTY_SETTINGS = {"deadline": None, "derandomize": True, "database": None}


def test_saved_bytes_are_json_dumps_of_the_document(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    path, edges_path = tmp_path / "g.json", tmp_path / "e.txt"

    def check(g):
        save_graph_file(g, path)
        assert path.read_bytes() == (json.dumps(graph_to_doc(g)) + "\n").encode()
        write_edge_list(g, edges_path)
        assert edges_path.read_text() == "".join(f"{a} {b}\n" for a, b in g.edges())

    for N in (1, 2, 3, 8, 50, 300):
        check(build_range(N))
        check(build_range(N, shift=2))
    # (k - 1, k + 1) and (1, k^2 - 1) are edges at shift 1, so large labels
    # come with edges
    pair = st.integers(2, 2**70).map(lambda k: [k - 1, k + 1])
    square = st.integers(2**31, 2**40).map(lambda k: [1, k * k - 1])
    single = st.integers(1, 120).map(lambda v: [v])
    beyond_int64 = st.integers(2**63 - 4, 2**63 + 4).map(lambda v: [v])

    @hypothesis.settings(max_examples=150, **PROPERTY_SETTINGS)
    @hypothesis.given(
        st.lists(st.one_of(single, pair, square, beyond_int64), max_size=12),
        st.sampled_from([1, 2]),
    )
    def random_sets(parts, shift):
        check(build_set({v for part in parts for v in part}, shift))

    random_sets()


def _mutate(data: bytes, kind: str, at: int, pick: int) -> bytes:
    """One edit of a saved document; `at` and `pick` choose where and
    what."""
    i = at % (len(data) + 1)
    if kind == "flip":
        return data[:i] + bytes([data[i % len(data)] ^ (1 + pick % 255)]) + data[i + 1 :]
    if kind == "insert":
        token = (b" ", b"\n", b"\t", b"0", b"7", b"-", b".", b",", b"[", b"]", b"e", b"\xff")
        return data[:i] + token[pick % len(token)] + data[i:]
    if kind == "delete":
        return data[:i] + data[i + 1 + pick % 4 :]
    if kind == "leading":
        return (b" ", b"\n", b"\xef\xbb\xbf")[pick % 3] + data  # the last is a UTF-8 BOM
    if kind == "trailing":
        tail = (b" \n", b"\r\n", b"x", b"}", b"[]", b", ", b"\n\n")
        return data + tail[pick % len(tail)]
    if kind == "space":  # JSON whitespace after a separator
        seps = [m.end() for m in re.finditer(rb"[,:\[{]", data)]
        j = seps[at % len(seps)]
        return data[:j] + (b" ", b"  ", b"\n", b"\t")[pick % 4] + data[j:]
    numbers = list(re.finditer(rb"\d+", data))
    if kind == "number":
        m = numbers[at % len(numbers)]
        num = m.group()
        forms = (b"0" + num, num + b".0", b"-" + num, num + b"e0", b"1e3", b"true",
                 b'"' + num + b'"', str(int(num) + 1).encode(), str(int(num) - 1).encode())
        return data[: m.start()] + forms[pick % len(forms)] + data[m.end() :]
    pairs = list(re.finditer(rb"\[\d+, \d+\]", data))
    if kind == "duplicate-key":
        if pick % 2:
            return data[:1] + b'"edges": [[1, 3]], ' + data[1:]
        return data.rstrip()[:-1] + b', "edges": [[1, 3]]}'
    if not pairs:
        return data
    m = pairs[at % len(pairs)]
    if kind == "cut-edge":
        start, end = m.start(), m.end()
        if data[end : end + 2] == b", ":
            end += 2
        elif data[start - 2 : start] == b", ":
            start -= 2
        return data[:start] + data[end:]
    # repeat an edge
    return data[: m.end()] + b", " + m.group() + data[m.end() :]


def test_loader_agrees_with_the_general_path_on_mutated_documents(tmp_path):
    from diograph.graph import _load_canonical, read_json_file

    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    path = tmp_path / "g.json"

    def outcome(load):
        try:
            return load()
        except ValueError as exc:
            return type(exc), str(exc)

    sources = [build_range(N) for N in (1, 2, 8, 30)] + [
        build_range(20, shift=2),
        build_set(K4_WITNESS),
        build_set([1, 3, 2**66 - 1, 2**80]),
    ]
    kinds = ("flip", "insert", "delete", "leading", "trailing", "space", "number",
             "duplicate-key", "cut-edge", "repeat-edge")

    @hypothesis.settings(max_examples=400, **PROPERTY_SETTINGS)
    @hypothesis.given(
        st.sampled_from(range(len(sources))),
        st.lists(st.tuples(st.sampled_from(kinds), st.integers(0, 10**6), st.integers(0, 10**3)),
                 min_size=1, max_size=2),
    )
    def check(source, edits):
        save_graph_file(sources[source], path)
        data = path.read_bytes()
        for kind, at, pick in edits:
            data = _mutate(data, kind, at, pick)
        path.write_bytes(data)
        general = outcome(lambda: graph_from_doc(read_json_file(path)))
        fast = _load_canonical(io.BytesIO(data))
        if fast is not None:
            assert general == fast
        assert outcome(lambda: load_graph_file(path)) == general

    check()


def test_every_saved_document_takes_the_rebuild_path(tmp_path):
    from diograph.graph import _load_canonical

    path = tmp_path / "g.json"
    for g in (
        build_range(1),
        build_range(30),
        build_range(20, shift=2),
        build_set(K4_WITNESS),
        build_set([1, 3, 2**66 - 1, 2**80]),
        build_set([]),
    ):
        save_graph_file(g, path)
        with open(path, "rb") as fh:
            assert _load_canonical(fh) == g
        assert load_graph_file(path) == g


def test_the_parsed_document_is_dropped_before_the_rebuild(tmp_path, monkeypatch):
    doc = graph_to_doc(build_range(30))
    doc["marker"] = marker = "the parsed document"
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")  # not the saved layout
    del doc
    alive = []
    real = graph_module._rebuild

    def rebuild(shift, vs):
        alive.append(any(type(o) is dict and o.get("marker") == marker for o in gc.get_objects()))
        return real(shift, vs)

    expected = build_range(30)
    monkeypatch.setattr(graph_module, "_rebuild", rebuild)
    # no `assert` around the calls: its rewriting would keep the argument
    graphs = [graph_from_doc(json.loads(path.read_text())), load_graph_file(path)]
    assert graphs == [expected, expected]
    assert alive == [False, False]


@pytest.mark.parametrize("read_bytes", [1, 7, 4096])
def test_streamed_check_agrees_with_the_general_path(tmp_path, monkeypatch, read_bytes):
    # reads of 1, 7 or 4096 bytes split the header, the `, "edges": ` key
    # and the encoder's pieces (which shrink with the same constant)
    from diograph.graph import _EDGES_KEY, _load_canonical, read_json_file

    monkeypatch.setattr(graph_module, "_CHUNK_BYTES", read_bytes)
    path = tmp_path / "g.json"

    def outcome(load):
        try:
            return load()
        except ValueError as exc:
            return type(exc), str(exc)

    def streamed(data):
        path.write_bytes(data)
        with open(path, "rb") as fh:
            return _load_canonical(fh)

    for G in (build_range(30), build_range(2000), build_range(20, shift=2),
              build_set([1, 3, 2**66 - 1, 2**80]), build_set([])):
        save_graph_file(G, path)
        data = path.read_bytes()
        cut = data.index(_EDGES_KEY)
        # spaces after `{` that put the key 5 bytes before a read boundary
        pad = b" " * (-(cut + 5) % read_bytes)
        straddled = data[:1] + pad + data[1:]
        assert streamed(data) == G
        assert streamed(straddled) == G
        assert streamed(data.rstrip() + b" \r\n\t " * 3000) == G
        variants = [
            straddled,
            data[:-2],  # truncated: no closing brace
            data[: cut + 5],  # truncated inside the key
            data[: cut + len(_EDGES_KEY) + 3],  # truncated inside the edges
            data[: cut // 2],  # truncated inside the header
            data + b"x",  # trailing garbage
            data.rstrip() + b" " * 5000 + b"}",
            data.rstrip() + b"[]",
            data.rstrip()[:-1] + b', "edges": [[1, 3]]}',  # a second edges key
            data.rstrip()[:-1] + _EDGES_KEY + data[cut + len(_EDGES_KEY) :],
            data[:cut] + b', "edges": []' + data[cut:],
            data[:1] + b'"edges": [[1, 3]], ' + data[1:],
            data[:cut] + b"\n" + data[cut:],
        ]
        for doc in variants:
            fast = streamed(doc)
            general = outcome(lambda: graph_from_doc(read_json_file(path)))
            if fast is not None:
                assert fast == general
            assert outcome(lambda: load_graph_file(path)) == general


def test_shift_2_graph():
    g = build_range(100, shift=2)
    assert g.edges() == brute_edges(range(1, 101), shift=2)
    assert g.has_edge(1, 2)  # 1*2+2 = 4


def test_dujella_band_at_1e5_and_1e6():
    from math import log, pi

    for N, edges in ((10**5, 657_504), (10**6, 7_974_990)):
        e = range_edge_count(N)
        assert e == edges
        ratio = e / ((6 / pi**2) * N * log(N))
        assert 0.75 <= ratio <= 1.25, (N, ratio)


def test_no_five_clique_defect_on_random_sets():
    rng = random.Random(5)
    for _ in range(50):
        values = rng.sample(range(1, 10**6), 30)
        s = stats(build_set(values))
        assert s.clique_number <= 4
        assert 8 * s.e <= 3 * s.n * s.n


def test_five_clique_raises_defect():
    # hand-build an impossible adjacency to confirm the tripwire fires;
    # the sixth isolated vertex keeps e below (3/8)n^2 so the clique
    # search itself is what trips
    vs = tuple(range(1, 7))
    adj = {v: tuple(u for u in vs[:5] if u != v) for v in vs[:5]}
    adj[6] = ()
    fake = DiophGraph(vs, adj, 1)
    with pytest.raises(GraphDefectError, match="5-clique"):
        stats(fake)
    # a restriction of it still holds only its stored edges: on the labels
    # 1..5 the relation has no 5-clique.  stats would stop at the edge
    # bound first, so the clique search is called directly.
    restricted = remove_vertex(fake, 6)
    assert not restricted._relation
    with pytest.raises(GraphDefectError, match="5-clique"):
        _clique_number(restricted)


def test_edge_bound_defect_fires():
    vs = tuple(range(1, 6))
    adj = {v: tuple(u for u in vs if u != v) for v in vs}
    with pytest.raises(GraphDefectError, match="edge bound"):
        stats(DiophGraph(vs, adj, 1))


# ---------------------------------------------------------------------------
# Reference implementations for the array paths
# ---------------------------------------------------------------------------


def clique_number_by_label(G, cap=5):
    """Reference clique search: label order, no orientation, sets of
    labels; a clique of size `cap` returns `cap` (the tripwire is the
    caller's)."""
    if G.n == 0:
        return 0
    adj = {v: set(nb) for v, nb in G.adjacency.items()}
    best = [1]

    def extend(clique, cands):
        if len(clique) > best[0]:
            best[0] = len(clique)
            if best[0] >= cap:
                raise StopIteration
        if len(clique) + len(cands) <= best[0]:
            return
        for u in sorted(cands):
            extend(clique + [u], {w for w in cands & adj[u] if w > u})

    try:
        for v in G.vertices:
            extend([v], {w for w in adj[v] if w > v})
    except StopIteration:
        return cap
    return best[0]


def clique_number_oriented(G, cap=5):
    """Second reference clique search: depth-first over frozensets of
    forward neighbors, every edge oriented towards the larger (degree,
    label), so each clique is met once from its first vertex; a clique of
    size `cap` returns `cap` (the tripwire is the caller's)."""
    n = G.n
    if n == 0:
        return 0
    deg = G._degrees()
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(deg, kind="stable")] = np.arange(n, dtype=np.int64)
    rows = G._per_entry(np.arange(n))
    forward = rank[G.indices] > rank[rows]
    fptr = np.searchsorted(rows[forward], np.arange(n + 1)).tolist()
    fl = G.indices[forward].tolist()
    fwd = [frozenset(fl[a:b]) for a, b in zip(fptr, fptr[1:])]
    best = 1
    for v, cands in enumerate(fwd):
        if len(cands) < best:
            continue
        # each frame is (clique, its common candidates, the candidates not
        # yet tried)
        stack = [([v], cands, iter(cands))]
        while stack:
            clique, cands, untried = stack[-1]
            u = next(untried, None)
            if u is None:
                stack.pop()
                continue
            grown, common = clique + [u], cands & fwd[u]
            if len(grown) > best:
                best = len(grown)
                if best >= cap:
                    return cap
            if len(grown) + len(common) > best:
                stack.append((grown, common, iter(common)))
    return best


def component_count_bfs(G):
    """Reference component count: depth-first search over labels."""
    seen = set()
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


def abstract_graph(n, edges, shift=10**9):
    adj = {v: [] for v in range(1, n + 1)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return DiophGraph(tuple(adj), adj, shift)


def assert_matches_references(G):
    assert _clique_number(G) == clique_number_by_label(G) == clique_number_oriented(G)
    assert _component_count(G) == component_count_bfs(G)


def random_abstract_graph(rng, n, density, shift=10**9):
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    return abstract_graph(n, rng.sample(pairs, round(density * len(pairs))), shift)


@pytest.fixture(params=[None, 1, 3, 7], ids=lambda c: f"chunk={c}")
def clique_chunk(request, monkeypatch):
    """Runs a test with the module's clique chunk and with tiny ones, so
    that chunk boundaries fall inside every degree class."""
    if request.param is not None:
        monkeypatch.setattr(graph_module, "_CLIQUE_CHUNK", request.param)
    return request.param


def test_clique_search_matches_both_references(clique_chunk):
    rng = random.Random(31)
    graphs = [build_range(N) for N in (1, 2, 3, 4, 8, 33, 300, 2000)]
    for shift in (1, 2, 3, 8):
        graphs += [build_set(rng.sample(range(1, 5000), 150), shift) for _ in range(4)]
    for _ in range(12):  # dense: 4- and 5-cliques are common
        graphs.append(random_abstract_graph(rng, rng.randrange(10, 41), rng.uniform(0.5, 0.9)))
    graphs += [abstract_graph(7, []), build_set([]), DiophGraph((), {}, 3)]
    sizes = []
    for G in graphs:
        want = clique_number_by_label(G)
        assert clique_number_oriented(G) == want, G
        assert _clique_number(G) == want, G
        sizes.append(want)
    assert set(sizes) == {0, 1, 2, 3, 4, 5}


def test_five_cliques_at_shift_1_name_adjacent_labels(clique_chunk):
    # a fake shift-1 adjacency with several 5-cliques among denser noise;
    # whichever one the search meets first, its labels must be a clique
    rng = random.Random(32)
    for _ in range(6):
        n = rng.randrange(12, 30)
        edges = set(rng.sample(list(combinations(range(1, n + 1), 2)), 2 * n))
        for _ in range(3):
            edges.update(combinations(sorted(rng.sample(range(1, n + 1), 5)), 2))
        G = abstract_graph(n, sorted(edges), shift=1)
        with pytest.raises(GraphDefectError, match="5-clique found at shift 1") as err:
            _clique_number(G)
        labels = json.loads(str(err.value).split(": ", 1)[1])
        assert len(set(labels)) == 5
        assert all(G.has_edge(a, b) for a, b in combinations(labels, 2)), labels
        assert _clique_number(abstract_graph(n, sorted(edges), shift=2)) == 5


@pytest.fixture
def lookups(monkeypatch):
    """Counts the calls of the clique pass's key lookup."""
    calls = []
    real = graph_module._lookup
    monkeypatch.setattr(graph_module, "_lookup", lambda *args: calls.append(1) or real(*args))
    return calls


def relation_graphs(tmp_path):
    """Graphs whose edges are the relation a*b + shift square: builder
    graphs, restrictions of them and loaded documents."""
    rng = random.Random(34)
    graphs = [build_range(N) for N in (1, 2, 3, 8, 33, 300, 2000)]
    graphs += [build_set(rng.sample(range(1, 5000), 150), shift) for shift in (1, 2, 3, 8)]
    for G in graphs[3:]:
        graphs.append(induced(G, rng.sample(G.vertices, G.n // 2)))
        graphs.append(remove_vertex(G, G.vertices[int(np.argmax(G._degrees()))]))
    for i, G in enumerate((build_range(2000), build_set(rng.sample(range(1, 5000), 150), 3))):
        path = tmp_path / f"g{i}.json"
        save_graph_file(G, path)
        graphs += [load_graph_file(path), graph_from_doc(json.loads(path.read_text()))]
    return graphs


def test_relation_clique_search_matches_references_and_lookup(
    clique_chunk, monkeypatch, lookups, tmp_path
):
    sizes = []
    for G in relation_graphs(tmp_path):
        assert G._relation, G
        want = clique_number_by_label(G)
        assert clique_number_oriented(G) == want, G
        lookups.clear()
        assert _clique_number(G) == want, G
        assert not lookups, G  # every pair was tested by the relation
        with monkeypatch.context() as m:
            m.setattr(G, "_relation", False)
            assert _clique_number(G) == want, G
        assert lookups or want < 3, G  # a graph with a triangle has pairs to look up
        sizes.append(want)
    assert set(sizes) == {1, 2, 3, 4}


def test_public_constructor_graphs_and_restrictions_use_stored_edges(clique_chunk, lookups):
    rng = random.Random(35)
    for _ in range(6):
        G = random_abstract_graph(rng, rng.randrange(10, 30), rng.uniform(0.5, 0.9), shift=1)
        for H in (G, induced(G, G.vertices[1:]), remove_vertex(G, G.vertices[0])):
            assert not H._relation
            lookups.clear()
            want = clique_number_by_label(H)
            if want == 5:
                with pytest.raises(GraphDefectError, match="5-clique"):
                    _clique_number(H)
            else:
                assert _clique_number(H) == want
            assert lookups


def test_clique_search_looks_up_pairs_beyond_int64_products(clique_chunk, lookups):
    # 46341^2 - 1 and 65537^2 - 1 lie just above 2**31 and 2**32, so the
    # largest product passes 2**62 and the relation is not tested on int64
    a, b = 46341**2 - 1, 65537**2 - 1
    G = build_set([1, 3, 8, 120, a, a + 2, b, b + 2])
    assert G._relation and b * (b + 2) + 1 >= 1 << 62
    lookups.clear()
    assert _clique_number(G) == clique_number_by_label(G) == clique_number_oriented(G) == 4
    assert lookups


def test_clique_number_of_empty_and_single_vertex_graphs(clique_chunk):
    empty = (build_set([]), build_set([], 5), DiophGraph((), {}, 3), remove_vertex(build_range(1), 1))
    single = (build_range(1), build_set([7], 2), abstract_graph(1, []), induced(build_range(9), [4]))
    assert [_clique_number(G) for G in empty] == [0] * len(empty)
    assert [_clique_number(G) for G in single] == [1] * len(single)


def test_clique_search_memory_stays_near_the_adjacency():
    # the chunked pass reads 1.10x the indices here; without its row chunks
    # it reads 3.8x, without its pair chunks 1.8x
    G = build_range(10**5)
    tracemalloc.start()
    try:
        assert _clique_number(G) == 4
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * G.indices.nbytes, peak / G.indices.nbytes


def traced_peak(call):
    """call() and the peak of the memory it traced, in bytes."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_range_build_memory_stays_near_its_result():
    # the count-then-fill build reads 1.7x here; expanding every edge into
    # whole-edge arrays reads about 6x
    G, peak = traced_peak(lambda: build_range(2 * 10**5))
    result = G.indptr.nbytes + G.indices.nbytes
    assert peak <= 2.5 * result, peak / result


def test_save_and_load_memory_stays_bounded(tmp_path):
    # they read about 10 and 23 MiB here; with encoder chunks of 2**16
    # edges and the whole-edge arrays of the old range build, 48 and 68
    # MiB to save, and 33 MiB to load from the whole file read at once
    path = tmp_path / "g.json"
    G = build_range(10**5)
    _, peak = traced_peak(lambda: save_graph_file(G, path))
    assert peak <= 40 * 2**20, peak / 2**20
    H, peak = traced_peak(lambda: load_graph_file(path))
    assert H == G
    assert peak <= 28 * 2**20, peak / 2**20


@pytest.fixture(params=[None, 32, 100], ids=lambda b: f"batch={b}")
def root_batch(request, monkeypatch):
    """Runs a test with the sieve's root batches and with small ones, so
    that the range build fills its keys from many batches.  A batch holds
    all roots of its vertices, so it is no smaller than the 32 roots of
    840, the most of any vertex up to 1000."""
    if request.param is not None:
        from diograph import numtheory

        monkeypatch.setattr(numtheory, "_ROOT_BATCH", request.param)


def test_range_build_equals_the_pairwise_and_mapping_builds(root_batch):
    from diograph.graph import _pairwise_edges

    for N in [*range(1, 61), 100, 500, 1000]:
        vs = tuple(range(1, N + 1))
        lo, hi = _pairwise_edges(vs, 1)
        adjacency = {v: [] for v in vs}
        for a, b in brute_edges(vs):
            adjacency[a].append(b)
            adjacency[b].append(a)
        G = build_range(N)
        assert G == DiophGraph._from_pairs(vs, len(lo), [(lo, hi)], 1), N
        assert G == DiophGraph(vs, adjacency, 1), N
        assert G.indptr.dtype == G.indices.dtype == np.int64


@pytest.mark.parametrize("chunk_bytes", [1, 40, 1000])
def test_encoder_chunks_join_to_the_same_bytes(tmp_path, monkeypatch, chunk_bytes):
    from diograph.graph import _json_edges

    graphs = [build_range(N) for N in (1, 2, 8, 300)] + [
        build_range(50, shift=2),
        build_set([1, 3, 2**66 - 1, 2**66 + 1, 2**80]),
    ]
    whole = [
        (b"".join(_json_edges(G)), b"".join(_json_edges(G, indented=True)), G.edges())
        for G in graphs
    ]
    monkeypatch.setattr(graph_module, "_CHUNK_BYTES", chunk_bytes)
    path = tmp_path / "e.txt"
    for G, (compact, indented, edges) in zip(graphs, whole):
        assert compact == json.dumps(edges).encode()
        assert indented == json.dumps({"edges": edges}, indent=2)[len('{\n  "edges": '):-2].encode()
        assert b"".join(_json_edges(G)) == compact
        assert b"".join(_json_edges(G, indented=True)) == indented
        write_edge_list(G, path)
        assert path.read_text() == "".join(f"{a} {b}\n" for a, b in edges)


@pytest.mark.parametrize("N", [300, 2000])
def test_clique_and_components_match_references_on_ranges(N):
    assert_matches_references(build_range(N))


def test_clique_and_components_match_references_on_sets():
    rng = random.Random(11)
    for _ in range(30):
        assert_matches_references(build_set(rng.sample(range(1, 5000), 200)))


def test_clique_and_components_match_references_on_abstract_graphs():
    rng = random.Random(12)
    k5 = [(a, b) for a in range(1, 6) for b in range(a + 1, 6)]
    graphs = [
        abstract_graph(1, []),
        abstract_graph(7, []),
        abstract_graph(6, k5),  # K5 plus an isolated vertex: the cap
        abstract_graph(9, k5 + [(6, 7), (7, 8), (8, 9), (9, 6)]),
        abstract_graph(12, [(i, i + 1) for i in range(1, 12)]),  # a path
    ]
    for _ in range(20):
        n = rng.randrange(5, 40)
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        graphs.append(abstract_graph(n, rng.sample(pairs, rng.randrange(len(pairs) // 3))))
    for G in graphs:
        assert_matches_references(G)
    assert _clique_number(graphs[2]) == 5
    assert stats(graphs[2]).clique_number == 5  # abstract: no tripwire


@pytest.fixture(params=[None, 1, 3, 7], ids=lambda c: f"chunk={c}")
def row_chunk(request, monkeypatch):
    """Runs a test with the module's row runs and with tiny ones, so that
    runs break between any two rows."""
    if request.param is not None:
        monkeypatch.setattr(graph_module, "_ROW_CHUNK", request.param)


def test_component_count_matches_networkx(row_chunk):
    nx = pytest.importorskip("networkx")
    rng = random.Random(41)
    graphs = [build_range(N) for N in (1, 2, 3, 8, 33)] + [abstract_graph(9, [])]
    for _ in range(40):  # sparse ones have isolated vertices and many components
        graphs.append(random_abstract_graph(rng, rng.randrange(1, 60),
                                            rng.choice([0.0, 0.01, 0.03, 0.08, 0.3])))
    graphs += [build_set(rng.sample(range(1, 3000), 120), shift) for shift in (1, 2, 3)]
    counts = set()
    for G in graphs:
        H = nx.Graph()
        H.add_nodes_from(G.vertices)
        H.add_edges_from(G.edges())
        counts.add(nx.number_connected_components(H))
        assert _component_count(G) == nx.number_connected_components(H), G
    assert len(counts) > 10


def test_component_pass_memory_stays_below_the_adjacency():
    # the row runs read about 1.7 MiB here; gathering the labels of every
    # adjacency entry at once read 14.7 MiB
    G = build_range(10**5)
    count, peak = traced_peak(lambda: _component_count(G))
    assert count == 1
    assert peak < 5 * 2**20, peak / 2**20


def test_restriction_matches_the_mapping_build(row_chunk):
    rng = random.Random(43)
    graphs = [build_range(N) for N in (1, 2, 8, 300)] + [abstract_graph(9, [])]
    graphs += [build_set(rng.sample(range(1, 5000), 150), shift) for shift in (1, 2)]
    graphs += [random_abstract_graph(rng, rng.randrange(2, 40), rng.uniform(0.05, 0.6))
               for _ in range(6)]
    for G in graphs:
        subsets = [rng.sample(G.vertices, rng.randrange(G.n + 1)) for _ in range(6)]
        subsets += [set(G.vertices) - {v} for v in rng.sample(G.vertices, min(4, G.n))]
        for subset in subsets:
            kept = set(subset)
            want = DiophGraph(kept, {v: [u for u in G.neighbors(v) if u in kept] for v in kept},
                              G.shift)
            assert induced(G, subset) == want
            if len(kept) == G.n - 1:
                assert remove_vertex(G, (set(G.vertices) - kept).pop()) == want


def test_restriction_memory_stays_near_its_result():
    # the counted, then filled keys read about 1.2x here; keys for every
    # entry at once read 2.25x, and G's label index, built by the old
    # membership test, 0.7x more
    G = build_range(2 * 10**5)
    H, peak = traced_peak(lambda: remove_vertex(G, 1))
    result = H.indptr.nbytes + H.indices.nbytes
    assert H.n == G.n - 1 and H.edge_count == G.edge_count - G.degree(1)
    assert peak <= 1.5 * result, peak / result


def test_networkx_oracle_on_range_2000():
    nx = pytest.importorskip("networkx")
    G = build_range(2000)
    H = nx.Graph()
    H.add_nodes_from(G.vertices)
    H.add_edges_from(G.edges())
    s = stats(G)
    assert s.clique_number == max(len(c) for c in nx.find_cliques(H))
    assert s.components == nx.number_connected_components(H)


def test_mapping_built_and_array_built_graphs_are_equal():
    for g in (build_range(200), build_set(K5_MINUS_EDGE_WITNESS), build_range(1)):
        mapped = DiophGraph(reversed(g.vertices), dict(g.adjacency), g.shift)
        assert mapped == g and g == mapped
        assert dict(mapped.adjacency) == dict(g.adjacency)
    assert build_range(200) != build_range(201)
    assert build_range(50) != build_range(50, shift=2)
    assert build_range(8) != DiophGraph(range(1, 9), {v: () for v in range(1, 9)}, 1)


def test_mapping_constructor_rejects_inconsistent_adjacency():
    for vs, adj in (
        ((1, 2), {1: (2,), 2: ()}),  # not symmetric
        ((1, 2), {1: (1,), 2: ()}),  # loop
        ((1, 2), {1: (2, 2), 2: (1, 1)}),  # repeated neighbor
        ((1, 2), {1: (3,), 2: ()}),  # non-vertex
        ((1, 2), {1: ()}),  # a vertex without a row
    ):
        with pytest.raises(ValueError):
            DiophGraph(vs, adj, 1)


def test_adjacency_view_is_read_only_mapping():
    g = build_range(8)
    assert 3 in g.adjacency and 9 not in g.adjacency and "x" not in g.adjacency
    assert len(g.adjacency) == 8 and list(g.adjacency) == list(range(1, 9))
    assert g.adjacency[3] == (1, 5, 8) and g.neighbors(3) == (1, 5, 8)
    with pytest.raises(KeyError):
        g.adjacency[9]
    with pytest.raises(TypeError):
        g.adjacency[3] = ()
    assert g.has_edge(3, 8) and not g.has_edge(3, 4) and not g.has_edge(3, 99)


def test_label_lookups_keep_no_state_and_raise_key_errors():
    g = build_range(8)
    assert g.adjacency.get("x") is None and not g.has_edge("x", 3)
    assert g.adjacency[3.0] == g.adjacency[3] and g.degree(3.0) == 3
    for bad in (9, 0, "x", 2.5, None):
        with pytest.raises(KeyError):
            g.adjacency[bad]
        with pytest.raises(ValueError, match=re.escape(f"vertex {bad} not in graph")):
            remove_vertex(g, bad)
    assert remove_vertex(g, 3.0) == remove_vertex(g, 3) == induced(g, [1, 2, 4, 5, 6, 7, 8])
    assert build_set([]).adjacency.get(1) is None

    G = build_range(10**5)
    tracemalloc.start()
    try:
        assert G.degree(77) == len(G.neighbors(77)) and G.has_edge(1, 3)
        assert 10**5 in G.adjacency and 10**5 + 1 not in G.adjacency
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 0.5 * 2**20, held


def test_graph_doc_round_trip_with_labels_beyond_int64(tmp_path):
    big = 2**66 - 1  # 1 * big + 1 = (2^33)^2
    g = build_set([1, 3, 8, 120, big])
    assert g.has_edge(1, big)
    assert graph_from_doc(graph_to_doc(g)) == g
    path = tmp_path / "big.json"
    save_graph_file(g, path)
    assert load_graph_file(path) == g
    # fake edges whose a*b + 1 leaves int64 must meet the exact test: labels
    # beyond int64, and int64 labels whose product 2^65 + 1 wraps to 1
    for a, b in ((1, 2**66), (2**32, 2**33)):
        doc = {"n": 2, "shift": 1, "vertices": [a, b], "edges": [[a, b]]}
        with pytest.raises(ValueError, match="not an edge"):
            graph_from_doc(doc)
    real = {"n": 2, "shift": 1, "vertices": [1, 2**60 - 1], "edges": [[2**60 - 1, 1]]}
    assert graph_from_doc(real).edges() == [(1, 2**60 - 1)]
    shift = 2**70  # beyond int64; no pair of {1, 2, 3} is an edge at this shift
    doc = {"n": 3, "shift": shift, "vertices": [1, 2, 3], "edges": []}
    assert graph_from_doc(doc).edge_count == 0
    doc["edges"] = [[2, 3]]
    with pytest.raises(ValueError, match="not an edge"):
        graph_from_doc(doc)


def test_graph_doc_rejects_malformed_edges():
    for edges in ([[1, 3, 8]], [[1]], [[None, 3]], [[1, "x"]], [[]], "13"):
        doc = {"n": 8, "shift": 1, "vertices": list(range(1, 9)), "edges": edges}
        with pytest.raises(ValueError):
            graph_from_doc(doc)


def test_graph_doc_rejects_unknown_vertices():
    doc = graph_to_doc(build_range(8))
    doc["edges"].append([8, 120])
    with pytest.raises(ValueError, match=r"edge \(8, 120\) uses unknown vertices"):
        graph_from_doc(doc)
    # an end beyond int64 among int64 labels
    doc["edges"][-1] = [1, 2**70]
    with pytest.raises(ValueError, match=rf"edge \(1, {2**70}\) uses unknown vertices"):
        graph_from_doc(doc)


def test_incomplete_witness_document_is_rejected():
    from diograph.coloring import chromatic_number
    from diograph.witnesses import FIVE_CHROMATIC_WITNESS

    g = build_set(FIVE_CHROMATIC_WITNESS)
    doc = graph_to_doc(g)
    assert chromatic_number(graph_from_doc(doc)) == 5
    listed = len(doc["edges"])
    del doc["edges"][-40:]
    with pytest.raises(ValueError, match=f"lists {listed - 40} of the {listed} edges"):
        graph_from_doc(doc)


def test_incomplete_range_document_is_rejected():
    doc = graph_to_doc(build_range(300))
    assert len(doc["edges"]) == 916
    del doc["edges"][-5:]
    with pytest.raises(ValueError, match="lists 911 of the 916 edges"):
        graph_from_doc(doc)


def test_incomplete_shift_2_range_document_is_rejected():
    g = build_range(100, shift=2)
    doc = graph_to_doc(g)
    assert graph_from_doc(doc) == g
    listed = len(doc["edges"])
    del doc["edges"][0]
    with pytest.raises(ValueError, match=f"lists {listed - 1} of the {listed} edges"):
        graph_from_doc(doc)
