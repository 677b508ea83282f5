"""Command-line front door.

Every capability is exposed as a subcommand with deterministic output:
human-readable by default, a single JSON document with a schema_version
field under --format json, its long lists (`build` edges, `prune` steps)
written as they are encoded.  Long searches report progress on stderr
only.  Exit status 0 means success, 1 a negative decision (not colorable,
no path, representation unknown), 2 a usage or input error or running
out of memory, so that exhaustion never reads as a negative decision.

Each subparser names its handler (`set_defaults(run=...)`), which reads
the parsed arguments and imports the modules it runs, so `dplus`,
`neighbors`, `extend` and `represent` start without numpy.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from collections.abc import Iterable

    from .graph import DiophGraph

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2

# a `prune` step (all int fields) as `json.dumps(indent=2, sort_keys=True)` writes it
_STEP_RECORD = (
    '\n    {{\n      "degree": {},\n      "density_after": [\n        {},\n        {}\n      ],'
    '\n      "density_before": [\n        {},\n        {}\n      ],\n      "vertex": {}\n    }}'
)


def _positive(name: str, value: int) -> int:
    if value < 1:
        raise ValueError(f"--{name} must be positive, got {value}")
    return value


def _int_list(flag: str, text: str) -> list[int]:
    """The comma-separated integers given to --flag; an empty or
    non-integer field is an error naming the flag and the field."""
    values = []
    for k, field in enumerate(text.split(","), start=1):
        try:
            values.append(int(field))
        except ValueError:
            raise ValueError(f"--{flag} field {k} is not an integer: {field!r}") from None
    return values


def _emit(args: argparse.Namespace, doc: dict, human_lines: list[str],
          **lists: Iterable[str]) -> None:
    """Print `doc` under --format json, else the human lines.  Each keyword
    adds a list field, given as the pieces of the text `json.dumps(indent=2,
    sort_keys=True)` writes for it; `doc` itself is encoded once."""
    if args.format == "json":
        doc = {"schema_version": SCHEMA_VERSION, "command": args.subcommand, **doc}
        doc.update(dict.fromkeys(lists, []))
        # NaN and Infinity are not JSON; refusing them is a ValueError (exit 2)
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
        for field, pieces in sorted(lists.items()):
            head, _, text = text.partition(f'"{field}": []')
            sys.stdout.write(f'{head}"{field}": ')
            sys.stdout.writelines(pieces)
        print(text)
    else:
        for line in human_lines:
            print(line)


def _load_source_graph(args: argparse.Namespace) -> tuple[DiophGraph, list[int] | None]:
    """Build the working graph from --graph-file, --witness-file or --N.
    Returns the graph and, for witness files, the listed vertex order
    (used as the default branch order)."""
    from . import graph

    if args.graph_file:
        return graph.load_graph_file(args.graph_file), None
    if args.witness_file:
        values = graph.load_witness_file(args.witness_file)
        return graph.build_set(values, args.shift), values
    if args.N is not None:
        return graph.build_range(_positive("N", args.N), args.shift), None
    raise ValueError("one of --graph-file, --witness-file or --N is required")


def _add_source_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--graph-file", help="graph document produced by `build`")
    sub.add_argument("--witness-file", help="witness file, one integer per line")
    sub.add_argument("--N", type=int, help="build the range graph on {1..N}")
    sub.add_argument("--shift", type=int, default=1, help="edge relation constant (default 1)")


def _cmd_build(args: argparse.Namespace) -> int:
    from . import graph

    G, _ = _load_source_graph(args)
    out = args.out
    if out:
        graph.save_graph_file(G, out)
    if args.edge_list_out:
        graph.write_edge_list(G, args.edge_list_out)
    if out:
        _emit(args, {"n": G.n, "e": G.edge_count, "shift": G.shift, "out": out},
              [f"wrote {out}: n={G.n} e={G.edge_count} shift={G.shift}"])
    else:
        # G's document: its schema_version, 2, overrides the CLI's
        _emit(args, graph._doc_head(G), [f"n={G.n} e={G.edge_count} shift={G.shift}"],
              edges=map(bytes.decode, graph._json_edges(G, indented=True)))
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    from . import graph

    G, _ = _load_source_graph(args)
    st = graph.stats(G)
    doc = {
        "n": st.n,
        "e": st.e,
        "density": [st.density.numerator, st.density.denominator],
        "degree_histogram": {str(k): v for k, v in st.degree_histogram.items()},
        "clique_number": st.clique_number,
        "components": st.components,
    }
    _emit(args, doc, [
        f"n={st.n}",
        f"e={st.e}",
        f"density={st.density}",
        f"clique_number={st.clique_number}",
        f"components={st.components}",
    ])
    return EXIT_OK


def _cmd_color(args: argparse.Namespace) -> int:
    from . import coloring

    G, order = _load_source_graph(args)
    k = _positive("k", args.k)
    t0 = time.perf_counter()
    res = coloring.k_colorable(G, k, branch_order=order)
    # wall time stays on the diagnostic stream so the data stream is
    # byte-identical across runs
    print(f"decided in {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    doc = {
        "k": k,
        "colorable": res.colorable,
        "assignment": (
            {str(v): c for v, c in sorted(res.assignment.items())}
            if res.assignment is not None
            else None
        ),
        "stats": {
            "branches": res.stats.branches,
            "peak_open": res.stats.peak_open,
            "propagation_steps": res.stats.propagation_steps,
        },
    }
    human = [f"{k}-colorable: {'yes' if res.colorable else 'no'}"]
    witness_out = args.coloring_out
    if res.colorable and witness_out:
        with open(witness_out, "w", encoding="utf-8") as fh:
            for v, c in sorted(res.assignment.items()):
                fh.write(f"{v} {c}\n")
        human.append(f"wrote coloring to {witness_out}")
    _emit(args, doc, human)
    return EXIT_OK if res.colorable else EXIT_NEGATIVE


def _cmd_chroma(args: argparse.Namespace) -> int:
    from . import coloring

    G, _ = _load_source_graph(args)
    chi = coloring.chromatic_number(G)
    _emit(args, {"chromatic_number": chi}, [str(chi)])
    return EXIT_OK


def _cmd_minimal(args: argparse.Namespace) -> int:
    from . import coloring

    G, order = _load_source_graph(args)
    k = _positive("k", args.k)
    t0 = time.perf_counter()
    report = coloring.minimality_check(G, k, branch_order=order)
    print(
        f"checked {G.n} deletions in {time.perf_counter() - t0:.3f}s",
        file=sys.stderr,
    )
    doc = {
        "k": k,
        "removable": list(report.removable),
        "minimal": report.minimal,
    }
    _emit(args, doc, [
        f"removable: {len(report.removable)} of {G.n}",
        f"minimal: {'yes' if report.minimal else 'no'}",
    ])
    return EXIT_OK if report.minimal else EXIT_NEGATIVE


def _cmd_extend(args: argparse.Namespace) -> int:
    from . import extension
    from .witnesses import load_witness_file

    values = load_witness_file(args.witness_file)
    count = _positive("count", args.count)
    if args.mode == "isolated":
        out = extension.extend_isolated(values, count)
    elif args.mode == "pendant":
        out = extension.extend_pendant(values, args.i, count)
    else:
        out = extension.extend_double(values, args.i, args.j, count)
    _emit(args, {"mode": args.mode, "extensions": out}, [str(w) for w in out])
    return EXIT_OK


def _cmd_neighbors(args: argparse.Namespace) -> int:
    from . import extension

    values = _int_list("set", args.set)
    if args.bound is not None:
        found = extension.common_neighbors_bounded(values, _positive("bound", args.bound))
        mode = "bounded"
    else:
        if len(values) != 2:
            raise ValueError("exact mode (no --bound) needs exactly two integers")
        found = extension.common_neighbors_equal_sqfree(values[0], values[1])
        mode = "exact"
    _emit(args, {"set": values, "mode": mode, "neighbors": found},
          [str(w) for w in found])
    return EXIT_OK


def _cmd_dplus(args: argparse.Namespace) -> int:
    from . import extension

    values = _int_list("triple", args.triple)
    if len(values) != 3:
        raise ValueError(
            f"--triple needs exactly three comma-separated integers, got {len(values)}"
        )
    a, b, c = values
    triple = extension.RegularTriple.from_values(a, b, c)
    d_minus, d_plus = extension.regular_extensions(triple)
    _emit(args, {"triple": [a, b, c], "d_minus": d_minus, "d_plus": d_plus},
          [f"d-={d_minus}", f"d+={d_plus}"])
    return EXIT_OK


def _cmd_prune(args: argparse.Namespace) -> int:
    from fractions import Fraction

    from . import analysis, graph

    G, _ = _load_source_graph(args)
    pruned, trace = analysis.prune_low_degree(G)
    if args.out:
        graph.save_graph_file(pruned, args.out)
    (n0, e0), (n1, e1) = (G.n, G.edge_count), (pruned.n, pruned.edge_count)
    density0 = Fraction(e0, n0) if n0 else 0

    def step_pieces(n, e, before):  # each record with the densities e/n before and after it
        sep = "["
        for vertex, d in trace.steps:
            n, e = n - 1, e - d
            after = Fraction(e, n)
            yield sep + _STEP_RECORD.format(d, after.numerator, after.denominator,
                                            before.numerator, before.denominator, vertex)
            before, sep = after, ","
        yield "\n  ]" if trace.steps else "[]"

    _emit(args, {"initial": {"n": n0, "e": e0}, "final": {"n": n1, "e": e1}}, [
        f"removed {len(trace.steps)} vertices",
        f"n: {n0} -> {n1}",
        f"e: {e0} -> {e1}",
        f"density: {density0} -> {Fraction(e1, n1) if n1 else 0}",
    ], steps=step_pieces(n0, e0, density0))
    return EXIT_OK


def _cmd_hamilton(args: argparse.Namespace) -> int:
    from . import analysis

    cap = _positive("cap", args.cap)
    G, _ = _load_source_graph(args)
    if args.cycle:
        exists = analysis.hamiltonian_cycle_exists(G)
        _emit(args, {"kind": "cycle", "exists": exists},
              [f"hamiltonian cycle: {'yes' if exists else 'no'}"])
        return EXIT_OK if exists else EXIT_NEGATIVE
    res = analysis.hamiltonian_path_exists(G, cap=cap)
    doc = {
        "kind": "path",
        "exists": res.exists,
        "method": res.method,
        "path": None if res.path is None else list(res.path),
    }
    verdict = {True: "yes", False: "no", None: "unknown"}[res.exists]
    _emit(args, doc, [f"hamiltonian path: {verdict} ({res.method})"])
    return EXIT_OK if res.exists else EXIT_NEGATIVE


def _cmd_represent(args: argparse.Namespace) -> int:
    from . import extension
    from .witnesses import read_json_file

    doc = read_json_file(args.graph_file)
    try:
        vertices, edges = doc["vertices"], doc["edges"]
        if not isinstance(vertices, list):
            raise TypeError("vertices must be an array")
        extension._target_adjacency(vertices, edges)  # represent_graph's target checks
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed target document: {exc}") from None
    res = extension.represent_graph(
        vertices,
        edges,
        node_budget=_positive("budget", args.budget),
        pool_bound=_positive("pool", args.pool),
    )
    out_doc = {
        "status": res.status,
        "known_impossible": res.known_impossible,
        "witness": list(res.witness.values) if res.witness else None,
        "mapping": (
            {str(k): v for k, v in res.witness.mapping.items()} if res.witness else None
        ),
        "nodes_searched": res.nodes_searched,
    }
    human = [f"status: {res.status}"]
    if res.witness:
        human.append("witness: " + " ".join(str(v) for v in res.witness.values))
    if res.known_impossible:
        human.append("note: target contains K5, which no witness can realize")
    _emit(args, out_doc, human)
    return EXIT_OK if res.status == "found" else EXIT_NEGATIVE


def _cmd_rank(args: argparse.Namespace) -> int:
    from . import analysis

    N = _positive("N", args.N)
    top = _positive("top", args.top)
    ranked = analysis.heuristic_top(N, top)
    _emit(args, {"N": N, "top": ranked}, [str(a) for a in ranked])
    return EXIT_OK


def _cmd_omega(args: argparse.Namespace) -> int:
    from . import analysis

    x = _positive("x", args.x)
    dist = analysis.omega_distribution(x, args.C)
    doc = {"x": x, "counts": list(dist.counts)}
    human = [f"pi({x},{k}) = {c}" for k, c in enumerate(dist.counts)]
    if dist.C is not None:
        doc.update(
            {
                "C": dist.C,
                "tail_sum": dist.tail_sum,
                "bound_value": dist.bound_value,
                "within_bound": dist.within_bound,
            }
        )
        human.append(
            f"tail(k > {dist.C}*loglog x) = {dist.tail_sum}"
            f" <= {dist.bound_value:.1f}: {dist.within_bound}"
        )
    _emit(args, doc, human)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diograph",
        description="Build, extend, analyze and color Diophantine graphs.",
    )
    parser.add_argument("--format", choices=("human", "json"), default="human")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("build", help="build a graph and optionally write it out")
    p.set_defaults(run=_cmd_build)
    _add_source_args(p)
    p.add_argument("--out", help="write the graph document here")
    p.add_argument("--edge-list-out", help="write an 'a b' edge list here")

    p = sub.add_parser("stats", help="vertex/edge counts, degrees, cliques, components")
    p.set_defaults(run=_cmd_stats)
    _add_source_args(p)

    p = sub.add_parser("color", help="decide k-colorability")
    p.set_defaults(run=_cmd_color)
    _add_source_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--coloring-out", help="write 'vertex color' lines on success")

    p = sub.add_parser("chroma", help="chromatic number")
    p.set_defaults(run=_cmd_chroma)
    _add_source_args(p)

    p = sub.add_parser("minimal", help="which single deletions make the graph k-colorable")
    p.set_defaults(run=_cmd_minimal)
    _add_source_args(p)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("extend", help="attach new vertices to a witness set")
    p.set_defaults(run=_cmd_extend)
    p.add_argument("--witness-file", required=True)
    p.add_argument("--mode", choices=("isolated", "pendant", "double"), required=True)
    p.add_argument("--i", type=int, help="0-based index into the witness list")
    p.add_argument("--j", type=int, help="second index for double mode")
    p.add_argument("--count", type=int, default=1)

    p = sub.add_parser("neighbors", help="common neighbors of a set of integers")
    p.set_defaults(run=_cmd_neighbors)
    p.add_argument("--set", required=True, help="comma-separated integers")
    p.add_argument("--bound", type=int, help="search bound; omit for the exact pair solver")

    p = sub.add_parser("dplus", help="regular quadruple extensions of a triple")
    p.set_defaults(run=_cmd_dplus)
    p.add_argument("--triple", required=True, help="comma-separated Diophantine triple")

    p = sub.add_parser("prune", help="remove low-degree vertices to raise density")
    p.set_defaults(run=_cmd_prune)
    _add_source_args(p)
    p.add_argument("--out", help="write the pruned graph document here")

    p = sub.add_parser("hamilton", help="Hamiltonian path/cycle analysis")
    p.set_defaults(run=_cmd_hamilton)
    _add_source_args(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--path", action="store_true")
    mode.add_argument("--cycle", action="store_true")
    p.add_argument("--cap", type=int, default=40, help="exhaustive search size cap")

    p = sub.add_parser("represent", help="search a witness for a small abstract graph")
    p.set_defaults(run=_cmd_represent)
    p.add_argument("--graph-file", required=True)
    p.add_argument("--budget", type=int, default=2_000_000)
    p.add_argument("--pool", type=int, default=500)

    p = sub.add_parser("rank", help="top integers by the S(a)/sqrt(a) heuristic")
    p.set_defaults(run=_cmd_rank)
    p.add_argument("--top", type=int, required=True)
    p.add_argument("--N", type=int, default=1_000_000)

    p = sub.add_parser("omega", help="distribution of the number of prime factors")
    p.set_defaults(run=_cmd_omega)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--C", type=float, help="tail-bound constant (> 1)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
