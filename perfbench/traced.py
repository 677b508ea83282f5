"""Traced run: one pass over a workload's jobs in a fresh interpreter,
calling the library in-process with one span per public call.

    python perfbench/traced.py --workload range --seed 1 --workdir DIR --out spans.json

Spans are kept in memory (name, start, end, parent, job, counters) and
written to --out at the end together with the per-layer metrics derived
from them.  The program under test is imported from the checkout's `src`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

# (metric, unit).  A time metric "<span>_s" sums the spans of that name; any
# other metric sums the counter of that name over all spans (peak_open takes
# the maximum).  Ratios, estimates and trace.* are derived in
# `layer_metrics`; cli.startup_s is measured by the parent.
PER_LAYER = (
    ("numtheory.sieve_s", "s"),
    ("numtheory.unit_roots_s", "s"),
    ("numtheory.unit_roots_calls", "count"),
    ("numtheory.roots", "count"),
    ("numtheory.factorize_big_s", "s"),
    ("numtheory.factorize_big_calls", "count"),
    ("numtheory.factorize_big_failed", "count"),
    ("pell.fundamental_unit_s", "s"),
    ("pell.unit_order_s", "s"),
    ("pell.unit_bits", "bits"),
    ("graph.build_range_s", "s"),
    ("graph.build_range_self_est_s", "s"),
    ("graph.edges", "count"),
    ("graph.edges_per_root", "ratio"),
    ("graph.save_s", "s"),
    ("graph.doc_bytes", "bytes"),
    ("graph.load_s", "s"),
    ("graph.stats_s", "s"),
    ("graph.build_set_s", "s"),
    ("coloring.k_colorable_s", "s"),
    ("coloring.branches", "count"),
    ("coloring.peak_open", "count"),
    ("coloring.propagation_steps", "count"),
    ("coloring.steps_per_s", "1/s"),
    ("coloring.minimality_s", "s"),
    ("coloring.chromatic_s", "s"),
    ("extension.isolated_s", "s"),
    ("extension.pendant_s", "s"),
    ("extension.double_s", "s"),
    ("extension.output_bits", "bits"),
    ("extension.neighbors_exact_s", "s"),
    ("extension.neighbors_bounded_s", "s"),
    ("extension.represent_s", "s"),
    ("extension.nodes_searched", "count"),
    ("analysis.prune_s", "s"),
    ("analysis.prune_steps", "count"),
    ("analysis.hamilton_s", "s"),
    ("analysis.heuristic_top_s", "s"),
    ("analysis.omega_s", "s"),
    ("cli.startup_s", "s"),
    ("trace.total_s", "s"),
    ("trace.overhead_s", "s"),
)
# Counts that must repeat exactly between traced runs of one seed.
EXACT_COUNTS = tuple(name for name, unit in PER_LAYER if unit in ("count", "bytes", "bits"))


class Tracer:
    """In-memory spans; `span` yields the span's counter dict."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.job: str | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **labels):
        rec = {"id": len(self.spans), "name": name, "job": self.job,
               "parent": self._open[-1] if self._open else None, "counts": {}, **labels}
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def _span_cost(samples: int = 2000) -> float:
    """Mean cost of opening and closing one empty span."""
    t = Tracer()
    start = time.perf_counter()
    for _ in range(samples):
        with t.span("probe"):
            pass
    return (time.perf_counter() - start) / samples


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass, except cli.startup_s (measured by the
    parent, which runs the CLI)."""
    times: dict[str, float] = {}
    counts: dict[str, float] = {}
    for s in spans:
        times[s["name"]] = times.get(s["name"], 0.0) + s["end"] - s["start"]
        for key, value in s["counts"].items():
            if key == "coloring.peak_open":
                counts[key] = max(counts.get(key, 0), value)
            else:
                counts[key] = counts.get(key, 0) + value
    out: dict[str, float] = {}
    for name, unit in PER_LAYER:
        if name != "cli.startup_s":
            out[name] = times.get(name[:-2], 0.0) if unit == "s" else counts.get(name, 0)
    # unit_roots_mod was timed on build_range's inputs in its own span, so
    # the sweep's self time is an estimate: outer minus inner
    out["graph.build_range_self_est_s"] = out["graph.build_range_s"] - out["numtheory.unit_roots_s"]
    out["graph.edges_per_root"] = out["graph.edges"] / max(1, out["numtheory.roots"])
    out["coloring.steps_per_s"] = (
        out["coloring.propagation_steps"] / out["coloring.k_colorable_s"]
        if out["coloring.k_colorable_s"] > 0 else 0.0)
    out["trace.total_s"] = sum(s["end"] - s["start"] for s in spans if s["name"] == "job")
    out["trace.overhead_s"] = len(spans) * _span_cost()
    return out


def label_self_times(spans: list[dict]) -> None:
    """Give each span its self time (duration minus its children's).
    Where the inner public call ran in a sibling span on the same inputs
    (build_range after unit_roots_mod, neighbors_exact after
    factorize_big), the outer self time is labelled as estimated."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    inner = {"graph.build_range": "numtheory.unit_roots",
             "extension.neighbors_exact": "numtheory.factorize_big"}
    previous: dict[tuple, dict] = {}
    for s in spans:
        s["self_s"] = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        mirror = previous.get((s["job"], s["parent"], inner.get(s["name"])))
        if mirror is not None:
            s["self_est_s"] = s["self_s"] - (mirror["end"] - mirror["start"])
        previous[(s["job"], s["parent"], s["name"])] = s


def traced_pass(workload: workloads.Workload, work: Path) -> tuple[Tracer, list[dict]]:
    """Run every job's in-process calls once; errors are recorded per job."""
    from diograph import numtheory

    t = Tracer()
    errors = []
    t.job = "setup"
    with t.span("job"):
        with t.span("numtheory.sieve"):
            numtheory.factorize(2)  # the first call builds the lazy table
    traced = list(workload.traced_jobs)
    if workload.name == "arith":
        traced.append(workloads.Job("known-failures", None, [], 0, None,
                                    workloads.trace_known_failures))
    for job in traced:
        t.job = job.id
        try:
            with t.span("job"):
                job.trace(t, work)
        except Exception as exc:  # one job's failure must not end the pass
            errors.append({"job": job.id, "error": repr(exc)[-500:]})
    return t, errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--workdir", required=True, type=Path)
    ap.add_argument("--src", required=True, type=Path)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args()
    sys.path.insert(0, str(args.src))
    workload = workloads.build(args.workload, args.seed, args.smoke)
    tracer, errors = traced_pass(workload, args.workdir)
    label_self_times(tracer.spans)
    result = {
        "jobs": len({s["job"] for s in tracer.spans}),
        "errors": errors,
        "metrics": layer_metrics(tracer.spans),
        "spans": tracer.spans,
    }
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
