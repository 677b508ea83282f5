"""End-to-end benchmark of the `diograph` CLI, with a separate traced run
for per-layer numbers.

    python3 perfbench/run.py --workload range --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 40   # every workload, both runs
    python3 perfbench/run.py --smoke                        # tiny sizes, schema check

Run from the root of a checkout: the program is taken from its `src`
directory.  With --trace 0 a closed loop with one client runs the
workload's CLI jobs one after another in subprocesses, timing each; with
--trace 1 the same jobs' library calls run in-process in a fresh
interpreter, one span per call.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the full result
(samples, failures, machine facts, spans) goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
import traced  # noqa: E402
import workloads  # noqa: E402

# The gated metrics: every workload reports each of them.
END_TO_END = (
    ("setup_s", "s"),
    ("total_s", "s"),
    ("peak_rss_mb", "MiB"),
)
# Reported, not gated: each exists only on the workload whose jobs it times,
# and a single command's median moves by up to 25% between runs on a shared
# 2-core host, more than a gated bound may allow.
COMMAND_METRICS = ("build_s", "stats_s", "prune_s", "color_s", "minimal_s", "hamilton_s",
                   "represent_s", "extend_s", "neighbors_s", "rank_s")
SETUP_REPEATS = 3
STARTUP_REPEATS = 3
STARTUP_ARGV = ("dplus", "--triple", "1,3,8")
JOB_TIMEOUT_S = 90.0
# No work starts this long after a run begins, so it ends within 180 s.
RUN_LIMIT_S = 150.0
LIMITS = (
    "no page-cache drop between jobs",
    "no system-wide tracing; spans cover only the benchmark's own calls",
    "peak RSS is each CLI job's own (os.wait4 rusage of the benchmark's children)",
)


@dataclass
class Sample:
    job: str
    wall_s: float
    rss_kib: int
    exit_code: int | None  # None when killed on timeout
    error: str | None  # why the job failed, None when it passed
    stderr_tail: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], work: Path, stdout: Path, stderr: Path,
          limit_at: float) -> tuple[float, int, int | None]:
    """Run argv to completion in `work`; returns (wall s, peak RSS KiB, exit
    code or None when killed on timeout).  The child is always waited for,
    and is killed JOB_TIMEOUT_S after it starts or 20 s after `limit_at`."""
    timeout = min(JOB_TIMEOUT_S, max(1.0, limit_at + 20 - time.perf_counter()))
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        killed = threading.Event()

        def kill() -> None:
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, None if killed.is_set() else proc.returncode


def cli(args) -> list[str]:
    return [sys.executable, "-m", "diograph", "--format", "json", *args]


def run_job(job: workloads.Job, work: Path, limit_at: float) -> Sample:
    """One CLI job, checked against its expected exit code and output."""
    stem = job.id.replace("/", "_").replace("=", "")
    out, err = work / f"{stem}.out", work / f"{stem}.err"
    wall, rss, code = spawn(cli(job.argv), work, out, err, limit_at)
    tail = err.read_text(errors="replace")[-400:]
    if code is None:
        error = f"timed out after {wall:.1f}s"
    elif code != job.exit_code:
        error = f"exit {code}, expected {job.exit_code}"
    else:
        try:
            error = job.check(json.loads(out.read_text()), work)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            error = f"unreadable output: {exc!r}"
    return Sample(job.id, wall, rss, code, error, tail)


def write_inputs(workload: workloads.Workload, work: Path) -> None:
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    for name, text in workload.files.items():
        (work / name).write_text(text)


def setup(workload: workloads.Workload, work: Path, limit_at: float) -> float:
    """Write the seeded inputs and run the untimed warm-up job; returns the
    wall time of both."""
    start = time.perf_counter()
    write_inputs(workload, work)
    warm = workloads.Job("warm-up", None, list(workloads.WARMUP_ARGV), 0,
                         lambda d, _w: None if d.get("n") == 8 else "warm-up built a wrong graph",
                         None)
    sample = run_job(warm, work, limit_at)
    elapsed = time.perf_counter() - start
    if sample.error:
        raise RuntimeError(f"warm-up job failed: {sample.error}\n{sample.stderr_tail}")
    return elapsed


def resolve_module(work: Path) -> str:
    """Where `import diograph` resolves under the jobs' environment; it
    must be this checkout's src."""
    path = subprocess.run([sys.executable, "-c", "import diograph; print(diograph.__file__)"],
                          cwd=work, env=child_env(), capture_output=True, text=True,
                          timeout=60, check=True).stdout.strip()
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"diograph resolves to {path}, outside {SRC}")
    return path


def closed_loop(jobs: list[workloads.Job], work: Path, seconds: float,
                limit_at: float) -> list[Sample]:
    """One client: jobs run one after another, cycling through the pass.
    The first pass always completes.  After it a job starts only if its
    previous run time still fits before `seconds` have passed, so the
    measured time stays close to `seconds`."""
    stop_at = min(time.perf_counter() + seconds, limit_at)
    samples = [run_job(job, work, limit_at) for job in jobs]
    last = {s.job: s.wall_s for s in samples}
    started = True
    while started:
        started = False
        for job in jobs:
            if time.perf_counter() + last[job.id] <= stop_at:
                samples.append(run_job(job, work, limit_at))
                last[job.id] = samples[-1].wall_s
                started = True
    return samples


def end_to_end_metrics(jobs: list[workloads.Job], samples: list[Sample],
                       setups: list[float]) -> tuple[dict, dict]:
    """A command metric sums each input's median job time over the
    command's inputs; total_s sums every input's median (one pass).
    Command metrics appear only for commands the workload runs."""
    walls: dict[str, list[float]] = {}
    for s in samples:
        walls.setdefault(s.job, []).append(s.wall_s)
    values: dict[str, float] = {"total_s": 0.0}
    counts: dict[str, int] = {"total_s": 0}
    for job in jobs:
        got = walls[job.id]
        med = statistics.median(got)
        values["total_s"] += med
        counts["total_s"] += len(got)
        if job.metric:
            values[job.metric] = values.get(job.metric, 0.0) + med
            counts[job.metric] = counts.get(job.metric, 0) + len(got)
    values["setup_s"] = statistics.median(setups)
    counts["setup_s"] = len(setups)
    values["peak_rss_mb"] = max(s.rss_kib for s in samples) / 1024
    counts["peak_rss_mb"] = len(samples)
    return values, counts


def run_known_failures(work: Path, limit_at: float) -> list[dict]:
    """Run the labelled known-failure inputs once each."""
    report = []
    for job, message in workloads.known_failures():
        s = run_job(job, work, limit_at)
        if s.error is None:
            state = "fixed"
        elif s.exit_code == 0:
            state = "wrong-output"
        else:
            state = "failing" if message in s.stderr_tail else "failing-otherwise"
        report.append({"label": job.id, "state": state, "exit_code": s.exit_code,
                       "error": s.error, "stderr_tail": s.stderr_tail.strip()[-200:]})
    return report


def untraced_run(workload: workloads.Workload, work: Path, seconds: float,
                 limit_at: float) -> dict:
    setups = [setup(workload, work, limit_at) for _ in range(SETUP_REPEATS)]
    samples = closed_loop(workload.jobs, work, seconds, limit_at)
    known = run_known_failures(work, limit_at) if workload.name == "arith" else []
    values, counts = end_to_end_metrics(workload.jobs, samples, setups)
    failures = [vars(s) for s in samples if s.error]
    known_failing = sum(k["state"] != "fixed" for k in known)
    return {
        "correct": not any(s.error and s.exit_code is not None for s in samples)
        and all(k["state"] in ("fixed", "failing", "failing-otherwise") for k in known),
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END},
        "command_metrics": {name: {"value": values[name], "unit": "s"}
                            for name in COMMAND_METRICS if name in values},
        "samples_per_metric": counts,
        "error_rate": (len(failures) + known_failing) / (len(samples) + len(known)),
        "known_failures": known,
        "failures": failures,
        "samples": [vars(s) for s in samples],
    }


def traced_run(workload: workloads.Workload, work: Path, seconds: float, smoke: bool,
               limit_at: float) -> dict:
    """Traced passes, each in a fresh interpreter: the first always runs,
    later ones while the previous pass's time still fits in `seconds`.
    Times are medians over passes; counts must repeat exactly."""
    write_inputs(workload, work)
    passes = []
    stop_at = min(time.perf_counter() + seconds, limit_at)
    wall = 0.0
    while not passes or time.perf_counter() + wall <= stop_at:
        out = work / f"trace{len(passes)}.json"
        argv = [sys.executable, str(HERE / "traced.py"), "--workload", workload.name,
                "--seed", str(workload.seed), "--workdir", str(work), "--src", str(SRC),
                "--out", str(out)] + (["--smoke"] if smoke else [])
        wall, _, code = spawn(argv, work, work / "trace.stdout", work / "trace.stderr",
                              limit_at)
        if code != 0:
            tail = (work / "trace.stderr").read_text(errors="replace")[-2000:]
            raise RuntimeError(f"traced pass exited with {code}:\n{tail}")
        passes.append(json.loads(out.read_text()))
    startup = []
    for _ in range(STARTUP_REPEATS):
        wall, _, code = spawn(cli(STARTUP_ARGV), work, work / "startup.out",
                              work / "startup.err", limit_at)
        if code != 0:
            raise RuntimeError(f"start-up job exited with {code}")
        startup.append(wall)
    metrics = {}
    for name, unit in traced.PER_LAYER:
        if name == "cli.startup_s":
            value = statistics.median(startup)
        elif unit == "s" or name in ("coloring.steps_per_s", "graph.edges_per_root"):
            value = statistics.median(p["metrics"][name] for p in passes)
        else:
            value = passes[0]["metrics"][name]
        metrics[name] = {"value": value, "unit": unit}
    unsteady = [name for name in traced.EXACT_COUNTS
                if len({p["metrics"][name] for p in passes}) > 1]
    errors = [e for p in passes for e in p["errors"]]
    return {
        "correct": not errors and not unsteady,
        "attempted": sum(p["jobs"] for p in passes),
        "failed": len(errors),
        "metrics": metrics,
        "passes": len(passes),
        "errors": errors,
        "counts_not_repeating": unsteady,
        "spans": passes[0]["spans"],
    }


def machine_facts() -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "DIOGRAPH_SIEVE_BOUND": os.environ.get("DIOGRAPH_SIEVE_BOUND", "unset (default 10^7)"),
        "limits": list(LIMITS),
    }
    try:
        facts["cgroup_cpu_max"] = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        facts["cgroup_cpu_max"] = "unreadable"
    try:
        import numpy

        facts["numpy"] = numpy.__version__
    except ImportError:
        facts["numpy"] = "missing"
    facts["commit"] = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            facts["commit"] = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                             capture_output=True, timeout=10,
                                             check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return facts


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    workload = workloads.build(name, seed, smoke)
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    limit_at = time.perf_counter() + RUN_LIMIT_S
    try:
        module = resolve_module(ROOT)
        if trace:
            result = traced_run(workload, work, seconds, smoke, limit_at)
        else:
            result = untraced_run(workload, work, seconds, limit_at)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result.update(workload=name, seed=seed, seconds=seconds, trace=int(trace), smoke=smoke,
                  module=module, machine=machine_facts())
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    kind = "trace" if trace else "e2e"
    (out_dir / f"{name}-seed{seed}-{kind}{'-smoke' if smoke else ''}.json").write_text(
        json.dumps(result, indent=1))
    return result


def summary_line(result: dict) -> str:
    return json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")})


def print_report(result: dict) -> None:
    """Human-readable lines: every metric by name with its unit."""
    name = result["workload"]
    counts = result.get("samples_per_metric", {})
    for metric, m in {**result["metrics"], **result.get("command_metrics", {})}.items():
        n = f"  (n={counts[metric]})" if metric in counts else ""
        print(f"{name:7s} {metric:40s} {m['value']:.6g} {m['unit']}{n}")
    if "error_rate" in result:
        print(f"{name:7s} {'error_rate':40s} {result['error_rate']:.6g} "
              f"(failed {result['failed']} of {result['attempted']} timed jobs, "
              f"plus known failures still failing)")
    for k in result.get("known_failures", []):
        print(f"{name:7s} known failure {k['label']}: {k['state']} (exit {k['exit_code']})")
    for f in result.get("failures", []) + result.get("errors", []):
        print(f"{name:7s} FAILED {f}", file=sys.stderr)


def smoke() -> int:
    """Every workload at smoke size, untraced and traced; checks the result
    schema and that the metric names match BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in workloads.WORKLOADS:
        for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result = run_workload(name, 1, 0, trace, smoke=True)
            print_report(result)
            line = json.loads(summary_line(result))
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name}: result keys {sorted(line)}")
            if not (line["correct"] and line["failed"] == 0 and line["attempted"] >= 1):
                problems.append(f"{name} trace={int(trace)}: correct={line['correct']} "
                                f"failed={line['failed']}")
            want = {(m["name"], m["unit"]) for m in wanted}
            got = {(k, v["unit"]) for k, v in line["metrics"].items()}
            if want != got:
                problems.append(f"{name} trace={int(trace)}: metrics differ from "
                                f"BENCHMARK.json: {sorted(want ^ got)}")
            bad = [k for k, v in line["metrics"].items()
                   if not isinstance(v["value"], (int, float)) or v["value"] < 0]
            if bad:
                problems.append(f"{name}: bad values for {bad}")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print(json.dumps({"smoke": "ok" if not problems else "failed", "problems": problems}))
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--smoke", action="store_true", help="tiny sizes and a schema check")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a SIGTERM unwinds like an exception, so the running job is killed and
    # waited for and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "diograph" / "__main__.py").is_file():
        print(f"error: no diograph package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.all:
        lines = {}
        for name in workloads.WORKLOADS:
            e2e = run_workload(name, args.seed, args.seconds, False, smoke=False)
            tr = run_workload(name, args.seed, args.seconds, True, smoke=False)
            print_report(e2e)
            print_report(tr)
            print(f"{name:7s} total_s {e2e['metrics']['total_s']['value']:.4f} s untraced (CLI) "
                  f"beside trace.total_s {tr['metrics']['trace.total_s']['value']:.4f} s traced "
                  f"(in-process; span cost {tr['metrics']['trace.overhead_s']['value']:.2g} s)")
            lines[name] = {"e2e": json.loads(summary_line(e2e)),
                           "trace": json.loads(summary_line(tr))}
        print(json.dumps(lines))
        return 0
    if not args.workload:
        ap.error("--workload is required unless --all or --smoke is given")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    print(f"module {result['module']}; machine {json.dumps(result['machine'])}")
    print_report(result)
    print(summary_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
