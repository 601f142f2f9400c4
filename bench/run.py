"""Benchmark of the mallows-binomial library: one command, four workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload bootstrap --seed 0 --seconds 20 --trace 0

``--trace 0`` runs the workload's closed loop for about ``--seconds`` seconds
of timed calls (whole cycles) and reports the end-to-end metrics.  ``--trace
1`` instruments every public function of the library, runs a fixed amount of
work, reruns part of it untraced to measure the tracing overhead and to
compare documents, and reports the per-layer metrics; the spans go to
``.bench_out/``.  The last line of standard output is the result object;
the line before it is a report with provenance, source size and details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "mallows_binomial"
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 5
# every this many traced operations, one also runs untraced (overhead ratio)
RERUN_EVERY = 5
# stop starting operations after this long, so a run ends well within 180 s
WALL_LIMIT_S = 150.0


class LibraryMissing(RuntimeError):
    pass


def load_library():
    """Import ``mallows_binomial`` from this checkout's ``src``, nowhere else."""
    init = SOURCE / "__init__.py"
    if not init.is_file():
        raise LibraryMissing(f"no library source at {init}")
    sys.path.insert(0, str(SOURCE.parent))
    import mallows_binomial

    if Path(mallows_binomial.__file__).resolve() != init.resolve():
        raise LibraryMissing(f"mallows_binomial was imported from {mallows_binomial.__file__}")
    return mallows_binomial


# ---------------------------------------------------------------------------
# provenance


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "--no-optional-locks", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": sha.strip() if sha else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def source_lines() -> dict:
    """Non-blank, non-comment lines per library module (informational)."""
    counts = {}
    for path in sorted(SOURCE.glob("*.py")):
        lines = path.read_text().splitlines()
        counts[path.stem] = sum(
            1 for line in lines if line.strip() and not line.strip().startswith("#")
        )
    counts["total"] = sum(counts.values())
    return counts


# ---------------------------------------------------------------------------
# measuring


def run_op(load, k: int, tracer=None):
    """Time operation ``k``; return (seconds, document, problems)."""
    if tracer is not None:
        tracer.op = k
        tracer.enabled = True
    start = time.perf_counter()
    try:
        raw = load.call(k)
    except Exception:
        traceback.print_exc()
        return time.perf_counter() - start, None, [f"op {k} raised"]
    finally:
        if tracer is not None:
            tracer.enabled = False
    seconds = time.perf_counter() - start
    try:
        document = load.document(k, raw)
        problems = load.check(k, raw, document)
    except Exception as error:
        traceback.print_exc()
        return seconds, None, [f"op {k}: checking raised {error!r}"]
    return seconds, document, problems


def tail(times: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 11:
        return {"value_s": None, "percentile": None, "samples": n}
    ordered = sorted(times)
    return {"value_s": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def setup_seconds(name: str, seed: int) -> list[float]:
    """Process start to inputs ready, in fresh interpreters."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(seed), "--setup-only",
    ]
    samples = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter() - start
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup run failed with status {child.returncode}")
        samples.append(ready)
    return samples


def timed_run(load, seconds: float) -> dict:
    times, problems = [], []
    failed = work = 0
    wall_start = time.perf_counter()
    k = 0
    while True:
        duration, _, op_problems = run_op(load, k)
        times.append(duration)
        work += load.work(k)
        failed += bool(op_problems)
        problems += op_problems
        k += 1
        elapsed = sum(times)
        if k % load.cycle == 0:
            cycle_s = elapsed / (k // load.cycle)
            if elapsed + cycle_s / 2 >= seconds:
                break
        if time.perf_counter() - wall_start > WALL_LIMIT_S:
            break
    self_usage = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "times": times,
        "work": work,
        "failed": failed,
        "problems": problems,
        "peak_rss_mb": (self_usage.ru_maxrss + children.ru_maxrss) / 1024.0,
    }


def traced_run(load, seconds: float, ops: int | None, trace_path: Path) -> dict:
    """Fixed work with every library function wrapped.

    Every ``RERUN_EVERY``-th operation also runs untraced right beside its
    traced run (alternating which goes first), for the overhead ratio and to
    check that tracing leaves the document unchanged.
    """
    import tracing
    import workloads

    n_ops = ops or load.cycle * max(1, round(seconds / load.nominal_cycle_s))
    tracer = tracing.Tracer()
    times, problems = [], []
    failed = reruns = 0
    unattributed = traced_s = untraced_s = 0.0

    def untraced(k):
        tracer.uninstall()
        try:
            return run_op(load, k)
        finally:
            tracer.install(workloads.MODULES)

    tracer.install(workloads.MODULES)
    try:
        for k in range(n_ops):
            rerun = k % RERUN_EVERY == 0
            if rerun and reruns % 2:
                plain = untraced(k)
            root_before = tracer.root_ns
            duration, document, op_problems = run_op(load, k, tracer)
            unattributed += duration - (tracer.root_ns - root_before) / 1e9
            times.append(duration)
            if rerun:
                if reruns % 2 == 0:
                    plain = untraced(k)
                reruns += 1
                traced_s += duration
                untraced_s += plain[0]
                op_problems = op_problems + plain[2]
                if plain[1] is None or plain[1] != document:
                    op_problems.append(f"op {k}: traced and untraced documents differ")
            failed += bool(op_problems)
            problems += op_problems
    finally:
        tracer.uninstall()

    wall = sum(times)
    metrics = layer_metrics(tracer, wall, unattributed, traced_s / untraced_s)
    tracer.write(trace_path, {"ops": n_ops, "op_seconds": times})
    return {
        "metrics": metrics,
        "attempted": n_ops + reruns,
        "failed": failed,
        "problems": problems,
        "times": times,
        "reruns": reruns,
    }


def layer_metrics(tracer, wall: float, unattributed: float, overhead: float) -> dict:
    def calls(layer):
        return tracer.layer_stats(layer)[0]

    def self_s(layer):
        return tracer.layer_stats(layer)[1]

    counters = tracer.counters
    profiles = calls("estimation.profile")
    solves = calls("estimation.theta_solve")
    permutations = counters.get("estimation.permutations", 0)
    judges = counters.get("sampling.judges", 0)
    values = {
        "estimation.profile.calls": (profiles, "count"),
        "estimation.profile.self_s": (self_s("estimation.profile"), "s"),
        "estimation.isotonic.self_s": (self_s("estimation.isotonic"), "s"),
        "estimation.theta_solve.calls": (solves, "count"),
        "estimation.theta_solve.self_s": (self_s("estimation.theta_solve"), "s"),
        "estimation.theta_solve.iters_per_call": (
            calls("model.expected_distance") / solves if solves else 0.0, "count"
        ),
        "estimation.fit.self_s": (self_s("estimation.fit"), "s"),
        "estimation.nodes_expanded": (counters.get("estimation.nodes_expanded", 0), "count"),
        "estimation.candidates_profiled": (
            counters.get("estimation.candidates_profiled", 0), "count"
        ),
        "estimation.bound_evals": (solves - profiles, "count"),
        "estimation.profiled_share": (
            counters.get("estimation.candidates_profiled", 0) / permutations
            if permutations else 0.0,
            "ratio",
        ),
        "bootstrap.resample.calls": (calls("bootstrap.resample"), "count"),
        "bootstrap.resample.self_s": (self_s("bootstrap.resample"), "s"),
        "model.dataset_init.calls": (calls("model.dataset_init"), "count"),
        "model.dataset_init.self_s": (self_s("model.dataset_init"), "s"),
        "model.stats.calls": (calls("model.stats"), "count"),
        "model.stats.self_s": (self_s("model.stats"), "s"),
        "model.as_ranking.calls": (calls("model.as_ranking"), "count"),
        "model.log_psi.calls": (calls("model.log_psi"), "count"),
        "bootstrap.intervals.self_s": (self_s("bootstrap.intervals"), "s"),
        "bootstrap.fit.self_s": (self_s("bootstrap.fit"), "s"),
        "sampling.sample_dataset.self_s": (self_s("sampling.sample_dataset"), "s"),
        "sampling.us_per_judge": (
            self_s("sampling.sample_dataset") / judges * 1e6 if judges else 0.0, "us"
        ),
        "io.read.self_s": (self_s("io.read"), "s"),
        "io.read.bytes": (counters.get("io.read.bytes", 0), "bytes"),
        "io.write.self_s": (self_s("io.write"), "s"),
        "io.write.bytes": (counters.get("io.write.bytes", 0), "bytes"),
        "cli.run.self_s": (self_s("cli.run"), "s"),
        "bootstrap.pool_starts": (counters.get("bootstrap.pool_starts", 0), "count"),
        "bootstrap.pool_wait_s": (self_s("bootstrap.pool_wait"), "s"),
        "bootstrap.job_bytes": (counters.get("bootstrap.job_bytes", 0), "bytes"),
        "asymptotics.replication.self_s": (self_s("asymptotics.replication"), "s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.unattributed_s": (unattributed, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def measure(name: str, seed: int, seconds: float, trace: bool, ops: int | None = None):
    """Run one workload; return (result object, report)."""
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    try:
        load = workloads.prepare(name, seed, workdir)
        run_op(load, 0)  # warm-up: lazy imports and first-call caches
        if trace:
            run = traced_run(load, seconds, ops, OUT_DIR / f"{stem}-spans.json")
            metrics = run["metrics"]
            attempted = run["attempted"]
        else:
            run = timed_run(load, seconds)
            attempted = len(run["times"])
            setups = setup_seconds(name, seed)
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
                "work_per_s": {"value": run["work"] / sum(run["times"]), "unit": "1/s"},
                "op_p50_s": {"value": statistics.median(run["times"]), "unit": "s"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = run["failed"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    report = {
        "workload": name,
        "unit_of_work": load.unit,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "error_rate": failed / attempted,
        "problems": run["problems"][:20],
        "op_tail": tail(run["times"]),
        "provenance": provenance(seed),
        "source_lines": source_lines(),
    }
    if trace:
        report["traced_ops"] = len(run["times"])
        report["untraced_reruns"] = run["reruns"]
    else:
        report["setup_samples_s"] = setups
        report[f"{load.unit}_per_s"] = metrics["work_per_s"]["value"]
    with open(OUT_DIR / f"{stem}.json", "w") as handle:
        json.dump({"result": result, "report": report}, handle, indent=2)
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("bootstrap", "search", "panel", "study")
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--ops", type=int, default=None,
        help="traced run: operations to run instead of the amount set by --seconds",
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        load_library()
    except LibraryMissing as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import workloads

    if args.setup_only:
        OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
            workloads.prepare(args.workload, args.seed, Path(workdir))
        print("ready", flush=True)
        return 0
    result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.ops)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
