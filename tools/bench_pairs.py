"""Alternating parent/change pairs of the repository benchmark, summarised to JSON.

Run from anywhere inside a checkout:

    python3 tools/bench_pairs.py PARENT_REF --workload panel --pairs 10 --out BENCH_label.json

The commit ``PARENT_REF`` is exported with ``git archive`` into a temporary
directory.  Pair ``k`` runs ``python3 bench/run.py --workload W --seed k
--seconds S --trace 0`` once in that export and once in the working tree, with
``S`` the ``run_seconds`` of ``BENCHMARK.json``; even pairs run the parent
first, odd pairs the change.  ``--workload`` may be given more than once.  The output holds every
pair's end-to-end metrics, each side's median and quartiles, how many pairs
the change won on each metric (ties count for neither side), a reading of
each metric against its ``BENCHMARK.json`` bound (``gain``, ``worse``,
``unresolved`` or ``unchanged``), and both sides' ``source_lines``.  When the
working tree differs from its commit, the output also holds the sha256 of
``git diff --binary HEAD``, which names the code measured.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str, root: Path = ROOT) -> bytes:
    return subprocess.run(["git", "-C", str(root), *args], capture_output=True, check=True).stdout


def diff_sha256(root: Path = ROOT) -> str | None:
    """sha256 of what the tracked files of ``root`` change against ``HEAD``
    (``git diff --binary HEAD``), or None when they change nothing."""
    diff = _git("diff", "--binary", "HEAD", root=root)
    return hashlib.sha256(diff).hexdigest() if diff else None


def export(ref: str, into: Path) -> str:
    """Extract the tree of ``ref`` into ``into``; return its commit SHA."""
    sha = _git("rev-parse", "--verify", f"{ref}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", sha))) as tar:
        tar.extractall(into, filter="data")
    return sha


def bench_once(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One timed benchmark run in checkout ``root``: its outcome, and its report."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(
            f"bench/run.py in {root} failed with status {done.returncode}:\n{done.stderr}"
        )
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    outcome = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: metric["value"] for name, metric in result["metrics"].items()},
    }
    return outcome, report


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def _reading(parent: list[float], change: list[float], sign: int, bound: float) -> str:
    """What one metric's pairs show; ``sign`` is 1 where higher is better, else -1.

    ``gain``: the change won at least 9 pairs in 10, and its median beats the
    parent's by more than the parent's interquartile range.  ``worse``: the
    change's median is worse than the parent's by more than ``bound`` times
    the parent's median.  ``unresolved``: the parent's interquartile range is
    wider than ``bound`` times its median, unless every change run beats
    every parent run.  ``unchanged``: anything else.
    """
    parent, change = [sign * v for v in parent], [sign * v for v in change]  # higher is better
    p, c = _quartiles(parent), _quartiles(change)
    spread, gap, allowed = p["q3"] - p["q1"], c["median"] - p["median"], bound * abs(p["median"])
    if 10 * sum(b > a for a, b in zip(parent, change)) >= 9 * len(parent) and gap > spread:
        return "gain"
    if -gap > allowed:
        return "worse"
    if spread > allowed and min(change) <= max(parent):
        return "unresolved"
    return "unchanged"


def summarise(
    pairs: list[dict], better: dict[str, str], bounds: dict[str, float] | None = None
) -> dict:
    """Both sides' median and quartiles per metric, the pairs each side won,
    and the metric's reading (:func:`_reading`).

    ``pairs`` holds ``{"parent": run, "change": run}`` entries whose runs have
    ``correct``, ``failed`` and a ``metrics`` mapping; ``better`` maps each
    metric name to ``"lower"`` or ``"higher"``, and ``bounds`` to the relative
    bound ``BENCHMARK.json`` declares for it (0 where none is given).  A pair
    where both sides read the same counts for neither.
    """
    sides = ("parent", "change")
    metrics = {}
    for name, direction in better.items():
        parent, change = ([pair[side]["metrics"][name] for pair in pairs] for side in sides)
        sign = 1 if direction == "higher" else -1
        metrics[name] = {
            "better": direction,
            "parent": _quartiles(parent),
            "change": _quartiles(change),
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "parent_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "reading": _reading(parent, change, sign, (bounds or {}).get(name, 0.0)),
        }
    return {
        "pairs": len(pairs),
        "all_correct": all(pair[side]["correct"] for pair in pairs for side in sides),
        "failed": {side: sum(pair[side]["failed"] for pair in pairs) for side in sides},
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_ref", help="git revision to compare the working tree against")
    parser.add_argument("--workload", action="append", required=True,
                        choices=("bootstrap", "search", "panel", "study"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    better = {metric["name"]: metric["better"] for metric in declared["end_to_end"]}
    bounds = {metric["name"]: metric["bound"] for metric in declared["end_to_end"]}
    document = {
        "parent_ref": args.parent_ref,
        "change_sha": _git("rev-parse", "HEAD").decode().strip(),
        "change_diff_sha256": diff_sha256(),
        "command": f"python3 bench/run.py --workload W --seed K --seconds {seconds} --trace 0",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_dir:
        document["parent_sha"] = export(args.parent_ref, Path(parent_dir))
        roots = {"parent": Path(parent_dir), "change": ROOT}
        reports = {}
        for workload in args.workload:
            pairs = []
            for seed in range(args.pairs):
                order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side], reports[side] = bench_once(roots[side], workload, seed, seconds)
                    print(f"{workload} seed {seed} {side}: {pair[side]}", file=sys.stderr)
                pairs.append(pair)
            document["workloads"][workload] = {
                "summary": summarise(pairs, better, bounds), "pairs": pairs
            }
    document["source_lines"] = {side: report["source_lines"] for side, report in reports.items()}
    machine = reports["change"]["provenance"]
    document["machine"] = {
        key: machine[key] for key in ("nproc", "cpu_model", "python", "numpy", "scipy")
    }
    Path(args.out).write_text(json.dumps(document, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
