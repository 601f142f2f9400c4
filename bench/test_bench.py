"""Tests of the benchmark itself: exact counts repeat, tail percentile rule.

    python -m pytest -q bench/test_bench.py
"""

import pytest

import run

run.load_library()

EXACT = {
    "estimation.nodes_expanded",
    "estimation.candidates_profiled",
    "estimation.bound_evals",
    "estimation.profiled_share",
    "estimation.theta_solve.iters_per_call",
    "bootstrap.pool_starts",
}

# operations per traced run: search reaches its first near-null panel (op 11)
OPS = {"bootstrap": 2, "search": 12, "panel": 1, "study": 1}


def _exact_counts(result: dict) -> dict:
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if name in EXACT or name.endswith((".calls", ".bytes"))
    }


@pytest.mark.parametrize("workload", sorted(OPS))
def test_traced_counts_repeat_exactly(workload):
    first, _ = run.measure(workload, seed=0, seconds=1, trace=True, ops=OPS[workload])
    second, _ = run.measure(workload, seed=0, seconds=1, trace=True, ops=OPS[workload])
    assert first["correct"] and second["correct"]
    counts = _exact_counts(first)
    assert counts == _exact_counts(second)
    assert counts["estimation.profile.calls"] > 0


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    times = [float(v) for v in range(1, 101)]
    assert run.tail(times) == {"value_s": 90.0, "percentile": 90.0, "samples": 100}
    assert run.tail(times[:10])["value_s"] is None
