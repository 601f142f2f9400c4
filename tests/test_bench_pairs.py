"""The summary that tools/bench_pairs.py writes, on a canned list of pairs."""

from tools.bench_pairs import summarise


def run(work, p50, correct=True, failed=0):
    return {"correct": correct, "failed": failed,
            "metrics": {"work_per_s": work, "op_p50_s": p50}}


BETTER = {"work_per_s": "higher", "op_p50_s": "lower"}


def test_summary_counts_wins_by_direction_and_ties_for_neither():
    pairs = [
        {"parent": run(10.0, 1.0), "change": run(20.0, 0.5)},
        {"parent": run(12.0, 1.0), "change": run(18.0, 1.0)},
        {"parent": run(11.0, 0.9), "change": run(11.0, 1.2)},
        {"parent": run(14.0, 1.1), "change": run(9.0, 0.6)},
        {"parent": run(13.0, 1.0), "change": run(30.0, 0.4)},
    ]
    summary = summarise(pairs, BETTER)
    work, p50 = summary["metrics"]["work_per_s"], summary["metrics"]["op_p50_s"]
    assert (work["change_wins"], work["parent_wins"]) == (3, 1)
    assert (p50["change_wins"], p50["parent_wins"]) == (3, 1)
    assert work["parent"] == {"median": 12.0, "q1": 11.0, "q3": 13.0}
    assert work["change"] == {"median": 18.0, "q1": 11.0, "q3": 20.0}
    assert p50["change"]["median"] == 0.6 and p50["better"] == "lower"
    assert summary["pairs"] == 5 and summary["all_correct"]
    assert summary["failed"] == {"parent": 0, "change": 0}


def test_summary_reports_a_failed_run():
    pairs = [
        {"parent": run(10.0, 1.0), "change": run(20.0, 0.5, correct=False, failed=2)},
    ]
    summary = summarise(pairs, BETTER)
    assert not summary["all_correct"]
    assert summary["failed"] == {"parent": 0, "change": 2}
    assert summary["metrics"]["work_per_s"]["parent"] == {"median": 10.0, "q1": 10.0, "q3": 10.0}
