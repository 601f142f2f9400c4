"""The summary that tools/bench_pairs.py writes, on a canned list of pairs,
its reading of each metric, and the digest that names an uncommitted
working tree."""

import subprocess

from tools.bench_pairs import diff_sha256, summarise


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


def reading(parent, change, better="higher", bound=0.25):
    """The reading ``summarise`` gives one metric ``m`` over these pairs."""
    def side(value):
        return {"correct": True, "failed": 0, "metrics": {"m": value}}

    pairs = [{"parent": side(a), "change": side(b)} for a, b in zip(parent, change)]
    return summarise(pairs, {"m": better}, {"m": bound})["metrics"]["m"]["reading"]


STEADY = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]
WIDE = [50.0, 150.0, 60.0, 140.0, 100.0, 100.0, 55.0, 145.0, 100.0, 100.0]


def test_a_gain_needs_nine_pairs_in_ten_and_a_gap_past_the_spread():
    faster = [value + 5 for value in STEADY]
    assert reading(STEADY, faster) == "gain"
    assert reading(STEADY, faster[:9] + [STEADY[9] - 1]) == "gain"
    assert reading(STEADY, faster[:8] + [STEADY[8] - 1, STEADY[9] - 1]) == "unchanged"
    # 10 of 10 pairs, but by less than the parent's interquartile range
    assert reading(STEADY, [value + 0.5 for value in STEADY]) == "unchanged"
    assert reading([0.010] * 9 + [0.011], [0.008] * 10, better="lower") == "gain"


def test_worse_is_a_median_past_the_bound():
    assert reading(STEADY, [70.0] * 10) == "worse"
    assert reading(STEADY, [80.0] * 10) == "unchanged"
    assert reading(STEADY, [126.0] * 10, better="lower") == "worse"
    assert reading(STEADY, [124.0] * 10, better="lower") == "unchanged"
    assert reading(STEADY, [99.0] * 10, bound=0.0) == "worse"


def test_a_parent_spread_past_the_bound_is_unresolved():
    assert reading(WIDE, [100.0] * 10) == "unresolved"
    assert reading(WIDE, [100.0] * 10, bound=1.0) == "unchanged"
    # unless every change run beats every parent run
    assert reading(WIDE, [151.0] * 10) == "unchanged"
    assert reading(WIDE, [150.0] * 10) == "unresolved"
    assert reading(WIDE, [49.0] * 10, better="lower") == "unchanged"
    # a loss past the bound reads worse, however wide the spread
    assert reading(WIDE, [60.0] * 10) == "worse"


def test_diff_sha256_names_the_working_tree(tmp_path):
    def git(*args):
        subprocess.run(
            ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
             "-c", "commit.gpgsign=false", *args],
            capture_output=True, check=True,
        )

    source = tmp_path / "module.py"
    source.write_text("x = 1\n")
    git("init", "-q")
    git("add", "module.py")
    git("commit", "-q", "-m", "first")
    assert diff_sha256(tmp_path) is None
    (tmp_path / "untracked.py").write_text("y = 2\n")
    assert diff_sha256(tmp_path) is None
    source.write_text("x = 2\n")
    first = diff_sha256(tmp_path)
    source.write_text("x = 3\n")
    second = diff_sha256(tmp_path)
    assert None not in (first, second) and first != second
    source.write_text("x = 1\n")
    assert diff_sha256(tmp_path) is None
