"""File formats, CLI subcommands, exit codes, and document determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from mallows_binomial import DEFAULT_BOUNDS, Params, cli, sample_dataset
from mallows_binomial.cli import run
from mallows_binomial.io import (
    read_dataset,
    read_rankings,
    read_ratings,
    write_rankings,
    write_ratings,
)

PARAMS = Params(p=[0.15, 0.4, 0.65, 0.9], theta=2.0)


def write_panel(tmp_path, seed=5, n_judges=25):
    data = sample_dataset(PARAMS, n_judges, 5, seed=seed)
    ratings_path = tmp_path / "ratings.csv"
    rankings_path = tmp_path / "rankings.csv"
    write_ratings(ratings_path, data.ratings)
    write_rankings(rankings_path, data.rankings)
    return data, str(ratings_path), str(rankings_path)


# ---------------------------------------------------------------------------
# file I/O


def test_round_trip_preserves_dataset(tmp_path):
    data, ratings_path, rankings_path = write_panel(tmp_path)
    loaded = read_dataset(ratings_path, rankings_path, 5)
    assert np.array_equal(loaded.ratings, data.ratings)
    assert np.array_equal(loaded.rankings, data.rankings)
    assert loaded.max_rating == data.max_rating


def test_ratings_file_is_one_based_with_header(tmp_path):
    path = tmp_path / "r.csv"
    write_ratings(path, np.array([[0, 3], [2, 1]]))
    text = path.read_text().splitlines()
    assert text[0] == "obj_1,obj_2"
    assert text[1] == "0,3"


def test_rankings_file_uses_one_based_labels(tmp_path):
    path = tmp_path / "k.csv"
    write_rankings(path, np.array([[2, 0, 1]]))
    assert path.read_text() == "3,1,2\n"
    assert read_rankings(path).tolist() == [[2, 0, 1]]


def test_read_ratings_rejects_bad_header(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("object1,object2\n1,2\n")
    with pytest.raises(ValueError, match="line 1.*obj_1,obj_2"):
        read_ratings(path)


def test_read_ratings_names_bad_cell(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("obj_1,obj_2\n1,2\n3,x\n")
    with pytest.raises(ValueError, match="line 3, column 2.*'x'"):
        read_ratings(path)


def test_read_ratings_names_ragged_row(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("obj_1,obj_2\n1,2,9\n")
    with pytest.raises(ValueError, match="line 2: expected 2 columns, got 3"):
        read_ratings(path)


def test_read_ratings_empty_file(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_ratings(path)
    path.write_text("obj_1,obj_2\n")
    with pytest.raises(ValueError, match="no judge rows"):
        read_ratings(path)


def test_read_rankings_rejects_duplicate_label(tmp_path):
    path = tmp_path / "k.csv"
    path.write_text("1,2,3\n2,2,1\n")
    with pytest.raises(ValueError, match=r"line 2.*\[2, 2, 1\].*exactly once"):
        read_rankings(path)


def test_read_rankings_rejects_zero_based_rows(tmp_path):
    path = tmp_path / "k.csv"
    path.write_text("0,1,2\n")
    with pytest.raises(ValueError, match="line 1"):
        read_rankings(path)


def test_read_dataset_names_judge_count_mismatch(tmp_path):
    _, ratings_path, rankings_path = write_panel(tmp_path, n_judges=10)
    short = tmp_path / "short.csv"
    short.write_text("\n".join(["1,2,3,4"] * 7) + "\n")
    with pytest.raises(ValueError, match="10 judges.*7"):
        read_dataset(ratings_path, str(short), 5)


def test_read_dataset_names_out_of_range_rating(tmp_path):
    ratings = tmp_path / "r.csv"
    rankings = tmp_path / "k.csv"
    ratings.write_text("obj_1,obj_2\n1,2\n6,0\n")
    rankings.write_text("1,2\n2,1\n")
    with pytest.raises(ValueError, match=r"line 3: rating 6 for object obj_1.*0\.\.5"):
        read_dataset(ratings, rankings, 5)


def test_read_accepts_whitespace(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("obj_1, obj_2\n 1 , 2 \n")
    assert read_ratings(path).tolist() == [[1, 2]]


# ---------------------------------------------------------------------------
# CLI subcommands


def test_cli_simulate_then_fit_round_trip(tmp_path, capsys):
    ratings = str(tmp_path / "r.csv")
    rankings = str(tmp_path / "k.csv")
    status = run(
        [
            "simulate", "--p", "0.15,0.4,0.65,0.9", "--theta", "2.0",
            "--judges", "40", "--M", "5", "--seed", "9",
            "--ratings", ratings, "--rankings", rankings,
        ]
    )
    assert status == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["config"]["subcommand"] == "simulate"
    assert manifest["result"]["consensus"] == [1, 2, 3, 4]

    loaded = read_dataset(ratings, rankings, 5)
    direct = sample_dataset(PARAMS, 40, 5, seed=9)
    assert np.array_equal(loaded.ratings, direct.ratings)
    assert np.array_equal(loaded.rankings, direct.rankings)

    status = run(["fit", "--ratings", ratings, "--rankings", rankings, "--M", "5"])
    assert status == 0
    document = json.loads(capsys.readouterr().out)
    assert document["result"]["consensus"] == [1, 2, 3, 4]
    assert document["result"]["n_judges"] == 40
    assert document["config"]["M"] == 5


def test_cli_fit_unanimous_toy(tmp_path, capsys):
    ratings = tmp_path / "r.csv"
    rankings = tmp_path / "k.csv"
    ratings.write_text("obj_1,obj_2,obj_3\n" + "0,2,5\n" * 3)
    rankings.write_text("1,2,3\n" * 3)
    status = run(["fit", "--ratings", str(ratings), "--rankings", str(rankings), "--M", "5"])
    assert status == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["consensus"] == [1, 2, 3]
    assert result["p"] == [DEFAULT_BOUNDS.p_min, 0.4, DEFAULT_BOUNDS.p_max]
    assert result["theta"] == DEFAULT_BOUNDS.theta_max
    assert result["theta_clamped"] is True


def test_cli_documents_are_deterministic(tmp_path):
    _, ratings, rankings = write_panel(tmp_path)
    out = tmp_path / "a.json"
    argv = ["bootstrap", "--ratings", ratings, "--rankings", rankings,
            "--M", "5", "--B", "25", "--seed", "3", "--out", str(out)]
    assert run(argv) == 0
    first = out.read_bytes()
    assert run(argv) == 0
    assert out.read_bytes() == first


def test_cli_threads_do_not_change_output(tmp_path):
    # worker count is an execution detail: the document must not mention it,
    # so runs under different --threads are byte-identical
    _, ratings, rankings = write_panel(tmp_path, n_judges=15)
    out = tmp_path / "boot.json"
    argv = ["bootstrap", "--ratings", ratings, "--rankings", rankings,
            "--M", "5", "--B", "16", "--seed", "3", "--out", str(out)]
    assert run(argv + ["--threads", "1"]) == 0
    single = out.read_bytes()
    assert run(argv + ["--threads", "2"]) == 0
    assert out.read_bytes() == single
    assert b'"threads"' not in single


def test_cli_csv_format(tmp_path, capsys):
    _, ratings, rankings = write_panel(tmp_path)
    status = run(
        ["fit", "--ratings", ratings, "--rankings", rankings, "--M", "5",
         "--format", "csv"]
    )
    assert status == 0
    lines = capsys.readouterr().out.splitlines()
    config_lines = [line for line in lines if line.startswith("# ")]
    assert "# subcommand=fit" in config_lines
    assert "parameter,value" in lines
    assert any(line.startswith("p_1,") for line in lines)
    assert any(line.startswith("theta,") for line in lines)


def test_cli_lan_check_and_coverage_smoke(capsys):
    status = run(
        ["lan-check", "--p", "0.2,0.5,0.8", "--theta", "1.5", "--judges", "50",
         "--M", "5", "--R", "6", "--seed", "1"]
    )
    assert status == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["kind"] == "z"
    assert report["result"]["n_replications"] == 6

    status = run(
        ["coverage", "--p", "0.2,0.5,0.8", "--theta", "1.5", "--judges", "20",
         "--M", "5", "--R", "3", "--B", "12", "--seed", "1"]
    )
    assert status == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["kind"] == "bootstrap"
    assert report["result"]["n_bootstrap"] == 12
    assert report["config"]["B"] == 12


def test_cli_bootstrap_zero_width_on_unanimous_panel(tmp_path, capsys):
    ratings = tmp_path / "r.csv"
    rankings = tmp_path / "k.csv"
    ratings.write_text("obj_1,obj_2,obj_3\n" + "1,2,4\n" * 6)
    rankings.write_text("1,2,3\n" * 6)
    status = run(
        ["bootstrap", "--ratings", str(ratings), "--rankings", str(rankings),
         "--M", "5", "--B", "20", "--seed", "2"]
    )
    assert status == 0
    result = json.loads(capsys.readouterr().out)["result"]
    for lo, hi in result["p_intervals"]:
        assert lo == hi
    assert result["theta_interval"][0] == result["theta_interval"][1]
    assert result["consensus_agreement"] == 1.0


# ---------------------------------------------------------------------------
# CLI failure modes


def test_cli_empty_rankings_file_fails(tmp_path, capsys):
    _, ratings, _ = write_panel(tmp_path)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    status = run(["fit", "--ratings", ratings, "--rankings", str(empty), "--M", "5"])
    assert status == 1
    assert "empty" in capsys.readouterr().err


def test_cli_duplicate_object_row_fails(tmp_path, capsys):
    ratings = tmp_path / "r.csv"
    rankings = tmp_path / "k.csv"
    ratings.write_text("obj_1,obj_2\n1,2\n")
    rankings.write_text("1,1\n")
    status = run(["fit", "--ratings", str(ratings), "--rankings", str(rankings), "--M", "5"])
    assert status == 1
    assert "line 1" in capsys.readouterr().err


def test_cli_out_of_range_rating_fails(tmp_path, capsys):
    ratings = tmp_path / "r.csv"
    rankings = tmp_path / "k.csv"
    ratings.write_text("obj_1,obj_2\n9,2\n")
    rankings.write_text("1,2\n")
    status = run(["fit", "--ratings", str(ratings), "--rankings", str(rankings), "--M", "5"])
    assert status == 1
    message = capsys.readouterr().err
    assert "rating 9" in message and "obj_1" in message


def test_cli_missing_file_fails(tmp_path, capsys):
    status = run(["fit", "--ratings", "nope.csv", "--rankings", "nope2.csv", "--M", "5"])
    assert status == 1
    assert "nope.csv" in capsys.readouterr().err


def test_cli_bad_usage_exits_nonzero(capsys):
    assert run(["fit"]) != 0
    capsys.readouterr()
    assert run(["unknown-subcommand"]) != 0
    capsys.readouterr()
    assert run(["fit", "--ratings", "a", "--rankings", "b", "--M", "5",
                "--p-bounds", "0.1"]) != 0
    capsys.readouterr()


def test_cli_invalid_bounds_fail(tmp_path, capsys):
    _, ratings, rankings = write_panel(tmp_path)
    status = run(
        ["fit", "--ratings", ratings, "--rankings", rankings, "--M", "5",
         "--p-bounds", "0.9,0.1"]
    )
    assert status == 1
    assert "p_min" in capsys.readouterr().err


def test_cli_module_entry_point(tmp_path):
    _, ratings, rankings = write_panel(tmp_path, n_judges=6)
    done = subprocess.run(
        [sys.executable, "-m", "mallows_binomial.cli", "fit",
         "--ratings", ratings, "--rankings", rankings, "--M", "5"],
        capture_output=True, text=True,
    )
    assert done.returncode == 0
    assert json.loads(done.stdout)["result"]["n_judges"] == 6


def test_cli_failed_write_keeps_old_document(tmp_path, monkeypatch, capsys):
    _, ratings, rankings = write_panel(tmp_path)
    out = tmp_path / "fit.json"
    out.write_text("earlier document\n")
    before = sorted(os.listdir(tmp_path))

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    status = run(["fit", "--ratings", ratings, "--rankings", rankings,
                  "--M", "5", "--out", str(out)])
    assert status == 1
    assert "disk full" in capsys.readouterr().err
    assert out.read_text() == "earlier document\n"
    assert sorted(os.listdir(tmp_path)) == before


def test_cli_write_replaces_document_and_leaves_no_temporary(tmp_path):
    _, ratings, rankings = write_panel(tmp_path)
    out = tmp_path / "fit.json"
    out.write_text("earlier document\n")
    before = sorted(os.listdir(tmp_path))
    assert run(["fit", "--ratings", ratings, "--rankings", rankings,
                "--M", "5", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["result"]["n_judges"] == 25
    assert sorted(os.listdir(tmp_path)) == before


SIMULATE = ["simulate", "--p", "0.15,0.4,0.65,0.9", "--theta", "2.0",
            "--judges", "30", "--M", "5", "--seed", "4"]


def test_cli_simulate_failed_write_keeps_earlier_panel(tmp_path, monkeypatch, capsys):
    ratings = tmp_path / "ratings.csv"
    rankings = tmp_path / "rankings.csv"
    ratings.write_text("earlier ratings\n")
    rankings.write_text("earlier rankings\n")
    before = sorted(os.listdir(tmp_path))

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    status = run(SIMULATE + ["--ratings", str(ratings), "--rankings", str(rankings)])
    assert status == 1
    assert "disk full" in capsys.readouterr().err
    assert ratings.read_text() == "earlier ratings\n"
    assert rankings.read_text() == "earlier rankings\n"
    assert sorted(os.listdir(tmp_path)) == before


def test_cli_simulate_failed_second_write_leaves_whole_files(tmp_path, monkeypatch, capsys):
    # the ratings file is renamed into place before the rankings write fails:
    # each file is then either the earlier one or the complete new one
    ratings = tmp_path / "ratings.csv"
    rankings = tmp_path / "rankings.csv"
    rankings.write_text("earlier rankings\n")
    replace = os.replace

    def refuse_rankings(src, dst):
        if os.fspath(dst) == str(rankings):
            raise OSError("disk full")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", refuse_rankings)
    status = run(SIMULATE + ["--ratings", str(ratings), "--rankings", str(rankings)])
    assert status == 1
    assert "disk full" in capsys.readouterr().err
    direct = sample_dataset(PARAMS, 30, 5, seed=4)
    assert np.array_equal(read_ratings(ratings), direct.ratings)
    assert rankings.read_text() == "earlier rankings\n"
    assert sorted(os.listdir(tmp_path)) == ["rankings.csv", "ratings.csv"]


def test_cli_simulate_failed_rankings_write_changes_neither_file(tmp_path, monkeypatch, capsys):
    # both files are written before either is renamed: a failed rankings
    # write leaves both earlier files and no temporary behind
    ratings = tmp_path / "ratings.csv"
    rankings = tmp_path / "rankings.csv"
    ratings.write_text("earlier ratings\n")
    rankings.write_text("earlier rankings\n")
    before = sorted(os.listdir(tmp_path))

    def partial_write(path, rows):
        with open(path, "w") as handle:
            handle.write("1,2\n")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_rankings", partial_write)
    status = run(SIMULATE + ["--ratings", str(ratings), "--rankings", str(rankings)])
    assert status == 1
    assert "disk full" in capsys.readouterr().err
    assert ratings.read_text() == "earlier ratings\n"
    assert rankings.read_text() == "earlier rankings\n"
    assert sorted(os.listdir(tmp_path)) == before
