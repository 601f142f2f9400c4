"""File formats, CLI subcommands, exit codes, and document determinism."""

import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mallows_binomial import DEFAULT_BOUNDS, Params, bootstrap, cli, model, sample_dataset
from mallows_binomial import io as mb_io
from mallows_binomial.bootstrap import _fit_replicates
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


def csv_writer_bytes(rows, header=None) -> bytes:
    """The bytes ``csv.writer`` gives for ``rows``: the writers' reference."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if header is not None:
        writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode()


@st.composite
def integer_matrices(draw) -> np.ndarray:
    """An int64, int32 or uint8 matrix: small ratings, zeros, the dtype's
    extremes, and for int64 cells of 19 digits."""
    dtype = np.dtype(draw(st.sampled_from(["int64", "int32", "uint8"])))
    low, high = int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)
    cells = [st.integers(0, 12), st.sampled_from([low, high, 0, -1]).filter(lambda x: x >= low),
             st.integers(low, high)]
    if dtype == np.int64:
        cells += [st.integers(10**18, high), st.integers(low, -(10**18))]
    shape = draw(st.tuples(st.integers(1, 5), st.integers(1, 5)))
    return draw(arrays(dtype, shape, elements=st.one_of(cells)))


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_writers_give_csv_writer_bytes(matrix):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "m.csv")
        write_ratings(path, matrix)
        header = [f"obj_{j}" for j in range(1, matrix.shape[1] + 1)]
        with open(path, "rb") as handle:
            assert handle.read() == csv_writer_bytes(matrix.tolist(), header)
        # rankings hold each label 0..J-1 once per row; any other matrix is refused
        ranks = np.argsort(matrix, axis=1, kind="stable").astype(matrix.dtype)
        write_rankings(path, ranks)
        with open(path, "rb") as handle:
            assert handle.read() == csv_writer_bytes((ranks + 1).tolist())
        for labels in (matrix, matrix % matrix.shape[1]):
            if (np.sort(labels, axis=1) != np.arange(matrix.shape[1])).any():
                with pytest.raises(ValueError, match="is outside 0..|is not a permutation"):
                    write_rankings(path, labels)


@pytest.mark.parametrize("writer", [write_ratings, write_rankings])
@pytest.mark.parametrize(
    "matrix, named",
    [
        (np.array([[1.5, 2.0]]), "dtype float64"),
        (np.array([[True, False]]), "dtype bool"),
        (np.array([1, 2]), r"shape \(2,\)"),
        (np.zeros((0, 3), np.int64), r"shape \(0, 3\)"),
        (np.zeros((2, 0), np.int64), r"shape \(2, 0\)"),
    ],
    ids=["float", "bool", "1-D", "no rows", "no columns"],
)
def test_writers_refuse_what_cannot_be_read_back(tmp_path, writer, matrix, named):
    with pytest.raises(ValueError, match=named):
        writer(tmp_path / "panel.csv", matrix)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "matrix, named",
    [
        (np.array([[255, 0]], np.uint8), "label 255 is outside 0..1"),
        (np.array([[2**63 - 1, 0]]), "label 9223372036854775807 is outside 0..1"),
        (np.array([[0, 1], [-1, 0]], np.int8), "label -1 is outside 0..1"),
        (np.array([[3, 0, 1]], np.uint64), "label 3 is outside 0..2"),
    ],
    ids=["uint8 wrap", "int64 wrap", "negative", "past J"],
)
def test_write_rankings_refuses_labels_outside_the_objects(tmp_path, matrix, named):
    with pytest.raises(ValueError, match=named):
        write_rankings(tmp_path / "rankings.csv", matrix)
    assert os.listdir(tmp_path) == []


def test_write_rankings_adds_one_in_64_bits(tmp_path):
    path = tmp_path / "rankings.csv"
    write_rankings(path, np.array([[1, 0]], np.uint8))
    assert path.read_text() == "2,1\n"
    write_rankings(path, np.arange(256, dtype=np.uint8)[None, ::-1])
    assert read_rankings(path).tolist() == [list(range(255, -1, -1))]


@pytest.mark.parametrize("dtype", [None, np.uint8, np.uint64])
def test_write_rankings_refuses_a_row_that_repeats_a_label(tmp_path, dtype):
    path = tmp_path / "rankings.csv"
    with pytest.raises(ValueError, match=r"ranking row 0 is not a .* 0..1: \[0, 0\]"):
        write_rankings(path, np.array([[0, 0], [1, 0]], dtype))
    with pytest.raises(ValueError, match=r"ranking row 2 is not a .* 0..2: \[2, 1, 1\]"):
        write_rankings(path, np.array([[0, 1, 2], [2, 1, 0], [2, 1, 1], [1, 1, 1]], dtype))
    assert os.listdir(tmp_path) == []


def test_write_ratings_refuses_what_read_ratings_refuses(tmp_path):
    path = tmp_path / "ratings.csv"
    with pytest.raises(ValueError, match="64-bit integers, got 9223372036854775808"):
        write_ratings(path, np.array([[2**63, 0]], np.uint64))
    assert os.listdir(tmp_path) == []
    write_ratings(path, np.array([[2**63 - 1, 0]], np.uint64))
    assert read_ratings(path).tolist() == [[2**63 - 1, 0]]


@pytest.mark.parametrize("field, write", [("ratings", write_ratings), ("rankings", write_rankings)])
def test_writing_a_large_panel_peaks_below_3_mib(tmp_path, field, write):
    data = sample_dataset(Params(p=[0.1, 0.25, 0.4, 0.55, 0.7, 0.85], theta=1.0), 20_000, 5, 0)
    tracemalloc.start()
    try:
        write(tmp_path / "panel.csv", getattr(data, field))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_read_ratings_rejects_bad_header(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("object1,object2\n1,2\n")
    with pytest.raises(ValueError, match="line 1.*obj_1,obj_2"):
        read_ratings(path)
    path.write_text("\nobject1,object2\n1,2\n")
    with pytest.raises(ValueError, match="line 2.*obj_1,obj_2"):
        read_ratings(path)


def test_read_ratings_names_bad_cell(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("obj_1,obj_2\n1,2\n3,x\n")
    with pytest.raises(ValueError, match="line 3, column 2.*'x'"):
        read_ratings(path)
    # blank lines are skipped but still counted
    path.write_text("obj_1,obj_2\n1,2\n\n3,x\n")
    with pytest.raises(ValueError, match="line 4, column 2.*'x'"):
        read_ratings(path)
    # a row whose quoted cell spans lines is named by its first line
    path.write_text('obj_1,obj_2\n\n"3\n",x\n')
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


def test_read_rankings_reports_first_of_two_bad_rows(tmp_path):
    path = tmp_path / "k.csv"
    path.write_text("1,2,3\n3,2,1\n1,1,2\n2,1,3\n4,1,2\n")
    with pytest.raises(ValueError) as error:
        read_rankings(path)
    assert str(error.value) == (
        f"{path}, line 3: ranking [1, 1, 2] must use each label 1..3 exactly once"
    )
    path.write_text("1,2,3\n\n3,2,1\n1,1,2\n2,1,3\n4,1,2\n")
    with pytest.raises(ValueError) as error:
        read_rankings(path)
    assert str(error.value) == (
        f"{path}, line 4: ranking [1, 1, 2] must use each label 1..3 exactly once"
    )


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
    ratings.write_text("obj_1,obj_2\n1,2\n\n6,0\n")
    with pytest.raises(ValueError, match=r"line 4: rating 6 for object obj_1.*0\.\.5"):
        read_dataset(ratings, rankings, 5)


def test_read_accepts_whitespace(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("obj_1, obj_2\n 1 , 2 \n")
    assert read_ratings(path).tolist() == [[1, 2]]


def test_read_accepts_a_byte_order_mark_and_crlf(tmp_path, capsys):
    # spreadsheet "CSV UTF-8" exports start with a UTF-8 byte-order mark
    data, ratings, rankings = write_panel(tmp_path)
    marked = [str(tmp_path / "bom_ratings.csv"), str(tmp_path / "bom_rankings.csv")]
    for name in ("ratings.csv", "rankings.csv"):
        plain = (tmp_path / name).read_bytes()
        (tmp_path / f"bom_{name}").write_bytes(b"\xef\xbb\xbf" + plain.replace(b"\n", b"\r\n"))
    assert np.array_equal(read_ratings(marked[0]), data.ratings)
    assert np.array_equal(read_rankings(marked[1]), data.rankings)
    results = []
    for files in ((ratings, rankings), marked):
        assert run(["fit", "--ratings", files[0], "--rankings", files[1], "--M", "5"]) == 0
        results.append(json.loads(capsys.readouterr().out)["result"])
    assert results[0] == results[1]


@pytest.mark.parametrize(
    "ratings_text, rankings_text, bad, expected",
    [(b"obj_1,obj_2\n1,2\n3,\xff4\n", b"1,2\n2,1\n", "r.csv",
      r"line 3, column 2: '\\xff4' is not an integer"),
     (b"obj_\xff1,obj_2\n1,2\n3,4\n", b"1,2\n2,1\n", "r.csv",
      r"line 1: expected header obj_1,obj_2, got obj_\xff1,obj_2"),
     (b"obj_1,obj_2\n1,2\n3,4\n", b"1,2\n\n\xff2,1\n", "k.csv",
      r"line 3, column 1: '\\xff2' is not an integer")],
    ids=["ratings cell", "ratings header", "rankings row"],
)
def test_cli_names_the_file_and_line_of_a_byte_that_is_not_utf8(
    tmp_path, capsys, ratings_text, rankings_text, bad, expected
):
    (tmp_path / "r.csv").write_bytes(ratings_text)
    (tmp_path / "k.csv").write_bytes(rankings_text)
    status = run(["fit", "--ratings", str(tmp_path / "r.csv"),
                  "--rankings", str(tmp_path / "k.csv"), "--M", "5"])
    assert status == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {tmp_path / bad}, {expected}\n"


def read_by_both_parsers(read) -> list:
    """``read()`` by the bulk path, then by the row parser alone: each
    outcome is the arrays ``read`` returns, as lists, or the error message."""
    outcomes = []
    for plain in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            if not plain:
                patch.setattr(mb_io, "_read_plain", lambda *args, **kwargs: None)
            try:
                outcomes.append([array.tolist() for array in read()])
            except ValueError as error:
                outcomes.append(str(error))
    return outcomes


DIGIT_CELLS = st.one_of(
    st.integers(0, 12).map(str),
    st.sampled_from(
        ["007", "99999999999999999999", "9223372036854775807", "9223372036854775808",
         "10000000000000000", "99999999999999999", "100000000000000000",
         "999999999999999999", "0" * 17 + "1", "0" * 20 + "1"]
    ),
)
CELLS = st.one_of(DIGIT_CELLS, st.sampled_from([" 3", "+3", "1_0", "-1", "", '"2"', "x"]))


@st.composite
def panel_files(draw, header: bool) -> tuple[str, int]:
    """A panel file's text, mostly plain, spelled in the ways a CSV may be."""
    width = draw(st.integers(1, 4))
    lines = []
    if header:
        names = ",".join(f"obj_{j}" for j in range(1, width + 1))
        lines.append(draw(st.sampled_from([names, names, names, " " + names, "#" + names])))
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["plain"] * 5 + ["digits", "spelled", "blank", "commas", "#"]))
        if kind == "plain":
            lines.append(",".join(map(str, draw(st.permutations(range(1, width + 1))))))
        elif kind in ("digits", "spelled"):
            row_width = draw(st.sampled_from([width, width, width + 1, max(width - 1, 1)]))
            cells = DIGIT_CELLS if kind == "digits" else CELLS
            lines.append(",".join(draw(st.lists(cells, min_size=row_width, max_size=row_width))))
        else:
            lines.append({"blank": "", "commas": "," * (width - 1), "#": "# note"}[kind])
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from([newline, ""]))
    return text, width


def is_digit_matrix(text: str, header: bool, width: int | None = None) -> bool:
    """Whether a file is an exact header if ``header`` (it sets ``width``),
    then blank lines and rows of ``width`` (else the first row's width)
    cells of 1 to 18 ASCII digits: the files the digit reader takes."""
    lines = text.split("\n")
    if header:
        head, *lines = lines
        width = head.count(",") + 1
        if head != ",".join(f"obj_{j}" for j in range(1, width + 1)):
            return False
    rows = [line.split(",") for line in lines if line]
    width = width or (len(rows[0]) if rows else 0)
    return bool(rows) and all(
        len(row) == width and all(re.fullmatch("[0-9]{1,18}", cell) for cell in row)
        for row in rows
    )


@settings(max_examples=300, deadline=None)
@given(panel_files(header=True), panel_files(header=False))
def test_bulk_and_row_parsers_agree(ratings_file, rankings_file):
    with tempfile.TemporaryDirectory() as directory:
        ratings, rankings = os.path.join(directory, "r.csv"), os.path.join(directory, "k.csv")
        with open(ratings, "w", newline="") as handle:
            handle.write(ratings_file[0])
        with open(rankings, "w", newline="") as handle:
            handle.write(rankings_file[0])
        taken = mb_io._read_plain(ratings, header=True) is not None
        assert taken == is_digit_matrix(ratings_file[0], header=True)
        bulk, rows = read_by_both_parsers(lambda: [read_ratings(ratings)])
        assert bulk == rows
        for args in [(), (rankings_file[1],), (rankings_file[1] + 1,)]:
            taken = mb_io._read_plain(rankings, False, *args) is not None
            assert taken == is_digit_matrix(rankings_file[0], False, *args)
            bulk, rows = read_by_both_parsers(lambda: [read_rankings(rankings, *args)])
            assert bulk == rows

        def dataset():
            data = read_dataset(ratings, rankings, 12)
            return data.ratings, data.rankings

        bulk, rows = read_by_both_parsers(dataset)
        assert bulk == rows


def test_written_panel_takes_the_bulk_path_in_less_memory(tmp_path):
    _, ratings, rankings = write_panel(tmp_path, n_judges=20_000)
    assert mb_io._read_plain(ratings, header=True) is not None
    assert mb_io._read_plain(rankings, header=False, width=4) is not None
    peaks = []
    for plain in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            if not plain:
                patch.setattr(mb_io, "_read_plain", lambda *args, **kwargs: None)
            tracemalloc.start()
            try:
                read_dataset(ratings, rankings, 5)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[0] < peaks[1]


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


def parser_actions(parser):
    """Every action of ``parser`` and of its subcommands' parsers."""
    for action in parser._actions:
        yield action
        if action.dest == "subcommand":
            for sub in action.choices.values():
                yield from parser_actions(sub)


def test_every_parser_default_is_immutable():
    # run() parses with one parser per process, so no parse may leave a
    # default that a later one could see changed
    actions = list(parser_actions(cli.build_parser()))
    defaults = [action.default for action in actions if action.dest != "help"]
    assert (DEFAULT_BOUNDS.p_min, DEFAULT_BOUNDS.p_max) in defaults
    for default in defaults:
        assert default is None or type(default) in (str, int, float, tuple), default
        if type(default) is tuple:
            assert all(type(part) is float for part in default), default


def test_cli_parser_is_built_once_and_gives_fresh_parsers_documents(tmp_path, monkeypatch, capsys):
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    ratings, rankings = str(tmp_path / "r.csv"), str(tmp_path / "k.csv")
    runs = [
        ["fit", "--ratings", ratings, "--rankings", rankings, "--M", "5", "--p-bounds", "x"],
        ["simulate", "--p", "0.2,0.5,0.8", "--theta", "1.5", "--judges", "30", "--M", "5",
         "--seed", "4", "--ratings", ratings, "--rankings", rankings,
         "--out", str(tmp_path / "simulate.json")],
        ["fit", "--ratings", ratings, "--rankings", rankings, "--M", "5",
         "--out", str(tmp_path / "fit.json")],
    ]

    def documents() -> list:
        statuses = [run(argv) for argv in runs]
        assert statuses == [2, 0, 0]
        assert "--p-bounds expects two comma-separated numbers" in capsys.readouterr().err
        return [(tmp_path / name).read_bytes() for name in ("simulate.json", "fit.json")]

    cached = documents()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert documents() == cached


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


@pytest.mark.parametrize("command", ["fit", "bootstrap"])
@pytest.mark.parametrize("bad_file", ["ratings", "rankings"])
def test_cli_names_a_cell_past_int64(tmp_path, capsys, command, bad_file):
    files = {"ratings": "obj_1,obj_2\n1,2\n", "rankings": "1,2\n"}
    files[bad_file] = files[bad_file][:-2] + "99999999999999999999\n"
    paths = {name: tmp_path / f"{name}.csv" for name in files}
    for name, text in files.items():
        paths[name].write_text(text)
    status = run([command, "--ratings", str(paths["ratings"]), "--rankings",
                  str(paths["rankings"]), "--M", "5"])
    assert status == 1
    line = 2 if bad_file == "ratings" else 1
    assert capsys.readouterr().err == (
        f"error: {paths[bad_file]}, line {line}, column 2: '99999999999999999999' "
        "is not a 64-bit integer\n"
    )


def test_cli_simulate_refuses_a_scale_past_int64(tmp_path, capsys):
    status = run(["simulate", "--p", "0.3,0.6", "--theta", "1", "--judges", "5",
                  "--M", "10000000000000000000", "--ratings", str(tmp_path / "r.csv"),
                  "--rankings", str(tmp_path / "k.csv")])
    assert status == 1
    assert capsys.readouterr().err.startswith("error: max_rating must be at most 2**63 - 1")
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("command", ["fit", "bootstrap", "lan-check", "coverage"])
@pytest.mark.parametrize("max_rating", [2**63 - 1, 2**63], ids=["int64 max", "past int64"])
def test_cli_refuses_a_scale_numpy_cannot_size(tmp_path, capsys, command, max_rating):
    # 2**63 - 1 passes the scale rule, but its M + 1 rating levels overflow numpy
    if command in ("fit", "bootstrap"):
        _, ratings, rankings = write_panel(tmp_path)
        inputs = ["--ratings", ratings, "--rankings", rankings]
    else:
        inputs = ["--p", "0.3,0.6", "--theta", "1", "--judges", "5", "--R", "2"]
    before = sorted(os.listdir(tmp_path))
    out = tmp_path / "doc.json"
    status = run([command, *inputs, "--M", str(max_rating), "--out", str(out)])
    assert status == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    if max_rating == 2**63:
        assert captured.err == f"error: max_rating must be at most 2**63 - 1, got {2**63}\n"
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("command", ["fit", "bootstrap", "lan-check", "coverage"])
def test_cli_names_the_scale_whose_levels_numpy_cannot_index(tmp_path, capsys, command):
    if command in ("fit", "bootstrap"):
        _, ratings, rankings = write_panel(tmp_path)
        inputs = ["--ratings", ratings, "--rankings", rankings]
    else:
        inputs = ["--p", "0.3,0.6", "--theta", "1", "--judges", "5", "--R", "2"]
    out = tmp_path / "doc.json"
    status = run([command, *inputs, "--M", str(2**63 - 1), "--out", str(out)])
    assert status == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "max_rating" in err and "9223372036854775807" in err
    assert not out.exists()


def test_cli_lan_check_at_huge_theta_fails_cleanly(tmp_path, capsys):
    out = tmp_path / "lan.json"
    status = run(
        ["lan-check", "--p", "0.2,0.5,0.8", "--theta", "400", "--judges", "50",
         "--M", "5", "--R", "3", "--out", str(out)]
    )
    assert status == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "400" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["lan-check", "coverage"])
def test_cli_study_refuses_true_theta_outside_the_box(tmp_path, capsys, command):
    out = tmp_path / "study.json"
    status = run(
        [command, "--p", "0.2,0.5,0.8", "--theta", "60", "--judges", "20",
         "--M", "5", "--R", "2", "--out", str(out)]
    )
    assert status == 1
    err = capsys.readouterr().err
    assert err.startswith("error: true theta = 60.0 lies outside the theta box [1e-06, 50.0]")
    assert not out.exists()


@pytest.mark.parametrize("out", ["-", "lan.json"])
def test_cli_lan_check_refuses_one_replication(tmp_path, capsys, out):
    # one replication has no standard deviation, which would be NaN
    target = "-" if out == "-" else str(tmp_path / out)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = run(
            ["lan-check", "--p", "0.2,0.5,0.8", "--theta", "1", "--judges", "50",
             "--M", "5", "--R", "1", "--out", target]
        )
    assert status == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "two replications" in captured.err
    assert not (tmp_path / out).exists()


def test_cli_refuses_to_write_non_json_numbers(tmp_path, capsys, monkeypatch):
    out = tmp_path / "nan.json"
    monkeypatch.setitem(cli._HANDLERS, "lan-check", lambda args: {"sd": float("nan")})
    status = run(
        ["lan-check", "--p", "0.2,0.5,0.8", "--theta", "1", "--judges", "50",
         "--M", "5", "--out", str(out)]
    )
    assert status == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--p-bounds", "--theta-bounds"])
@pytest.mark.parametrize("value", ["a,b", "1,2,3"])
def test_cli_malformed_bounds_name_the_flag(capsys, flag, value):
    status = run(["fit", "--ratings", "a", "--rankings", "b", "--M", "5", flag, value])
    assert status == 2
    err = capsys.readouterr().err
    assert f"{flag} expects two comma-separated numbers, got {value!r}" in err
    assert "parse" not in err


@pytest.mark.parametrize("value", ["a,b", "0.3,", "0.3;0.6"])
def test_cli_non_numeric_p_is_a_usage_error(tmp_path, capsys, value):
    status = run(["simulate", "--p", value, "--theta", "1", "--judges", "5", "--M", "5",
                  "--ratings", str(tmp_path / "r.csv"), "--rankings", str(tmp_path / "k.csv")])
    assert status == 2
    assert f"expected comma-separated numbers, got {value!r}" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


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


def test_cli_rejects_removed_exhaustive_cap_flag(tmp_path, capsys):
    # the object count alone picks the search: there is no flag to move it
    _, ratings, rankings = write_panel(tmp_path)
    status = run(
        ["fit", "--ratings", ratings, "--rankings", rankings, "--M", "5",
         "--exhaustive-cap", "3"]
    )
    assert status == 2
    assert "--exhaustive-cap" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "message, printed",
    [("Unable to allocate 763. MiB for an array with shape (100000001,)", None),
     ("", "MemoryError")],
)
def test_cli_fit_reports_running_out_of_memory(tmp_path, monkeypatch, capsys, message, printed):
    _, ratings, rankings = write_panel(tmp_path)

    def exhausted(max_rating):
        raise MemoryError(message)

    monkeypatch.setattr(model, "_log_binom_levels", exhausted)
    out = tmp_path / "fit.json"
    status = run(["fit", "--ratings", ratings, "--rankings", rankings, "--M", "5",
                  "--out", str(out)])
    assert status == 1
    assert capsys.readouterr().err == f"error: {printed or message}\n"
    assert not out.exists()


def test_cli_fit_names_a_cell_over_the_csv_field_limit(tmp_path, capsys):
    # the row starts on line 3 (a blank line is counted) and its quoted cell
    # runs past the csv module's field size limit on the line after
    ratings = tmp_path / "r.csv"
    rankings = tmp_path / "k.csv"
    ratings.write_text('obj_1,obj_2\n\n"1\n' + "2" * 200_000 + '",3\n')
    rankings.write_text("1,2\n")
    out = tmp_path / "fit.json"
    status = run(["fit", "--ratings", str(ratings), "--rankings", str(rankings),
                  "--M", "5", "--out", str(out)])
    assert status == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ratings}, line 3: field larger than field limit")
    assert err.count("\n") == 1
    assert not out.exists()


def _same_file_spellings(tmp_path):
    """Three spellings of one path: plain, through ``sub/..``, and a symlink."""
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.csv").symlink_to(tmp_path / "same.csv")
    return [str(tmp_path / "same.csv"), str(tmp_path / "sub" / ".." / "same.csv"),
            str(tmp_path / "link.csv")]


@pytest.mark.parametrize("command", ["fit", "bootstrap"])
@pytest.mark.parametrize("target", [0, 1], ids=["out=ratings", "out=rankings"])
def test_cli_refuses_to_write_over_an_input(tmp_path, capsys, command, target):
    _, ratings, rankings = write_panel(tmp_path)
    files = [tmp_path / "ratings.csv", tmp_path / "rankings.csv"]
    before = [path.read_bytes() for path in files]
    status = run([command, "--ratings", ratings, "--rankings", rankings, "--M", "5",
                  "--out", str(files[target])])
    assert status == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --ratings, --rankings and --out must name different files\n"
    assert [path.read_bytes() for path in files] == before


@pytest.mark.parametrize(
    "ratings, rankings, out",
    [(0, 0, None), (0, None, 1), (None, 0, 2), (0, 1, 2)],
    ids=["ratings=rankings", "ratings=out", "rankings=out", "all three"],
)
def test_cli_simulate_refuses_one_file_for_two_outputs(
    tmp_path, monkeypatch, capsys, ratings, rankings, out
):
    spellings = _same_file_spellings(tmp_path)
    paths = [
        spellings[index] if index is not None else str(tmp_path / name)
        for index, name in [(ratings, "r.csv"), (rankings, "k.csv"), (out, "doc.json")]
    ]
    before = sorted(os.listdir(tmp_path))

    def no_sampling(*args, **kwargs):
        raise AssertionError("simulate sampled a panel it cannot write")

    monkeypatch.setattr(cli, "sample_dataset", no_sampling)
    status = run(SIMULATE + ["--ratings", paths[0], "--rankings", paths[1], "--out", paths[2]])
    assert status == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "--ratings, --rankings and --out" in captured.err
    assert sorted(os.listdir(tmp_path)) == before


def _rows_that_die_past_the_first_range(tables, seed, bounds, start, stop):
    if start > 0:
        os._exit(3)
    yield from _fit_replicates(tables, seed, bounds, start, stop)


def test_cli_reports_a_pool_process_that_dies(tmp_path, monkeypatch, capsys):
    # the second range runs in a pool process, which exits without a reply
    _, ratings, rankings = write_panel(tmp_path, n_judges=10)
    monkeypatch.setattr(bootstrap, "_fit_replicates", _rows_that_die_past_the_first_range)
    out = tmp_path / "boot.json"
    status = run(["bootstrap", "--ratings", ratings, "--rankings", rankings, "--M", "5",
                  "--B", "8", "--threads", "2", "--out", str(out)])
    assert status == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "terminated abruptly" in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["fit", "--M", "5"],
     ["bootstrap", "--M", "5", "--B", "8"],
     SIMULATE,
     ["lan-check", "--p", "0.2,0.5,0.8", "--theta", "1.5", "--judges", "30",
      "--M", "5", "--R", "3"],
     ["coverage", "--p", "0.2,0.5,0.8", "--theta", "1.5", "--judges", "20",
      "--M", "5", "--R", "2", "--B", "6"]],
    ids=lambda argv: argv[0],
)
def test_cli_writes_no_file_through_the_locale_encoding(tmp_path, argv):
    _, ratings, rankings = write_panel(tmp_path, n_judges=10)
    if argv[0] in ("fit", "bootstrap"):
        argv = argv + ["--ratings", ratings, "--rankings", rankings]
    elif argv[0] == "simulate":
        argv = argv + ["--ratings", str(tmp_path / "sim_r.csv"),
                       "--rankings", str(tmp_path / "sim_k.csv")]
    out = tmp_path / "doc.json"
    done = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-m", "mallows_binomial.cli", *argv, "--out", str(out)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(out.read_bytes())["config"]["subcommand"] == argv[0]
