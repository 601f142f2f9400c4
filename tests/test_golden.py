"""Committed CLI documents, compared byte for byte.

Every file under ``tests/golden/`` was written by the command sequence in
``CASES``, run in one fresh directory with relative paths so that the
documents' echoed configuration is machine-independent.  The reference
files were recorded before the exhaustive search was batched and the
bootstrap switched to multiplicity-weighted statistics, and the J = 9 fits
before the best-first search bounded a node's children in one batch; every
such change must leave every byte as it was.  J = 9 is past the largest
panel the exhaustive screen takes, so those fits run the best-first search
and lock ``nodes_expanded`` and ``candidates_profiled`` too.  Re-record
(``PYTHONPATH=src python -m tests.test_golden``) only for a deliberate,
documented change of the output contract, such as the removal of the
``--exhaustive-cap`` flag, which deleted its line from every echoed
configuration, or the exact rating bound of the best-first search, which
changed only the J = 9 fits' two search counts.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

from mallows_binomial.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"

J4 = ["--p", "0.15,0.4,0.65,0.9", "--theta", "2.0", "--M", "5"]
J6 = ["--p", "0.2,0.3,0.45,0.5,0.7,0.75", "--theta", "0.6", "--M", "4"]
# near-null: hundreds of best-first nodes, so the search counts are locked too
J9 = ["--p", "0.46,0.47,0.48,0.49,0.5,0.51,0.52,0.53,0.54", "--theta", "0.1", "--M", "5"]

# (argv, files the command writes); later commands read earlier outputs
CASES = (
    (
        ["simulate", *J4, "--judges", "40", "--seed", "11",
         "--ratings", "j4_ratings.csv", "--rankings", "j4_rankings.csv",
         "--out", "simulate_j4.json"],
        ("simulate_j4.json", "j4_ratings.csv", "j4_rankings.csv"),
    ),
    (
        ["simulate", *J6, "--judges", "30", "--seed", "3",
         "--ratings", "j6_ratings.csv", "--rankings", "j6_rankings.csv",
         "--out", "simulate_j6.json"],
        ("simulate_j6.json", "j6_ratings.csv", "j6_rankings.csv"),
    ),
    (
        ["simulate", *J9, "--judges", "60", "--seed", "1",
         "--ratings", "j9_ratings.csv", "--rankings", "j9_rankings.csv",
         "--out", "simulate_j9.json"],
        ("simulate_j9.json", "j9_ratings.csv", "j9_rankings.csv"),
    ),
    (
        ["fit", "--ratings", "j4_ratings.csv", "--rankings", "j4_rankings.csv",
         "--M", "5", "--out", "fit_j4.json"],
        ("fit_j4.json",),
    ),
    (
        ["fit", "--ratings", "j6_ratings.csv", "--rankings", "j6_rankings.csv",
         "--M", "4", "--out", "fit_j6.json"],
        ("fit_j6.json",),
    ),
    (
        ["fit", "--ratings", "j6_ratings.csv", "--rankings", "j6_rankings.csv",
         "--M", "4", "--format", "csv", "--out", "fit_j6.csv"],
        ("fit_j6.csv",),
    ),
    (
        ["fit", "--ratings", "j9_ratings.csv", "--rankings", "j9_rankings.csv",
         "--M", "5", "--out", "fit_j9.json"],
        ("fit_j9.json",),
    ),
    (
        ["fit", "--ratings", "j9_ratings.csv", "--rankings", "j9_rankings.csv",
         "--M", "5", "--format", "csv", "--out", "fit_j9.csv"],
        ("fit_j9.csv",),
    ),
    (
        ["bootstrap", "--ratings", "j4_ratings.csv", "--rankings", "j4_rankings.csv",
         "--M", "5", "--B", "50", "--alpha", "0.1", "--seed", "7",
         "--out", "bootstrap_j4.json"],
        ("bootstrap_j4.json",),
    ),
    (
        ["bootstrap", "--ratings", "j6_ratings.csv", "--rankings", "j6_rankings.csv",
         "--M", "4", "--B", "10", "--alpha", "0.2", "--seed", "2",
         "--format", "csv", "--out", "bootstrap_j6.csv"],
        ("bootstrap_j6.csv",),
    ),
    (
        ["lan-check", *J4, "--judges", "60", "--R", "20", "--seed", "5",
         "--out", "lan_check.json"],
        ("lan_check.json",),
    ),
    (
        ["coverage", *J4, "--judges", "30", "--R", "4", "--B", "20", "--seed", "5",
         "--out", "coverage.json"],
        ("coverage.json",),
    ),
)


def _run_all(directory: Path) -> list[str]:
    """Run every case inside ``directory``; return the files in case order."""
    written = []
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for argv, files in CASES:
            status = run(argv)
            if status != 0:
                raise RuntimeError(f"{' '.join(argv)} exited with status {status}")
            written += files
    finally:
        os.chdir(cwd)
    return written


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    _run_all(directory)
    return directory


@pytest.mark.parametrize("name", [name for _, files in CASES for name in files])
def test_cli_document_matches_golden(fresh, name):
    assert (fresh / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_golden_directory_has_no_strays():
    expected = {name for _, files in CASES for name in files}
    assert {path.name for path in GOLDEN.iterdir()} == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    print("\n".join(_run_all(GOLDEN)), file=sys.stderr)
