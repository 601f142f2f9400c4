"""End-to-end acceptance checks, one per release gate.

Each test measures wall time, checks the stated tolerance, and always prints
a single ``[acceptance k/7] ... PASS/FAIL`` line (bypassing pytest capture)
so a plain ``pytest tests/test_acceptance.py`` run shows the scorecard.
The whole file is deterministic: every stochastic check runs from a fixed
seed.  Expect about two minutes of wall time; the coverage studies in
criteria 5 and 6 dominate.
"""

from __future__ import annotations

import itertools
import time
from pathlib import Path

import numpy as np

from mallows_binomial import (
    DEFAULT_BOUNDS,
    Dataset,
    Params,
    distance_mean_var,
    distance_variance,
    expected_distance,
    fit_best_first,
    fit_exhaustive,
    profile_loglik,
    psi,
    sample_dataset,
    sample_mallows,
    spawn_rng,
)
from mallows_binomial.asymptotics import coverage_study, lan_check
from mallows_binomial.cli import run

from .oracles import (
    distance_moments_exhaustive,
    mallows_pmf_exhaustive,
    profile_grid,
    psi_exhaustive,
)

THETA_GRID = (0.1, 0.5, 1.0, 2.0, 5.0)
SIZES = (2, 3, 4, 5, 6)
WELL_SEPARATED = Params(p=[0.15, 0.4, 0.65, 0.9], theta=2.0)


def _finish(capsys, index, name, ok, detail, elapsed, budget):
    passed = ok and elapsed < budget
    line = (
        f"[acceptance {index}/7] {name}: {'PASS' if passed else 'FAIL'} "
        f"({detail}; {elapsed:.1f}s of {budget:.0f}s budget)"
    )
    with capsys.disabled():
        print(line, flush=True)
    assert passed, line


def test_criterion_1_normalizer_matches_exhaustive_sum(capsys):
    start = time.perf_counter()
    worst = 0.0
    for n, theta in itertools.product(SIZES, THETA_GRID):
        exact = psi_exhaustive(theta, n)
        worst = max(worst, abs(psi(theta, n) - exact) / exact)
    elapsed = time.perf_counter() - start
    _finish(
        capsys, 1, "product-form normalizer vs exhaustive sum",
        worst < 1e-10, f"max rel err {worst:.2e}, tol 1e-10", elapsed, 10.0,
    )


def test_criterion_2_distance_moments_match_exhaustive(capsys):
    start = time.perf_counter()
    worst = 0.0
    worst_deriv = 0.0
    mean_mismatch = 0
    for n, theta in itertools.product(SIZES, THETA_GRID):
        mean_exact, var_exact = distance_moments_exhaustive(theta, n)
        mean, var = distance_mean_var(theta, n)
        worst = max(
            worst,
            abs(mean - mean_exact) / mean_exact,
            abs(var - var_exact) / var_exact,
        )
        # the joint helper must reproduce the scalar accessors bit for bit
        if mean != expected_distance(theta, n) or var != distance_variance(theta, n):
            mean_mismatch += 1
        h = 1e-6 * max(1.0, theta)
        deriv = (
            expected_distance(theta + h, n) - expected_distance(theta - h, n)
        ) / (2.0 * h)
        worst_deriv = max(worst_deriv, abs(deriv + var) / var)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and worst_deriv < 1e-6 and mean_mismatch == 0
    _finish(
        capsys, 2, "distance mean/variance vs exhaustive",
        ok,
        f"max rel err {worst:.2e} (tol 1e-10), "
        f"mean-slope-vs-variance err {worst_deriv:.2e} (tol 1e-6)",
        elapsed, 10.0,
    )


def test_criterion_3_pruned_search_matches_exhaustive(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(20250818)
    consensus_mismatch = 0
    worst_gap = 0.0
    worst_grid_gap = 0.0
    n_model, n_adversarial, n_grid = 100, 20, 0
    for case in range(n_model + n_adversarial):
        n_objects = int(rng.integers(3, 6))
        n_judges = int(rng.integers(5, 51))
        if case < n_model:
            truth = Params(
                p=np.sort(rng.uniform(0.05, 0.95, size=n_objects)),
                theta=float(rng.uniform(0.1, 4.0)),
            )
            data = sample_dataset(
                truth, n_judges, 5, seed=int(rng.integers(2**32))
            )
        else:
            # arbitrary panels, not drawn from the model at all
            data = Dataset(
                ratings=rng.integers(0, 6, size=(n_judges, n_objects)),
                rankings=np.array(
                    [rng.permutation(n_objects) for _ in range(n_judges)]
                ),
                max_rating=5,
            )
        full = fit_exhaustive(data)
        pruned = fit_best_first(data)
        if not np.array_equal(full.consensus, pruned.consensus):
            consensus_mismatch += 1
        worst_gap = max(worst_gap, abs(full.loglik - pruned.loglik))
        if n_objects == 3 and n_grid < 25:
            order = [int(v) for v in rng.permutation(3)]
            got = profile_loglik(data, order)
            _, _, grid_ll = profile_grid(
                data.rankings, data.ratings, order, 5, DEFAULT_BOUNDS
            )
            worst_grid_gap = max(worst_grid_gap, abs(got.loglik - grid_ll))
            n_grid += 1
    elapsed = time.perf_counter() - start
    ok = (
        consensus_mismatch == 0
        and worst_gap <= 1e-9
        and n_grid >= 10
        and worst_grid_gap <= 1e-3
    )
    _finish(
        capsys, 3, "best-first search vs exhaustive on 120 random panels",
        ok,
        f"{consensus_mismatch} consensus mismatches, "
        f"max loglik gap {worst_gap:.2e} (tol 1e-9), "
        f"max gap to dense grid over {n_grid} profiles {worst_grid_gap:.2e} (tol 1e-3)",
        elapsed, 300.0,
    )


def test_criterion_4_sampler_matches_exact_pmf(capsys):
    start = time.perf_counter()
    n_draws = 1_000_000
    draws = sample_mallows((0, 1, 2, 3), 1.0, n_draws, spawn_rng(424242))
    codes = draws @ (4 ** np.arange(4))
    counts = np.bincount(codes, minlength=4**4)
    pmf = mallows_pmf_exhaustive((0, 1, 2, 3), 1.0)
    matched = 0
    worst = 0.0
    for perm, prob in pmf.items():
        code = sum(v * 4**i for i, v in enumerate(perm))
        worst = max(worst, abs(counts[code] / n_draws - prob))
        matched += int(counts[code])
    # any draw that is not a permutation would leave mass outside the support
    worst = max(worst, (n_draws - matched) / n_draws)
    elapsed = time.perf_counter() - start
    _finish(
        capsys, 4, "sequential-insertion sampler vs exact pmf (1e6 draws)",
        worst < 5e-3, f"max abs pmf error {worst:.2e}, tol 5e-3", elapsed, 60.0,
    )


def test_criterion_5_standardized_errors_cover_normally(capsys):
    start = time.perf_counter()
    report = lan_check(
        WELL_SEPARATED,
        n_judges=2000,
        max_rating=5,
        n_replications=500,
        alpha=0.05,
        seed=314159,
    )
    elapsed = time.perf_counter() - start
    coverages = [float(c) for c in report.p_coverage] + [report.theta_coverage]
    ok = (
        all(0.92 <= c <= 0.97 for c in coverages)
        and report.consensus_recovery_rate >= 0.99
    )
    _finish(
        capsys, 5, "normal-band coverage of standardized errors",
        ok,
        f"coverage {min(coverages):.3f}..{max(coverages):.3f} (band 0.92..0.97), "
        f"consensus recovery {report.consensus_recovery_rate:.3f} (need >=0.99)",
        elapsed, 600.0,
    )


def test_criterion_6_bootstrap_intervals_cover(capsys):
    start = time.perf_counter()
    report = coverage_study(
        WELL_SEPARATED,
        n_judges=200,
        max_rating=5,
        n_replications=300,
        n_bootstrap=200,
        alpha=0.10,
        seed=271828,
    )
    elapsed = time.perf_counter() - start
    coverages = [float(c) for c in report.p_coverage] + [report.theta_coverage]
    ok = all(0.85 <= c <= 0.95 for c in coverages)
    _finish(
        capsys, 6, "bootstrap percentile interval coverage",
        ok,
        f"coverage {min(coverages):.3f}..{max(coverages):.3f} (band 0.85..0.95)",
        elapsed, 1800.0,
    )


def test_criterion_7_seeded_runs_are_byte_identical(capsys, tmp_path):
    start = time.perf_counter()
    truth = ["--p", "0.15,0.4,0.65,0.9", "--theta", "2.0", "--M", "5"]
    ratings = str(tmp_path / "panel_ratings.csv")
    rankings = str(tmp_path / "panel_rankings.csv")

    def snapshot(argv, paths):
        assert run(argv) == 0
        return tuple(Path(p).read_bytes() for p in paths)

    stable = []

    sim_out = tmp_path / "sim.json"
    sim = ["simulate", *truth, "--judges", "40", "--seed", "11",
           "--ratings", ratings, "--rankings", rankings, "--out", str(sim_out)]
    sim_paths = [ratings, rankings, sim_out]
    stable.append(snapshot(sim, sim_paths) == snapshot(sim, sim_paths))

    fit_out = tmp_path / "fit.json"
    fit = ["fit", "--ratings", ratings, "--rankings", rankings,
           "--M", "5", "--out", str(fit_out)]
    stable.append(snapshot(fit, [fit_out]) == snapshot(fit, [fit_out]))

    boot_out = tmp_path / "boot.json"
    boot = ["bootstrap", "--ratings", ratings, "--rankings", rankings,
            "--M", "5", "--B", "64", "--alpha", "0.1", "--seed", "7",
            "--out", str(boot_out)]
    one = snapshot(boot + ["--threads", "1"], [boot_out])
    two = snapshot(boot + ["--threads", "2"], [boot_out])
    stable.append(one == two == snapshot(boot + ["--threads", "1"], [boot_out]))

    lan_out = tmp_path / "lan.json"
    lan = ["lan-check", *truth, "--judges", "120", "--R", "40",
           "--seed", "5", "--out", str(lan_out)]
    stable.append(snapshot(lan, [lan_out]) == snapshot(lan, [lan_out]))

    cov_out = tmp_path / "cov.json"
    cov = ["coverage", *truth, "--judges", "30", "--R", "8", "--B", "24",
           "--seed", "5", "--out", str(cov_out)]
    one = snapshot(cov + ["--threads", "1"], [cov_out])
    two = snapshot(cov + ["--threads", "2"], [cov_out])
    stable.append(one == two)

    elapsed = time.perf_counter() - start
    names = ("simulate", "fit", "bootstrap", "lan-check", "coverage")
    broken = [name for name, good in zip(names, stable) if not good]
    _finish(
        capsys, 7, "seeded commands byte-identical across runs and thread counts",
        not broken,
        "unstable: " + ", ".join(broken) if broken else "5 commands stable",
        elapsed, 120.0,
    )
