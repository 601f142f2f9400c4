"""Theoretical standard errors and the two Monte Carlo coverage studies."""

import json
import math

import numpy as np
import pytest

from mallows_binomial import (
    ParamBounds,
    Params,
    SufficientStats,
    distance_mean_var,
    distance_variance,
    sample_dataset,
)
from mallows_binomial.asymptotics import (
    CoverageReport,
    coverage_study,
    lan_check,
    theoretical_se,
)

SMALL = Params(p=[0.2, 0.5, 0.8], theta=1.5)


# ---------------------------------------------------------------------------
# standard errors


def test_se_p_known_value():
    se = theoretical_se(Params(p=[0.5, 0.5], theta=1.0), max_rating=1, n_judges=100)
    assert se.p == pytest.approx([0.05, 0.05])


def test_se_p_scales_with_judges_and_ratings():
    base = theoretical_se(SMALL, 5, 100)
    assert theoretical_se(SMALL, 5, 400).p == pytest.approx(base.p / 2.0)
    assert theoretical_se(SMALL, 20, 100).p == pytest.approx(base.p / 2.0)
    assert theoretical_se(SMALL, 5, 400).theta == pytest.approx(base.theta / 2.0)


def test_se_theta_literal_delta_method():
    # sqrt(sigma^2 / ((kappa')^2 I)) with kappa' = -sigma^2
    var = distance_variance(SMALL.theta, SMALL.n_objects)
    expected = math.sqrt(var / ((-var) ** 2 * 50))
    assert theoretical_se(SMALL, 5, 50).theta == pytest.approx(expected, rel=1e-12)
    assert theoretical_se(SMALL, 5, 50).theta == pytest.approx(
        1.0 / math.sqrt(var * 50), rel=1e-12
    )


def test_se_validation():
    with pytest.raises(ValueError, match="max_rating"):
        theoretical_se(SMALL, 0, 10)
    with pytest.raises(ValueError, match="judge"):
        theoretical_se(SMALL, 5, 0)


@pytest.mark.parametrize("theta", [375.0, 400.0, 700.0, 800.0])
def test_se_theta_refuses_underflowing_slope(theta):
    # (kappa')^2 underflows to zero here; the delta method has nothing to divide by
    with pytest.raises(ValueError, match=f"theta = {theta}"):
        theoretical_se(Params(p=[0.2, 0.5, 0.8], theta=theta), 5, 50)


def test_mean_distance_clt():
    # the observed mean distance, standardized by the theoretical moments,
    # should land in the 95% normal band about 95% of the time
    params = Params(p=[0.15, 0.4, 0.65, 0.9], theta=2.0)
    mean, var = distance_mean_var(params.theta, params.n_objects)
    n_judges, n_reps = 500, 400
    inside = 0
    for r in range(n_reps):
        data = sample_dataset(params, n_judges, 5, seed=10_000 + r)
        stats = SufficientStats.from_dataset(data)
        z = (stats.mean_distance(params.consensus()) - mean) / math.sqrt(var / n_judges)
        inside += abs(z) <= 1.959963984540054
    assert 0.92 <= inside / n_reps <= 0.98


# ---------------------------------------------------------------------------
# standardized-error study


def test_lan_check_small_study():
    report = lan_check(SMALL, n_judges=400, max_rating=5, n_replications=60, seed=3)
    assert report.kind == "z"
    assert report.n_replications == 60
    assert report.consensus_recovery_rate >= 0.95
    for coverage in report.p_coverage:
        assert 0.85 <= coverage <= 1.0
    assert 0.85 <= report.theta_coverage <= 1.0
    # standardized errors should look roughly standard normal
    for z_mean, z_sd in zip(report.p_z_mean, report.p_z_sd):
        assert abs(z_mean) < 0.5
        assert 0.7 <= z_sd <= 1.4
    assert abs(report.theta_z_mean) < 0.5
    assert 0.7 <= report.theta_z_sd <= 1.4


def test_lan_check_deterministic():
    a = lan_check(SMALL, 150, 5, n_replications=20, seed=11)
    b = lan_check(SMALL, 150, 5, n_replications=20, seed=11)
    assert a == b
    c = lan_check(SMALL, 150, 5, n_replications=20, seed=12)
    assert a != c


def test_lan_check_report_serializes():
    report = lan_check(SMALL, 100, 5, n_replications=10, seed=5)
    payload = json.loads(json.dumps(report.to_dict(), sort_keys=True))
    assert payload["kind"] == "z"
    assert payload["n_judges"] == 100
    assert payload["n_bootstrap"] is None
    assert len(payload["p_coverage"]) == 3
    assert payload["p_interval_width"] is None


def test_lan_check_validation():
    with pytest.raises(ValueError, match="replication"):
        lan_check(SMALL, 50, 5, n_replications=0)
    with pytest.raises(ValueError, match="alpha"):
        lan_check(SMALL, 50, 5, n_replications=5, alpha=2.0)


@pytest.mark.parametrize("theta", [60.0, 100.0])
@pytest.mark.parametrize("study", [lan_check, coverage_study])
def test_studies_refuse_true_theta_outside_the_box(study, theta):
    # every estimate is clamped to theta_max = 50: once reported as full
    # theta coverage from a standard error of about 5e20 (theta = 100)
    params = Params(p=[0.2, 0.5, 0.8], theta=theta)
    with pytest.raises(ValueError, match=rf"theta = {theta} .*\[1e-06, 50\.0\]"):
        study(params, 50, 5, n_replications=3)


def test_studies_refuse_true_theta_below_a_custom_box():
    bounds = ParamBounds(theta_min=2.0, theta_max=10.0)
    with pytest.raises(ValueError, match=r"theta = 1\.5 .*\[2\.0, 10\.0\]"):
        lan_check(SMALL, 50, 5, n_replications=3, bounds=bounds)
    lan_check(Params(p=[0.2, 0.5, 0.8], theta=10.0), 20, 5, n_replications=2, bounds=bounds)


# ---------------------------------------------------------------------------
# bootstrap coverage study


def test_coverage_study_small():
    report = coverage_study(
        SMALL,
        n_judges=80,
        max_rating=5,
        n_replications=30,
        n_bootstrap=60,
        alpha=0.10,
        seed=7,
    )
    assert report.kind == "bootstrap"
    assert report.n_bootstrap == 60
    for coverage in report.p_coverage:
        assert 0.7 <= coverage <= 1.0
    assert 0.7 <= report.theta_coverage <= 1.0
    assert all(w > 0.0 for w in report.p_interval_width)
    assert report.theta_interval_width > 0.0
    assert 0.0 <= report.theta_clamp_rate <= 1.0
    assert report.consensus_recovery_rate >= 0.9
    payload = json.loads(json.dumps(report.to_dict(), sort_keys=True))
    assert payload["p_z_mean"] is None
    assert payload["theta_interval_width"] > 0.0


def test_coverage_study_deterministic():
    kwargs = dict(n_judges=40, max_rating=5, n_replications=8, n_bootstrap=25, seed=13)
    assert coverage_study(SMALL, **kwargs) == coverage_study(SMALL, **kwargs)


def test_coverage_study_starts_one_pool(pool_starts):
    # one pool per study, with one process beside the caller, and the pool
    # changes no number of the report
    kwargs = dict(n_judges=40, max_rating=5, n_replications=4, n_bootstrap=25, seed=19)
    parallel = coverage_study(SMALL, workers=2, **kwargs)
    assert pool_starts == [1]
    assert parallel == coverage_study(SMALL, workers=1, **kwargs)
    assert pool_starts == [1]


@pytest.mark.parametrize(
    "size, message",
    [
        (dict(n_judges=0), "judge"),
        (dict(max_rating=0), "max_rating"),
        # refused, not truncated to one process or rounded to two
        (dict(workers=1.9), r"workers must be a positive integer, got 1\.9$"),
    ],
    ids=["n_judges", "max_rating", "workers"],
)
def test_coverage_study_refuses_panel_size_before_any_pool(pool_starts, size, message):
    kwargs = dict(n_judges=40, max_rating=5, n_replications=4, n_bootstrap=5, workers=2)
    with pytest.raises(ValueError, match=message):
        coverage_study(SMALL, **{**kwargs, **size})
    assert pool_starts == []


def test_coverage_interval_width_scales_with_judges():
    # percentile intervals should shrink like 1/sqrt(I)
    narrow = coverage_study(
        SMALL, n_judges=400, max_rating=5, n_replications=10, n_bootstrap=80, seed=17
    )
    wide = coverage_study(
        SMALL, n_judges=100, max_rating=5, n_replications=10, n_bootstrap=80, seed=17
    )
    for w_wide, w_narrow in zip(wide.p_interval_width, narrow.p_interval_width):
        assert w_wide / w_narrow == pytest.approx(2.0, rel=0.25)
    assert wide.theta_interval_width / narrow.theta_interval_width == pytest.approx(
        2.0, rel=0.3
    )


def test_coverage_study_validation():
    with pytest.raises(ValueError, match="alpha"):
        coverage_study(SMALL, 20, 5, n_replications=2, n_bootstrap=5, alpha=0.0)


def test_report_equality_is_field_based():
    report = CoverageReport(
        kind="z",
        p_true=(0.2,),
        theta_true=1.0,
        n_objects=1,
        n_judges=5,
        max_rating=2,
        n_replications=1,
        alpha=0.05,
        seed=0,
        consensus_recovery_rate=1.0,
        p_coverage=(1.0,),
        theta_coverage=1.0,
    )
    assert report.to_dict()["theta_clamp_rate"] is None
    assert report.kind == "z"
