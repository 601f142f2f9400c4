"""The memo of concentration solves, keyed on ``theta_mle``'s own arguments.

Fits that share a ``_sharing_solves`` block share one memo, whatever their
judge count, object count or box: a hit returns what the solve would have,
so every result is bit for bit the one a separate fit gives.  A replication
range of ``coverage_study`` or ``lan_check`` is one block, so it solves each
argument tuple once.
"""

import numpy as np
import pytest

from mallows_binomial import (
    DEFAULT_BOUNDS,
    Dataset,
    ParamBounds,
    Params,
    SufficientStats,
    estimation,
    fit,
    sample_dataset,
)
from mallows_binomial.asymptotics import coverage_study, lan_check
from mallows_binomial.estimation import _fit_stack, _sharing_solves

FIELDS = ("consensus", "p", "theta", "theta_clamped", "loglik", "candidates_profiled")


def same_bits(a, b) -> bool:
    return all(np.array_equal(getattr(a, name), getattr(b, name)) for name in FIELDS)


def panels():
    """Ten judges, then the same ten plus ten who rank its consensus and
    repeat its ratings: the two panels win with the same disagreement count."""
    small = sample_dataset(Params(p=[0.2, 0.4, 0.6, 0.8], theta=0.8), 10, 5, seed=3)
    consensus = fit(small).consensus
    large = Dataset(
        np.vstack([small.ratings, small.ratings]),
        np.vstack([small.rankings, np.tile(consensus, (10, 1))]),
        small.max_rating,
    )
    return [SufficientStats.from_dataset(data) for data in (small, large)]


def test_panels_share_the_winning_count_at_different_judge_counts():
    small, large = panels()
    a, b = fit(small), fit(large)
    assert np.array_equal(a.consensus, b.consensus)
    assert small._disagreements_with(a.consensus) == large._disagreements_with(b.consensus)
    assert (small.n_judges, large.n_judges) == (10, 20)
    assert a.theta != b.theta


def test_one_block_serves_judge_counts_and_boxes_exactly():
    stats = panels()
    boxes = [DEFAULT_BOUNDS, ParamBounds(theta_min=0.01, theta_max=0.9)]
    alone = [fit(s, box) for box in boxes for s in stats]
    with _sharing_solves():
        shared = [_fit_stack([s], box)[0] for box in boxes for s in stats]
    assert alone[0].theta != alone[2].theta  # the box changes the answer
    for a, b in zip(alone, shared):
        assert same_bits(a, b)


def count_solves(monkeypatch) -> list:
    """The argument tuple of every ``theta_mle`` call the estimator makes."""
    calls = []
    theta_mle = estimation.theta_mle

    def counted(dbar, n_objects, bounds=DEFAULT_BOUNDS):
        calls.append((dbar, n_objects, bounds))
        return theta_mle(dbar, n_objects, bounds)

    monkeypatch.setattr(estimation, "theta_mle", counted)
    return calls


@pytest.mark.parametrize(
    "study, extra",
    [(coverage_study, dict(n_bootstrap=40, workers=1)), (lan_check, {})],
    ids=["coverage_study", "lan_check"],
)
def test_study_range_solves_each_argument_tuple_once(monkeypatch, study, extra):
    kwargs = dict(n_judges=40, max_rating=5, n_replications=6, seed=23, **extra)
    truth = Params(p=[0.2, 0.5, 0.8], theta=1.5)
    plain = study(truth, **kwargs)
    calls = count_solves(monkeypatch)
    assert study(truth, **kwargs) == plain
    assert calls and len(calls) == len(set(calls))
