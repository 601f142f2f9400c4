"""Stacked bootstrap refits against the replicate-by-replicate loop.

``bootstrap_fit`` refits a block of replicates at a time through the
estimator's stacked fit (one exhaustive screen up to 6 objects, the
best-first search beyond), with one memo of concentration solves.  The loop
that calls ``fit`` once per replicate
(``oracles.bootstrap_replicates_loop``) is the reference: the qualities,
concentrations, consensus rankings and clamp flags of every replicate must
agree bit for bit, for any replicate count, worker count and panel shape.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mallows_binomial import (
    DEFAULT_BOUNDS,
    Dataset,
    Params,
    bootstrap,
    estimation,
    fit,
    sample_dataset,
)
from mallows_binomial.bootstrap import _fan_out, _fit_replicates, _JudgeTables, bootstrap_fit

from .oracles import bootstrap_replicates_loop, small_panels
from .test_exhaustive_screen import degenerate_panels, seeded_panel

FIELDS = ("p", "theta", "consensus", "theta_clamped")


def replicate_mismatch(data, n_replicates, seed, expected=None) -> list[str]:
    """Fields on which the stacked refits differ from the loop's refits."""
    tables = _JudgeTables.from_dataset(data)
    stacked = _fan_out(_fit_replicates, n_replicates, 1, tables, seed, DEFAULT_BOUNDS)
    if expected is None:
        expected = bootstrap_replicates_loop(data, n_replicates, seed)
    return [
        f"J={data.n_objects} I={data.n_judges} B={n_replicates}: {name}"
        for name, got, want in zip(FIELDS, stacked, expected)
        if got.dtype != want.dtype or got.shape != want.shape or got.tobytes() != want.tobytes()
    ]


def result_mismatch(result, expected) -> list[str]:
    """Fields on which a ``bootstrap_fit`` result differs from the loop's refits."""
    p, theta, consensus, clamped = expected
    fields = {
        "p_samples": result.p_samples.tobytes() == p.tobytes(),
        "theta_samples": result.theta_samples.tobytes() == theta.tobytes(),
        "consensus_samples": result.consensus_samples.tobytes() == consensus.tobytes(),
        "clamp_rate": result.clamp_rate == float(clamped.mean()),
    }
    return [name for name, same in fields.items() if not same]


@pytest.mark.parametrize("n_objects", [2, 3, 4, 5, 6, 7, 8])
def test_seeded_panels_match_loop(n_objects):
    rng = np.random.default_rng(20261020 + n_objects)
    replicates = {7: 12, 8: 3}.get(n_objects, 40)
    problems = []
    for kind in range(4 if n_objects <= 6 else 1):
        data = seeded_panel(rng, n_objects, kind)
        problems += replicate_mismatch(data, replicates, seed=int(rng.integers(2**31)))
    assert not problems, problems


def test_one_object_fails_like_the_loop():
    data = Dataset(ratings=[[1], [2], [0]], rankings=[[0], [0], [0]], max_rating=3)
    with pytest.raises(ValueError, match="at least 2 objects"):
        bootstrap_replicates_loop(data, 4, seed=1)
    with pytest.raises(ValueError, match="at least 2 objects"):
        bootstrap_fit(data, n_replicates=4, seed=1)


def test_replicate_counts_around_block_edges():
    # at J = 4 a block of the screen holds 7! / 4! = 210 replicates
    assert estimation._stack_block(4) == 210
    data = sample_dataset(Params(p=[0.3, 0.45, 0.55, 0.7], theta=0.4), 60, 5, seed=71)
    expected = bootstrap_replicates_loop(data, 421, seed=73)
    problems = []
    for n_replicates in (1, 209, 210, 211, 421):
        # replicate b depends only on (seed, b): every count is a prefix
        prefix = tuple(column[:n_replicates] for column in expected)
        problems += replicate_mismatch(data, n_replicates, seed=73, expected=prefix)
    assert not problems, problems


def test_degenerate_panels_match_loop():
    problems = []
    for k, data in enumerate(degenerate_panels()):
        problems += replicate_mismatch(data, 25, seed=k)
    assert not problems, problems


@settings(max_examples=40, deadline=None)
@given(data=small_panels(), n_replicates=st.integers(1, 30), seed=st.integers(0, 2**31 - 1))
def test_small_degenerate_panels_match_loop(data, n_replicates, seed):
    assert not replicate_mismatch(data, n_replicates, seed)


@pytest.mark.parametrize("workers", [1, 2])
def test_bootstrap_fit_matches_loop_for_any_worker_count(workers):
    data = sample_dataset(Params(p=[0.2, 0.4, 0.5, 0.6, 0.8], theta=0.6), 50, 5, seed=79)
    result = bootstrap_fit(data, n_replicates=45, seed=83, workers=workers)
    assert not result_mismatch(result, bootstrap_replicates_loop(data, 45, seed=83))


@pytest.mark.parametrize("workers", [1, 2])
def test_nine_objects_refit_best_first_like_the_loop(workers):
    # past 6 objects the stacked fit runs the best-first search per replicate
    data = sample_dataset(Params(p=np.linspace(0.15, 0.85, 9), theta=0.8), 40, 4, seed=89)
    assert fit(data).method == "best_first"
    assert not replicate_mismatch(data, 20, seed=97)
    result = bootstrap_fit(data, n_replicates=20, seed=97, workers=workers)
    assert not result_mismatch(result, bootstrap_replicates_loop(data, 20, seed=97))


def test_memo_solves_theta_once_per_distinct_count(monkeypatch):
    data = sample_dataset(Params(p=[0.3, 0.45, 0.55, 0.7], theta=0.3), 80, 5, seed=101)
    calls = []
    theta_mle = estimation.theta_mle

    def counted(dbar, n_objects, bounds=DEFAULT_BOUNDS):
        calls.append(dbar)
        return theta_mle(dbar, n_objects, bounds)

    monkeypatch.setattr(estimation, "theta_mle", counted)
    _fan_out(_fit_replicates, 300, 1, _JudgeTables.from_dataset(data), 103, DEFAULT_BOUNDS)
    stacked = len(calls)
    assert stacked == len(set(calls))
    calls.clear()
    bootstrap_replicates_loop(data, 300, seed=103)
    assert stacked < len(calls) / 4


def test_six_objects_refit_one_screen_pass_per_block(monkeypatch):
    # _fit_replicates hands the screen at most one pass of statistics, and
    # the peak stays under the one-pass bound of
    # test_six_objects_pass_memory_is_bounded
    data = sample_dataset(Params(p=np.linspace(0.1, 0.9, 6), theta=0.3), 200, 5, seed=113)
    sizes = []
    fit_stack = bootstrap._fit_stack

    def spied(stack, bounds):
        sizes.append(len(stack))
        return fit_stack(stack, bounds)

    monkeypatch.setattr(bootstrap, "_fit_stack", spied)
    tables = _JudgeTables.from_dataset(data)
    tracemalloc.start()
    try:
        list(_fit_replicates(tables, 127, DEFAULT_BOUNDS, 0, 50))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sizes == [estimation._stack_block(6)] * 7 + [1]
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_seven_objects_memory_is_bounded():
    data = sample_dataset(Params(p=np.linspace(0.2, 0.8, 7), theta=0.3), 100, 5, seed=107)
    tables = _JudgeTables.from_dataset(data)
    tracemalloc.start()
    try:
        list(_fit_replicates(tables, 109, DEFAULT_BOUNDS, 0, 50))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one replicate per block: the peak does not grow with the replicate count
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"
