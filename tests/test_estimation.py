"""Estimators against grid-search oracles, plus search-equivalence checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mallows_binomial import (
    DEFAULT_BOUNDS,
    Dataset,
    ParamBounds,
    Params,
    SufficientStats,
    constrained_p_mle,
    expected_distance,
    fit,
    fit_best_first,
    fit_exhaustive,
    log_likelihood,
    order_of,
    profile_loglik,
    sample_dataset,
    theta_mle,
)

from .oracles import (
    binomial_term,
    concentration_grid,
    constrained_binomial_grid,
    profile_grid,
    small_panels,
)

WELL_SEPARATED = Params(p=[0.15, 0.4, 0.65, 0.9], theta=2.0)


def random_dataset(rng, n_judges, n_objects, max_rating):
    rankings = np.array([rng.permutation(n_objects) for _ in range(n_judges)])
    ratings = rng.integers(0, max_rating + 1, size=(n_judges, n_objects))
    return Dataset(ratings=ratings, rankings=rankings, max_rating=max_rating)


# ---------------------------------------------------------------------------
# order-constrained quality estimate


def test_p_mle_keeps_monotone_means():
    p = constrained_p_mle(np.array([1.0, 3.0, 5.0]), 10, [0, 1, 2])
    assert p == pytest.approx([0.1, 0.3, 0.5])


def test_p_mle_pools_violators():
    # means 0.2 and 0.4 disagree with the order (1, 0): both pool to 0.3
    p = constrained_p_mle(np.array([2.0, 4.0]), 10, [1, 0])
    assert p == pytest.approx([0.3, 0.3])


def test_p_mle_pools_chain():
    p = constrained_p_mle(np.array([5.0, 1.0, 3.0]), 10, [0, 1, 2])
    assert p == pytest.approx([0.3, 0.3, 0.3])


def test_p_mle_clamps_to_box():
    bounds = ParamBounds()
    p = constrained_p_mle(np.array([0.0, 10.0]), 10, [0, 1], bounds)
    assert p[0] == bounds.p_min
    assert p[1] == bounds.p_max


def test_p_mle_respects_order_argument():
    xbar = np.array([4.0, 1.0, 2.5])
    p = constrained_p_mle(xbar, 5, [1, 2, 0])
    # means already ascend along (1, 2, 0): nothing pools
    assert p == pytest.approx([0.8, 0.2, 0.5])


@settings(deadline=None, max_examples=60)
@given(
    st.integers(2, 5).flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n),
            st.permutations(range(n)),
        )
    )
)
def test_p_mle_monotone_inside_box(case):
    xbar, order = case
    p = constrained_p_mle(np.array(xbar), 5, list(order))
    assert np.all(np.diff(p[list(order)]) >= 0.0)
    assert np.all(p >= DEFAULT_BOUNDS.p_min) and np.all(p <= DEFAULT_BOUNDS.p_max)


@settings(deadline=None, max_examples=40)
@given(
    st.integers(2, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(0.2, 4.8), min_size=n, max_size=n),
            st.permutations(range(n)),
            st.lists(st.floats(0.01, 0.99), min_size=n, max_size=n),
        )
    )
)
def test_p_mle_beats_random_feasible_points(case):
    # the analytic solution must dominate arbitrary order-respecting vectors
    xbar, order, raw = case
    xbar = np.array(xbar)
    order = list(order)
    p_hat = constrained_p_mle(xbar, 5, order)
    feasible = np.empty(len(order))
    feasible[order] = np.sort(raw)
    assert binomial_term(p_hat, xbar, 5) >= binomial_term(feasible, xbar, 5) - 1e-9


def test_p_mle_matches_grid_oracle():
    rng = np.random.default_rng(42)
    for _ in range(5):
        xbar = rng.uniform(0.5, 4.5, size=3)
        order = rng.permutation(3).tolist()
        p_hat = constrained_p_mle(xbar, 5, order)
        p_grid = constrained_binomial_grid(
            xbar, 5, order, DEFAULT_BOUNDS.p_min, DEFAULT_BOUNDS.p_max
        )
        assert p_hat == pytest.approx(p_grid, abs=2e-3)
        assert binomial_term(p_hat, xbar, 5) >= binomial_term(p_grid, xbar, 5) - 1e-9


# ---------------------------------------------------------------------------
# concentration estimate


@pytest.mark.parametrize("theta", [0.2, 1.0, 3.0])
@pytest.mark.parametrize("n", [3, 4, 6])
def test_theta_mle_round_trip(theta, n):
    est, clamped = theta_mle(expected_distance(theta, n), n)
    assert not clamped
    assert est == pytest.approx(theta, rel=1e-9)


def test_theta_mle_clamps_unanimous():
    # zero observed distance: no finite root, clamp to the upper edge
    est, clamped = theta_mle(0.0, 4)
    assert clamped and est == DEFAULT_BOUNDS.theta_max


def test_theta_mle_clamps_anti_consensus():
    # mean distance above the uniform mean: clamp to the lower edge
    est, clamped = theta_mle(3.5, 4)
    assert clamped and est == DEFAULT_BOUNDS.theta_min
    est, clamped = theta_mle(expected_distance(DEFAULT_BOUNDS.theta_min, 4), 4)
    assert clamped and est == DEFAULT_BOUNDS.theta_min


def test_theta_mle_rejects_negative():
    with pytest.raises(ValueError, match="non-negative"):
        theta_mle(-0.1, 4)


def test_theta_mle_monotone_in_dbar():
    estimates = [theta_mle(d, 5)[0] for d in np.linspace(0.3, 4.5, 15)]
    assert np.all(np.diff(estimates) < 0.0)


def test_theta_mle_matches_grid_oracle():
    for dbar in (0.4, 1.1, 2.3):
        est, _ = theta_mle(dbar, 4)
        grid = concentration_grid(
            dbar, 4, DEFAULT_BOUNDS.theta_min, DEFAULT_BOUNDS.theta_max
        )
        assert est == pytest.approx(grid, abs=1e-3)


def test_theta_mle_custom_bounds():
    bounds = ParamBounds(theta_min=0.5, theta_max=2.0)
    est, clamped = theta_mle(0.01, 4, bounds)
    assert clamped and est == 2.0


# ---------------------------------------------------------------------------
# profile for one consensus


@pytest.mark.parametrize("seed", range(5))
def test_profile_matches_grid_oracle(seed):
    rng = np.random.default_rng(seed)
    data = random_dataset(rng, int(rng.integers(5, 30)), 3, 5)
    order = rng.permutation(3)
    got = profile_loglik(data, order)
    p_grid, theta_grid, ll_grid = profile_grid(
        data.rankings, data.ratings, order.tolist(), 5, DEFAULT_BOUNDS
    )
    assert got.p == pytest.approx(p_grid, abs=2e-3)
    assert got.theta == pytest.approx(theta_grid, abs=1e-3)
    assert got.loglik == pytest.approx(ll_grid, abs=1e-3)
    assert got.loglik >= ll_grid - 1e-9


@settings(deadline=None, max_examples=60)
@given(data=small_panels(), draw=st.data())
def test_profile_on_degenerate_panels(data, draw):
    consensus = draw.draw(st.permutations(range(data.n_objects)))
    got = profile_loglik(data, consensus)
    bounds = DEFAULT_BOUNDS
    expected = log_likelihood(data, Params(p=got.p, theta=got.theta), consensus)
    assert abs(got.loglik - expected) <= 1e-12 * abs(expected)
    assert np.all(np.diff(got.p[consensus]) >= 0.0)
    assert np.all((got.p >= bounds.p_min) & (got.p <= bounds.p_max))
    assert bounds.theta_min <= got.theta <= bounds.theta_max


def test_profile_reports_clamping():
    rankings = np.tile(np.arange(3), (10, 1))
    ratings = np.tile(np.array([0, 2, 4]), (10, 1))
    data = Dataset(ratings=ratings, rankings=rankings, max_rating=4)
    result = profile_loglik(data, [0, 1, 2])
    assert result.theta_clamped
    assert result.theta == DEFAULT_BOUNDS.theta_max


# ---------------------------------------------------------------------------
# full fit: exhaustive


def test_fit_recovers_true_consensus():
    params = Params(p=[0.15, 0.4, 0.65, 0.9], theta=5.0)
    hits = 0
    for seed in range(100):
        data = sample_dataset(params, 200, 5, seed=seed)
        result = fit_exhaustive(data)
        hits += np.array_equal(result.consensus, params.consensus())
    assert hits >= 99


def test_fit_tie_broken_lexicographically():
    # two judges in perfect opposition, identical ratings: both orders tie
    data = Dataset(
        ratings=[[2, 2], [2, 2]],
        rankings=[[0, 1], [1, 0]],
        max_rating=4,
    )
    result = fit_exhaustive(data)
    assert result.consensus.tolist() == [0, 1]
    flipped = fit_best_first(data)
    assert flipped.consensus.tolist() == [0, 1]


def test_fit_exhaustive_cap():
    rng = np.random.default_rng(0)
    data = random_dataset(rng, 4, 9, 3)
    with pytest.raises(ValueError, match="fit_best_first"):
        fit_exhaustive(data)


def test_fit_counts_candidates():
    rng = np.random.default_rng(1)
    data = random_dataset(rng, 10, 4, 3)
    result = fit_exhaustive(data)
    assert result.candidates_profiled == 24
    assert result.nodes_expanded == 0


def test_fit_consensus_orders_p():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        data = random_dataset(rng, int(rng.integers(3, 25)), 4, 5)
        result = fit_exhaustive(data)
        assert result.params_consistent()


def test_fit_theta_clamped_on_unanimous_rankings():
    rng = np.random.default_rng(5)
    rankings = np.tile([2, 0, 1], (12, 1))
    ratings = rng.integers(0, 5, size=(12, 3))
    data = Dataset(ratings=ratings, rankings=rankings, max_rating=4)
    result = fit_exhaustive(data)
    assert result.theta_clamped
    assert result.theta == DEFAULT_BOUNDS.theta_max


# ---------------------------------------------------------------------------
# full fit: best-first equals exhaustive


@pytest.mark.parametrize("seed", range(30))
def test_best_first_equals_exhaustive(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(3, 6))
    n_judges = int(rng.integers(5, 51))
    if rng.random() < 0.5:
        data = random_dataset(rng, n_judges, n, int(rng.integers(1, 7)))
    else:
        p0 = np.sort(rng.uniform(0.05, 0.95, size=n))
        params = Params(p=p0, theta=float(rng.uniform(0.1, 4.0)))
        data = sample_dataset(params, n_judges, 5, seed=int(rng.integers(1 << 30)))
    exhaustive = fit_exhaustive(data)
    best_first = fit_best_first(data)
    assert np.array_equal(exhaustive.consensus, best_first.consensus)
    assert exhaustive.loglik == best_first.loglik
    assert exhaustive.p == pytest.approx(best_first.p, rel=1e-12)
    assert exhaustive.theta == best_first.theta


def test_best_first_prunes_concentrated_data():
    params = Params(p=[0.1, 0.25, 0.45, 0.6, 0.8, 0.95], theta=4.0)
    data = sample_dataset(params, 150, 10, seed=99)
    result = fit_best_first(data)
    assert np.array_equal(result.consensus, params.consensus())
    # 6 objects: 720 permutations; strong signal needs only a handful
    assert result.candidates_profiled < 100


def test_best_first_two_objects():
    data = Dataset(ratings=[[0, 3], [1, 4]], rankings=[[0, 1], [0, 1]], max_rating=5)
    result = fit_best_first(data)
    assert result.candidates_profiled <= 2
    assert result.consensus.tolist() == [0, 1]


def test_fit_equivariant_under_relabeling():
    params = Params(p=[0.15, 0.4, 0.65, 0.9], theta=2.0)
    data = sample_dataset(params, 80, 5, seed=11)
    relabel = np.array([2, 0, 3, 1])
    relabeled = Dataset(
        ratings=data.ratings[:, np.argsort(relabel)],
        rankings=relabel[data.rankings],
        max_rating=data.max_rating,
    )
    base = fit_exhaustive(data)
    moved = fit_exhaustive(relabeled)
    assert np.array_equal(moved.consensus, relabel[base.consensus])
    assert moved.p == pytest.approx(base.p[np.argsort(relabel)], rel=1e-12)
    assert moved.theta == pytest.approx(base.theta, rel=1e-12)
    assert moved.loglik == pytest.approx(base.loglik, rel=1e-12)


def test_theta_estimate_tracks_dispersion():
    tight = sample_dataset(Params(p=[0.2, 0.5, 0.8], theta=3.0), 300, 5, seed=21)
    loose = sample_dataset(Params(p=[0.2, 0.5, 0.8], theta=0.5), 300, 5, seed=22)
    assert fit_exhaustive(tight).theta > fit_exhaustive(loose).theta


# ---------------------------------------------------------------------------
# dispatch


def test_fit_dispatch():
    rng = np.random.default_rng(2)
    data = random_dataset(rng, 8, 3, 4)
    assert fit(data).method == "exhaustive"
    assert fit(data, method="best-first").method == "best_first"
    # past 8 objects "auto" runs the best-first search
    nine = sample_dataset(Params(p=np.linspace(0.1, 0.9, 9), theta=1.0), 30, 4, seed=2)
    auto, best_first = fit(nine), fit_best_first(nine)
    assert auto.method == "best_first"
    assert auto.nodes_expanded == best_first.nodes_expanded
    assert auto.loglik == best_first.loglik
    with pytest.raises(ValueError, match="unknown method"):
        fit(data, method="grid")


def test_fit_accepts_sufficient_stats():
    rng = np.random.default_rng(3)
    data = random_dataset(rng, 12, 4, 5)
    stats = SufficientStats.from_dataset(data)
    assert fit(stats).loglik == fit(data).loglik
