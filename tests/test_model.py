"""Closed-form model quantities against brute-force oracles and known values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mallows_binomial import (
    Dataset,
    ParamBounds,
    Params,
    SufficientStats,
    as_ranking,
    distance_mean_var,
    distance_variance,
    expected_distance,
    kendall_distance,
    log_likelihood,
    log_psi,
    max_kendall_distance,
    order_of,
    psi,
)

from mallows_binomial.asymptotics import coverage_study, lan_check, theoretical_se
from mallows_binomial.io import read_dataset, write_rankings, write_ratings
from mallows_binomial.sampling import sample_dataset, sample_ratings, spawn_rng

from .oracles import (
    all_permutations,
    distance_moments_exhaustive,
    joint_loglik_direct,
    kendall_naive,
    log_binom_const_direct,
    psi_exhaustive,
)

THETAS = [0.1, 0.5, 1.0, 2.0, 5.0]

rankings_st = st.integers(2, 6).flatmap(lambda n: st.permutations(range(n)))


def paired_rankings(max_n=6):
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))
    )


def ranking_triples(max_n=5):
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            st.permutations(range(n)),
            st.permutations(range(n)),
            st.permutations(range(n)),
        )
    )


# ---------------------------------------------------------------------------
# Kendall distance


def test_kendall_known_values():
    assert kendall_distance([0, 1, 2], [0, 1, 2]) == 0
    assert kendall_distance([0, 1, 2], [0, 2, 1]) == 1
    assert kendall_distance([0, 1, 2], [2, 1, 0]) == 3
    assert kendall_distance([2, 0, 3, 1], [0, 1, 2, 3]) == 3
    assert kendall_distance(range(5), [4, 3, 2, 1, 0]) == 10


def test_max_kendall_distance():
    for n in range(2, 8):
        assert max_kendall_distance(n) == n * (n - 1) // 2
        assert kendall_distance(range(n), range(n)[::-1]) == max_kendall_distance(n)


@given(paired_rankings())
def test_kendall_matches_naive(pair):
    a, b = pair
    assert kendall_distance(a, b) == kendall_naive(a, b)


@given(paired_rankings())
def test_kendall_symmetry_and_bounds(pair):
    a, b = pair
    d = kendall_distance(a, b)
    assert d == kendall_distance(b, a)
    assert 0 <= d <= max_kendall_distance(len(a))
    assert (d == 0) == (tuple(a) == tuple(b))


@given(ranking_triples())
def test_kendall_triangle_inequality(triple):
    a, b, c = triple
    assert kendall_distance(a, c) <= kendall_distance(a, b) + kendall_distance(b, c)


@given(
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.permutations(range(n)),
            st.permutations(range(n)),
            st.permutations(range(n)),
        )
    )
)
def test_kendall_relabeling_invariance(case):
    # renaming the objects consistently in both rankings preserves distance
    a, b, relabel = (np.asarray(x) for x in case)
    assert kendall_distance(a, b) == kendall_distance(relabel[a], relabel[b])


def test_as_ranking_rejects_bad_input():
    with pytest.raises(ValueError, match="not a permutation"):
        as_ranking([0, 0, 1])
    with pytest.raises(ValueError, match="not a permutation"):
        as_ranking([1, 2, 3])
    with pytest.raises(ValueError, match="integers"):
        as_ranking([0.0, 1.0])
    with pytest.raises(ValueError, match="expected 4"):
        as_ranking([0, 1, 2], n_objects=4)
    with pytest.raises(ValueError, match="1-D"):
        as_ranking([[0, 1]])


# ---------------------------------------------------------------------------
# quality-to-ranking map


def test_order_of_sorts_ascending():
    # lowest quality value is most preferred
    assert order_of([0.3, 0.2, 0.1]).tolist() == [2, 1, 0]
    assert order_of([0.1, 0.2, 0.3]).tolist() == [0, 1, 2]
    assert order_of([0.9, 0.1, 0.5, 0.3]).tolist() == [1, 3, 2, 0]


def test_order_of_breaks_ties_by_index():
    assert order_of([0.5, 0.2, 0.5, 0.2]).tolist() == [1, 3, 0, 2]


@given(st.lists(st.floats(0.01, 0.99), min_size=2, max_size=8))
def test_order_of_is_monotone_permutation(p):
    order = order_of(p)
    assert sorted(order.tolist()) == list(range(len(p)))
    assert np.all(np.diff(np.asarray(p)[order]) >= 0.0)


def test_order_of_rejects_bad_input():
    with pytest.raises(ValueError, match="finite"):
        order_of([0.1, math.nan])
    with pytest.raises(ValueError, match="1-D"):
        order_of([])


# ---------------------------------------------------------------------------
# normalizer


def test_psi_closed_form_two_objects():
    # with two objects the normalizer is 1 + exp(-theta) exactly
    for theta in THETAS:
        assert psi(theta, 2) == pytest.approx(1.0 + math.exp(-theta), rel=1e-15)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("theta", THETAS)
def test_psi_matches_exhaustive_sum(n, theta):
    assert psi(theta, n) == pytest.approx(psi_exhaustive(theta, n), rel=1e-10)


def test_psi_center_free():
    # the exhaustive sum gives the same value whatever center it uses
    for center in all_permutations(4):
        assert psi_exhaustive(1.3, 4, center) == pytest.approx(psi(1.3, 4), rel=1e-10)


def test_log_psi_extreme_theta():
    # tiny theta approaches log(n!), huge theta approaches 0; neither may
    # overflow or lose sign
    assert log_psi(1e-9, 5) == pytest.approx(math.log(math.factorial(5)), rel=1e-6)
    assert log_psi(700.0, 6) == pytest.approx(0.0, abs=1e-300)
    assert log_psi(50.0, 40) >= 0.0 and math.isfinite(log_psi(50.0, 40))


def test_psi_rejects_bad_input():
    with pytest.raises(ValueError, match="positive"):
        psi(0.0, 3)
    with pytest.raises(ValueError, match="positive"):
        psi(-1.0, 3)
    with pytest.raises(ValueError, match="at least 2"):
        psi(1.0, 1)


# ---------------------------------------------------------------------------
# distance moments


def test_expected_distance_closed_form_two_objects():
    # with two objects the distance is Bernoulli(sigmoid(-theta))
    for theta in THETAS:
        q = 1.0 / (1.0 + math.exp(theta))
        assert expected_distance(theta, 2) == pytest.approx(q, rel=1e-14)
        assert distance_variance(theta, 2) == pytest.approx(q * (1 - q), rel=1e-14)


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("theta", THETAS)
def test_moments_match_exhaustive(n, theta):
    mean, var = distance_moments_exhaustive(theta, n)
    got_mean, got_var = distance_mean_var(theta, n)
    assert got_mean == pytest.approx(mean, rel=1e-10)
    assert got_var == pytest.approx(var, rel=1e-10)


@pytest.mark.parametrize("n", [3, 5, 8])
@pytest.mark.parametrize("theta", THETAS)
def test_mean_is_negative_log_psi_derivative(n, theta):
    h = 1e-6 * max(1.0, theta)
    fd = (log_psi(theta + h, n) - log_psi(theta - h, n)) / (2 * h)
    assert -fd == pytest.approx(expected_distance(theta, n), rel=1e-6)


@pytest.mark.parametrize("n", [3, 5, 8])
@pytest.mark.parametrize("theta", THETAS)
def test_variance_is_negative_mean_derivative(n, theta):
    h = 1e-6 * max(1.0, theta)
    fd = (expected_distance(theta + h, n) - expected_distance(theta - h, n)) / (2 * h)
    assert -fd == pytest.approx(distance_variance(theta, n), rel=1e-6)


def test_expected_distance_strictly_decreasing():
    thetas = np.geomspace(1e-4, 50.0, 200)
    values = [expected_distance(t, 5) for t in thetas]
    assert np.all(np.diff(values) < 0.0)


def test_expected_distance_limits():
    # uniform limit n(n-1)/4, concentrated limit 0
    assert expected_distance(1e-9, 4) == pytest.approx(3.0, rel=1e-6)
    assert expected_distance(50.0, 4) == pytest.approx(0.0, abs=1e-20)
    assert distance_variance(1e-9, 3) == pytest.approx(
        distance_moments_exhaustive(1e-9, 3)[1], rel=1e-6
    )


def test_moments_extreme_theta_stay_finite():
    # negative-exponent evaluation must not overflow at large theta * n
    assert expected_distance(50.0, 40) >= 0.0
    assert distance_variance(50.0, 40) >= 0.0
    assert math.isfinite(log_psi(0.02, 40))


def test_moments_series_branch_continuous():
    # near the handover the tiny-theta series must agree with the closed
    # form, evaluated here directly at a theta where both are accurate
    for n in (3, 10, 40):
        theta = 0.009 / n
        closed_mean = math.fsum(
            [n * math.exp(-theta) / -math.expm1(-theta)]
            + [-j * math.exp(-j * theta) / -math.expm1(-j * theta) for j in range(1, n + 1)]
        )
        closed_var = math.fsum(
            [n * math.exp(-theta) / math.expm1(-theta) ** 2]
            + [
                -j * j * math.exp(-j * theta) / math.expm1(-j * theta) ** 2
                for j in range(1, n + 1)
            ]
        )
        assert expected_distance(theta, n) == pytest.approx(closed_mean, rel=1e-8)
        assert distance_variance(theta, n) == pytest.approx(closed_var, rel=1e-8)
    # and the series matches the exhaustive truth deep in its branch
    mean, var = distance_moments_exhaustive(1e-9, 3)
    assert expected_distance(1e-9, 3) == pytest.approx(mean, rel=1e-9)
    assert distance_variance(1e-9, 3) == pytest.approx(var, rel=1e-9)


# ---------------------------------------------------------------------------
# parameter and dataset containers


def test_params_validation():
    params = Params(p=[0.2, 0.5], theta=1.0)
    assert params.n_objects == 2
    assert not params.p.flags.writeable
    with pytest.raises(ValueError, match="strictly in"):
        Params(p=[0.0, 0.5], theta=1.0)
    with pytest.raises(ValueError, match="strictly in"):
        Params(p=[0.2, 1.0], theta=1.0)
    with pytest.raises(ValueError, match="positive"):
        Params(p=[0.2, 0.5], theta=0.0)
    with pytest.raises(ValueError, match="1-D"):
        Params(p=[[0.2, 0.5]], theta=1.0)


def test_params_consensus():
    assert Params(p=[0.3, 0.2, 0.1], theta=1.0).consensus().tolist() == [2, 1, 0]


def test_param_bounds_validation():
    with pytest.raises(ValueError, match="p_min"):
        ParamBounds(p_min=0.5, p_max=0.4)
    with pytest.raises(ValueError, match="theta_min"):
        ParamBounds(theta_min=-1.0)
    assert ParamBounds().theta_max == 50.0


def test_dataset_validation_messages():
    good_rank = [[0, 1, 2], [2, 1, 0]]
    with pytest.raises(ValueError, match=r"judge 1, object 2.*outside 0\.\.4"):
        Dataset(ratings=[[0, 1, 2], [3, 4, 5]], rankings=good_rank, max_rating=4)
    with pytest.raises(ValueError, match="ranking row 1"):
        Dataset(ratings=[[0, 1, 2], [3, 4, 0]], rankings=[[0, 1, 2], [2, 2, 0]], max_rating=4)
    with pytest.raises(ValueError, match="does not match"):
        Dataset(ratings=[[0, 1]], rankings=[[0, 1, 2]], max_rating=4)
    with pytest.raises(ValueError, match="integers"):
        Dataset(ratings=[[0.5, 1.0, 2.0]], rankings=[[0, 1, 2]], max_rating=4)
    with pytest.raises(ValueError, match="judge 0, object 1"):
        Dataset(ratings=[[0, -1, 2]], rankings=[[0, 1, 2]], max_rating=4)


def test_dataset_refuses_an_empty_object_axis():
    with pytest.raises(ValueError, match="need at least one object"):
        Dataset(np.zeros((3, 0), int), np.zeros((3, 0), int), 5)


def _read_back(tmp_path, max_rating):
    data = Dataset([[1, 2]], [[0, 1]], 5)
    write_ratings(tmp_path / "ratings.csv", data.ratings)
    write_rankings(tmp_path / "rankings.csv", data.rankings)
    return read_dataset(tmp_path / "ratings.csv", tmp_path / "rankings.csv", max_rating)


SMALL = Params(p=[0.2, 0.5, 0.8], theta=1.5)
# every public function that takes a judge count or a rating scale, called
# with ``value`` in that place
COUNTS = {
    "Dataset": lambda value, tmp: Dataset([[1, 2]], [[0, 1]], value),
    "read_dataset": lambda value, tmp: _read_back(tmp, value),
    "sample_ratings": lambda value, tmp: sample_ratings([0.5], value, 3, spawn_rng(0, 0)),
    "sample_dataset.max_rating": lambda value, tmp: sample_dataset(SMALL, 10, value, seed=0),
    "sample_dataset.n_judges": lambda value, tmp: sample_dataset(SMALL, value, 5, seed=0),
    "theoretical_se.max_rating": lambda value, tmp: theoretical_se(SMALL, value, 10),
    "theoretical_se.n_judges": lambda value, tmp: theoretical_se(SMALL, 5, value),
    "lan_check.max_rating": lambda value, tmp: lan_check(SMALL, 10, value, 2),
    "lan_check.n_judges": lambda value, tmp: lan_check(SMALL, value, 5, 2),
    "coverage_study.max_rating": lambda value, tmp: coverage_study(SMALL, 10, value, 1, 2),
    "coverage_study.n_judges": lambda value, tmp: coverage_study(SMALL, value, 5, 1, 2),
}


@pytest.mark.parametrize("value", [2.7, 10.5])
@pytest.mark.parametrize("call", COUNTS.values(), ids=COUNTS.keys())
def test_count_arguments_refuse_non_integers(call, value, tmp_path):
    with pytest.raises(ValueError, match=f"got {value}"):
        call(value, tmp_path)


@pytest.mark.parametrize("value", [5, 5.0, np.int64(5)], ids=["int", "float", "int64"])
@pytest.mark.parametrize("call", COUNTS.values(), ids=COUNTS.keys())
def test_count_arguments_accept_whole_numbers(call, value, tmp_path):
    call(value, tmp_path)


def test_dataset_take_keeps_pairs():
    data = Dataset(
        ratings=[[0, 1, 2], [3, 4, 0], [1, 1, 1]],
        rankings=[[0, 1, 2], [2, 1, 0], [1, 0, 2]],
        max_rating=4,
    )
    sub = data.take([2, 0, 2])
    assert sub.ratings.tolist() == [[1, 1, 1], [0, 1, 2], [1, 1, 1]]
    assert sub.rankings.tolist() == [[1, 0, 2], [0, 1, 2], [1, 0, 2]]
    assert sub.max_rating == data.max_rating


# ---------------------------------------------------------------------------
# sufficient statistics


@given(
    st.integers(2, 5).flatmap(
        lambda n: st.tuples(
            st.lists(st.permutations(range(n)), min_size=1, max_size=12),
            st.permutations(range(n)),
        )
    )
)
def test_mean_distance_matches_naive_average(case):
    rankings, consensus = case
    n = len(consensus)
    ratings = np.zeros((len(rankings), n), dtype=int)
    stats = SufficientStats.from_dataset(
        Dataset(ratings=ratings, rankings=rankings, max_rating=1)
    )
    expected = np.mean([kendall_naive(r, consensus) for r in rankings])
    assert stats.mean_distance(consensus) == pytest.approx(expected, rel=1e-12)


def test_pair_counts_example():
    data = Dataset(
        ratings=np.zeros((3, 3), dtype=int),
        rankings=[[0, 1, 2], [1, 0, 2], [2, 1, 0]],
        max_rating=1,
    )
    counts = SufficientStats.from_dataset(data).pair_counts
    # counts[u, v] = number of judges placing u before v
    assert counts[0, 1] == 1 and counts[1, 0] == 2
    assert counts[0, 2] == 2 and counts[2, 0] == 1
    assert counts[1, 2] == 2 and counts[2, 1] == 1
    assert np.all(np.diag(counts) == 0)


def test_log_binom_const_matches_direct():
    rng = np.random.default_rng(7)
    ratings = rng.integers(0, 6, size=(20, 4))
    rankings = np.tile(np.arange(4), (20, 1))
    stats = SufficientStats.from_dataset(
        Dataset(ratings=ratings, rankings=rankings, max_rating=5)
    )
    assert stats.log_binom_const == pytest.approx(
        log_binom_const_direct(ratings, 5), rel=1e-12
    )


# ---------------------------------------------------------------------------
# joint log-likelihood


def random_dataset(rng, n_judges, n_objects, max_rating):
    rankings = np.array([rng.permutation(n_objects) for _ in range(n_judges)])
    ratings = rng.integers(0, max_rating + 1, size=(n_judges, n_objects))
    return Dataset(ratings=ratings, rankings=rankings, max_rating=max_rating)


@pytest.mark.parametrize("seed", range(5))
def test_log_likelihood_matches_direct_product(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    data = random_dataset(rng, int(rng.integers(1, 9)), n, int(rng.integers(1, 7)))
    p = rng.uniform(0.05, 0.95, size=n)
    theta = float(rng.uniform(0.1, 4.0))
    consensus = rng.permutation(n)
    got = log_likelihood(data, Params(p=p, theta=theta), consensus=consensus)
    want = joint_loglik_direct(
        data.rankings, data.ratings, p, theta, consensus, data.max_rating
    )
    assert got == pytest.approx(want, rel=1e-10)


def test_log_likelihood_total_probability_is_one():
    # summing exp(loglik) over every possible single-judge dataset must give 1
    import itertools

    n, max_rating = 3, 2
    params = Params(p=[0.25, 0.5, 0.7], theta=0.8)
    total = 0.0
    for ranking in all_permutations(n):
        for rating_row in itertools.product(range(max_rating + 1), repeat=n):
            data = Dataset(ratings=[rating_row], rankings=[ranking], max_rating=max_rating)
            total += math.exp(log_likelihood(data, params))
    assert total == pytest.approx(1.0, rel=1e-12)


def test_log_likelihood_default_consensus_is_order_of_p():
    rng = np.random.default_rng(3)
    data = random_dataset(rng, 6, 4, 3)
    params = Params(p=[0.4, 0.1, 0.7, 0.2], theta=1.5)
    assert log_likelihood(data, params) == log_likelihood(
        data, params, consensus=order_of(params.p)
    )


def test_log_likelihood_judge_order_invariant():
    # sufficient statistics are integer sums, so any reordering of judges
    # yields the bit-identical value
    rng = np.random.default_rng(11)
    data = random_dataset(rng, 30, 5, 6)
    params = Params(p=[0.1, 0.3, 0.5, 0.7, 0.9], theta=0.9)
    reference = log_likelihood(data, params)
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(data.n_judges)
        assert log_likelihood(data.take(perm), params) == reference


def test_log_likelihood_doubling():
    rng = np.random.default_rng(13)
    data = random_dataset(rng, 10, 4, 5)
    doubled = Dataset(
        ratings=np.vstack([data.ratings, data.ratings]),
        rankings=np.vstack([data.rankings, data.rankings]),
        max_rating=data.max_rating,
    )
    params = Params(p=[0.2, 0.4, 0.6, 0.8], theta=2.0)
    assert log_likelihood(doubled, params) == pytest.approx(
        2.0 * log_likelihood(data, params), rel=1e-12
    )


def test_log_likelihood_accepts_sufficient_stats():
    rng = np.random.default_rng(17)
    data = random_dataset(rng, 8, 3, 4)
    stats = SufficientStats.from_dataset(data)
    params = Params(p=[0.3, 0.5, 0.9], theta=1.1)
    assert log_likelihood(stats, params) == log_likelihood(data, params)


def test_log_likelihood_rejects_size_mismatch():
    rng = np.random.default_rng(19)
    data = random_dataset(rng, 4, 3, 2)
    with pytest.raises(ValueError, match="objects"):
        log_likelihood(data, Params(p=[0.2, 0.4], theta=1.0))


def test_log_likelihood_is_nonpositive():
    # discrete data: the density is a probability, never above 1
    rng = np.random.default_rng(23)
    for seed in range(5):
        inner = np.random.default_rng(seed)
        data = random_dataset(inner, 5, 3, 3)
        p = inner.uniform(0.05, 0.95, size=3)
        theta = float(inner.uniform(0.05, 5.0))
        assert log_likelihood(data, Params(p=p, theta=theta)) <= 0.0
