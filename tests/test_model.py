"""Closed-form model quantities against brute-force oracles and known values."""

import math
import re
import tracemalloc

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
from mallows_binomial.bootstrap import bootstrap_fit
from mallows_binomial.io import read_dataset, write_rankings, write_ratings
from mallows_binomial.model import _first_non_permutation
from mallows_binomial.sampling import (
    derive_seed,
    sample_dataset,
    sample_mallows,
    sample_ratings,
    spawn_rng,
)

from .oracles import (
    all_permutations,
    distance_moments_exhaustive,
    first_non_permutation_sorted,
    joint_loglik_direct,
    kendall_naive,
    log_binom_const_direct,
    psi_exhaustive,
    small_panels,
    sufficient_stats_direct,
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


def test_dataset_names_a_matrix_not_2d_and_float_rankings():
    with pytest.raises(ValueError, match=r"must be 2-D \(judges x objects\)"):
        Dataset(ratings=[0, 1, 2], rankings=[[0, 1, 2]], max_rating=4)
    with pytest.raises(ValueError, match=r"must be 2-D \(judges x objects\)"):
        Dataset(ratings=[[0, 1, 2]], rankings=[[[0, 1, 2]]], max_rating=4)
    with pytest.raises(ValueError, match="rankings must be integers, got dtype float64"):
        Dataset(ratings=[[0, 1, 2]], rankings=[[0.0, 1.0, 2.0]], max_rating=4)


def test_dataset_refuses_a_scale_that_would_wrap_uint64_ratings():
    # int64 would read the rating 2**64 - 1 as -1
    message = rf"^{re.escape(f'max_rating must be at most 2**63 - 1, got {2**64}')}$"
    with pytest.raises(ValueError, match=message):
        Dataset(np.array([[2**64 - 1, 3]], np.uint64), [[0, 1]], 2**64)


LABEL_DTYPES = (np.int8, np.uint8, np.int64, np.uint64)


@st.composite
def label_matrices(draw):
    """Rows of permutations in one of the label dtypes, some cells spoilt by a
    negative label, a label past ``J - 1`` or a label repeated from the row."""
    dtype = np.dtype(draw(st.sampled_from(LABEL_DTYPES)))
    n = draw(st.integers(1, 7))
    rows = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=12))
    matrix = np.array(rows, dtype=dtype)
    low, high = np.iinfo(dtype).min, np.iinfo(dtype).max
    kinds = ["past", "repeat"] + (["negative"] if low < 0 else [])
    cells = st.tuples(st.integers(0, len(rows) - 1), st.integers(0, n - 1), st.sampled_from(kinds))
    for row, column, kind in draw(st.lists(cells, max_size=4)):
        if kind == "negative":
            matrix[row, column] = draw(st.integers(low, -1))
        elif kind == "past":
            matrix[row, column] = draw(st.integers(n, high))
        else:
            matrix[row, column] = matrix[row, draw(st.integers(0, n - 1))]
    return matrix


@settings(max_examples=300, deadline=None)
@given(label_matrices())
def test_first_non_permutation_matches_the_row_sort(matrix):
    before = matrix.copy()
    assert _first_non_permutation(matrix) == first_non_permutation_sorted(matrix)
    assert matrix.tobytes() == before.tobytes()


@pytest.mark.parametrize("dtype", LABEL_DTYPES)
def test_first_non_permutation_reports_the_first_of_several_bad_rows(dtype):
    rows = [[0, 1, 2], [2, 0, 1], [1, 1, 0], [3, 0, 1], [2, 1, 0], [0, 0, 0]]
    assert _first_non_permutation(np.array(rows, dtype)) == 2
    assert _first_non_permutation(np.array(rows[:2] + rows[3:], dtype)) == 2
    assert _first_non_permutation(np.array(rows[:2], dtype)) is None
    if np.dtype(dtype).kind == "i":
        assert _first_non_permutation(np.array([[0, 1], [-1, 0], [1, 1]], dtype)) == 1


def assert_same_dataset(data, max_rating):
    """``data`` holds what ``Dataset`` makes of its own arrays: the same
    values and dtypes, frozen, and an int ``max_rating``."""
    direct = Dataset(data.ratings, data.rankings, max_rating)
    for field in ("ratings", "rankings"):
        mine, theirs = getattr(data, field), getattr(direct, field)
        assert (mine.dtype, mine.shape) == (theirs.dtype, theirs.shape)
        assert mine.tobytes() == theirs.tobytes()
        assert not mine.flags.writeable and not theirs.flags.writeable
    assert type(data.max_rating) is int and data.max_rating == direct.max_rating


@pytest.mark.parametrize("max_rating", [5, np.int64(5), 5.0])
def test_read_and_sampled_panels_equal_the_checked_dataset(tmp_path, max_rating):
    data = sample_dataset(SMALL, 25, max_rating, seed=3)
    assert_same_dataset(data, max_rating)
    write_ratings(tmp_path / "ratings.csv", data.ratings)
    write_rankings(tmp_path / "rankings.csv", data.rankings)
    read = read_dataset(tmp_path / "ratings.csv", tmp_path / "rankings.csv", max_rating)
    assert_same_dataset(read, max_rating)
    assert read.ratings.tobytes() == data.ratings.tobytes()
    assert read.rankings.tobytes() == data.rankings.tobytes()


def test_dataset_refuses_an_empty_object_axis():
    with pytest.raises(ValueError, match="need at least one object"):
        Dataset(np.zeros((3, 0), int), np.zeros((3, 0), int), 5)


def _read_back(tmp_path, max_rating):
    data = Dataset([[1, 2]], [[0, 1]], 5)
    write_ratings(tmp_path / "ratings.csv", data.ratings)
    write_rankings(tmp_path / "rankings.csv", data.rankings)
    return read_dataset(tmp_path / "ratings.csv", tmp_path / "rankings.csv", max_rating)


SMALL = Params(p=[0.2, 0.5, 0.8], theta=1.5)
PANEL = sample_dataset(SMALL, 10, 5, seed=0)
# every public count, seed or size argument, called with ``value`` in that
# place; one replication or one replicate keeps any worker count in this
# process
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
    "coverage_study.n_replications": lambda value, tmp: coverage_study(SMALL, 10, 5, value, 2),
    "coverage_study.n_bootstrap": lambda value, tmp: coverage_study(SMALL, 10, 5, 1, value),
    "coverage_study.workers": lambda value, tmp: coverage_study(SMALL, 10, 5, 1, 2, workers=value),
    "coverage_study.seed": lambda value, tmp: coverage_study(SMALL, 10, 5, 1, 2, seed=value),
    "lan_check.n_replications": lambda value, tmp: lan_check(SMALL, 10, 5, value),
    "lan_check.seed": lambda value, tmp: lan_check(SMALL, 10, 5, 2, seed=value),
    "bootstrap_fit.n_replicates": lambda value, tmp: bootstrap_fit(PANEL, value),
    "bootstrap_fit.workers": lambda value, tmp: bootstrap_fit(PANEL, 1, workers=value),
    "bootstrap_fit.seed": lambda value, tmp: bootstrap_fit(PANEL, 2, seed=value),
    "log_psi": lambda value, tmp: log_psi(1.0, value),
    "psi": lambda value, tmp: psi(1.0, value),
    "expected_distance": lambda value, tmp: expected_distance(1.0, value),
    "distance_variance": lambda value, tmp: distance_variance(1.0, value),
    "sample_mallows.n_samples": lambda value, tmp: sample_mallows([0, 1], 1.0, value, spawn_rng(0)),
    "sample_ratings.n_samples": lambda value, tmp: sample_ratings([0.5], 4, value, spawn_rng(0)),
    "sample_dataset.seed": lambda value, tmp: sample_dataset(SMALL, 10, 5, seed=value),
    "spawn_rng.seed": lambda value, tmp: spawn_rng(value),
    "spawn_rng.path": lambda value, tmp: spawn_rng(0, 1, value),
    "derive_seed.seed": lambda value, tmp: derive_seed(value, 1),
    "derive_seed.path": lambda value, tmp: derive_seed(0, value),
}


@pytest.mark.parametrize("value", [2.7, 10.5, float("inf"), float("nan"), None])
@pytest.mark.parametrize("call", COUNTS.values(), ids=COUNTS.keys())
def test_count_arguments_refuse_non_integers(call, value, tmp_path):
    with pytest.raises(ValueError, match=rf"got {re.escape(str(value))}$"):
        call(value, tmp_path)


@pytest.mark.parametrize("value", [5, 5.0, np.int64(5)], ids=["int", "float", "int64"])
@pytest.mark.parametrize("call", COUNTS.values(), ids=COUNTS.keys())
def test_count_arguments_accept_whole_numbers(call, value, tmp_path):
    call(value, tmp_path)


# every public entry that takes the rating scale
SCALES = ["Dataset", "read_dataset", "sample_ratings", "sample_dataset.max_rating",
          "theoretical_se.max_rating", "lan_check.max_rating", "coverage_study.max_rating"]


@pytest.mark.parametrize("name", SCALES)
def test_every_scale_argument_refuses_one_past_int64(name, tmp_path):
    message = rf"^max_rating must be at most 2\*\*63 - 1, got {2**63}$"
    with pytest.raises(ValueError, match=message):
        COUNTS[name](2**63, tmp_path)


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


def test_dataset_copies_each_matrix_once():
    rng = np.random.default_rng(0)
    ratings = rng.integers(0, 6, size=(20_000, 6), dtype=np.int64)
    rankings = np.argsort(rng.random((20_000, 6)), axis=1).astype(np.int64)
    tracemalloc.start()
    try:
        data = Dataset(ratings, rankings, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the two 0.92 MiB copies it keeps, plus the checks' temporaries; a
    # second copy of each matrix took the peak to 3.7 MiB
    assert peak < 3.2 * 2**20, f"peak {peak / 2**20:.2f} MiB"
    for caller, own in ((ratings, data.ratings), (rankings, data.rankings)):
        assert caller.flags.writeable and not own.flags.writeable
        assert not np.shares_memory(caller, own)
        assert np.array_equal(caller, own)


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


def assert_stats_are_the_direct_formula(data):
    stats = SufficientStats.from_dataset(data)
    xbar, pair_counts, constant = sufficient_stats_direct(data)
    assert stats.xbar.dtype == xbar.dtype and stats.xbar.tobytes() == xbar.tobytes()
    assert stats.pair_counts.dtype == np.int64
    assert stats.pair_counts.tobytes() == pair_counts.tobytes()
    assert stats.log_binom_const.hex() == constant.hex()
    assert (stats.n_judges, stats.max_rating) == (data.n_judges, data.max_rating)
    assert not stats.xbar.flags.writeable and not stats.pair_counts.flags.writeable


@settings(max_examples=200, deadline=None)
@given(small_panels())
def test_stats_are_the_direct_formula_bit_for_bit(data):
    assert_stats_are_the_direct_formula(data)


@pytest.mark.parametrize("seed", range(3))
def test_stats_of_a_large_panel_are_the_direct_formula_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    n_judges, n = 20_000, 4 + seed
    ratings = rng.binomial(1000, rng.uniform(0.05, 0.95, n), size=(n_judges, n))
    rankings = np.argsort(rng.random((n_judges, n)), axis=1)
    assert_stats_are_the_direct_formula(Dataset(ratings, rankings, 1000))


def test_stats_summed_over_judge_blocks_are_the_direct_formula_bit_for_bit():
    # from_dataset sums the pair indicators over blocks of 4096 judges: here
    # two whole blocks and a block of one judge
    rng = np.random.default_rng(4)
    n_judges, n = 2 * 4096 + 1, 7
    ratings = rng.integers(0, 6, size=(n_judges, n))
    rankings = np.argsort(rng.random((n_judges, n)), axis=1)
    assert_stats_are_the_direct_formula(Dataset(ratings, rankings, 5))


def test_stats_of_a_large_panel_peak_below_24_mib():
    rng = np.random.default_rng(0)
    n_judges, n = 100_000, 20
    data = Dataset(
        rng.integers(0, 6, size=(n_judges, n)),
        np.argsort(rng.random((n_judges, n)), axis=1),
        5,
    )
    tracemalloc.start()
    try:
        SufficientStats.from_dataset(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the judge blocks keep the (I, J, J) indicator, 53.5 MiB whole, out of
    # the peak; the float64 ratings sum sets it, near 15 MiB
    assert peak < 24 * 2**20, f"peak {peak / 2**20:.2f} MiB"


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
