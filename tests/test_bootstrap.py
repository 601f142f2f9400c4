"""Bootstrap mechanics: resampling, percentile rule, determinism, workers."""

import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mallows_binomial import Dataset, Params, SufficientStats, sample_dataset, spawn_rng
from mallows_binomial import bootstrap, estimation
from mallows_binomial.bootstrap import (
    _fan_out,
    _JudgeTables,
    _percentile_bounds,
    bootstrap_fit,
    percentile_interval,
    resample,
)

PARAMS = Params(p=[0.15, 0.4, 0.65, 0.9], theta=2.0)


# ---------------------------------------------------------------------------
# percentile rule


def test_percentile_interval_worked_example():
    values = np.arange(1, 101, dtype=float)
    assert percentile_interval(values, 0.10) == (5.5, 95.5)


def test_percentile_interval_more_points():
    values = np.arange(1, 101, dtype=float)
    assert percentile_interval(values, 0.50) == (25.5, 75.5)
    lo, hi = percentile_interval(values, 0.05)
    assert (lo, hi) == (3.0, 98.0)


def test_percentile_interval_order_free():
    rng = spawn_rng(1)
    values = rng.normal(size=501)
    shuffled = values[rng.permutation(501)]
    assert percentile_interval(values, 0.1) == percentile_interval(shuffled, 0.1)


def test_percentile_interval_nested_alphas():
    rng = spawn_rng(2)
    values = rng.normal(size=400)
    inner = percentile_interval(values, 0.20)
    outer = percentile_interval(values, 0.05)
    assert outer[0] <= inner[0] and inner[1] <= outer[1]


def test_percentile_interval_validation():
    with pytest.raises(ValueError, match="alpha"):
        percentile_interval([1.0, 2.0], 0.0)
    with pytest.raises(ValueError, match="alpha"):
        percentile_interval([1.0, 2.0], 1.0)
    with pytest.raises(ValueError, match="non-empty"):
        percentile_interval([], 0.1)


@st.composite
def replicate_samples(draw) -> np.ndarray:
    """``(B, J)`` samples: uniform on [0, 1], or drawn from 1, 2 or 5 values,
    so ties and constant columns are common."""
    shape = draw(st.integers(1, 1200)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([None, 1, 2, 5]))
    return rng.random(shape) if levels is None else rng.choice(rng.random(levels), shape)


@settings(max_examples=300, deadline=None)
@given(replicate_samples(), st.floats(0.01, 0.5))
def test_p_intervals_are_the_per_column_intervals(samples, alpha):
    # bootstrap_fit's p_intervals: one quantile call over every column
    got = _percentile_bounds(samples, alpha).T
    want = np.array([percentile_interval(column, alpha) for column in samples.T])
    assert got.shape == want.shape
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


# ---------------------------------------------------------------------------
# resampling


def test_resample_keeps_pairs():
    data = sample_dataset(PARAMS, 25, 5, seed=3)
    originals = {
        (data.ratings[i].tobytes(), data.rankings[i].tobytes())
        for i in range(data.n_judges)
    }
    boot = resample(data, spawn_rng(5))
    assert boot.n_judges == data.n_judges
    for i in range(boot.n_judges):
        assert (boot.ratings[i].tobytes(), boot.rankings[i].tobytes()) in originals


def test_resample_absent_fraction():
    # a judge escapes one resample with probability (1 - 1/I)^I -> 1/e;
    # rating rows are made unique so surviving judges can be counted
    n_judges = 1000
    ratings = np.stack([np.arange(n_judges) % 50, np.arange(n_judges) // 50]).T
    rankings = np.tile([0, 1], (n_judges, 1))
    data = Dataset(ratings=ratings, rankings=rankings, max_rating=49)
    rng = spawn_rng(11)
    fractions = []
    for _ in range(20):
        boot = resample(data, rng)
        distinct = len({row.tobytes() for row in boot.ratings})
        fractions.append(1.0 - distinct / n_judges)
    assert abs(np.mean(fractions) - np.exp(-1)) < 0.02


def test_resample_single_judge():
    data = Dataset(ratings=[[1, 3]], rankings=[[0, 1]], max_rating=5)
    boot = resample(data, spawn_rng(0))
    assert np.array_equal(boot.ratings, data.ratings)


# ---------------------------------------------------------------------------
# replicate statistics from judge multiplicities


def test_replicate_stats_equal_resampled_dataset_stats():
    rng = np.random.default_rng(61)
    panels = [
        sample_dataset(PARAMS, 40, 5, seed=59),
        sample_dataset(Params(p=[0.3, 0.5, 0.7], theta=0.4), 17, 1, seed=60),
        Dataset(ratings=[[1, 3, 2]], rankings=[[0, 2, 1]], max_rating=5),
        Dataset(
            ratings=rng.integers(0, 41, size=(33, 6)),
            rankings=[rng.permutation(6) for _ in range(33)],
            max_rating=40,
        ),
        Dataset(ratings=np.tile([0, 2], (5, 1)), rankings=np.tile([1, 0], (5, 1)), max_rating=2),
    ]
    for data in panels:
        tables = _JudgeTables.from_dataset(data)
        for seed in (0, 67, 2**64 + 3):
            block = tables.replicates(seed, 0, 12)
            for b in range(12):
                got = tables.replicates(seed, b, b + 1)[0]
                want = SufficientStats.from_dataset(resample(data, spawn_rng(seed, b)))
                assert np.array_equal(block[b].xbar, want.xbar)
                assert np.array_equal(block[b].pair_counts, want.pair_counts)
                assert block[b].log_binom_const == want.log_binom_const
                assert np.array_equal(got.xbar, want.xbar)
                assert got.xbar.dtype == want.xbar.dtype
                assert np.array_equal(got.pair_counts, want.pair_counts)
                assert got.pair_counts.dtype == want.pair_counts.dtype
                assert got.n_judges == want.n_judges
                assert got.max_rating == want.max_rating
                assert got.log_binom_const == want.log_binom_const
                assert not got.xbar.flags.writeable
                assert not got.pair_counts.flags.writeable


def _assert_same_bits(got: SufficientStats, want: SufficientStats):
    assert got.xbar.dtype == want.xbar.dtype == np.float64
    assert got.xbar.view(np.int64).tolist() == want.xbar.view(np.int64).tolist()
    assert got.pair_counts.dtype == want.pair_counts.dtype == np.int64
    assert got.pair_counts.tolist() == want.pair_counts.tolist()
    assert type(got.log_binom_const) is type(want.log_binom_const) is float
    assert got.log_binom_const.hex() == want.log_binom_const.hex()
    assert (got.n_judges, got.max_rating) == (want.n_judges, want.max_rating)
    assert not got.xbar.flags.writeable and not got.pair_counts.flags.writeable


@pytest.mark.parametrize(
    "n_judges, n_objects, max_rating", [(200, 4, 5), (20_000, 6, 20)], ids=["J4", "J6 I20000"]
)
def test_a_full_replicate_block_gives_the_resampled_bits(n_judges, n_objects, max_rating):
    # one block as the bootstrap builds it: 210 replicates at J = 4, 7 at J = 6
    rng = np.random.default_rng(n_objects)
    data = Dataset(
        ratings=rng.integers(0, max_rating + 1, size=(n_judges, n_objects)),
        rankings=rng.permuted(np.tile(np.arange(n_objects), (n_judges, 1)), axis=1),
        max_rating=max_rating,
    )
    size = estimation._stack_block(n_objects)
    block = _JudgeTables.from_dataset(data).replicates(71, 5, 5 + size)
    assert len(block) == size
    for b, got in enumerate(block, start=5):
        _assert_same_bits(got, SufficientStats.from_dataset(resample(data, spawn_rng(71, b))))


# ---------------------------------------------------------------------------
# bootstrap_fit


def test_bootstrap_fit_deterministic():
    data = sample_dataset(PARAMS, 40, 5, seed=13)
    a = bootstrap_fit(data, n_replicates=30, alpha=0.1, seed=17)
    b = bootstrap_fit(data, n_replicates=30, alpha=0.1, seed=17)
    assert a.p_samples.tobytes() == b.p_samples.tobytes()
    assert a.theta_samples.tobytes() == b.theta_samples.tobytes()
    assert a.theta_interval == b.theta_interval
    c = bootstrap_fit(data, n_replicates=30, alpha=0.1, seed=18)
    assert a.theta_samples.tobytes() != c.theta_samples.tobytes()


def test_bootstrap_fit_replicate_prefix():
    # replicate b depends only on (seed, b): more replicates extend the rest
    data = sample_dataset(PARAMS, 30, 5, seed=19)
    small = bootstrap_fit(data, n_replicates=10, seed=23)
    large = bootstrap_fit(data, n_replicates=25, seed=23)
    assert np.array_equal(small.p_samples, large.p_samples[:10])
    assert np.array_equal(small.theta_samples, large.theta_samples[:10])


def test_bootstrap_fit_workers_match():
    data = sample_dataset(PARAMS, 30, 5, seed=29)
    serial = bootstrap_fit(data, n_replicates=24, seed=31, workers=1)
    parallel = bootstrap_fit(data, n_replicates=24, seed=31, workers=2)
    assert serial.p_samples.tobytes() == parallel.p_samples.tobytes()
    assert serial.theta_samples.tobytes() == parallel.theta_samples.tobytes()
    assert serial.theta_interval == parallel.theta_interval
    assert serial.consensus_agreement == parallel.consensus_agreement


def test_bootstrap_fit_uneven_ranges_match_one_process(pool_starts):
    # 5 replicates in 3 ranges (2, 1, 2): the caller runs one, a pool of 2 the rest
    data = sample_dataset(PARAMS, 30, 5, seed=59)
    parallel = bootstrap_fit(data, n_replicates=5, seed=61, workers=3)
    assert pool_starts == [2]
    serial = bootstrap_fit(data, n_replicates=5, seed=61, workers=1)
    assert pool_starts == [2]
    for name in ("p_samples", "theta_samples", "consensus_samples", "p_intervals"):
        assert getattr(serial, name).tobytes() == getattr(parallel, name).tobytes()
    assert serial.theta_interval == parallel.theta_interval
    assert serial.clamp_rate == parallel.clamp_rate


def test_bootstrap_fit_one_replicate_starts_no_pool(pool_starts):
    data = sample_dataset(PARAMS, 30, 5, seed=67)
    assert bootstrap_fit(data, n_replicates=1, seed=71, workers=2).n_replicates == 1
    assert pool_starts == []


def _fail_in_range(failing_start, start, stop):
    """Fan-out rows that raise in the range starting at ``failing_start``."""
    if start == failing_start:
        raise ValueError(f"range {start}..{stop - 1} failed")
    return zip(range(start, stop))


@pytest.mark.parametrize("failing_start", [0, 4], ids=["caller", "worker"])
def test_fan_out_error_reaches_the_caller(failing_start):
    # ranges 0..3 (this process) and 4..7 (the pool's one worker)
    with pytest.raises(ValueError, match=f"range {failing_start}"):
        _fan_out(_fail_in_range, 8, 2, failing_start)
    assert multiprocessing.active_children() == []


def test_bootstrap_fit_unanimous_data_collapses():
    # identical judges: every resample equals the data, intervals are points
    ratings = np.tile([0, 2, 4], (12, 1))
    rankings = np.tile([0, 1, 2], (12, 1))
    data = Dataset(ratings=ratings, rankings=rankings, max_rating=5)
    result = bootstrap_fit(data, n_replicates=20, seed=37)
    assert np.all(result.p_samples == result.p_samples[0])
    for j in range(3):
        lo, hi = result.p_intervals[j]
        assert lo == hi == result.point.p[j]
    assert result.theta_interval[0] == result.theta_interval[1]
    assert result.clamp_rate == 1.0
    assert result.consensus_agreement == 1.0


def test_bootstrap_fit_single_judge():
    data = Dataset(ratings=[[1, 3, 2]], rankings=[[0, 2, 1]], max_rating=5)
    result = bootstrap_fit(data, n_replicates=15, seed=41)
    assert result.n_replicates == 15
    assert result.theta_interval[0] == result.theta_interval[1]


def test_bootstrap_fit_interval_shape_and_consistency():
    data = sample_dataset(PARAMS, 50, 5, seed=43)
    result = bootstrap_fit(data, n_replicates=60, alpha=0.1, seed=47)
    assert result.p_intervals.shape == (4, 2)
    assert np.all(result.p_intervals[:, 0] <= result.p_intervals[:, 1])
    for j in range(4):
        lo, hi = percentile_interval(result.p_samples[:, j], 0.1)
        assert (lo, hi) == tuple(result.p_intervals[j])
    assert 0.0 <= result.clamp_rate <= 1.0
    assert 0.0 <= result.consensus_agreement <= 1.0


def test_bootstrap_fit_validation():
    data = sample_dataset(PARAMS, 10, 5, seed=53)
    with pytest.raises(ValueError, match="replicate"):
        bootstrap_fit(data, n_replicates=0)
    with pytest.raises(ValueError, match="alpha"):
        bootstrap_fit(data, n_replicates=5, alpha=1.2)
    with pytest.raises(ValueError, match="workers"):
        bootstrap_fit(data, n_replicates=5, workers=0)


def test_bootstrap_fit_checks_the_seed_before_fitting(monkeypatch):
    data = sample_dataset(PARAMS, 10, 5, seed=53)
    original, fits = bootstrap.fit, []

    def counted(*args, **kwargs):
        fits.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(bootstrap, "fit", counted)
    with pytest.raises(ValueError, match=r"seed must be a non-negative integer, got 1\.7$"):
        bootstrap_fit(data, 5, seed=1.7)
    assert len(fits) == 0
