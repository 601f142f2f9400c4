"""Sampler exactness, stream determinism, and distributional agreement."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mallows_binomial import (
    Params,
    SufficientStats,
    distance_mean_var,
    expected_distance,
    kendall_distance,
)
from mallows_binomial import sampling
from mallows_binomial.cli import run
from mallows_binomial.sampling import (
    _PCG64_MULT,
    _STATE_BLOCK,
    _binomial_inversion,
    _insertion_rankings,
    _pcg64_doubles,
    _pcg64_states,
    derive_seed,
    sample_dataset,
    sample_mallows,
    sample_ratings,
    spawn_rng,
)

from .oracles import (
    insertion_loop,
    mallows_pmf_exhaustive,
    sample_dataset_loop,
    sample_mallows_loop,
)


def encode(rows: np.ndarray) -> np.ndarray:
    """Pack each permutation row into one integer for fast counting."""
    n = rows.shape[1]
    radix = n ** np.arange(n)
    return rows @ radix


def mean_distance_to(rows: np.ndarray, center) -> float:
    # positions of each object under the center; discordant pairs are
    # inversions of those position sequences
    center = np.asarray(center)
    pos = np.empty_like(center)
    pos[center] = np.arange(center.size)
    seq = pos[rows]
    total = 0
    for i in range(center.size):
        for j in range(i + 1, center.size):
            total += int(np.sum(seq[:, i] > seq[:, j]))
    return total / rows.shape[0]


# ---------------------------------------------------------------------------
# stream derivation


def test_spawn_rng_deterministic_and_path_sensitive():
    a = spawn_rng(42, 3, 1).random(4)
    b = spawn_rng(42, 3, 1).random(4)
    c = spawn_rng(42, 3, 2).random(4)
    d = spawn_rng(7, 3, 1).random(4)
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()
    assert a.tobytes() != d.tobytes()


def test_derive_seed_deterministic_and_path_sensitive():
    assert derive_seed(42, 5, 0) == derive_seed(42, 5, 0)
    assert derive_seed(42, 5, 0) != derive_seed(42, 5, 1)
    assert derive_seed(42, 5, 0) != derive_seed(43, 5, 0)
    assert derive_seed(42) >= 0


def test_seed_validation():
    with pytest.raises(ValueError, match="non-negative"):
        spawn_rng(-1)
    with pytest.raises(ValueError, match="non-negative"):
        derive_seed(3, -2)
    with pytest.raises(ValueError, match="non-negative"):
        _pcg64_states(-1, [0])


def test_default_generator_is_pcg64():
    # the bulk stream derivation restates PCG64's seeding; another default
    # bit generator must fail here rather than change every seeded document
    assert type(np.random.default_rng().bit_generator) is np.random.PCG64


@pytest.mark.parametrize(
    "seed",
    # 2**128 + 5 has five entropy words, one more than the pool holds
    [0, 7, 2**32 - 1, 2**32, 2**64 - 1, derive_seed(42, 5, 0), 2**128 + 5],
)
def test_pcg64_states_match_numpy_seeding(seed):
    keys = [*range(64), 2**32 - 1]
    want = [
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(k,))).state["state"]
        for k in keys
    ]
    s_hi, s_lo, i_hi, i_lo = (limb.tolist() for limb in _pcg64_states(seed, keys))
    got = [(a << 64 | b, c << 64 | d) for a, b, c, d in zip(s_hi, s_lo, i_hi, i_lo)]
    assert got == [(w["state"], w["inc"]) for w in want]


@pytest.mark.parametrize(
    "seed", [0, 7, 2**32 - 1, 2**32, 2**64 - 1, derive_seed(42, 5, 0), 2**128 + 5]
)
def test_limb_pcg64_matches_numpy_draws(seed):
    keys = [*range(16), 2**32 - 1]
    doubles = _pcg64_doubles(seed, keys, 11)
    for row, k in zip(doubles, keys):
        raw = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(k,))).random_raw(11)
        assert row.tobytes() == ((raw >> 11) * 2.0**-53).tobytes()
        assert row.tobytes() == spawn_rng(seed, k).random(11).tobytes()


@pytest.mark.parametrize("keys", [[2**32], [0, 2**32 + 5], [2**70], [-1]])
def test_pcg64_states_refuse_keys_past_one_word(keys):
    with pytest.raises(ValueError, match="stream keys"):
        _pcg64_states(3, keys)


# ---------------------------------------------------------------------------
# ranking sampler


def test_sample_mallows_rows_are_permutations():
    rows = sample_mallows([2, 0, 1, 3], theta=0.7, n_samples=50, rng=spawn_rng(1))
    assert rows.shape == (50, 4)
    for row in rows:
        assert sorted(row.tolist()) == [0, 1, 2, 3]


def test_sample_mallows_deterministic():
    a = sample_mallows(range(5), 1.2, 64, spawn_rng(9))
    b = sample_mallows(range(5), 1.2, 64, spawn_rng(9))
    assert a.tobytes() == b.tobytes()


def test_sample_mallows_high_concentration_degenerates():
    consensus = [3, 1, 4, 0, 2]
    rows = sample_mallows(consensus, theta=40.0, n_samples=200, rng=spawn_rng(2))
    assert np.all(rows == np.asarray(consensus))


def test_sample_mallows_empty():
    rows = sample_mallows([0, 1, 2], 1.0, 0, spawn_rng(0))
    assert rows.shape == (0, 3)


@pytest.mark.parametrize(
    "n,theta,consensus",
    [(3, 0.5, [1, 2, 0]), (4, 1.0, [0, 1, 2, 3]), (4, 2.5, [3, 0, 2, 1])],
)
def test_sample_mallows_matches_exact_pmf(n, theta, consensus):
    n_draws = 200_000
    rows = sample_mallows(consensus, theta, n_draws, spawn_rng(11))
    pmf = mallows_pmf_exhaustive(consensus, theta)
    codes, counts = np.unique(encode(rows), return_counts=True)
    empirical = dict(zip(codes.tolist(), (counts / n_draws).tolist()))
    worst = 0.0
    for perm, prob in pmf.items():
        code = int(encode(np.asarray(perm)[None, :])[0])
        worst = max(worst, abs(empirical.get(code, 0.0) - prob))
    # each cell's sampling error is ~sqrt(p(1-p)/N) <= 0.0011 here
    assert worst < 0.008


def test_sample_mallows_mean_distance_matches_theory():
    theta, n = 2.0, 4
    n_draws = 100_000
    rows = sample_mallows(range(n), theta, n_draws, spawn_rng(13))
    mean, var = distance_mean_var(theta, n)
    tolerance = 6.0 * np.sqrt(var / n_draws)
    assert abs(mean_distance_to(rows, range(n)) - mean) < tolerance


@st.composite
def displacement_panels(draw):
    """A center ranking and valid displacement rows for it (possibly none)."""
    n = draw(st.integers(1, 12))
    rows = draw(st.integers(0, 6))
    center = np.array(draw(st.permutations(range(n))), dtype=np.intp)
    displacements = np.zeros((rows, n), dtype=np.intp)
    for k in range(rows):
        for m in range(1, n):
            displacements[k, m] = draw(st.integers(0, m))
    return center, displacements


@settings(max_examples=200, deadline=None)
@given(displacement_panels())
def test_insertion_kernel_matches_list_insert_loop(panel):
    center, displacements = panel
    # at theta = 0 the m + 1 slots of step m are equally likely, so the
    # midpoint of slot v's CDF interval selects displacement v
    steps = np.arange(1, center.size)
    uniforms = (displacements[:, 1:] + 0.5) / (steps + 1)
    rankings = _insertion_rankings(center, 0.0, uniforms)
    expected = insertion_loop(center, displacements)
    assert rankings.dtype == expected.dtype
    assert rankings.tobytes() == expected.tobytes()


@pytest.mark.parametrize("theta", [1e-9, 0.05, 0.7, 3.0, 40.0])
@pytest.mark.parametrize("n", [1, 2, 5, 9])
@pytest.mark.parametrize("n_samples", [0, 1, 300])
def test_sample_mallows_matches_loop_draw_for_draw(theta, n, n_samples):
    center = np.random.default_rng(n).permutation(n)
    rng, loop_rng = spawn_rng(n, n_samples), spawn_rng(n, n_samples)
    rows = sample_mallows(center, theta, n_samples, rng)
    expected = sample_mallows_loop(center, theta, n_samples, loop_rng)
    assert rows.shape == (n_samples, n)
    assert rows.tobytes() == expected.tobytes()
    # both consumed the same uniforms
    assert rng.random() == loop_rng.random()


# ---------------------------------------------------------------------------
# rating sampler


def test_sample_ratings_matches_binomial_pmf():
    n_draws = 200_000
    draws = sample_ratings([0.5], max_rating=4, n_samples=n_draws, rng=spawn_rng(17))
    counts = np.bincount(draws[:, 0], minlength=5) / n_draws
    expected = np.array([1, 4, 6, 4, 1]) / 16.0
    assert np.max(np.abs(counts - expected)) < 0.008


def test_sample_ratings_boundary_probabilities():
    draws = sample_ratings([1e-6, 1.0 - 1e-6], 5, 1000, spawn_rng(19))
    assert np.all(draws[:, 0] == 0)
    assert np.all(draws[:, 1] == 5)


def test_sample_ratings_shape_and_range():
    draws = sample_ratings([0.2, 0.8, 0.5], 3, 500, spawn_rng(23))
    assert draws.shape == (500, 3)
    assert draws.min() >= 0 and draws.max() <= 3
    assert abs(draws[:, 0].mean() - 0.6) < 0.1


def generator_before(u: float) -> np.random.Generator:
    """A generator whose next double is ``u``, a multiple of ``2**-53``.

    Its state one LCG step later is ``(hi, lo) = (0, u * 2**64)``, whose
    XSL-RR output is ``lo`` unrotated; the state before is one step back.
    """
    inc, after = 1, int(u * 2.0**53) << 11
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": (after - inc) * pow(_PCG64_MULT, -1, 2**128) % 2**128, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.7, 1.0])
@pytest.mark.parametrize("max_rating", [1, 5, 10, 30, 60])
def test_binomial_inversion_replays_numpy(max_rating, p):
    if p == 0.0:
        # numpy returns 0 without a draw, so sample_dataset gives it no double
        rng = spawn_rng(5)
        assert rng.binomial(max_rating, p) == 0 and rng.random() == spawn_rng(5).random()
        return
    # doubles a few ulps around every cumulative boundary, where any
    # difference in rounding shows, and the largest double
    pp = min(p, 1.0 - p)
    pmf = np.cumsum([math.comb(max_rating, x) * pp**x * (1 - pp) ** (max_rating - x)
                     for x in range(max_rating + 1)])
    ulps = np.arange(-4, 5) * 2.0**-53
    doubles = np.unique(np.clip(np.floor((pmf[:, None] + ulps) * 2**53) / 2**53,
                                0.0, 1.0 - 2.0**-53))
    variates, restarts = _binomial_inversion(doubles, max_rating, p)
    for k, u in enumerate(doubles.tolist()):
        rng, after = generator_before(u), generator_before(u)
        after.random()
        want = rng.binomial(max_rating, p)
        if k in restarts:
            # numpy restarts on the next double
            assert rng.random() != after.random()
        else:
            assert variates[k] == want
            assert rng.random() == after.random()


def test_binomial_inversion_flags_what_numpy_restarts():
    # 1 - 2**-53 outruns the rounded pmf sum at n = 2, p = 0.8
    doubles = generator_before(1.0 - 2.0**-53).random(2)
    variates, restarts = _binomial_inversion(doubles[:1], 2, 0.8)
    assert restarts.tolist() == [0]
    again, restarts = _binomial_inversion(doubles[1:], 2, 0.8)
    assert restarts.size == 0
    assert generator_before(1.0 - 2.0**-53).binomial(2, 0.8) == again[0]


@pytest.mark.parametrize("p", [[[0.5, 0.2]], [], 0.5], ids=["2-D", "empty", "scalar"])
def test_sample_ratings_refuses_p_not_a_vector(p):
    with pytest.raises(ValueError, match="^p must be a non-empty 1-D vector$"):
        sample_ratings(p, 4, 10, spawn_rng(0))


def test_sample_ratings_validation():
    rng = spawn_rng(0)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        sample_ratings([0.5, 1.5], 4, 10, rng)
    with pytest.raises(ValueError, match="max_rating"):
        sample_ratings([0.5], 0, 10, rng)
    with pytest.raises(ValueError, match="n_samples"):
        sample_ratings([0.5], 4, -1, rng)
    with pytest.raises(ValueError, match="max_rating must be at most 2"):
        sample_ratings([0.5], 2**63, 10, rng)


# ---------------------------------------------------------------------------
# joint dataset sampler


PARAMS = Params(p=[0.15, 0.4, 0.65, 0.9], theta=2.0)


def test_sample_dataset_deterministic_bytes():
    a = sample_dataset(PARAMS, 40, 5, seed=101)
    b = sample_dataset(PARAMS, 40, 5, seed=101)
    assert a.ratings.tobytes() == b.ratings.tobytes()
    assert a.rankings.tobytes() == b.rankings.tobytes()
    c = sample_dataset(PARAMS, 40, 5, seed=102)
    assert (
        a.ratings.tobytes() != c.ratings.tobytes()
        or a.rankings.tobytes() != c.rankings.tobytes()
    )


def test_sample_dataset_prefix_property():
    # judge i depends only on (seed, i), so a longer panel extends a shorter one
    small = sample_dataset(PARAMS, 5, 5, seed=31)
    large = sample_dataset(PARAMS, 12, 5, seed=31)
    assert np.array_equal(small.ratings, large.ratings[:5])
    assert np.array_equal(small.rankings, large.rankings[:5])


@pytest.mark.parametrize(
    "params",
    [
        Params(p=[0.7, 0.2, 0.55, 0.35, 0.9, 0.1], theta=0.6),
        Params(p=[0.3], theta=1.0),
        Params(p=[0.9, 0.1, 0.5, 0.3, 0.7], theta=40.0),
    ],
)
def test_sample_dataset_rows_follow_sample_mallows_streams(params):
    # judge i draws its ranking, then its ratings, from stream (seed, i)
    data = sample_dataset(params, 30, 4, seed=2024)
    consensus = params.consensus()
    for i in range(data.n_judges):
        rng = spawn_rng(2024, i)
        ranking = sample_mallows(consensus, params.theta, 1, rng)[0]
        assert data.rankings[i].tobytes() == ranking.tobytes()
        assert np.array_equal(data.ratings[i], sample_ratings(params.p, 4, 1, rng)[0])
    if params.n_objects == 1 or params.theta == 40.0:
        assert np.all(data.rankings == consensus)


def unchecked_params(p, theta) -> Params:
    """Params with qualities the constructor refuses, such as exactly 0 or 1."""
    params = object.__new__(Params)
    object.__setattr__(params, "p", np.asarray(p, dtype=float))
    object.__setattr__(params, "theta", float(theta))
    return params


@pytest.mark.parametrize(
    "params, n_judges, max_rating, seed",
    [
        (PARAMS, 50, 5, 0),
        (unchecked_params([0.0, 0.3, 1.0, 0.6], 0.8), 40, 7, 11),
        (unchecked_params([1.0], 0.2), 20, 3, 5),
        (Params(p=[0.3], theta=1.0), 25, 4, 2**64 + 1),
        (Params(p=[0.7, 0.2, 0.55, 0.35, 0.9, 0.1], theta=0.6), 1, 40, 9),
        (Params(p=[0.45, 0.5, 0.55], theta=0.05), 30, 1, 2**64 - 1),
        (Params(p=[0.2, 0.8], theta=3.0), _STATE_BLOCK + 3, 5, 2**128 + 5),
        (Params(p=[0.3, 0.5, 0.8], theta=0.7), _STATE_BLOCK + 3, 61, 3),
        (unchecked_params([0.0, 0.35, 1.0, 0.6], 0.8), 60, 9, 17),
    ],
    ids=["strong", "p-0-and-1", "one-object-p-1", "one-object", "one-judge", "near-null",
         "past-one-block", "btpe", "restarts"],
)
def test_sample_dataset_matches_per_judge_generators(
    params, n_judges, max_rating, seed, request, monkeypatch
):
    if request.node.callspec.id == "restarts":
        # flag every third judge as restarted, with a spoiled variate: the
        # scalar path must redraw it
        def flagging(uniforms, n, p):
            variates, rows = _binomial_inversion(uniforms, n, p)
            rows = np.union1d(rows, np.arange(0, uniforms.size, 3))
            variates[rows] = -1
            return variates, rows

        monkeypatch.setattr(sampling, "_binomial_inversion", flagging)
    data = sample_dataset(params, n_judges, max_rating, seed)
    ratings, rankings = sample_dataset_loop(params, n_judges, max_rating, seed)
    assert data.ratings.tobytes() == ratings.astype(np.int64).tobytes()
    assert data.rankings.tobytes() == rankings.astype(np.intp).tobytes()


GOLDEN = Path(__file__).resolve().parent / "golden"


def test_sample_dataset_off_the_replayed_numpy_gives_the_same_bytes(monkeypatch, tmp_path):
    # the bench panel's J = 6, I = 20 000 draw and a few seeds of a small one
    panel = Params(p=[0.1, 0.25, 0.4, 0.55, 0.7, 0.85], theta=1.0)
    cases = [(PARAMS, 40, 5, seed) for seed in (0, 101, 2**64 + 1)] + [(panel, 20_000, 5, 0)]
    replayed = [sample_dataset(*case) for case in cases]

    def no_replay(*args):
        raise AssertionError("the bulk replay ran on a numpy it was not tested on")

    monkeypatch.setattr(sampling, "_REPLAYED_NUMPY", ())
    monkeypatch.setattr(sampling, "_pcg64_doubles", no_replay)
    for case, data in zip(cases, replayed):
        judged = sample_dataset(*case)
        assert judged.ratings.tobytes() == data.ratings.tobytes()
        assert judged.rankings.tobytes() == data.rankings.tobytes()
    # the committed J = 6 golden panel, drawn again by the CLI
    files = {name: tmp_path / f"j6_{name}.csv" for name in ("ratings", "rankings")}
    assert run([
        "simulate", "--p", "0.2,0.3,0.45,0.5,0.7,0.75", "--theta", "0.6", "--M", "4",
        "--judges", "30", "--seed", "3", "--ratings", str(files["ratings"]),
        "--rankings", str(files["rankings"]), "--out", str(tmp_path / "simulate.json"),
    ]) == 0
    for path in files.values():
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes()


def test_sample_dataset_judges_differ():
    data = sample_dataset(PARAMS, 30, 5, seed=77)
    assert len({row.tobytes() for row in data.ratings}) > 1
    assert len({row.tobytes() for row in data.rankings}) > 1


def test_sample_dataset_centers_on_consensus():
    data = sample_dataset(PARAMS, 3000, 5, seed=5)
    stats = SufficientStats.from_dataset(data)
    consensus = PARAMS.consensus()
    mean, var = distance_mean_var(PARAMS.theta, PARAMS.n_objects)
    # observed mean distance obeys the CLT around the theoretical mean
    tolerance = 6.0 * np.sqrt(var / data.n_judges)
    assert abs(stats.mean_distance(consensus) - mean) < tolerance
    reversed_center = consensus[::-1]
    assert stats.mean_distance(consensus) < stats.mean_distance(reversed_center)


def test_sample_dataset_rating_means_match():
    data = sample_dataset(PARAMS, 4000, 5, seed=7)
    stats = SufficientStats.from_dataset(data)
    se = np.sqrt(5 * PARAMS.p * (1 - PARAMS.p) / data.n_judges)
    assert np.all(np.abs(stats.xbar - 5 * PARAMS.p) < 6.0 * se)


def test_sample_dataset_explicit_consensus():
    center = np.array([3, 2, 1, 0])
    data = sample_dataset(PARAMS, 2000, 5, seed=13, consensus=center)
    stats = SufficientStats.from_dataset(data)
    assert stats.mean_distance(center) < stats.mean_distance(center[::-1])
    mean = expected_distance(PARAMS.theta, 4)
    assert abs(stats.mean_distance(center) - mean) < 0.2


def test_sample_dataset_validation():
    with pytest.raises(ValueError, match="judge"):
        sample_dataset(PARAMS, 0, 5, seed=1)
    with pytest.raises(ValueError, match="max_rating must be at most 2"):
        sample_dataset(PARAMS, 5, 2**63, seed=1)
    with pytest.raises(ValueError, match="expected 4"):
        sample_dataset(PARAMS, 5, 5, seed=1, consensus=[0, 1, 2])


def test_sample_mallows_distance_distribution():
    # the per-row Kendall distance to the center must follow the exact
    # distance distribution implied by the kernel
    center = [1, 0, 2, 3]
    theta = 0.8
    rows = sample_mallows(center, theta, 20_000, spawn_rng(3))
    observed = np.zeros(7)
    for row in rows:
        observed[kendall_distance(row, center)] += 1
    observed /= rows.shape[0]
    exact = np.zeros(7)
    for perm, prob in mallows_pmf_exhaustive(center, theta).items():
        exact[kendall_distance(list(perm), center)] += prob
    assert np.max(np.abs(observed - exact)) < 0.01
