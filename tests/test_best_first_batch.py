"""The batched best-first search against the scalar search it replaces.

``fit_best_first`` bounds all children of a prefix at once: the rating term
by pool-adjacent-violators, continued from the prefix's pooled blocks, and
the ranking term read off a tabulated chord.  The search that bounds one
child at a time with exact ``theta`` solves (``oracles.fit_best_first_loop``)
is the reference: consensus, loglik, qualities, concentration and clamp flag
must agree bit for bit, and on these panels the search must expand the same
prefixes and profile the same rankings.  The batched bound must also be
admissible: no completion of a child may beat it.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import isotonic_regression

from mallows_binomial import (
    DEFAULT_BOUNDS,
    Dataset,
    ParamBounds,
    Params,
    SufficientStats,
    expected_distance,
    fit_best_first,
    fit_exhaustive,
    log_psi,
    profile_loglik,
    sample_dataset,
    theta_mle,
)
from mallows_binomial import estimation
from mallows_binomial.estimation import (
    _child_bounds,
    _concentration_terms,
    _distance_moments,
    _pooled_prefix,
    _ranking_term_table,
)

from .oracles import child_bounds_rows_first, fit_best_first_loop, small_panels
from .test_exhaustive_screen import degenerate_panels, seeded_panel


def same_fit(new, old) -> list[str]:
    """Names of the result fields on which two fits differ."""
    fields = {
        "consensus": np.array_equal(new.consensus, old.consensus),
        "loglik": new.loglik == old.loglik,
        "p": np.array_equal(new.p, old.p),
        "theta": new.theta == old.theta,
        "theta_clamped": new.theta_clamped == old.theta_clamped,
    }
    return [name for name, same in fields.items() if not same]


def loop_mismatch(data) -> str | None:
    """How the batched search differs from the scalar loop on ``data``, or None."""
    new = fit_best_first(data)
    old, candidates, nodes = fit_best_first_loop(data)
    wrong = same_fit(new, old)
    if new.candidates_profiled != candidates:
        wrong.append(f"candidates_profiled {new.candidates_profiled} != {candidates}")
    if new.nodes_expanded != nodes:
        wrong.append(f"nodes_expanded {new.nodes_expanded} != {nodes}")
    if not wrong:
        return None
    return f"J={data.n_objects} I={data.n_judges} M={data.max_rating}: {wrong}"


def model_panel(rng, n_objects: int) -> Dataset:
    truth = Params(
        p=np.sort(rng.uniform(0.1, 0.9, n_objects)), theta=float(rng.uniform(0.3, 2.0))
    )
    n_judges = int(rng.integers(5, 80))
    return sample_dataset(truth, n_judges, int(rng.integers(1, 8)), seed=int(rng.integers(2**31)))


def near_null_panel(rng) -> Dataset:
    truth = Params(p=0.5 + rng.uniform(-0.05, 0.05, 9), theta=0.1)
    n_judges = int(rng.integers(10, 40))
    return sample_dataset(truth, n_judges, 5, seed=int(rng.integers(2**31)))


def flat_panel(n_objects: int) -> Dataset:
    # qualities within 0.45-0.55 and near-uniform rankings: bounds sit closest
    # to the incumbent here
    rng = np.random.default_rng(0)
    truth = Params(p=np.sort(rng.uniform(0.45, 0.55, n_objects)), theta=0.01)
    return sample_dataset(truth, 50, 5, seed=0)


def seeded_panels():
    rng = np.random.default_rng(20261019)
    for n_objects in range(3, 13):
        for _ in range(8 if n_objects <= 8 else 4):
            yield model_panel(rng, n_objects)
    for _ in range(6):
        yield near_null_panel(rng)
    yield flat_panel(11)
    yield flat_panel(12)
    # arbitrary, near-null and tie-heavy panels from the exhaustive screen's sweep
    for n_objects in (3, 4, 5, 6):
        for kind in range(4):
            yield seeded_panel(rng, n_objects, kind)


def test_seeded_panels_match_loop():
    panels = list(seeded_panels())
    assert len(panels) >= 80
    problems = [problem for data in panels if (problem := loop_mismatch(data))]
    assert not problems, problems


def test_degenerate_panels_match_loop_and_exhaustive():
    """One judge, unanimous judges, constant ratings, M = 1 and J = 2."""
    problems = []
    for data in degenerate_panels():
        if problem := loop_mismatch(data):
            problems.append(problem)
        if wrong := same_fit(fit_best_first(data), fit_exhaustive(data)):
            problems.append(f"J={data.n_objects} vs exhaustive: {wrong}")
    assert not problems, problems


@settings(max_examples=40, deadline=None)
@given(data=small_panels())
def test_small_degenerate_panels_match_exhaustive(data):
    assert not same_fit(fit_best_first(data), fit_exhaustive(data))


# ---------------------------------------------------------------------------
# admissibility of the batched bound


def best_completion(stats, prefix, rest) -> float:
    """Best profile log-likelihood over every completion of ``prefix``."""
    return max(
        profile_loglik(stats, prefix + tail, DEFAULT_BOUNDS).loglik
        for tail in itertools.permutations(rest)
    )


def decided_count(stats, prefix) -> int:
    """Disagreements on the pairs a prefix decides, counted pair by pair."""
    counts = stats.pair_counts
    free = [o for o in range(stats.n_objects) if o not in prefix]
    total = 0
    for i, ahead in enumerate(prefix):
        for behind in list(prefix[i + 1 :]) + free:
            total += int(counts[behind, ahead])
    return total


def ascending_free(stats, prefix) -> np.ndarray:
    """The objects not in ``prefix``, in ascending order of mean rating."""
    ascending = np.argsort(stats.xbar, kind="stable")
    return ascending[~np.isin(ascending, prefix)]


@settings(max_examples=60, deadline=None)
@given(
    n_objects=st.integers(3, 7),
    n_judges=st.integers(1, 30),
    max_rating=st.integers(1, 6),
    theta=st.sampled_from([0.05, 0.3, 1.0, 3.0]),
    seed=st.integers(0, 2**31 - 1),
    depth=st.integers(0, 4),
)
def test_child_bounds_are_admissible(n_objects, n_judges, max_rating, theta, seed, depth):
    rng = np.random.default_rng(seed)
    truth = Params(p=rng.uniform(0.05, 0.95, n_objects), theta=theta)
    stats = SufficientStats.from_dataset(sample_dataset(truth, n_judges, max_rating, seed=seed))
    order = rng.permutation(n_objects)
    # children of a prefix get bounds only while they leave two or more objects free
    prefix = tuple(int(o) for o in order[: min(depth, n_objects - 3)])
    free = ascending_free(stats, prefix)
    bounds, child_decided = _child_bounds(
        stats, prefix, free, DEFAULT_BOUNDS, decided_count(stats, prefix)
    )
    assert bounds.shape == child_decided.shape == free.shape
    for child, bound, count in zip(free.tolist(), bounds.tolist(), child_decided.tolist()):
        rest = tuple(o for o in free.tolist() if o != child)
        assert count == decided_count(stats, prefix + (child,))
        best = best_completion(stats, prefix + (child,), rest)
        # rounding only: far below the search's pruning slack of 1e-7
        assert bound >= best - 1e-11 * (1.0 + abs(best)), (prefix, child, bound, best)


@settings(max_examples=40, deadline=None)
@given(data=small_panels(shapes=("ties", "tied rankings")))
def test_child_bounds_are_exact_when_disagreements_tie(data):
    # every candidate has the same disagreement count, so the relaxed mean
    # distance is exact, and so must be every bound
    stats = SufficientStats.from_dataset(data)
    n = stats.n_objects
    for depth in range(n - 2):
        for prefix in itertools.permutations(range(n), depth):
            free = ascending_free(stats, prefix)
            bounds, _ = _child_bounds(
                stats, prefix, free, DEFAULT_BOUNDS, decided_count(stats, prefix)
            )
            for child, bound in zip(free.tolist(), bounds.tolist()):
                rest = tuple(o for o in free.tolist() if o != child)
                best = best_completion(stats, prefix + (child,), rest)
                assert abs(bound - best) <= 1e-12 * abs(best), (prefix, child, bound, best)


# ---------------------------------------------------------------------------
# the pooled rating term against the full-row bound


@st.composite
def bound_nodes(draw):
    """Statistics, a box and a prefix in random order: J = 3..20, depth
    0..J-3, in the degenerate shapes too (tied means, one judge, M = 1, and
    ratings all 0 or all M, which clip at both box edges)."""
    n = draw(st.integers(3, 20))
    shape = draw(st.sampled_from(["any", "tied", "one judge", "M = 1", "all 0", "all M"]))
    n_judges = 1 if shape == "one judge" else draw(st.integers(2, 40))
    max_rating = 1 if shape == "M = 1" else draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ratings = rng.integers(0, max_rating + 1, size=(n_judges, n))
    if shape == "tied":
        ratings = ratings[:, rng.integers(0, 3, n)]
    if shape in ("all 0", "all M"):
        ratings[:] = 0 if shape == "all 0" else max_rating
    rankings = np.array([rng.permutation(n) for _ in range(n_judges)])
    stats = SufficientStats.from_dataset(
        Dataset(ratings=ratings, rankings=rankings, max_rating=max_rating)
    )
    box = draw(st.sampled_from([DEFAULT_BOUNDS, ParamBounds(p_min=0.2, p_max=0.7)]))
    prefix = tuple(rng.permutation(n)[: draw(st.integers(0, n - 3))].tolist())
    return stats, box, prefix


@settings(max_examples=300, deadline=None)
@given(node=bound_nodes())
def test_child_bounds_match_the_full_row_bound(node):
    stats, box, prefix = node
    free = ascending_free(stats, prefix)
    decided = decided_count(stats, prefix)
    got, got_decided = _child_bounds(stats, prefix, free, box, decided)
    want, want_decided = child_bounds_rows_first(stats, prefix, free, box, decided)
    assert got_decided.tolist() == want_decided.tolist()
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@settings(max_examples=200, deadline=None)
@given(node=bound_nodes())
def test_prefix_blocks_are_the_isotonic_fit(node):
    stats, box, prefix = node
    m, xbar = stats.max_rating, stats.xbar[list(prefix)]
    sums, sizes, terms = _pooled_prefix(stats.xbar.tolist(), prefix, m, box)
    assert sum(sizes) == len(prefix) and len(terms) == len(sums) + 1
    means = np.repeat(np.array(sums) / (np.array(sizes) * m), sizes)
    fitted = isotonic_regression(xbar / m, increasing=True).x
    np.testing.assert_allclose(means, fitted, rtol=1e-13, atol=0)
    p = np.clip(fitted, box.p_min, box.p_max)
    rating = float(xbar @ np.log(p) + (m - xbar) @ np.log1p(-p))
    assert abs(terms[-1] - rating) <= 1e-12 * (1.0 + abs(rating))


# ---------------------------------------------------------------------------
# cost of the search


def test_near_null_eleven_objects_fit_in_few_nodes():
    # flat qualities and near-uniform rankings: the search's hard case
    rng = np.random.default_rng(0)
    truth = Params(p=np.sort(0.5 + rng.uniform(-0.05, 0.05, 11)), theta=0.01)
    result = fit_best_first(sample_dataset(truth, 50, 5, seed=0))
    assert result.nodes_expanded < 1000
    assert result.consensus.tolist() == [2, 1, 4, 0, 6, 3, 10, 5, 8, 7, 9]
    assert result.loglik == -1694.1727288154489


@pytest.mark.parametrize(
    "seed, nodes, profiled, consensus, loglik",
    [
        (0, 261, 8, [3, 1, 5, 0, 6, 4, 2, 11, 7, 8, 9, 10, 12], -2107.5963124995133),
        (1, 454, 4, [1, 2, 0, 10, 5, 4, 8, 7, 3, 11, 9, 6, 12], -2102.053224595712),
        (3, 16649, 164, [6, 3, 8, 5, 12, 4, 0, 10, 11, 2, 9, 1, 7], -2097.8832164609767),
        (4, 745, 4, [0, 5, 7, 2, 3, 6, 9, 8, 4, 1, 11, 12, 10], -2110.4173305196146),
    ],
)
def test_near_null_thirteen_objects_keep_their_search(seed, nodes, profiled, consensus, loglik):
    # deeper searches than any golden file runs: their node and profile
    # counts and their answer must not move.  Seed 2 (96 700 nodes, 206
    # profiles) is left out, as it alone takes about five times as long as
    # these four together
    truth = Params(np.linspace(0.45, 0.55, 13), 0.01)
    result = fit_best_first(sample_dataset(truth, 50, 5, seed=seed))
    assert (result.nodes_expanded, result.candidates_profiled) == (nodes, profiled)
    assert result.consensus.tolist() == consensus
    assert result.loglik == loglik


def test_direct_search_solves_theta_once_per_count(monkeypatch):
    data = near_null_panel(np.random.default_rng(3))
    expected, _, _ = fit_best_first_loop(data)
    calls = []
    theta_mle = estimation.theta_mle

    def counted(dbar, n_objects, bounds=DEFAULT_BOUNDS):
        calls.append(dbar)
        return theta_mle(dbar, n_objects, bounds)

    monkeypatch.setattr(estimation, "theta_mle", counted)
    result = fit_best_first(data)
    assert len(calls) == len(set(calls)) < result.candidates_profiled
    assert not same_fit(result, expected)


# ---------------------------------------------------------------------------
# the tabulated ranking term against theta_mle


def scalar_terms(dbar, n_objects, bounds=DEFAULT_BOUNDS) -> np.ndarray:
    values = []
    for d in dbar:
        theta, _ = theta_mle(d, n_objects, bounds)
        values.append(-theta * d - log_psi(theta, n_objects))
    return np.array(values)


@pytest.mark.parametrize("n_objects", [2, 9, 20, 40])
def test_distance_moments_match_scalar_functions(n_objects):
    # both sides of the series cutoff at theta * n = 0.01, and the box edges;
    # just above the cutoff the closed forms cancel to about 1e-10 relative,
    # while dropping the series branch costs far more below it
    thetas = np.concatenate(
        [
            [1e-6],
            np.geomspace(1e-5, 0.0099, 9) / n_objects,
            np.geomspace(0.0101 / n_objects, 50, 30),
        ]
    )
    mean, log_norm = _distance_moments(thetas, n_objects)
    for name, vectorised, scalar in (
        ("mean", mean, expected_distance),
        ("log psi", log_norm, log_psi),
    ):
        expected = np.array([scalar(t, n_objects) for t in thetas])
        np.testing.assert_allclose(vectorised, expected, rtol=1e-9, atol=1e-300, err_msg=name)


def distances_at(thetas, n_objects) -> np.ndarray:
    return np.array([expected_distance(t, n_objects) for t in thetas])


def check_chord_bounds_g(n_objects, bounds):
    """The tabulated chord against ``g`` through ``theta_mle``: exact where
    ``theta`` clamps, and elsewhere above it by less than 1e-4 per judge
    (about 8e-5 at most, at J = 40 and the default box), never below by more
    than rounding."""
    table_d, _ = _ranking_term_table(n_objects, bounds)
    assert np.all(np.diff(table_d) > 0)
    top = n_objects * (n_objects - 1) / 2
    low = expected_distance(bounds.theta_max, n_objects)
    high = expected_distance(bounds.theta_min, n_objects)
    clamped = np.concatenate([np.linspace(0.0, low, 4), np.linspace(high, top, 4)])
    np.testing.assert_allclose(
        _concentration_terms(clamped, n_objects, bounds),
        scalar_terms(clamped, n_objects, bounds),
        rtol=0,
        atol=1e-12,
    )
    thetas = np.geomspace(bounds.theta_min, bounds.theta_max, 40)
    dbar = np.concatenate(
        [
            distances_at(thetas, n_objects),  # on the default box, some below the series cutoff
            (table_d[:-1:16] + table_d[1::16]) / 2,  # midway between table points
            np.linspace(0.0, top, 61),
        ]
    )
    excess = _concentration_terms(dbar, n_objects, bounds) - scalar_terms(dbar, n_objects, bounds)
    assert excess.min() >= -1e-12, dbar[excess.argmin()]
    assert excess.max() <= 1e-4, dbar[excess.argmax()]


@pytest.mark.parametrize("n_objects", [2, 3, 5, 9, 12, 20, 40])
def test_concentration_terms_match_theta_mle(n_objects):
    check_chord_bounds_g(n_objects, DEFAULT_BOUNDS)


def test_concentration_terms_follow_custom_box():
    for n_objects in (2, 3, 5, 9, 12, 20, 40):
        check_chord_bounds_g(n_objects, ParamBounds(theta_min=0.2, theta_max=3.0))


# ---------------------------------------------------------------------------
# reported consensus arrays are read-only


def test_fit_and_profile_consensus_are_read_only():
    data = sample_dataset(Params(p=[0.2, 0.5, 0.7, 0.9], theta=1.0), 20, 4, seed=1)
    for result in (fit_best_first(data), fit_exhaustive(data), profile_loglik(data, [3, 2, 1, 0])):
        assert not result.consensus.flags.writeable
        with pytest.raises(ValueError):
            result.consensus[0] = 1
