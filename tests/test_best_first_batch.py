"""The batched best-first search against the scalar search it replaces.

``fit_best_first`` bounds all children of a prefix in one numpy pass, with a
vectorised concentration solve.  The search that bounds one child at a time
(``oracles.fit_best_first_loop``) is the reference: consensus, loglik,
qualities, concentration and clamp flag must agree bit for bit, and the
search must expand the same prefixes and profile the same rankings.  The
batched bound must also be admissible: no completion of a child may beat it.
"""

import itertools

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
    distance_variance,
    expected_distance,
    fit_best_first,
    fit_exhaustive,
    log_psi,
    profile_loglik,
    sample_dataset,
    theta_mle,
)
from mallows_binomial.estimation import (
    _child_bounds,
    _concentration_terms,
    _distance_moments,
    _free_rating_bounds,
)

from .oracles import fit_best_first_loop, small_panels
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


def seeded_panels():
    rng = np.random.default_rng(20261019)
    for n_objects in range(3, 13):
        for _ in range(8 if n_objects <= 8 else 4):
            yield model_panel(rng, n_objects)
    for _ in range(6):
        yield near_null_panel(rng)
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
    free = np.array(sorted(set(range(n_objects)) - set(prefix)), dtype=np.intp)
    bounds, child_decided = _child_bounds(
        stats,
        prefix,
        free,
        _free_rating_bounds(stats, DEFAULT_BOUNDS),
        DEFAULT_BOUNDS,
        decided_count(stats, prefix),
    )
    assert bounds.shape == child_decided.shape == free.shape
    for child, bound, count in zip(free.tolist(), bounds.tolist(), child_decided.tolist()):
        rest = tuple(o for o in free.tolist() if o != child)
        assert count == decided_count(stats, prefix + (child,))
        best = best_completion(stats, prefix + (child,), rest)
        # rounding only: far below the search's pruning slack of 1e-7
        assert bound >= best - 1e-11 * (1.0 + abs(best)), (prefix, child, bound, best)


# ---------------------------------------------------------------------------
# the vectorised concentration solve against theta_mle


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
    mean, variance, log_norm = _distance_moments(thetas, n_objects)
    for name, vectorised, scalar in (
        ("mean", mean, expected_distance),
        ("variance", variance, distance_variance),
        ("log psi", log_norm, log_psi),
    ):
        expected = np.array([scalar(t, n_objects) for t in thetas])
        np.testing.assert_allclose(vectorised, expected, rtol=1e-9, atol=1e-300, err_msg=name)


def distances_at(thetas, n_objects) -> np.ndarray:
    return np.array([expected_distance(t, n_objects) for t in thetas])


@pytest.mark.parametrize("n_objects", [2, 3, 5, 9, 12, 20, 40])
def test_concentration_terms_match_theta_mle(n_objects):
    bounds = DEFAULT_BOUNDS
    uniform = n_objects * (n_objects - 1) / 4
    series = np.geomspace(bounds.theta_min, 0.009 / n_objects, 7)
    interior = np.geomspace(0.011 / n_objects, 0.9 * bounds.theta_max, 25)
    dbar = np.concatenate(
        [
            [0.0, expected_distance(bounds.theta_max, n_objects) / 2],  # clamp to theta_max
            [uniform, uniform + 1.0, n_objects * (n_objects - 1) / 2],  # clamp to theta_min
            distances_at(series, n_objects),  # theta * n below the series cutoff
            distances_at(interior, n_objects),
            np.linspace(0.01, uniform - 1e-3, 40),
        ]
    )
    assert np.any(distances_at(series, n_objects) > 0)
    vectorised = _concentration_terms(dbar, n_objects, bounds)
    np.testing.assert_allclose(vectorised, scalar_terms(dbar, n_objects), rtol=0, atol=1e-12)


def test_concentration_terms_follow_custom_box():
    bounds = ParamBounds(theta_min=0.2, theta_max=3.0)
    dbar = np.linspace(0.0, 9 * 8 / 2, 73)
    np.testing.assert_allclose(
        _concentration_terms(dbar, 9, bounds), scalar_terms(dbar, 9, bounds), rtol=0, atol=1e-12
    )


# ---------------------------------------------------------------------------
# reported consensus arrays are read-only


def test_fit_and_profile_consensus_are_read_only():
    data = sample_dataset(Params(p=[0.2, 0.5, 0.7, 0.9], theta=1.0), 20, 4, seed=1)
    for result in (fit_best_first(data), fit_exhaustive(data), profile_loglik(data, [3, 2, 1, 0])):
        assert not result.consensus.flags.writeable
        with pytest.raises(ValueError):
            result.consensus[0] = 1
