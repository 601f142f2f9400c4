"""The refit kernels against the earlier code they replace, bit for bit.

``theta_mle`` runs Brent's method in the module instead of calling
``scipy.optimize.brentq``; ``_rating_terms`` runs the isotonic min-max fit
with the candidates on the last axis; ``_constrained_p`` skips the isotonic
call on strictly increasing means.  Each must give every bit of the earlier
result, which ``tests/oracles.py`` keeps.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import isotonic_regression

from mallows_binomial import DEFAULT_BOUNDS, ParamBounds, estimation, expected_distance
from mallows_binomial.estimation import _constrained_p, _rating_terms, theta_mle

from . import oracles
from .oracles import rating_terms_rows_first, theta_mle_brentq

BOXES = [DEFAULT_BOUNDS, ParamBounds(p_min=0.01, p_max=0.99, theta_min=0.01, theta_max=5.0)]


@st.composite
def distance_problems(draw):
    """``(dbar, J, box)``: anywhere in the distance range, near zero, near
    either clamp edge, on a judge-count grid, and where ``theta * J`` falls
    under the series cutoff."""
    n = draw(st.integers(2, 40))
    box = draw(st.sampled_from(BOXES))
    top = n * (n - 1) / 2
    nearest = expected_distance(box.theta_max, n)
    farthest = expected_distance(box.theta_min, n)
    edge = st.sampled_from([nearest, farthest])
    dbar = draw(
        st.one_of(
            st.floats(0.0, top),
            st.floats(0.0, 1e-3),
            st.builds(lambda e, k: e * (1.0 + k * 2.0**-52), edge, st.integers(-8, 8)),
            st.builds(lambda d, i: d / i, st.integers(0, int(top) * 50), st.integers(1, 50)),
            # theta in the series branch, theta * J < 0.01, where the box reaches it
            st.floats(box.theta_min, max(box.theta_min, 0.01 / n)).map(
                lambda t: expected_distance(t, n)
            ),
        )
    )
    return dbar, n, box


@settings(max_examples=3000, deadline=None)
@given(distance_problems())
def test_theta_mle_gives_brentqs_bits(problem):
    theta, clamped = theta_mle(*problem)
    expected = theta_mle_brentq(*problem)
    assert (theta, clamped) == expected
    assert type(theta) is type(expected[0])


def test_theta_mle_sweeps_brentqs_bits():
    for box in BOXES:
        for n in [*range(2, 21), 30, 40, 60]:
            for dbar in np.linspace(0.0, n * (n - 1) / 2, 401).tolist():
                assert theta_mle(dbar, n, box) == theta_mle_brentq(dbar, n, box)


def _counting(monkeypatch, module) -> list:
    calls = []

    def counted(theta, n_objects):
        calls.append(theta)
        return expected_distance(theta, n_objects)

    monkeypatch.setattr(module, "expected_distance", counted)
    return calls


@pytest.mark.parametrize("dbar, clamped", [(0.0, True), (2.5, False), (6.0, True)])
def test_theta_mle_reuses_the_clamp_checks_as_the_bracket_ends(monkeypatch, dbar, clamped):
    # the box edges' distances, cached per object count and box, are the
    # clamp checks and the bracket ends; only Brent's iterates go through
    # the module's expected_distance, which bench/tracing.py counts, with
    # the edge cache cold or warm
    ours = _counting(monkeypatch, estimation)
    theirs = _counting(monkeypatch, oracles)
    theta_mle_brentq(dbar, 4)
    estimation._box_edge_distances.cache_clear()
    for _ in ("cold", "warm"):
        ours.clear()
        assert theta_mle(dbar, 4)[1] is clamped
        # brentq's iterates past its two ends, which the oracle computes
        # after the two clamp checks
        assert ours == ([] if clamped else theirs[4:])


def test_theta_mle_fails_like_brentq_when_its_iterations_run_out(monkeypatch):
    monkeypatch.setattr(estimation, "_MAXITER", 3)
    with pytest.raises(RuntimeError, match="Failed to converge after 3 iterations"):
        theta_mle(2.5, 4)


def _means(rng, shape: tuple[int, ...], tied: bool) -> tuple[np.ndarray, int]:
    """Mean ratings of a random panel, and its scale; ``tied`` draws three
    levels only, so equal means and flat stretches are common."""
    n_judges, max_rating = int(rng.integers(1, 300)), int(rng.integers(1, 10))
    top = max_rating * n_judges
    totals = rng.choice([0, top // 2, top], shape) if tied else rng.integers(0, top + 1, shape)
    return totals / n_judges, max_rating


@pytest.mark.parametrize("shape", ["random", "tied"])
@pytest.mark.parametrize("n", range(2, 21))
def test_rating_terms_give_the_rows_first_bits(n, shape):
    rng = np.random.default_rng([n, shape == "tied"])
    for rows in (1, 7, int(rng.integers(50, 600))):
        xbar, max_rating = _means(rng, (rows, n), shape == "tied")
        for box in BOXES:
            got = _rating_terms(xbar, max_rating, box)
            want = rating_terms_rows_first(xbar, max_rating, box)
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def _constrained_p_isotonic(xbar, max_rating, order, bounds):
    """The fit with the isotonic call on every input."""
    means = xbar / max_rating
    fitted = isotonic_regression(means[order], increasing=True).x
    p = np.empty(xbar.size)
    p[order] = np.clip(fitted, bounds.p_min, bounds.p_max)
    return p


@pytest.mark.parametrize("shape", ["ascending", "tied", "violating"])
def test_constrained_p_gives_the_isotonic_bits(shape):
    rng = np.random.default_rng(["ascending", "tied", "violating"].index(shape))
    for _ in range(500):
        n = int(rng.integers(2, 21))
        xbar, max_rating = _means(rng, n, shape == "tied")
        order = rng.permutation(n) if shape == "violating" else np.argsort(xbar, kind="stable")
        for box in BOXES:
            got = _constrained_p(xbar, max_rating, order, box)
            want = _constrained_p_isotonic(xbar, max_rating, order, box)
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

