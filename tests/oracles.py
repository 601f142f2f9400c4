"""Brute-force reference implementations used only by the tests.

Everything here is deliberately naive and, with one exception, independent of
the package code: pair-by-pair distance counting, exhaustive sums over all J!
permutations, term-by-term density products, and grid searches.  Slow is
fine; these run only at small sizes.

The exceptions are the searches as scalar loops:
:func:`fit_exhaustive_loop` runs one profile per permutation,
:func:`fit_best_first_loop` bounds one child prefix at a time, and
:func:`bootstrap_replicates_loop` refits one bootstrap replicate at a time.
They call the package's ``profile_loglik`` and ``fit`` on purpose: the
screened exhaustive search, the batched best-first search and the stacked
bootstrap refits must reproduce them bit for bit, not merely within a
tolerance.  :func:`small_panels` is the hypothesis strategy of small
degenerate panels that those comparisons share.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np
from hypothesis import strategies as st
from scipy.optimize import isotonic_regression

from mallows_binomial import (
    DEFAULT_BOUNDS,
    Dataset,
    SufficientStats,
    fit,
    log_psi,
    profile_loglik,
    theta_mle,
)
from mallows_binomial.bootstrap import _JudgeTables
from mallows_binomial.estimation import _PRUNE_SLACK


def kendall_naive(a, b) -> int:
    """O(J^2) discordant-pair count."""
    a = list(a)
    b = list(b)
    pos_a = {obj: i for i, obj in enumerate(a)}
    pos_b = {obj: i for i, obj in enumerate(b)}
    count = 0
    for u, v in itertools.combinations(sorted(a), 2):
        if (pos_a[u] < pos_a[v]) != (pos_b[u] < pos_b[v]):
            count += 1
    return count


def all_permutations(n: int) -> list[tuple[int, ...]]:
    return list(itertools.permutations(range(n)))


def psi_exhaustive(theta: float, n: int, center=None) -> float:
    """Normalizer as the literal sum over all n! permutations."""
    if center is None:
        center = tuple(range(n))
    return sum(
        math.exp(-theta * kendall_naive(perm, center)) for perm in all_permutations(n)
    )


def mallows_pmf_exhaustive(center, theta: float) -> dict[tuple[int, ...], float]:
    """Exact pmf over all permutations, normalized by the enumerated sum."""
    center = tuple(center)
    weights = {
        perm: math.exp(-theta * kendall_naive(perm, center))
        for perm in all_permutations(len(center))
    }
    total = sum(weights.values())
    return {perm: w / total for perm, w in weights.items()}


def insertion_loop(center, displacements) -> np.ndarray:
    """Repeated insertion, one row and one Python ``list.insert`` at a time.

    ``displacements[k, m]`` is how many places above the bottom of row
    ``k``'s growing list ``center[m]`` is inserted; column 0 is ignored.
    """
    displacements = np.asarray(displacements)
    out = np.empty(displacements.shape, dtype=np.intp)
    for k, row_displacements in enumerate(displacements):
        row: list[int] = []
        for m, obj in enumerate(center):
            row.insert(m - int(row_displacements[m]), obj)
        out[k] = row
    return out


def sample_mallows_loop(center, theta: float, n_samples: int, rng) -> np.ndarray:
    """Mallows draws as ``insertion_loop`` makes them, one uniform column per step.

    Step ``m`` takes ``n_samples`` uniforms and maps each to a displacement
    through the normalized ``exp(-theta * v)`` weights, ``v = 0..m``.
    """
    n = len(center)
    displacements = np.zeros((n_samples, n), dtype=np.intp)
    for m in range(1, n):
        cdf = np.cumsum(np.exp(-theta * np.arange(m + 1)))
        cdf /= cdf[-1]
        cdf[-1] = 1.0
        displacements[:, m] = np.searchsorted(cdf, rng.random(n_samples), side="right")
    return insertion_loop(center, displacements)


def distance_moments_exhaustive(theta: float, n: int) -> tuple[float, float]:
    """Mean and variance of the Kendall distance under the exhaustive pmf."""
    center = tuple(range(n))
    pmf = mallows_pmf_exhaustive(center, theta)
    mean = sum(prob * kendall_naive(perm, center) for perm, prob in pmf.items())
    second = sum(prob * kendall_naive(perm, center) ** 2 for perm, prob in pmf.items())
    return mean, second - mean**2


def joint_loglik_direct(rankings, ratings, p, theta, consensus, max_rating) -> float:
    """Sum of per-judge log densities, each computed term by term.

    The ranking factor uses the enumerated normalizer; the rating factors use
    ``math.comb`` directly.  No shared code with the package.
    """
    total = 0.0
    for ranking, row in zip(rankings, ratings):
        total += math.log(
            math.exp(-theta * kendall_naive(ranking, consensus))
            / psi_exhaustive(theta, len(consensus))
        )
        for x, pj in zip(row, p):
            x = int(x)
            total += math.log(
                math.comb(max_rating, x) * pj**x * (1.0 - pj) ** (max_rating - x)
            )
    return total


def log_binom_const_direct(ratings, max_rating: int) -> float:
    return float(
        sum(math.log(math.comb(max_rating, int(x))) for x in np.asarray(ratings).ravel())
    )


def binomial_term(p, xbar, max_rating) -> np.ndarray:
    """Mean rating log-likelihood term, vectorized over leading axes of ``p``."""
    p = np.asarray(p, dtype=float)
    xbar = np.asarray(xbar, dtype=float)
    return np.log(p) @ xbar + np.log1p(-p) @ (max_rating - xbar)


def constrained_binomial_grid(xbar, max_rating, order, lo, hi, stages=3, points=41):
    """Grid-search maximizer of the rating term under an order constraint.

    Searches quality vectors whose coordinates are nondecreasing along
    ``order`` and inside ``[lo, hi]``, refining the grid around the incumbent
    at each stage.  Independent of the analytic pooled solution.
    """
    xbar = np.asarray(xbar, dtype=float)
    order = list(order)
    n = len(order)
    low = np.full(n, lo, dtype=float)
    high = np.full(n, hi, dtype=float)
    best = None
    for _ in range(stages):
        axes = [np.linspace(low[k], high[k], points) for k in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        pts = pts[np.all(np.diff(pts, axis=1) >= 0.0, axis=1)]
        values = binomial_term(pts, xbar[order], max_rating)
        best = pts[int(np.argmax(values))]
        span = (high - low) / (points - 1)
        low = np.maximum(lo, best - 2.0 * span)
        high = np.minimum(hi, best + 2.0 * span)
    p = np.empty(n)
    p[order] = best
    return p


def concentration_grid(dbar, n_objects, lo, hi, stages=3, points=2001):
    """Grid-search maximizer of ``-theta*dbar - log(psi)`` over ``[lo, hi]``."""
    low, high = lo, hi
    best = None
    for _ in range(stages):
        thetas = np.linspace(low, high, points)
        values = np.array(
            [-t * dbar - math.log(psi_exhaustive(t, n_objects)) for t in thetas]
        )
        best = float(thetas[int(np.argmax(values))])
        step = (high - low) / (points - 1)
        low = max(lo, best - 2.0 * step)
        high = min(hi, best + 2.0 * step)
    return best


def profile_grid(rankings, ratings, order, max_rating, bounds, stages=3):
    """Grid-search profile optimum (p, theta, loglik) for a fixed consensus.

    The objective is additively separable in the rating and ranking terms, so
    maximizing each on its own grid equals the joint grid maximum.
    """
    rankings = np.asarray(rankings)
    ratings = np.asarray(ratings)
    n_judges, n = ratings.shape
    xbar = ratings.mean(axis=0)
    p = constrained_binomial_grid(
        xbar, max_rating, order, bounds.p_min, bounds.p_max, stages=stages
    )
    dbar = float(np.mean([kendall_naive(row, order) for row in rankings]))
    theta = concentration_grid(dbar, n, bounds.theta_min, bounds.theta_max, stages=stages)
    loglik = (
        n_judges
        * (
            -theta * dbar
            - math.log(psi_exhaustive(theta, n))
            + float(binomial_term(p, xbar, max_rating))
        )
        + log_binom_const_direct(ratings, max_rating)
    )
    return p, theta, loglik


def fit_exhaustive_loop(data, bounds=DEFAULT_BOUNDS):
    """Best profile over every permutation, in lexicographic order.

    Ties go to the first permutation reaching the maximum (strict ``>``).
    Returns the winning ``ProfileFit`` and the number of profiles run.
    """
    stats = data if isinstance(data, SufficientStats) else SufficientStats.from_dataset(data)
    best = None
    count = 0
    for perm in itertools.permutations(range(stats.n_objects)):
        candidate = profile_loglik(stats, perm, bounds)
        count += 1
        if best is None or candidate.loglik > best.loglik:
            best = candidate
    return best, count


def prefix_bound(stats, prefix, free, bounds) -> float:
    """Upper bound on the profile log-likelihood over completions of ``prefix``.

    The rating term is the order-constrained maximum along the prefix
    followed by the free objects in ascending order of mean rating, which is
    the best over every completion.  The mean distance is lowered to its
    minimum over completions, with the concentration then chosen optimally
    for that minimum, which only raises the value, so no completion can beat
    the bound.
    """
    order = np.concatenate(
        [np.asarray(prefix, dtype=np.intp), free[np.argsort(stats.xbar[free], kind="stable")]]
    )
    fitted = isotonic_regression(stats.xbar[order] / stats.max_rating, increasing=True).x
    fitted = np.clip(fitted, bounds.p_min, bounds.p_max)
    rating = float(
        stats.xbar[order] @ np.log(fitted)
        + (stats.max_rating - stats.xbar[order]) @ np.log1p(-fitted)
    )
    # ranking term: decided pairs contribute their actual disagreement
    # counts, undecided pairs the smaller of the two
    n = stats.n_objects
    counts = stats.pair_counts
    disagreements = 0
    for i, u in enumerate(prefix):
        for v in prefix[i + 1 :]:
            disagreements += counts[v, u]
        disagreements += counts[free, u].sum()
    sub = counts[np.ix_(free, free)]
    disagreements += np.minimum(sub, sub.T)[np.triu_indices(free.size, 1)].sum()
    dbar_min = float(disagreements) / stats.n_judges
    theta, _ = theta_mle(dbar_min, n, bounds)
    rank = -theta * dbar_min - log_psi(theta, n)
    return stats.n_judges * (rank + rating) + stats.log_binom_const


def fit_best_first_loop(data, bounds=DEFAULT_BOUNDS):
    """Best-first search that bounds one child prefix at a time.

    Same queue, pruning slack and tie rule as the package's search (exact
    ties go to the lexicographically smallest consensus).  Returns the
    winning ``ProfileFit``, the number of full rankings profiled and the
    number of prefixes expanded.
    """
    stats = data if isinstance(data, SufficientStats) else SufficientStats.from_dataset(data)
    n = stats.n_objects
    queue = []
    best = None
    candidates = 0
    nodes = 0

    def slack():
        return _PRUNE_SLACK * (1.0 + abs(best.loglik))

    def consider(perm):
        nonlocal best, candidates
        candidate = profile_loglik(stats, perm, bounds)
        candidates += 1
        if (
            best is None
            or candidate.loglik > best.loglik
            or (candidate.loglik == best.loglik and perm < tuple(best.consensus))
        ):
            best = candidate

    def expand(prefix, free):
        nonlocal nodes
        nodes += 1
        for obj in free:
            child = prefix + (int(obj),)
            rest = free[free != obj]
            if len(child) >= n - 1:
                consider(child + tuple(int(r) for r in rest))
            else:
                bound = prefix_bound(stats, child, rest, bounds)
                if best is None or bound >= best.loglik - slack():
                    heapq.heappush(queue, (-bound, child))

    expand((), np.arange(n, dtype=np.intp))
    while queue:
        neg_bound, prefix = heapq.heappop(queue)
        if best is not None and -neg_bound < best.loglik - slack():
            break
        prefix_set = set(prefix)
        free = np.array([o for o in range(n) if o not in prefix_set], dtype=np.intp)
        expand(prefix, free)
    return best, candidates, nodes


def bootstrap_replicates_loop(data, n_replicates, seed, bounds=DEFAULT_BOUNDS):
    """Bootstrap refits one ``fit`` call per replicate, in replicate order.

    Returns the qualities, concentrations, consensus rankings and clamp
    flags of replicates ``0..n_replicates-1`` as stacked arrays.
    """
    tables = _JudgeTables.from_dataset(data)
    fits = [fit(tables.replicate(seed, b), bounds) for b in range(n_replicates)]
    return (
        np.array([refit.p for refit in fits]),
        np.array([refit.theta for refit in fits]),
        np.array([refit.consensus for refit in fits]),
        np.array([refit.theta_clamped for refit in fits]),
    )


PANEL_SHAPES = ("any", "one judge", "unanimous", "constant", "ties", "tied rankings")


@st.composite
def small_panels(draw, shapes=PANEL_SHAPES):
    """Small panels in the degenerate shapes: one judge, unanimous judges,
    constant ratings, M = 1, exact J!-way ties, and rankings that give every
    candidate the same disagreement count under arbitrary ratings."""
    n = draw(st.integers(2, 5))
    shape = draw(st.sampled_from(shapes))
    n_judges = 1 if shape == "one judge" else draw(st.integers(2, 12))
    max_rating = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    ratings = rng.integers(0, max_rating + 1, size=(n_judges, n))
    rankings = np.array([rng.permutation(n) for _ in range(n_judges)])
    if shape == "unanimous":
        rankings[:] = rankings[0]
    if shape in ("constant", "ties"):
        ratings[:] = draw(st.integers(0, max_rating))
    if shape in ("ties", "tied rankings"):
        # each ranking beside its reverse: every candidate has the same
        # disagreement count, so with constant ratings all J! candidates tie
        rankings[1::2] = rankings[0::2][: n_judges // 2, ::-1]
        if n_judges % 2:
            rankings = rankings[:-1]
            ratings = ratings[:-1]
    return Dataset(ratings=ratings, rankings=rankings, max_rating=max_rating)
