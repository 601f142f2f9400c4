"""Joint maximum-likelihood estimation of qualities, concentration, consensus.

The log-likelihood splits, for a fixed consensus ranking, into a rating term
(independent Binomials under an order constraint along the consensus) and a
ranking term (concentration against the observed mean Kendall distance).
Both profile maximizers are available in closed form:

* qualities: pool-adjacent-violators on the per-object mean ratings, then a
  box clamp, which solves the order-constrained Binomial problem because all
  objects share the same judge count and rating scale;
* concentration: the expected Kendall distance is strictly decreasing in
  ``theta``, so the MLE inverts it at the observed mean distance (clamping to
  the box when the observed mean lies outside the attainable range).

The consensus itself is discrete.  :func:`fit_exhaustive` scores every
permutation; :func:`fit_best_first` explores prefixes of the consensus with
an upper bound on the best completion and provably returns the same optimum,
usually after profiling a small fraction of the permutations.  Which one
runs is this module's decision alone: :func:`fit` and the bootstrap refits
use the exhaustive screen up to 6 objects and the best-first search beyond.

Both searches apply one rule.  The profile of a candidate is ``I * [R +
g(D / I)] + const``, where ``R`` is the rating term at the order-constrained
qualities, ``D`` the integer count of judge-pair disagreements with the
candidate, and ``g(d) = max_theta [-theta d - log psi(theta)]``.  A bound
keeps ``R`` exact (isotonic fit by the min-max formula, box clip, Binomial
term) and reads ``g`` off a cached table by linear interpolation, with no
``theta`` solve: ``g`` is convex, so the chord between table points bounds
it from above.  Whatever can still reach the best profile, within a slack,
gets the scalar profile of :func:`profile_loglik`.  Profiles share a memo
of :func:`theta_mle` solves keyed on that function's own arguments, ``(D /
I, J, box)``, so a hit returns what the call would have and no bit changes;
the memo lives as long as the outermost fit or bootstrap range that opened
it.  Every bound is admissible, so every maximiser is profiled, and ties go
to the lexicographically smallest consensus: the winner, the tie-break and
every reported number are those of the loop that profiles every
permutation.

The exhaustive screen runs over a stack of sufficient statistics that share
the judge count, object count and rating scale (:func:`fit_exhaustive` is
the stack of one; the bootstrap stacks as many replicates as their J!
candidates fit in 7! = 5040 rows).  One numpy pass bounds every candidate,
a full ranking, as a ``(statistics, J!)`` matrix.  Each statistics profiles
its highest bound first, then every candidate whose bound reaches that
profile less the slack, in lexicographic order with a strict ``>``.

The best-first search bounds all children of a prefix in one pass.  The
screen's kernel scores each child as one full ranking: the prefix, the
child, then the other free objects by ascending mean rating.  Every
completion keeps the free objects above the chain, and under that tree order
the best ``R`` is the isotonic fit along this ranking (Robertson, Wright &
Dykstra 1988), so ``R`` is exact.  Only ``D`` is relaxed, to its exact
integer minimum over completions: decided pairs count their disagreements,
undecided ones the smaller of their two orders.  On every panel measured the
search expanded and profiled as many candidates as bounding one child at a
time with exact solves, though the chord's slack could cost a node
elsewhere.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, isotonic_regression

from .model import (
    DEFAULT_BOUNDS,
    Dataset,
    ParamBounds,
    SufficientStats,
    _SERIES_CUTOFF,
    _as_stats,
    _disagreements,
    _loglik_from_stats,
    as_ranking,
    expected_distance,
)

__all__ = [
    "constrained_p_mle",
    "theta_mle",
    "ProfileFit",
    "profile_loglik",
    "FitResult",
    "fit_exhaustive",
    "fit_best_first",
    "fit",
]

# the most objects the exhaustive screen takes on.  Its cost grows as J!,
# best-first's with how flat the panel is.  Up to 6 objects the stacked
# screen refits bootstrap replicates faster than a search per replicate; at
# 7 and 8 objects best-first fitted every measured panel faster (I = 100,
# M = 5: 1.5-10 ms against 8-12 ms at J = 7, 1.7-22 ms against 88-110 ms at
# J = 8), except exact J!-way ties, where both profile all J! candidates
_EXHAUSTIVE_MAX = 6

# safety margin for pruning, in both searches: a candidate or prefix is
# dropped only when its bound falls below the floor, the best profile so far
# (the screen's is its highest bound's) less this share of 1 + |loglik|.
# Bounds are computed with different floating-point operations than full
# profiles, so the floor must survive rounding noise without ever
# discarding the true optimum
_PRUNE_SLACK = 1e-7


def constrained_p_mle(xbar, max_rating: int, order, bounds: ParamBounds = DEFAULT_BOUNDS):
    """Order-constrained Binomial MLE of the quality vector.

    Maximizes the rating log-likelihood subject to ``p`` being nondecreasing
    along ``order`` and inside the bounds box.  Pool-adjacent-violators on
    the mean ratings gives the order-constrained optimum (equal weights:
    every object is rated by every judge on the same scale); clipping to the
    box afterwards preserves monotonicity and optimality because the
    objective is separable and concave with coordinate maxima at the means.

    Returns a vector indexed by object, not by rank.
    """
    xbar = np.asarray(xbar, dtype=float)
    return _constrained_p(xbar, max_rating, as_ranking(order, xbar.size), bounds)


def _constrained_p(xbar: np.ndarray, max_rating: int, order: np.ndarray, bounds: ParamBounds):
    """:func:`constrained_p_mle` for a float ``xbar`` and a validated ranking."""
    means = xbar / max_rating
    fitted = isotonic_regression(means[order], increasing=True).x
    p = np.empty(xbar.size)
    p[order] = np.clip(fitted, bounds.p_min, bounds.p_max)
    return p


def theta_mle(
    dbar: float, n_objects: int, bounds: ParamBounds = DEFAULT_BOUNDS
) -> tuple[float, bool]:
    """Concentration MLE given the observed mean Kendall distance.

    Inverts the strictly decreasing expected-distance function at ``dbar``.
    When ``dbar`` falls outside the range attainable inside the box (for
    example, perfectly unanimous rankings give ``dbar == 0``), the estimate
    clamps to the nearer box edge and the second return value is True.
    """
    dbar = float(dbar)
    if not dbar >= 0.0:  # also refuses NaN
        raise ValueError(f"mean distance must be non-negative, got {dbar}")
    if dbar <= expected_distance(bounds.theta_max, n_objects):
        return bounds.theta_max, True
    if dbar >= expected_distance(bounds.theta_min, n_objects):
        return bounds.theta_min, True
    theta = brentq(
        lambda t: expected_distance(t, n_objects) - dbar,
        bounds.theta_min,
        bounds.theta_max,
        xtol=1e-12,
        rtol=8.9e-16,
    )
    return float(theta), False


@dataclass(frozen=True)
class ProfileFit:
    """Profile maximum for one fixed candidate consensus."""

    consensus: np.ndarray
    p: np.ndarray
    theta: float
    theta_clamped: bool
    loglik: float


def profile_loglik(
    data, consensus, bounds: ParamBounds = DEFAULT_BOUNDS
) -> ProfileFit:
    """Maximize qualities and concentration for one candidate consensus.

    ``data`` may be a :class:`Dataset` or precomputed
    :class:`SufficientStats`.
    """
    stats = _as_stats(data)
    consensus = as_ranking(consensus, stats.n_objects)
    p = _constrained_p(stats.xbar, stats.max_rating, consensus, bounds)
    disagreements = stats._disagreements_with(consensus)
    dbar = float(disagreements) / stats.n_judges
    key = (dbar, stats.n_objects, bounds)
    memo = _solves.get({})
    if key not in memo:
        memo[key] = theta_mle(*key)
    theta, clamped = memo[key]
    loglik = _loglik_from_stats(stats, p, theta, dbar)
    return ProfileFit(
        consensus=consensus, p=p, theta=theta, theta_clamped=clamped, loglik=loglik
    )


# the theta_mle solves of the enclosing _sharing_solves block, keyed on
# theta_mle's arguments, so any statistics, object count and box may share
# it.  Profiles go through the public profile_loglik, which keeps its
# signature (wrappers of it, such as bench/tracing.py, see every profile),
# and read the memo from here; outside any block each profile solves alone
_solves: contextvars.ContextVar[dict] = contextvars.ContextVar("_solves")


@contextlib.contextmanager
def _sharing_solves():
    """Join the enclosing block's memo, or open a fresh one for this block."""
    token = _solves.set(_solves.get({}))
    try:
        yield
    finally:
        _solves.reset(token)


@dataclass(frozen=True)
class FitResult:
    """Joint MLE over all candidate consensus rankings.

    ``candidates_profiled`` counts the candidates scored (J! for
    exhaustive, the full rankings profiled for best-first);
    ``nodes_expanded`` counts the prefixes the best-first search took off its
    queue (zero for the exhaustive method).
    """

    consensus: np.ndarray
    p: np.ndarray
    theta: float
    theta_clamped: bool
    loglik: float
    method: str
    candidates_profiled: int
    nodes_expanded: int

    def params_consistent(self) -> bool:
        """True when the reported consensus orders the fitted qualities."""
        return bool(np.all(np.diff(self.p[self.consensus]) >= 0.0))


def _result(best: ProfileFit, method: str, candidates: int, nodes: int) -> FitResult:
    return FitResult(
        consensus=best.consensus,
        p=best.p,
        theta=best.theta,
        theta_clamped=best.theta_clamped,
        loglik=best.loglik,
        method=method,
        candidates_profiled=candidates,
        nodes_expanded=nodes,
    )


# the most candidate rows one stack of the screen holds: 7! = 5040, which
# every J! up to _EXHAUSTIVE_MAX divides, so a full stack fills it exactly
_BLOCK_ROWS = 5040


@functools.lru_cache(maxsize=_EXHAUSTIVE_MAX)
def _lex_permutations(n: int) -> np.ndarray:
    """Read-only table of all permutations of ``0..n-1`` in lexicographic order."""
    table = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    table.flags.writeable = False
    return table


def _stack_block(n_objects: int) -> int:
    """The most statistics one call of the screen takes: as many whole sets of
    ``J!`` candidates as fit in ``_BLOCK_ROWS``, and at least one (the
    bootstrap also builds its replicates in blocks of this size past it)."""
    return max(1, _BLOCK_ROWS // math.factorial(n_objects))


def _rating_terms(xbar: np.ndarray, max_rating: int, bounds: ParamBounds) -> np.ndarray:
    """Per-judge rating term at the constrained qualities, for every row of ``xbar``.

    Row ``r`` of ``xbar`` holds mean ratings in candidate order.  The
    isotonic fit uses the min-max formula for equal weights: the fitted
    value at rank ``k`` is the largest over ``i <= k`` of the smallest mean
    of ``y[i..j]`` over ``j >= k``.
    """
    n = xbar.shape[1]
    cumulative = np.zeros((xbar.shape[0], n + 1))
    np.cumsum(xbar / max_rating, axis=1, out=cumulative[:, 1:])
    first, last = np.arange(n)[:, None], np.arange(n)[None, :]
    # interval[b, i, j] = mean of y[i..j]; entries with i > j are never used
    interval = (cumulative[:, None, 1:] - cumulative[:, :-1, None]) / np.maximum(
        last - first + 1, 1
    )
    suffix_min = np.minimum.accumulate(interval[:, :, ::-1], axis=2)[:, :, ::-1]
    suffix_min[:, first > last] = -np.inf
    p = np.clip(suffix_min.max(axis=1), bounds.p_min, bounds.p_max)
    return np.sum(xbar * np.log(p) + (max_rating - xbar) * np.log1p(-p), axis=1)


def _fit_stack(stack: list[SufficientStats], bounds: ParamBounds) -> list[FitResult]:
    """Joint MLE for every statistics in ``stack``, in order.

    The statistics must share the object count, judge count and rating
    scale.  Their profiles share the memo of the enclosing
    :func:`_sharing_solves` block, or one of this call's own.  Up to
    ``_EXHAUSTIVE_MAX`` objects the stack (at most ``_stack_block(J)``
    statistics) goes through the screen in one pass, past it each
    statistics through :func:`fit_best_first`; both apply the rule of the
    module docstring, and each result is the one :func:`fit_exhaustive`
    gives alone.
    """
    with _sharing_solves():
        if stack[0].n_objects > _EXHAUSTIVE_MAX:
            return [fit_best_first(stats, bounds) for stats in stack]
        return _screen_stack(stack, bounds)


def _screen_stack(stack: list[SufficientStats], bounds: ParamBounds) -> list[FitResult]:
    """The exhaustive screen of :func:`_fit_stack`: bound every row of the
    ``(statistics, J!)`` candidate matrix, then profile the rows that can
    reach their statistics' best profile."""
    n, n_judges = stack[0].n_objects, stack[0].n_judges
    perms = _lex_permutations(n)
    xbar = np.stack([stats.xbar for stats in stack])
    rating = _rating_terms(
        xbar[:, perms].reshape(-1, n), stack[0].max_rating, bounds
    ).reshape(len(stack), -1)
    disagreements = _disagreements(np.stack([stats.pair_counts for stats in stack]), perms)
    ranking = _concentration_terms(disagreements / n_judges, n, bounds)
    constant = np.array([stats.log_binom_const for stats in stack])
    bound = n_judges * (rating + ranking) + constant[:, None]
    # the highest bound's profile sets each statistics' floor; every row
    # that reaches it is profiled, by statistics and then in lexicographic
    # order with a strict ">", which is the loop over all permutations
    # restricted to the only candidates that can win it
    first = bound.argmax(axis=1).tolist()
    tops = [profile_loglik(stats, perms[row], bounds) for stats, row in zip(stack, first)]
    top = np.array([fit.loglik for fit in tops])[:, None]
    best: list[ProfileFit | None] = [None] * len(stack)
    for s, row in zip(*np.nonzero(bound >= top - _PRUNE_SLACK * (1.0 + np.abs(top)))):
        candidate = tops[s] if row == first[s] else profile_loglik(stack[s], perms[row], bounds)
        if best[s] is None or candidate.loglik > best[s].loglik:
            best[s] = candidate
    return [_result(winner, "exhaustive", math.factorial(n), 0) for winner in best]


def fit_exhaustive(data, bounds: ParamBounds = DEFAULT_BOUNDS) -> FitResult:
    """Joint MLE over every consensus permutation.

    Ties in the profiled log-likelihood go to the lexicographically smallest
    consensus.  Every permutation is bounded by the screen of the module
    docstring; only those whose bound can reach the best profile get a full
    profile, and the result is the one profiling all of them would give.
    Refuses to run past 6 objects (the candidate count grows factorially);
    :func:`fit_best_first`, or :func:`fit`, returns the same optimum there.
    """
    stats = _as_stats(data)
    n = stats.n_objects
    if n > _EXHAUSTIVE_MAX:
        raise ValueError(
            f"exhaustive search over {n} objects means {n}! candidates; "
            "use fit_best_first"
        )
    return _fit_stack([stats], bounds)[0]


def _distance_moments(theta: np.ndarray, n_objects: int):
    """Mean of the Kendall distance and ``log psi``, per entry of ``theta``.

    Vectorised :func:`expected_distance` and :func:`log_psi`, with the same
    series branch below ``theta * n`` of ``_SERIES_CUTOFF``.
    """
    j = np.arange(1.0, n_objects + 1.0)
    scaled = theta[:, None] * j
    head = -np.expm1(-scaled)
    ratio = np.exp(-scaled) / head
    mean = n_objects * ratio[:, 0] - ratio @ j
    series = theta * n_objects < _SERIES_CUTOFF
    if series.any():
        t = theta[series]
        mean[series] = (
            np.sum(j - 1) / 2 - np.sum(j**2 - 1) / 12 * t + np.sum(j**4 - 1) / 720 * t**3
        )
    log_norm = np.log(head).sum(axis=1) - n_objects * np.log(head[:, 0])
    return mean, log_norm


# points of the log-spaced theta grid on which the ranking term is tabulated
# once per object count and box: neighbouring points are 0.4 % apart at the
# default box, and the chord between them lies at most about 8e-5 per judge
# above the exact term for J up to 40; at 1 024 points the looser bound made
# the search expand a few more prefixes on some panels
_THETA_GRID = 4096


@functools.lru_cache(maxsize=64)
def _ranking_term_table(n_objects: int, bounds: ParamBounds):
    """``(d, g)`` with ``d`` ascending from 0 to ``J (J - 1) / 2``, for
    :func:`_concentration_terms` to interpolate.

    ``g(d) = max -theta d - log psi(theta)`` over the box is a maximum of
    lines in ``d``, so it is convex, and at ``d = E(theta)`` the line of that
    ``theta`` attains it: the grid's points ``(E(theta), -theta E(theta) -
    log psi(theta))`` lie on ``g``.  Below ``E(theta_max)`` and above
    ``E(theta_min)``, ``g`` is the line of that box edge, so one more point
    on each edge line closes the table.
    """
    theta = np.geomspace(bounds.theta_max, bounds.theta_min, _THETA_GRID)
    # in chunks, so the (points x objects) temporaries stay small
    mean, log_norm = np.concatenate(
        [_distance_moments(chunk, n_objects) for chunk in np.split(theta, 32)], axis=1
    )
    top = n_objects * (n_objects - 1) / 2
    d = np.concatenate([[0.0], mean, [top]])
    g = np.concatenate(
        [[-log_norm[0]], -theta * mean - log_norm, [-theta[-1] * top - log_norm[-1]]]
    )
    d.flags.writeable = g.flags.writeable = False
    return d, g


def _concentration_terms(dbar: np.ndarray, n_objects: int, bounds: ParamBounds) -> np.ndarray:
    """Upper bound on ``g(d) = max -theta d - log psi(theta)`` over the
    theta box, per entry of ``dbar``.

    The chord between neighbouring points of :func:`_ranking_term_table`.
    ``g`` is convex, so the chord never lies below it (admissible up to
    rounding); it is exact up to rounding at the table's points and where
    :func:`theta_mle` clamps to a box edge, and nowhere more than about
    ``8e-5`` above ``g`` at the default box.
    """
    return np.interp(dbar, *_ranking_term_table(n_objects, bounds))


def _child_bounds(
    stats: SufficientStats,
    prefix: tuple[int, ...],
    free: np.ndarray,
    bounds: ParamBounds,
    decided: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Upper bound on the profile log-likelihood over the completions of
    every child ``prefix + (c,)``, for ``c`` in ``free`` (same order), and
    each child's decided disagreement count.

    ``free`` must be in ascending order of mean rating.  ``decided`` counts
    the disagreements on the pairs the prefix decides: the pairs within it
    and those between it and the free objects.  The rating term is exact
    (see the module docstring); the mean distance is lowered to its minimum
    over completions, and the ranking term there is the chord of
    :func:`_concentration_terms`, at least the best over the theta box.
    Both only raise the value, so no completion can beat its child's bound.
    """
    k, depth = free.size, len(prefix)
    step = np.arange(k - 1)
    perms = np.empty((k, stats.n_objects), dtype=np.intp)
    perms[:, :depth] = prefix
    perms[:, depth] = free
    # row i's tail: the free objects other than free[i], still ascending
    perms[:, depth + 1 :] = free[step + (step >= np.arange(k)[:, None])]
    rating = _rating_terms(stats.xbar[perms], stats.max_rating, bounds)
    # ranking term (exact integers): each child also decides its pairs with
    # the other free objects; the pairs it leaves undecided count the
    # smaller order
    sub = stats.pair_counts[np.ix_(free, free)]
    child_decided = decided + sub.sum(axis=0)
    smaller = np.minimum(sub, sub.T).sum(axis=1)
    disagreements = child_decided + smaller.sum() // 2 - smaller
    ranking = _concentration_terms(disagreements / stats.n_judges, stats.n_objects, bounds)
    return stats.n_judges * (ranking + rating) + stats.log_binom_const, child_decided


def fit_best_first(data, bounds: ParamBounds = DEFAULT_BOUNDS) -> FitResult:
    """Joint MLE by best-first search over consensus prefixes.

    Maintains a queue of consensus prefixes ordered by an upper bound on the
    log-likelihood of any completion, expands the most promising prefix, and
    profiles full rankings as they appear, sharing the memo of concentration
    solves (see :func:`_fit_stack`).  Expanding a prefix bounds all of its
    children in one batch, exact in the rating term and relaxed in the mean
    distance (:func:`_child_bounds`); a prefix with two free objects left
    profiles both completions instead.  Pruning keeps a small slack under the
    incumbent so floating-point noise in the bound can never discard an
    optimal branch, and exact ties go to the lexicographically smallest
    consensus.  Returns the same optimum as :func:`fit_exhaustive`.
    """
    stats = _as_stats(data)
    # free objects go in ascending order of mean rating, as _child_bounds
    # needs them; the heap and the tie rule never see that order
    ascending = np.argsort(stats.xbar, kind="stable").tolist()
    # (-bound, prefix, decided disagreements), from the root: prefixes are
    # unique, so the count is never compared
    queue: list[tuple[float, tuple[int, ...], int]] = [(-math.inf, (), 0)]
    best: ProfileFit | None = None
    candidates = 0
    nodes = 0

    def slack() -> float:
        return _PRUNE_SLACK * (1.0 + abs(best.loglik))

    def consider(perm: tuple[int, ...]):
        nonlocal best, candidates
        candidate = profile_loglik(stats, perm, bounds)
        candidates += 1
        if (
            best is None
            or candidate.loglik > best.loglik
            or (candidate.loglik == best.loglik and perm < tuple(best.consensus))
        ):
            best = candidate

    with _sharing_solves():
        while queue:
            neg_bound, prefix, decided = heapq.heappop(queue)
            if best is not None and -neg_bound < best.loglik - slack():
                break
            nodes += 1
            prefix_set = set(prefix)
            free = np.array([o for o in ascending if o not in prefix_set], dtype=np.intp)
            if free.size <= 2:
                for obj in free.tolist():
                    consider(prefix + (obj,) + tuple(free[free != obj].tolist()))
                continue
            child_bounds, child_decided = _child_bounds(stats, prefix, free, bounds, decided)
            floor = -math.inf if best is None else best.loglik - slack()
            for obj, bound, count in zip(
                free.tolist(), child_bounds.tolist(), child_decided.tolist()
            ):
                if bound >= floor:
                    heapq.heappush(queue, (-bound, prefix + (obj,), count))
    return _result(best, "best_first", candidates, nodes)


def fit(data, bounds: ParamBounds = DEFAULT_BOUNDS, method: str = "auto") -> FitResult:
    """Joint MLE of consensus, qualities, and concentration.

    ``method`` is ``"exhaustive"``, ``"best-first"``, or ``"auto"`` (the
    default), which screens every permutation up to 6 objects and runs the
    equivalent best-first search beyond that.  The bootstrap refits its
    replicates with the same rule.
    """
    stats = _as_stats(data)
    if method == "auto":
        return _fit_stack([stats], bounds)[0]
    if method == "exhaustive":
        return fit_exhaustive(stats, bounds)
    if method == "best-first":
        return fit_best_first(stats, bounds)
    raise ValueError(f"unknown method {method!r}; use auto, exhaustive, or best-first")
