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
use the exhaustive screen up to 8 objects and the best-first search beyond.

The exhaustive search is a screen in three steps, run over a stack of
sufficient statistics that share the judge count, object count and rating
scale (:func:`fit_exhaustive` is the stack of one; the bootstrap stacks its
replicates).  The profile of a candidate is ``I * [R + g(D / I)] + const``,
where ``R`` is the rating term at the order-constrained qualities, ``D`` the
integer count of judge-pair disagreements with the candidate, and ``g(d) =
max_theta [-theta d - log psi(theta)]``, which cannot increase with ``d``.

1. One numpy pass gives ``R`` (isotonic fit by the min-max formula, box
   clip, Binomial term) and ``D`` for every candidate of every statistics in
   a block of 7! = 5040 rows: as many statistics as their J! candidates fit
   in, or, past 7 objects, one statistics over several blocks.  A candidate
   is dropped when another of the same statistics beats its ``R`` by more
   than a slack with a ``D`` no larger: it cannot be the optimum.
2. ``g`` is evaluated once per distinct ``D`` among the survivors.  A memo
   keyed on ``D`` keeps every :func:`theta_mle` solve of the call, and the
   profiles of step 3 read it too; the solve depends only on ``D / I``,
   ``J`` and the box, so the memo changes no bit.
3. Only the candidates within the slack of their statistics' best screened
   score get the scalar profile of :func:`profile_loglik`, in lexicographic
   order with a strict ``>``, which is exactly the loop over all
   permutations restricted to the only candidates that can win it.  The
   slack is orders of magnitude above the rounding difference between the
   screen and the scalar profile, so the winner, the tie-break and every
   reported number are those of that loop.

The best-first search bounds all children of a prefix in one pass with the
same decomposition.  The screen's kernel scores each child as one full
ranking: the prefix, the child, then the other free objects by ascending
mean rating.  Every completion keeps the free objects above the chain, and
under that tree order the best ``R`` is the isotonic fit along this ranking
(Robertson, Wright & Dykstra 1988), so ``R`` is exact.  Only ``D`` is
relaxed, to its exact integer minimum over completions: decided pairs count
their disagreements, undecided ones the smaller of their two orders.  ``g``
comes from a vectorised solve (a cached grid of the expected distance
brackets each root, and Newton steps finish it).  Full rankings get the
scalar :func:`profile_loglik`, with one memo of solves per search, so the
search returns the same result and counts as bounding one child at a time.
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
    log_psi,
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
# best-first's with how flat the panel is, and at 7 or 8 objects each is the
# faster one on some panels, so no threshold wins everywhere
_EXHAUSTIVE_MAX = 8

# safety margin for pruning, in the best-first search and in the exhaustive
# screen: bounds and screened scores are computed with different
# floating-point operations than full profiles, so pruning must survive
# rounding noise without ever discarding the true optimum
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
    if dbar < 0.0:
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
    memo = _stack_solves.get()
    theta, clamped, _ = _concentration(
        {} if memo is None else memo, disagreements, stats.n_judges, stats.n_objects, bounds
    )
    loglik = _loglik_from_stats(stats, p, theta, float(disagreements) / stats.n_judges)
    return ProfileFit(
        consensus=consensus, p=p, theta=theta, theta_clamped=clamped, loglik=loglik
    )


# the concentration memo of the fit running in this context, if any.  Its
# profiles go through the public profile_loglik, which keeps its signature
# (wrappers of it, such as bench/tracing.py, see every profile), and read
# the solves from here; _sharing_solves sets and resets it
_stack_solves: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "_stack_solves", default=None
)


@contextlib.contextmanager
def _sharing_solves(memo: dict):
    token = _stack_solves.set(memo)
    try:
        yield
    finally:
        _stack_solves.reset(token)


def _concentration(
    memo: dict, disagreements: int, n_judges: int, n_objects: int, bounds: ParamBounds
) -> tuple[float, bool, float]:
    """``(theta, clamped, g)`` at ``disagreements`` judge-pair disagreements.

    ``g = -theta * dbar - log psi(theta)`` is the ranking term at the mean
    distance ``dbar = disagreements / n_judges``.  :func:`theta_mle` runs once
    per distinct count: ``memo`` keeps every solve, so it must only ever see
    one judge count, object count and box.
    """
    entry = memo.get(disagreements)
    if entry is None:
        dbar = float(disagreements) / n_judges
        theta, clamped = theta_mle(dbar, n_objects, bounds)
        entry = memo[disagreements] = (theta, clamped, -theta * dbar - log_psi(theta, n_objects))
    return entry


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


# objects ordered within one block of the permutation table: a block holds
# the 7! = 5040 orderings of the last objects behind one fixed prefix, and
# its row count is also what one pass of the screen scores at once
_BLOCK_OBJECTS = 7
_BLOCK_ROWS = math.factorial(_BLOCK_OBJECTS)


@functools.lru_cache(maxsize=_BLOCK_OBJECTS)
def _lex_permutations(n: int) -> np.ndarray:
    """Read-only table of all permutations of ``0..n-1`` in lexicographic order."""
    table = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    table.flags.writeable = False
    return table


def _permutation_blocks(n: int):
    """Every permutation of ``0..n-1``, in lexicographic order, in blocks of rows."""
    tail = min(n, _BLOCK_OBJECTS)
    base = _lex_permutations(tail)
    for prefix in itertools.permutations(range(n), n - tail):
        block = np.empty((base.shape[0], n), dtype=np.intp)
        block[:, : n - tail] = prefix
        block[:, n - tail :] = np.setdiff1d(np.arange(n), prefix)[base]
        yield block


def _stack_block(n_objects: int) -> int:
    """How many statistics the screen scores in one pass: as many whole sets
    of ``J!`` candidates as fit in a block, and at least one."""
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


def _undominated(rating: np.ndarray, disagreements: np.ndarray) -> np.ndarray:
    """Mask of the candidates that no other candidate with a ``D`` no larger
    beats on ``R`` by more than the slack.

    Candidates lie along the last axis; each row along the leading axes is
    screened on its own.
    """
    order = np.argsort(disagreements, axis=-1, kind="stable")
    sorted_d = np.take_along_axis(disagreements, order, axis=-1)
    sorted_r = np.take_along_axis(rating, order, axis=-1)
    running = np.maximum.accumulate(sorted_r, axis=-1)
    # candidates with equal D must all see each other: look up the running
    # maximum at the last candidate of each D
    n = sorted_d.shape[-1]
    group_end = np.ones(sorted_d.shape, dtype=bool)
    group_end[..., :-1] = sorted_d[..., 1:] != sorted_d[..., :-1]
    last = np.where(group_end, np.arange(n), n - 1)
    last = np.minimum.accumulate(last[..., ::-1], axis=-1)[..., ::-1]
    ceiling = np.take_along_axis(running, last, axis=-1)
    slack = _PRUNE_SLACK * (1.0 + np.abs(running[..., -1:]))
    keep = np.empty(rating.shape, dtype=bool)
    np.put_along_axis(keep, order, sorted_r >= ceiling - slack, axis=-1)
    return keep


def _screen_survivors(stack: list[SufficientStats], bounds: ParamBounds):
    """Step 1 of the screen for one block of statistics.

    Returns the survivors as ``(owner, perms, rating, disagreements)``:
    ``owner`` indexes ``stack``, and rows run by owner, then in
    lexicographic order.  Every owner keeps at least its best ``R``.
    """
    n = stack[0].n_objects
    xbar = np.stack([stats.xbar for stats in stack])
    pair_counts = np.stack([stats.pair_counts for stats in stack])
    parts = []
    for perms in _permutation_blocks(n):
        rating = _rating_terms(
            xbar[:, perms].reshape(-1, n), stack[0].max_rating, bounds
        ).reshape(len(stack), -1)
        disagreements = _disagreements(pair_counts, perms)
        keep = _undominated(rating, disagreements)
        owner, row = np.nonzero(keep)
        parts.append((owner, perms[row], rating[keep], disagreements[keep]))
    survivors = [np.concatenate(column) for column in zip(*parts)]
    if len(parts) > 1:
        # past 7 objects a block holds one statistics (_stack_block): screen
        # the survivors of all its prefix blocks against each other; with a
        # single block this second pass would keep every survivor
        keep = _undominated(survivors[2], survivors[3])
        survivors = [column[keep] for column in survivors]
    return survivors


def _fit_stack(
    stack: list[SufficientStats], bounds: ParamBounds, memo: dict
) -> list[FitResult]:
    """Joint MLE for every statistics in ``stack``, in order.

    The statistics must share the object count, judge count and rating
    scale; ``memo`` caches concentration solves for that judge count, object
    count and ``bounds`` (:func:`_concentration`), and every profile reads
    it.  Up to ``_EXHAUSTIVE_MAX`` objects, statistics go through the screen
    a block at a time, and each one's result is the one
    :func:`fit_exhaustive` gives it alone; past it, each is fitted by
    :func:`fit_best_first`.  The memo is exact, so neither changes a bit.
    """
    with _sharing_solves(memo):
        if stack[0].n_objects > _EXHAUSTIVE_MAX:
            return [fit_best_first(stats, bounds) for stats in stack]
        return _screen_stack(stack, bounds, memo)


def _screen_stack(
    stack: list[SufficientStats], bounds: ParamBounds, memo: dict
) -> list[FitResult]:
    """The exhaustive screen of :func:`_fit_stack`."""
    n = stack[0].n_objects
    n_judges = stack[0].n_judges
    size = _stack_block(n)
    fits: list[FitResult] = []
    for start in range(0, len(stack), size):
        block = stack[start : start + size]
        owner, perms, rating, disagreements = _screen_survivors(block, bounds)
        # step 2: the ranking term once per distinct D
        distinct, index = np.unique(disagreements, return_inverse=True)
        ranking = np.array(
            [_concentration(memo, d, n_judges, n, bounds)[2] for d in distinct.tolist()]
        )
        score = rating + ranking[index]
        top = np.maximum.reduceat(score, np.flatnonzero(np.diff(owner, prepend=-1)))
        floor = top - _PRUNE_SLACK * (1.0 + np.abs(top))
        # step 3: scalar profiles of the candidates that can win, in
        # lexicographic order with a strict ">", reading the same memo
        best: list[ProfileFit | None] = [None] * len(block)
        contenders = score >= floor[owner]
        for s, perm in zip(owner[contenders].tolist(), perms[contenders]):
            candidate = profile_loglik(block[s], perm, bounds)
            if best[s] is None or candidate.loglik > best[s].loglik:
                best[s] = candidate
        fits += [_result(winner, "exhaustive", math.factorial(n), 0) for winner in best]
    return fits


def fit_exhaustive(data, bounds: ParamBounds = DEFAULT_BOUNDS) -> FitResult:
    """Joint MLE over every consensus permutation.

    Ties in the profiled log-likelihood go to the lexicographically smallest
    consensus.  Every permutation is scored by the screen described in the
    module docstring; only those within the slack of the best get a full
    profile, and the result is the one profiling all of them would give.
    Refuses to run past 8 objects (the candidate count grows factorially);
    use :func:`fit_best_first` there instead.
    """
    stats = _as_stats(data)
    n = stats.n_objects
    if n > _EXHAUSTIVE_MAX:
        raise ValueError(
            f"exhaustive search over {n} objects means {n}! candidates; "
            "use fit_best_first"
        )
    return _fit_stack([stats], bounds, {})[0]


def _distance_moments(theta: np.ndarray, n_objects: int):
    """Mean and variance of the Kendall distance, and ``log psi``, per entry of ``theta``.

    Vectorised :func:`expected_distance`, :func:`distance_variance` and
    :func:`log_psi`, with the same series branch below ``theta * n`` of
    ``_SERIES_CUTOFF``.
    """
    j = np.arange(1.0, n_objects + 1.0)
    scaled = theta[:, None] * j
    head = -np.expm1(-scaled)
    ratio = np.exp(-scaled) / head
    mean = n_objects * ratio[:, 0] - ratio @ j
    variance = n_objects * ratio[:, 0] / head[:, 0] - (ratio / head) @ (j * j)
    series = theta * n_objects < _SERIES_CUTOFF
    if series.any():
        t = theta[series]
        mean[series] = (
            np.sum(j - 1) / 2 - np.sum(j**2 - 1) / 12 * t + np.sum(j**4 - 1) / 720 * t**3
        )
        variance[series] = (
            np.sum(j**2 - 1) / 12
            - np.sum(j**4 - 1) / 240 * t**2
            + np.sum(j**6 - 1) / 6048 * t**4
        )
    log_norm = np.log(head).sum(axis=1) - n_objects * np.log(head[:, 0])
    return mean, variance, log_norm


# points of the log-spaced theta grid on which the expected distance is
# tabulated once per object count and box: neighbouring points are 3.5 %
# apart at the default box, close enough that Newton from the interpolated
# root usually needs one or two steps; more points buy nothing but memory
_THETA_GRID = 512
# Newton stops once every step is below this share of (1 + theta); ``g`` is
# flat at the root, so stopping there costs about variance * step**2 / 2
_THETA_NEWTON_TOL = 1e-9
_THETA_NEWTON_MAX = 50


@functools.lru_cache(maxsize=64)
def _expected_distance_grid(n_objects: int, bounds: ParamBounds):
    """Log-spaced theta grid over the box and the expected distance on it."""
    theta = np.geomspace(bounds.theta_min, bounds.theta_max, _THETA_GRID)
    # in chunks, so the (points x objects) temporaries stay small
    mean = np.concatenate(
        [_distance_moments(chunk, n_objects)[0] for chunk in np.split(theta, 4)]
    )
    theta.flags.writeable = mean.flags.writeable = False
    return theta, mean


def _concentration_terms(dbar: np.ndarray, n_objects: int, bounds: ParamBounds) -> np.ndarray:
    """``g(d) = max -theta d - log psi(theta)`` over the theta box, per entry of ``dbar``.

    The vectorised counterpart of :func:`theta_mle` followed by the ranking
    term.  ``dbar`` at or beyond the expected distance at a box edge clamps
    to that edge.  Otherwise the tabulated expected distance brackets the
    root of ``E(theta) = dbar`` between two grid points, interpolation
    starts inside the bracket, and Newton steps with ``E' = -variance``
    finish it without leaving the bracket.
    """
    grid, grid_mean = _expected_distance_grid(n_objects, bounds)
    interior = (dbar > grid_mean[-1]) & (dbar < grid_mean[0])
    terms = np.empty(dbar.shape)
    if interior.any():
        target = dbar[interior]
        # E decreases along the grid: grid_mean[upper - 1] > target >= grid_mean[upper]
        upper = np.searchsorted(-grid_mean, -target, side="left")
        lo, hi = grid[upper - 1], grid[upper]
        root = np.interp(-target, -grid_mean, grid)
        for _ in range(_THETA_NEWTON_MAX):
            mean, variance, log_norm = _distance_moments(root, n_objects)
            step = (mean - target) / variance
            if np.all(np.abs(step) <= _THETA_NEWTON_TOL * (1.0 + root)):
                break
            root = np.clip(root + step, lo, hi)
        terms[interior] = -root * target - log_norm
    edge = ~interior
    if edge.any():
        theta = np.where(dbar[edge] <= grid_mean[-1], bounds.theta_max, bounds.theta_min)
        terms[edge] = -theta * dbar[edge] - _distance_moments(theta, n_objects)[2]
    return terms


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
    over completions, with the concentration then optimal for it, which
    only raises the value, so no completion can beat its child's bound.
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
    profiles full rankings as they appear, with one memo of concentration
    solves.  Expanding a prefix bounds all of its children in one batch,
    exact in the rating term and relaxed in the mean distance
    (:func:`_child_bounds`); a prefix with two free objects left profiles
    both completions instead.  Pruning keeps a small slack under the
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

    memo = _stack_solves.get()
    with _sharing_solves({} if memo is None else memo):
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
    default), which screens every permutation up to 8 objects and runs the
    equivalent best-first search beyond that.  The bootstrap refits its
    replicates with the same rule.
    """
    stats = _as_stats(data)
    if method == "auto":
        return _fit_stack([stats], bounds, {})[0]
    if method == "exhaustive":
        return fit_exhaustive(stats, bounds)
    if method == "best-first":
        return fit_best_first(stats, bounds)
    raise ValueError(f"unknown method {method!r}; use auto, exhaustive, or best-first")
