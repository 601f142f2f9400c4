"""Closed-form quantities of the Mallows-Binomial rankings-and-ratings model.

Conventions used throughout the package:

* A *ranking* is a permutation of the object indices ``0..J-1`` listed from
  most to least preferred.
* A *rating* is an integer in ``{0, ..., M}``; smaller ratings are better.
* The quality vector ``p`` lives in ``(0, 1)^J`` and sorts ascending into the
  consensus ranking (lowest quality value = most preferred object).
* ``theta > 0`` is the concentration of the ranking distribution around the
  consensus; the ranking kernel weights a permutation ``pi`` by
  ``exp(-theta * d(pi, consensus))`` with ``d`` the Kendall pair-swap
  distance.

Everything in this module is a pure function evaluated in closed form.  The
exhaustive sums over all ``J!`` permutations exist only as test oracles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

__all__ = [
    "Dataset",
    "ParamBounds",
    "Params",
    "SufficientStats",
    "DEFAULT_BOUNDS",
    "as_ranking",
    "kendall_distance",
    "max_kendall_distance",
    "order_of",
    "psi",
    "log_psi",
    "expected_distance",
    "distance_variance",
    "distance_mean_var",
    "log_likelihood",
]


# ---------------------------------------------------------------------------
# rankings


def as_ranking(ranking, n_objects: int | None = None) -> np.ndarray:
    """Validate and return a ranking as a read-only integer array.

    Raises ValueError unless ``ranking`` is a permutation of ``0..J-1``
    (and of length ``n_objects``, when given).
    """
    order = np.asarray(ranking)
    if order.ndim != 1 or order.size == 0:
        raise ValueError("ranking must be a non-empty 1-D sequence of object indices")
    if order.dtype.kind not in "iu":
        raise ValueError(f"ranking must contain integers, got dtype {order.dtype}")
    order = order.astype(np.intp)
    n = order.size
    if n_objects is not None and n != n_objects:
        raise ValueError(f"ranking has {n} entries, expected {n_objects}")
    if sorted(order.tolist()) != list(range(n)):
        raise ValueError(f"ranking {order.tolist()} is not a permutation of 0..{n - 1}")
    return _freeze(order)


def kendall_distance(a, b) -> int:
    """Kendall pair-swap distance between two rankings.

    Counts the object pairs that the two rankings order differently by
    comparing every pair of positions at once, which takes O(J^2) time and
    memory (one J x J boolean array).  Symmetric, and bounded by
    ``J * (J - 1) / 2`` (full reversal).

    Parameters
    ----------
    a, b : sequences
        Permutations of the same ``J`` object indices.
    """
    a = as_ranking(a)
    b = as_ranking(b, a.size)
    # positions each object takes in b; a rewritten in those positions has
    # exactly one inversion per discordant pair
    pos_b = np.empty(a.size, dtype=np.intp)
    pos_b[b] = np.arange(a.size)
    x = pos_b[a]
    return int(np.count_nonzero(np.triu(x[:, None] > x, 1)))


def max_kendall_distance(n_objects: int) -> int:
    """Largest possible Kendall distance between rankings of ``n_objects``."""
    return n_objects * (n_objects - 1) // 2


def order_of(p) -> np.ndarray:
    """Ranking induced by a quality vector: indices of ``p`` sorted ascending.

    Ties are broken by ascending object index, so the result is deterministic
    for tied inputs (tied coordinates can occur in constrained estimates even
    though the model assumes distinct qualities).
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("quality vector must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(p)):
        raise ValueError("quality vector must be finite")
    return np.argsort(p, kind="stable")


# ---------------------------------------------------------------------------
# ranking-kernel normalizer and distance moments


def _check_theta(theta) -> float:
    theta = float(theta)
    if not math.isfinite(theta) or theta <= 0.0:
        raise ValueError(f"theta must be positive and finite, got {theta}")
    return theta


def _check_objects(n_objects) -> int:
    return _whole(n_objects, "need an integer count of at least 2 objects", 2)


def _check_alpha(alpha) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    return alpha


def _whole(value, message: str, minimum: int = 1) -> int:
    """``value`` as an int, refusing with ``message`` one below ``minimum`` or not whole."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):  # None, nan, inf and the like
        number = None
    if number is None or number != value or number < minimum:
        raise ValueError(f"{message}, got {value}")
    return number


def _max_rating(max_rating) -> int:
    """A rating scale numpy's binomial takes: a positive int64."""
    max_rating = _whole(max_rating, "max_rating must be a positive integer")
    if max_rating > 2**63 - 1:
        raise ValueError(f"max_rating must be at most 2**63 - 1, got {max_rating}")
    return max_rating


def _n_levels(max_rating: int) -> int:
    """The number of rating levels, ``max_rating + 1``, where numpy can index them."""
    if max_rating >= np.iinfo(np.intp).max:
        raise ValueError(f"max_rating = {max_rating} has more rating levels than numpy can index")
    return max_rating + 1


def log_psi(theta, n_objects) -> float:
    """Log of the ranking-kernel normalizer.

    ``psi(theta)`` is the sum of ``exp(-theta * d(pi, center))`` over all
    ``J!`` permutations ``pi``; it telescopes to the closed form
    ``prod_j (1 - exp(-j*theta)) / (1 - exp(-theta))`` and does not depend on
    the center.  Evaluated here in log space with ``expm1`` so that neither
    tiny nor large ``theta`` loses precision.
    """
    return _log_psi(_check_theta(theta), _check_objects(n_objects))


def _log_psi(theta: float, n: int) -> float:
    """:func:`log_psi` for a checked ``theta`` and object count."""
    total = 0.0
    for j in range(1, n + 1):
        total += math.log(-math.expm1(-j * theta))
    return total - n * math.log(-math.expm1(-theta))


def psi(theta, n_objects) -> float:
    """Ranking-kernel normalizer in closed form (see :func:`log_psi`)."""
    return math.exp(log_psi(theta, n_objects))


# below this value of theta * n_objects the closed-form moments subtract
# near-equal O(1/theta^2) terms and lose precision, so a series in theta
# (error far below the crossover's rounding noise) takes over
_SERIES_CUTOFF = 0.01


def expected_distance(theta, n_objects) -> float:
    """Mean Kendall distance from the center under the ranking kernel.

    Equals ``-d/dtheta log_psi``.  Strictly decreasing in ``theta``, from
    ``n(n-1)/4`` (uniform limit) down to 0, which makes it invertible; the
    concentration MLE inverts this function at the observed mean distance.
    """
    return _expected_distance(_check_theta(theta), _check_objects(n_objects))


def _expected_distance(theta: float, n: int) -> float:
    """:func:`expected_distance` for a checked ``theta`` and object count."""
    if theta * n < _SERIES_CUTOFF:
        j = np.arange(1.0, n + 1.0)
        return float(
            np.sum((j - 1) / 2 - (j**2 - 1) * theta / 12 + (j**4 - 1) * theta**3 / 720)
        )
    total = n * math.exp(-theta) / -math.expm1(-theta)
    for j in range(1, n + 1):
        total -= j * math.exp(-j * theta) / -math.expm1(-j * theta)
    return total


def distance_variance(theta, n_objects) -> float:
    """Variance of the Kendall distance from the center under the kernel."""
    theta = _check_theta(theta)
    n = _check_objects(n_objects)
    if theta * n < _SERIES_CUTOFF:
        j = np.arange(1.0, n + 1.0)
        return float(
            np.sum(
                (j**2 - 1) / 12 - (j**4 - 1) * theta**2 / 240 + (j**6 - 1) * theta**4 / 6048
            )
        )
    total = n * math.exp(-theta) / math.expm1(-theta) ** 2
    for j in range(1, n + 1):
        total -= j * j * math.exp(-j * theta) / math.expm1(-j * theta) ** 2
    return total


def distance_mean_var(theta, n_objects) -> tuple[float, float]:
    """Mean and variance of the Kendall distance under the ranking kernel.

    The mean is exactly :func:`expected_distance` (same code path); the pair
    is what the central limit theorem for the observed mean distance needs.
    """
    return expected_distance(theta, n_objects), distance_variance(theta, n_objects)


# ---------------------------------------------------------------------------
# domain types


def _freeze(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class ParamBounds:
    """Box constraints for estimation.

    Qualities are clamped to ``[p_min, p_max]`` and the concentration to
    ``[theta_min, theta_max]``.  The model itself only requires ``p`` in
    ``(0, 1)`` and ``theta > 0``; the box keeps boundary data (all-zero
    ratings, unanimous rankings) from sending the optimizer to infinity.
    """

    p_min: float = 1e-6
    p_max: float = 1.0 - 1e-6
    theta_min: float = 1e-6
    theta_max: float = 50.0

    def __post_init__(self):
        if not 0.0 < self.p_min < self.p_max < 1.0:
            raise ValueError(f"need 0 < p_min < p_max < 1, got ({self.p_min}, {self.p_max})")
        if not 0.0 < self.theta_min < self.theta_max < math.inf:
            raise ValueError(
                f"need 0 < theta_min < theta_max, got ({self.theta_min}, {self.theta_max})"
            )


DEFAULT_BOUNDS = ParamBounds()


@dataclass(frozen=True)
class Params:
    """Model parameters: per-object qualities and ranking concentration.

    Immutable after construction; ``p`` is stored as a read-only float array.
    """

    p: np.ndarray
    theta: float

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("p must be a non-empty 1-D vector")
        if not np.all(np.isfinite(p)) or np.any(p <= 0.0) or np.any(p >= 1.0):
            raise ValueError(f"every quality must lie strictly in (0, 1), got {p.tolist()}")
        object.__setattr__(self, "p", _freeze(p))
        object.__setattr__(self, "theta", _check_theta(self.theta))

    @property
    def n_objects(self) -> int:
        return self.p.size

    def consensus(self) -> np.ndarray:
        """Ranking implied by the qualities (ascending, ties by index)."""
        return order_of(self.p)


@dataclass(frozen=True)
class Dataset:
    """Paired judge-level ratings and rankings.

    ``ratings`` is an ``I x J`` integer matrix with entries in ``0..max_rating``;
    ``rankings`` is an ``I x J`` integer matrix whose row ``i`` lists judge
    ``i``'s objects from most to least preferred.  Row ``i`` of both matrices
    belongs to the same judge and stays paired through resampling.
    """

    ratings: np.ndarray
    rankings: np.ndarray
    max_rating: int

    def __post_init__(self):
        ratings = np.array(self.ratings)
        rankings = np.array(self.rankings)
        if ratings.ndim != 2 or rankings.ndim != 2:
            raise ValueError("ratings and rankings must be 2-D (judges x objects)")
        if not np.issubdtype(ratings.dtype, np.integer):
            raise ValueError(f"ratings must be integers, got dtype {ratings.dtype}")
        if not np.issubdtype(rankings.dtype, np.integer):
            raise ValueError(f"rankings must be integers, got dtype {rankings.dtype}")
        if ratings.shape != rankings.shape:
            raise ValueError(
                f"ratings shape {ratings.shape} does not match rankings shape {rankings.shape}"
            )
        n_judges, n_objects = ratings.shape
        _whole(n_judges, "need at least one judge")
        _whole(n_objects, "need at least one object")
        max_rating = _max_rating(self.max_rating)
        bad = _first_outside(ratings, max_rating)
        if bad is not None:
            raise ValueError(
                f"rating {ratings[bad]} for judge {bad[0]}, object {bad[1]} "
                f"is outside 0..{max_rating}"
            )
        bad_row = _first_non_permutation(rankings)
        if bad_row is not None:
            raise ValueError(
                f"ranking row {bad_row} is not a permutation of 0..{n_objects - 1}: "
                f"{rankings[bad_row].tolist()}"
            )
        # the np.array copies above are this dataset's own
        _checked_dataset(ratings, rankings, max_rating, self)

    @property
    def n_judges(self) -> int:
        return self.ratings.shape[0]

    @property
    def n_objects(self) -> int:
        return self.ratings.shape[1]

    def take(self, judge_indices) -> "Dataset":
        """New dataset keeping the given judge rows (with repeats), pairs intact."""
        idx = np.asarray(judge_indices, dtype=np.intp)
        return Dataset(self.ratings[idx], self.rankings[idx], self.max_rating)


def _checked_dataset(ratings, rankings, max_rating: int, data: Dataset | None = None) -> Dataset:
    """``data``, or a new Dataset, holding a panel that passed every check of
    ``Dataset``, not checked again: int64 ratings and intp rankings, cast
    without a copy where they already are, and frozen in place."""
    data = object.__new__(Dataset) if data is None else data
    object.__setattr__(data, "ratings", _freeze(ratings.astype(np.int64, copy=False)))
    object.__setattr__(data, "rankings", _freeze(rankings.astype(np.intp, copy=False)))
    object.__setattr__(data, "max_rating", max_rating)
    return data


def _first_outside(ratings: np.ndarray, max_rating: int) -> tuple[int, int] | None:
    """(row, column) of the first rating outside ``0..max_rating``, or None."""
    if ratings.min() >= 0 and ratings.max() <= max_rating:
        return None
    return divmod(int(np.argmax((ratings < 0) | (ratings > max_rating))), ratings.shape[1])


def _first_non_permutation(rankings: np.ndarray) -> int | None:
    """The first row not a permutation of ``0..J-1``, or None.  No sort: a row
    is one when its labels mark all ``J`` of its (row, label) slots."""
    rows, n = rankings.shape
    if rankings.min() < 0 or rankings.max() >= n:
        # any other label marks the spare last slot, index -1
        rankings = np.where((rankings < 0) | (rankings >= n), -1, rankings.astype(np.int64))
    seen = np.zeros((rows, n + 1), bool)
    seen[np.arange(rows)[:, None], rankings] = True
    short = ~seen[:, :n].all(axis=1)
    return int(np.argmax(short)) if short.any() else None


def _log_binom_levels(max_rating: int) -> np.ndarray:
    """``log C(M, x)`` for every rating level ``x = 0..M``."""
    levels = np.arange(_n_levels(max_rating))
    return gammaln(max_rating + 1) - gammaln(levels + 1) - gammaln(max_rating - levels + 1)


def _pair_indicators(rankings: np.ndarray) -> np.ndarray:
    """``I x J x J`` booleans: entry ``[i, u, v]`` says judge ``i`` ranks ``u``
    before ``v``."""
    positions = np.argsort(rankings, axis=1)
    return positions[:, :, None] < positions[:, None, :]


@functools.lru_cache(maxsize=64)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row and column indices of the pairs ``i < j`` of ``n`` ranks."""
    return tuple(_freeze(index) for index in np.triu_indices(n, 1))


def _disagreements(pair_counts: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Judge-pair disagreement counts (exact integers), one row per statistics.

    ``pair_counts`` stacks ``J x J`` count matrices; entry ``[s, c]`` of the
    result is statistics ``s``'s count against row ``c`` of ``perms``.
    """
    n = perms.shape[1]
    ahead, behind = _upper_pairs(n)
    flat = pair_counts.reshape(pair_counts.shape[0], n * n)
    return flat[:, perms[:, behind] * n + perms[:, ahead]].sum(axis=2)


@dataclass(frozen=True)
class SufficientStats:
    """Everything the log-likelihood needs, extracted once per dataset.

    ``xbar`` holds mean ratings per object.  ``pair_counts[u, v]`` counts the
    judges ranking ``u`` before ``v``, which is enough to evaluate the mean
    Kendall distance to *any* candidate consensus in O(J^2) instead of
    re-scanning all rankings.  ``log_binom_const`` is the parameter-free sum
    of log binomial coefficients.
    """

    xbar: np.ndarray
    pair_counts: np.ndarray
    n_judges: int
    max_rating: int
    log_binom_const: float

    @classmethod
    def from_dataset(cls, data: Dataset) -> "SufficientStats":
        return _stats_from_sums(
            # summed in float64, as ratings.mean(axis=0) sums them
            data.ratings.sum(axis=0, dtype=np.float64)[None],
            # summed over blocks of judges: the (I, J, J) indicator is never whole
            sum(
                _pair_indicators(data.rankings[lo : lo + 4096]).sum(axis=0, dtype=np.int64)
                for lo in range(0, data.n_judges, 4096)
            ).reshape(1, -1),
            np.bincount(data.ratings.ravel(), minlength=_n_levels(data.max_rating))[None],
            data.n_judges,
            data.max_rating,
        )[0]

    @property
    def n_objects(self) -> int:
        return self.xbar.size

    def mean_distance(self, consensus) -> float:
        """Mean Kendall distance from the judges' rankings to ``consensus``."""
        order = as_ranking(consensus, self.n_objects)
        return float(self._disagreements_with(order)) / self.n_judges

    def _disagreements_with(self, order: np.ndarray) -> int:
        """Judge-pair disagreements with an already validated ranking (an
        exact integer: ``n_judges`` times the mean distance)."""
        ahead, behind = _upper_pairs(self.n_objects)
        return int(self.pair_counts[order[behind], order[ahead]].sum())


def _stats_from_sums(
    rating_sums, pair_counts, level_counts, n_judges: int, max_rating: int
) -> list[SufficientStats]:
    """The statistics of ``S`` panels of ``n_judges`` judges, one per row of
    their ``(S, J)`` rating sums, ``(S, J * J)`` pair counts and ``(S, M + 1)``
    rating-level counts.  Each constant is one ``(1, M + 1) @ (M + 1, 1)``
    product, the 1-D dot's bits; a matrix-vector product rounds otherwise."""
    n = rating_sums.shape[1]
    xbar = _freeze(rating_sums / n_judges)
    pairs = _freeze(pair_counts.astype(np.int64, copy=False).reshape(-1, n, n))
    log_binom = _log_binom_levels(max_rating)[:, None]
    constants = (level_counts[:, None, :] @ log_binom).ravel().tolist()
    return [
        SufficientStats(xbar[row], pairs[row], n_judges, max_rating, constants[row])
        for row in range(len(constants))
    ]


def _as_stats(data) -> SufficientStats:
    """``data`` itself when it is :class:`SufficientStats`, else its statistics."""
    return data if isinstance(data, SufficientStats) else SufficientStats.from_dataset(data)


def _loglik_from_stats(stats: SufficientStats, p, theta: float, dbar: float) -> float:
    """Joint log-likelihood from the statistics and the mean distance ``dbar``
    to the consensus, at a checked or clamped ``theta``."""
    rank_part = -theta * dbar - _log_psi(theta, stats.n_objects)
    rating_part = float(
        stats.xbar @ np.log(p) + (stats.max_rating - stats.xbar) @ np.log1p(-p)
    )
    return stats.n_judges * (rank_part + rating_part) + stats.log_binom_const


def log_likelihood(data, params: Params, consensus=None) -> float:
    """Joint log-likelihood of the dataset at the given parameters.

    Includes the binomial-coefficient constant, so the value is the exact log
    of the joint density (all arithmetic in log space).  ``consensus``
    defaults to the ranking implied by ``params.p``; pass it explicitly to
    evaluate the profile objective at a candidate consensus, which matters
    when constrained estimation leaves tied qualities.

    ``data`` may be a :class:`Dataset` or precomputed :class:`SufficientStats`.
    """
    stats = _as_stats(data)
    if params.n_objects != stats.n_objects:
        raise ValueError(
            f"params have {params.n_objects} objects, dataset has {stats.n_objects}"
        )
    if consensus is None:
        consensus = order_of(params.p)
    dbar = stats.mean_distance(consensus)
    _check_objects(stats.n_objects)  # log_psi's check, which _loglik_from_stats skips
    return _loglik_from_stats(stats, params.p, params.theta, dbar)
