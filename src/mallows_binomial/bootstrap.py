"""Nonparametric bootstrap uncertainty for the joint maximum-likelihood fit.

Judges are the sampling unit: each replicate redraws whole judges with
replacement (keeping every judge's ranking and ratings paired), refits the
model from scratch, and the spread of the refitted parameters across
replicates yields percentile confidence intervals.

A replicate is determined by how often it draws each judge (its resampling
vector, Efron 1982).  The multiplicities of a block of replicates form a
matrix ``W`` (replicates x judges), and ``W`` times a float64 table of
per-judge rows built once per call (ratings, pair indicators and
rating-level counts) gives every replicate's sufficient statistics in one
BLAS product.  Every sum is an integer below 2**53, so float64 holds it
exactly in any summation order, and the statistics are bit for bit those of
the resampled dataset, without building it.

Replicates are refitted a block at a time by the estimator's stacked fit.
One runner, ``_range``, runs each range of replicates (and of the studies'
replications): its fits share a memo of concentration solves, keyed on the
solver's own arguments, and its rows are stacked by column.  The estimator
picks the search from the object count, as :func:`fit` does: up to 6
objects the exhaustive screen bounds a block of replicates' candidates in
one numpy pass; larger panels are refitted one replicate per block with the
best-first search.  The results are those of fitting each replicate on its
own.  With ``workers`` > 1, the replicates split into ``workers``
contiguous ranges: the calling process refits the first while a pool of
``workers - 1`` processes refits the others.  :func:`coverage_study` fans
whole replications out the same way.

Replicate ``b`` draws from the dedicated stream ``(seed, b)``, so results are
identical no matter how replicates are scheduled, and adding replicates
extends the existing ones instead of reshuffling them.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .estimation import FitResult, _fit_stack, _sharing_solves, _stack_block, fit
from .model import (
    DEFAULT_BOUNDS,
    Dataset,
    ParamBounds,
    SufficientStats,
    _check_alpha,
    _n_levels,
    _pair_indicators,
    _stats_from_sums,
    _whole,
)
from .sampling import _check_path, _streams

__all__ = ["resample", "percentile_interval", "BootstrapResult", "bootstrap_fit"]


def _draw_judges(n_judges: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, n_judges, size=n_judges)


def resample(data: Dataset, rng: np.random.Generator) -> Dataset:
    """One bootstrap replicate: judges drawn with replacement, pairs intact."""
    return data.take(_draw_judges(data.n_judges, rng))


def percentile_interval(values, alpha: float) -> tuple[float, float]:
    """Equal-tailed percentile interval with nominal coverage ``1 - alpha``.

    Uses the Hazen definition of the sample quantile (order statistic at
    position ``n*q + 1/2``, interpolating between neighbors), so for example
    the values 1..100 at ``alpha = 0.10`` give the interval (5.5, 95.5).
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("need a non-empty 1-D sample of values")
    lo, hi = _percentile_bounds(values, _check_alpha(alpha))
    return float(lo), float(hi)


def _percentile_bounds(samples: np.ndarray, alpha: float) -> np.ndarray:
    """The low and high ends of :func:`percentile_interval` for every column
    of ``samples`` at once, as two rows; each column's are that call's bits."""
    return np.quantile(samples, [alpha / 2.0, 1.0 - alpha / 2.0], axis=0, method="hazen")


@dataclass(frozen=True)
class BootstrapResult:
    """Point fit plus the full set of bootstrap refits and their intervals.

    ``p_intervals`` has one (low, high) row per object; ``clamp_rate`` is the
    fraction of replicates whose concentration estimate hit the bounds box;
    ``consensus_agreement`` is the fraction of replicates whose refitted
    consensus matched the point fit exactly.
    """

    point: FitResult
    alpha: float
    p_samples: np.ndarray
    theta_samples: np.ndarray
    consensus_samples: np.ndarray
    p_intervals: np.ndarray
    theta_interval: tuple[float, float]
    clamp_rate: float
    consensus_agreement: float

    @property
    def n_replicates(self) -> int:
        return self.theta_samples.size


@dataclass(frozen=True)
class _JudgeTables:
    """Per-judge rows whose multiplicity-weighted sums are replicate statistics.

    Row ``i`` of ``table`` holds judge ``i``'s ``J`` ratings, then the
    flattened ``J x J`` indicator of ranking ``u`` before ``v``, then the
    count of its ratings at each level ``0..M``.  The table is float64, so
    a block's sums are one BLAS product, and they are exact: every sum is an
    integer below ``I * max(M, J)``, far under 2**53 wherever the ``I x (M
    + 1)`` level counts fit in memory.
    """

    table: np.ndarray
    n_objects: int
    max_rating: int

    @classmethod
    def from_dataset(cls, data: Dataset) -> "_JudgeTables":
        n_judges, n = data.ratings.shape
        levels = _n_levels(data.max_rating)
        table = np.empty((n_judges, n + n * n + levels))
        table[:, :n] = data.ratings
        table[:, n : n + n * n] = _pair_indicators(data.rankings).reshape(n_judges, n * n)
        level_index = np.arange(n_judges)[:, None] * levels + data.ratings
        table[:, n + n * n :] = np.bincount(
            level_index.ravel(), minlength=n_judges * levels
        ).reshape(n_judges, levels)
        return cls(table=table, n_objects=n, max_rating=data.max_rating)

    def replicates(self, seed, start: int, stop: int) -> list[SufficientStats]:
        """Statistics of replicates ``start..stop-1`` (the draws ``resample``
        makes from ``(seed, b)``), made from their sums as ``from_dataset``'s are."""
        n_judges, n = self.table.shape[0], self.n_objects
        weights = np.empty((stop - start, n_judges))
        for row, rng in enumerate(_streams(seed, range(start, stop))):
            weights[row] = np.bincount(_draw_judges(n_judges, rng), minlength=n_judges)
        sums = weights @ self.table
        return _stats_from_sums(
            sums[:, :n], sums[:, n : n + n * n], sums[:, n + n * n :], n_judges, self.max_rating
        )


def _fit_replicates(tables: _JudgeTables, seed, bounds: ParamBounds, start: int, stop: int):
    """Refits of the replicates ``start..stop-1``, in order, as rows of
    qualities, concentration, consensus ranking and clamp flag.

    One screen block of replicates at a time is built (so ``W`` never has
    more rows than a block) and refitted as a stack.
    """
    size = _stack_block(tables.n_objects)
    for lo in range(start, stop, size):
        for refit in _fit_stack(tables.replicates(seed, lo, min(lo + size, stop)), bounds):
            yield refit.p, refit.theta, refit.consensus, refit.theta_clamped


def _range(job) -> tuple[np.ndarray, ...]:
    """One range of :func:`_fan_out`, ``job = (rows, *args, start, stop)``: the
    rows of ``rows(*args, start, stop)``, stacked into one array per column,
    whose fits share one memo of concentration solves (or the enclosing
    range's, see :func:`~mallows_binomial.estimation._sharing_solves`)."""
    rows, *args = job
    with _sharing_solves():
        return tuple(np.array(column) for column in zip(*rows(*args)))


def _fan_out(rows, n: int, workers: int, *args) -> list[np.ndarray]:
    """:func:`_range` of ``rows`` over ``0..n-1`` in at most ``workers`` ranges.

    The ranges are contiguous.  The calling process runs the first while a
    pool of one process per other range runs the rest; a single range starts
    no pool.  The columns are concatenated in range order.
    """
    edges = np.linspace(0, n, workers + 1).round().astype(int).tolist()
    jobs = [(rows, *args, start, stop) for start, stop in zip(edges, edges[1:]) if start < stop]
    if len(jobs) == 1:
        parts = [_range(jobs[0])]
    else:
        with ProcessPoolExecutor(max_workers=len(jobs) - 1) as pool:
            rest = pool.map(_range, jobs[1:])  # submitted before this process runs its own
            parts = [_range(jobs[0]), *rest]
    return [np.concatenate(column) for column in zip(*parts)]


def bootstrap_fit(
    data: Dataset,
    n_replicates: int = 1000,
    alpha: float = 0.10,
    seed=0,
    bounds: ParamBounds = DEFAULT_BOUNDS,
    workers: int = 1,
) -> BootstrapResult:
    """Fit the model and bootstrap every parameter's percentile interval.

    ``workers`` > 1 distributes replicates over that many processes, this one
    included; the output is byte-identical for any worker count because
    replicate ``b`` is fully determined by ``(seed, b)`` and results are
    collected in replicate order.
    """
    n_replicates = _whole(n_replicates, "n_replicates must be a positive integer")
    alpha = _check_alpha(alpha)
    workers = _whole(workers, "workers must be a positive integer")
    seed = _check_path(seed, ())[0]
    point = fit(data, bounds)
    p_samples, theta_samples, consensus_samples, clamped = _fan_out(
        _fit_replicates, n_replicates, workers, _JudgeTables.from_dataset(data), seed, bounds
    )
    p_intervals = _percentile_bounds(p_samples, alpha).T
    agreement = float(np.mean(np.all(consensus_samples == point.consensus, axis=1)))
    return BootstrapResult(
        point=point,
        alpha=alpha,
        p_samples=p_samples,
        theta_samples=theta_samples,
        consensus_samples=consensus_samples,
        p_intervals=p_intervals,
        theta_interval=percentile_interval(theta_samples, alpha),
        clamp_rate=float(clamped.mean()),
        consensus_agreement=agreement,
    )
