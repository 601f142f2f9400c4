"""Nonparametric bootstrap uncertainty for the joint maximum-likelihood fit.

Judges are the sampling unit: each replicate redraws whole judges with
replacement (keeping every judge's ranking and ratings paired), refits the
model from scratch, and the spread of the refitted parameters across
replicates yields percentile confidence intervals.

A replicate is determined by how often it draws each judge (its resampling
vector, Efron 1982).  The multiplicities of a block of replicates form a
matrix ``W`` (replicates x judges), and ``W`` times per-judge tables built
once per call (rating sums, pair indicators and rating-level counts) gives
every replicate's sufficient statistics.  Every sum is an exact integer, so
the statistics are bit for bit those of the resampled dataset, without
building it.

Replicates are refitted a block at a time by the estimator's stacked fit.
The refits of one range share a memo of concentration solves, keyed on the
solver's own arguments, which lives as long as the range.  The estimator
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
    _freeze,
    _log_binom_levels,
    _pair_indicators,
)
from .sampling import _streams

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
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    lo, hi = np.quantile(values, [alpha / 2.0, 1.0 - alpha / 2.0], method="hazen")
    return float(lo), float(hi)


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

    ``ratings`` is ``I x J``; row ``i`` of ``pairs`` flattens the ``J x J``
    indicator of judge ``i`` ranking ``u`` before ``v``; row ``i`` of
    ``levels`` counts judge ``i``'s ratings at each level ``0..M``.
    """

    ratings: np.ndarray
    pairs: np.ndarray
    levels: np.ndarray
    log_binom: np.ndarray
    max_rating: int

    @classmethod
    def from_dataset(cls, data: Dataset) -> "_JudgeTables":
        n_judges, n = data.ratings.shape
        levels = data.max_rating + 1
        level_index = np.arange(n_judges)[:, None] * levels + data.ratings
        return cls(
            ratings=data.ratings,
            pairs=_pair_indicators(data.rankings).reshape(n_judges, n * n).astype(np.int64),
            levels=np.bincount(level_index.ravel(), minlength=n_judges * levels).reshape(
                n_judges, levels
            ),
            log_binom=_log_binom_levels(data.max_rating),
            max_rating=data.max_rating,
        )

    def replicates(self, seed, start: int, stop: int) -> list[SufficientStats]:
        """Statistics of replicates ``start..stop-1``: the draws ``resample``
        makes from ``(seed, b)``."""
        n_judges, n = self.ratings.shape
        weights = np.stack(
            [
                np.bincount(_draw_judges(n_judges, rng), minlength=n_judges)
                for rng in _streams(seed, start, stop)
            ]
        )
        rating_sums = weights @ self.ratings
        pair_counts = weights @ self.pairs
        level_counts = weights @ self.levels
        return [
            SufficientStats(
                xbar=_freeze(rating_sums[row] / n_judges),
                pair_counts=_freeze(pair_counts[row].reshape(n, n)),
                n_judges=n_judges,
                max_rating=self.max_rating,
                # row by row: a matrix-vector product may round differently
                log_binom_const=float(level_counts[row] @ self.log_binom),
            )
            for row in range(stop - start)
        ]


def _fit_replicates(job) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Refits of the replicates ``start..stop-1`` of one job, in order.

    ``job`` is ``(tables, seed, bounds, start, stop)``.  One screen block
    of replicates at a time is built (so ``W`` never has more rows than a
    block) and refitted as a stack.  The job's refits share one memo of
    concentration solves, or the enclosing range's (see
    :func:`~mallows_binomial.estimation._sharing_solves`).  Returns the
    stacked qualities, concentrations, consensus rankings and clamp flags.
    """
    tables, seed, bounds, start, stop = job
    size = _stack_block(tables.ratings.shape[1])
    fits = []
    with _sharing_solves():
        for lo in range(start, stop, size):
            fits += _fit_stack(tables.replicates(seed, lo, min(lo + size, stop)), bounds)
    return (
        np.array([refit.p for refit in fits]),
        np.array([refit.theta for refit in fits]),
        np.array([refit.consensus for refit in fits]),
        np.array([refit.theta_clamped for refit in fits]),
    )


def _check_bootstrap_args(n_replicates: int, alpha: float, workers: int) -> tuple[int, int]:
    n_replicates = int(n_replicates)
    if n_replicates < 1:
        raise ValueError(f"need at least one replicate, got {n_replicates}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    return n_replicates, workers


def _fan_out(job, n: int, workers: int, *args) -> list[np.ndarray]:
    """``job((*args, start, stop))`` over ``0..n-1`` in at most ``workers`` ranges.

    The ranges are contiguous.  The calling process runs the first while a
    pool of one process per other range runs the rest; a single range starts
    no pool.  Each job returns a tuple of arrays with one row per index, and
    the columns are concatenated in range order.
    """
    edges = np.linspace(0, n, workers + 1).round().astype(int).tolist()
    jobs = [(*args, start, stop) for start, stop in zip(edges, edges[1:]) if start < stop]
    if len(jobs) == 1:
        parts = [job(jobs[0])]
    else:
        with ProcessPoolExecutor(max_workers=len(jobs) - 1) as pool:
            rest = pool.map(job, jobs[1:])  # submitted before this process runs its own
            parts = [job(jobs[0]), *rest]
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
    n_replicates, workers = _check_bootstrap_args(n_replicates, alpha, workers)
    point = fit(data, bounds)
    p_samples, theta_samples, consensus_samples, clamped = _fan_out(
        _fit_replicates, n_replicates, workers, _JudgeTables.from_dataset(data), seed, bounds
    )
    p_intervals = np.array(
        [percentile_interval(p_samples[:, j], alpha) for j in range(data.n_objects)]
    )
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
