"""Nonparametric bootstrap uncertainty for the joint maximum-likelihood fit.

Judges are the sampling unit: each replicate redraws whole judges with
replacement (keeping every judge's ranking and ratings paired), refits the
model from scratch, and the spread of the refitted parameters across
replicates yields percentile confidence intervals.

A replicate is determined by how often it draws each judge (its resampling
vector, Efron 1982).  Its sufficient statistics are those multiplicities
times per-judge tables built once per call: rating sums, pair indicators and
rating-level counts.  Every sum is an exact integer, so the statistics are
bit for bit those of the resampled dataset, without building it.

Replicate ``b`` draws from the dedicated stream ``(seed, b)``, so results are
identical no matter how replicates are scheduled, and adding replicates
extends the existing ones instead of reshuffling them.
"""

from __future__ import annotations

import functools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .estimation import FitResult, fit
from .model import (
    DEFAULT_BOUNDS,
    Dataset,
    ParamBounds,
    SufficientStats,
    _freeze,
    _log_binom_levels,
)
from .sampling import spawn_rng

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
        positions = np.argsort(data.rankings, axis=1)
        pairs = positions[:, :, None] < positions[:, None, :]
        level_index = np.arange(n_judges)[:, None] * levels + data.ratings
        return cls(
            ratings=data.ratings,
            pairs=pairs.reshape(n_judges, n * n).astype(np.int64),
            levels=np.bincount(level_index.ravel(), minlength=n_judges * levels).reshape(
                n_judges, levels
            ),
            log_binom=_log_binom_levels(data.max_rating),
            max_rating=data.max_rating,
        )

    def replicate(self, seed, b: int) -> SufficientStats:
        """Statistics of replicate ``b``: the draws ``resample`` makes from ``(seed, b)``."""
        n_judges, n = self.ratings.shape
        weights = np.bincount(_draw_judges(n_judges, spawn_rng(seed, b)), minlength=n_judges)
        return SufficientStats(
            xbar=_freeze((weights @ self.ratings) / n_judges),
            pair_counts=_freeze((weights @ self.pairs).reshape(n, n)),
            n_judges=n_judges,
            max_rating=self.max_rating,
            log_binom_const=float((weights @ self.levels) @ self.log_binom),
        )


def _fit_replicate(tables, seed, bounds, exhaustive_cap, b):
    refit = fit(tables.replicate(seed, b), bounds, exhaustive_cap=exhaustive_cap)
    return refit.p, refit.theta, refit.consensus, refit.theta_clamped


def bootstrap_fit(
    data: Dataset,
    n_replicates: int = 1000,
    alpha: float = 0.10,
    seed=0,
    bounds: ParamBounds = DEFAULT_BOUNDS,
    exhaustive_cap: int = 8,
    workers: int = 1,
) -> BootstrapResult:
    """Fit the model and bootstrap every parameter's percentile interval.

    ``workers`` > 1 distributes replicates over processes; the output is
    byte-identical for any worker count because replicate ``b`` is fully
    determined by ``(seed, b)`` and results are collected in replicate order.
    """
    n_replicates = int(n_replicates)
    if n_replicates < 1:
        raise ValueError(f"need at least one replicate, got {n_replicates}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")

    point = fit(data, bounds, exhaustive_cap=exhaustive_cap)
    # the tables travel once per chunk of replicates, not once per replicate
    fit_one = functools.partial(
        _fit_replicate, _JudgeTables.from_dataset(data), seed, bounds, exhaustive_cap
    )
    if workers == 1:
        replicates = [fit_one(b) for b in range(n_replicates)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            replicates = list(pool.map(fit_one, range(n_replicates), chunksize=32))

    p_samples = np.array([r[0] for r in replicates])
    theta_samples = np.array([r[1] for r in replicates])
    consensus_samples = np.array([r[2] for r in replicates])
    clamped = np.array([r[3] for r in replicates])
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
