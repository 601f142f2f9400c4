"""Large-sample behavior of the joint MLE, checked by simulation.

With the consensus recovered, the quality estimates are asymptotically
normal around the truth with variance ``p (1 - p) / (M I)`` (Binomial
information), and the concentration estimate inherits normality from the
observed mean Kendall distance through the inverse of the expected-distance
map (delta method), giving variance ``sigma^2 / ((kappa')^2 I)`` where
``kappa`` and ``sigma^2`` are the distance mean and variance functions.

:func:`lan_check` verifies those claims directly: simulate many datasets at
known parameters, standardize each estimate by its theoretical standard
error, and measure how often the standardized errors land inside the normal
reference band.  :func:`coverage_study` runs the full pipeline instead,
wrapping a bootstrap interval around every simulated dataset and measuring
how often the intervals cover the truth.

Replication ``r`` derives its dataset seed from ``(seed, r, 0)`` and its
bootstrap seed from ``(seed, r, 1)``, so either study is reproducible and
individual replications can be re-run in isolation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import ndtri

from .bootstrap import _bootstrap, _check_bootstrap_args, _worker_pool
from .estimation import fit
from .model import DEFAULT_BOUNDS, ParamBounds, Params, distance_variance
from .sampling import derive_seed, sample_dataset

__all__ = ["StandardErrors", "theoretical_se", "CoverageReport", "lan_check", "coverage_study"]


@dataclass(frozen=True)
class StandardErrors:
    """Asymptotic standard errors of the quality and concentration MLEs."""

    p: np.ndarray
    theta: float


def theoretical_se(params: Params, max_rating: int, n_judges: int) -> StandardErrors:
    """Large-sample standard errors at the given true parameters.

    Qualities: ``sqrt(p (1 - p) / (M I))``.  Concentration: the MLE inverts
    the expected-distance map at the observed mean distance, whose variance
    is ``sigma^2 / I``; the map's slope is ``kappa' = -sigma^2``, so the
    delta method gives ``sqrt(sigma^2 / ((kappa')^2 I))``.
    """
    max_rating = int(max_rating)
    n_judges = int(n_judges)
    if max_rating < 1:
        raise ValueError(f"max_rating must be a positive integer, got {max_rating}")
    if n_judges < 1:
        raise ValueError(f"need at least one judge, got {n_judges}")
    p_se = np.sqrt(params.p * (1.0 - params.p) / (max_rating * n_judges))
    var = distance_variance(params.theta, params.n_objects)
    kappa_prime = -var
    theta_se = float(np.sqrt(var / (kappa_prime**2 * n_judges)))
    return StandardErrors(p=p_se, theta=theta_se)


@dataclass(frozen=True)
class CoverageReport:
    """Per-coordinate coverage from a Monte Carlo study.

    ``kind`` is ``"z"`` when coverage counts standardized estimates inside
    the normal band (no bootstrap involved) and ``"bootstrap"`` when it
    counts percentile intervals covering the truth.  Fields that do not
    apply to the study kind are None.  The configuration that produced the
    report is echoed so the numbers can be reproduced.
    """

    kind: str
    p_true: tuple[float, ...]
    theta_true: float
    n_objects: int
    n_judges: int
    max_rating: int
    n_replications: int
    alpha: float
    seed: int
    consensus_recovery_rate: float
    p_coverage: tuple[float, ...]
    theta_coverage: float
    n_bootstrap: int | None = None
    p_z_mean: tuple[float, ...] | None = None
    p_z_sd: tuple[float, ...] | None = None
    theta_z_mean: float | None = None
    theta_z_sd: float | None = None
    p_interval_width: tuple[float, ...] | None = None
    theta_interval_width: float | None = None
    theta_clamp_rate: float | None = None

    def to_dict(self) -> dict:
        """JSON-ready dictionary of every field (tuples serialize as arrays)."""
        return asdict(self)


def _check_study_args(n_replications: int, alpha: float) -> tuple[int, float]:
    n_replications = int(n_replications)
    if n_replications < 1:
        raise ValueError(f"need at least one replication, got {n_replications}")
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    return n_replications, alpha


def lan_check(
    params: Params,
    n_judges: int,
    max_rating: int,
    n_replications: int = 500,
    alpha: float = 0.05,
    seed=0,
    bounds: ParamBounds = DEFAULT_BOUNDS,
    exhaustive_cap: int = 8,
) -> CoverageReport:
    """Standardized-error coverage of the MLE at known true parameters.

    Each replication simulates a dataset from ``params``, fits it, and
    standardizes every estimate by its theoretical standard error.  Coverage
    is the fraction of replications whose standardized error lies inside the
    two-sided normal band at level ``alpha``.  Estimator normality makes
    each coverage approach ``1 - alpha`` as the judge count grows.
    """
    n_replications, alpha = _check_study_args(n_replications, alpha)
    se = theoretical_se(params, max_rating, n_judges)
    z_crit = float(ndtri(1.0 - alpha / 2.0))
    truth = params.consensus()
    p_z = np.empty((n_replications, params.n_objects))
    theta_z = np.empty(n_replications)
    recovered = np.empty(n_replications, dtype=bool)
    for r in range(n_replications):
        data = sample_dataset(params, n_judges, max_rating, derive_seed(seed, r, 0))
        result = fit(data, bounds, exhaustive_cap=exhaustive_cap)
        p_z[r] = (result.p - params.p) / se.p
        theta_z[r] = (result.theta - params.theta) / se.theta
        recovered[r] = np.array_equal(result.consensus, truth)
    return CoverageReport(
        kind="z",
        p_true=tuple(float(v) for v in params.p),
        theta_true=params.theta,
        n_objects=params.n_objects,
        n_judges=int(n_judges),
        max_rating=int(max_rating),
        n_replications=n_replications,
        alpha=alpha,
        seed=int(seed),
        consensus_recovery_rate=float(recovered.mean()),
        p_coverage=tuple(float(v) for v in (np.abs(p_z) <= z_crit).mean(axis=0)),
        theta_coverage=float((np.abs(theta_z) <= z_crit).mean()),
        p_z_mean=tuple(float(v) for v in p_z.mean(axis=0)),
        p_z_sd=tuple(float(v) for v in p_z.std(axis=0, ddof=1)),
        theta_z_mean=float(theta_z.mean()),
        theta_z_sd=float(theta_z.std(ddof=1)),
    )


def coverage_study(
    params: Params,
    n_judges: int,
    max_rating: int,
    n_replications: int = 300,
    n_bootstrap: int = 200,
    alpha: float = 0.10,
    seed=0,
    bounds: ParamBounds = DEFAULT_BOUNDS,
    exhaustive_cap: int = 8,
    workers: int = 1,
) -> CoverageReport:
    """Empirical coverage of bootstrap percentile intervals.

    Each replication simulates a dataset from ``params``, runs the full
    bootstrap pipeline on it, and records whether each parameter's interval
    covers the truth.  Valid intervals make every coverage approach
    ``1 - alpha``.  With ``workers`` > 1, every replication's bootstrap runs
    on one process pool that lives as long as the study.
    """
    n_replications, alpha = _check_study_args(n_replications, alpha)
    n_bootstrap, workers = _check_bootstrap_args(n_bootstrap, alpha, workers)
    truth = params.consensus()
    p_covered = np.empty((n_replications, params.n_objects), dtype=bool)
    theta_covered = np.empty(n_replications, dtype=bool)
    p_width = np.empty((n_replications, params.n_objects))
    theta_width = np.empty(n_replications)
    clamp = np.empty(n_replications)
    recovered = np.empty(n_replications, dtype=bool)
    with _worker_pool(workers) as pool:
        for r in range(n_replications):
            data = sample_dataset(params, n_judges, max_rating, derive_seed(seed, r, 0))
            boot = _bootstrap(
                data,
                n_bootstrap,
                alpha,
                derive_seed(seed, r, 1),
                bounds,
                exhaustive_cap,
                workers,
                pool,
            )
            lows, highs = boot.p_intervals[:, 0], boot.p_intervals[:, 1]
            p_covered[r] = (lows <= params.p) & (params.p <= highs)
            lo, hi = boot.theta_interval
            theta_covered[r] = lo <= params.theta <= hi
            p_width[r] = highs - lows
            theta_width[r] = hi - lo
            clamp[r] = boot.clamp_rate
            recovered[r] = np.array_equal(boot.point.consensus, truth)
    return CoverageReport(
        kind="bootstrap",
        p_true=tuple(float(v) for v in params.p),
        theta_true=params.theta,
        n_objects=params.n_objects,
        n_judges=int(n_judges),
        max_rating=int(max_rating),
        n_replications=n_replications,
        alpha=alpha,
        seed=int(seed),
        consensus_recovery_rate=float(recovered.mean()),
        p_coverage=tuple(float(v) for v in p_covered.mean(axis=0)),
        theta_coverage=float(theta_covered.mean()),
        n_bootstrap=int(n_bootstrap),
        p_interval_width=tuple(float(v) for v in p_width.mean(axis=0)),
        theta_interval_width=float(theta_width.mean()),
        theta_clamp_rate=float(clamp.mean()),
    )
