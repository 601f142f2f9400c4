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

Both studies run replication ``r`` through one driver: its dataset seed is
``(seed, r, 0)`` and its bootstrap seed ``(seed, r, 1)``, so either study is
reproducible and individual replications can be re-run in isolation.  A
range's fits, point fits included, share one memo of concentration solves.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial

import numpy as np
from scipy.special import ndtri

from .bootstrap import _fan_out, bootstrap_fit
from .estimation import fit
from .model import DEFAULT_BOUNDS, ParamBounds, Params, _check_alpha, _max_rating, _whole
from .model import distance_variance
from .sampling import _check_path, derive_seed, sample_dataset

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
    delta method gives ``sqrt(sigma^2 / ((kappa')^2 I))``.  Raises
    ``ValueError`` when ``theta`` is so large (about 375 and beyond) that
    ``(kappa')^2`` underflows to zero.
    """
    max_rating = _max_rating(max_rating)
    n_judges = _whole(n_judges, "n_judges must be a positive integer")
    p_se = np.sqrt(params.p * (1.0 - params.p) / (max_rating * n_judges))
    var = distance_variance(params.theta, params.n_objects)
    kappa_prime = -var
    if kappa_prime**2 == 0.0:
        raise ValueError(
            f"theta = {params.theta} is too large for the delta method: the squared "
            "slope of the expected distance underflows to zero"
        )
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


def _check_study_args(params, bounds, n_judges, max_rating, n_replications, alpha, seed):
    """The checked study arguments, as the :class:`CoverageReport` fields echoing them."""
    # every fit clamps theta to the box, so a truth outside it is never covered
    # and its standard error says nothing about the clamped estimates
    if not bounds.theta_min <= params.theta <= bounds.theta_max:
        raise ValueError(
            f"true theta = {params.theta} lies outside the theta box "
            f"[{bounds.theta_min}, {bounds.theta_max}] every fit is clamped to"
        )
    return dict(
        p_true=tuple(float(v) for v in params.p),
        theta_true=params.theta,
        n_objects=params.n_objects,
        n_judges=_whole(n_judges, "n_judges must be a positive integer"),
        max_rating=_max_rating(max_rating),
        n_replications=_whole(n_replications, "n_replications must be a positive integer"),
        alpha=_check_alpha(alpha),
        seed=_check_path(seed, ())[0],
    )


# the checked arguments a study runs with, read back from its echo
_RUN_ARGS = ("n_judges", "max_rating", "n_replications", "alpha", "seed")


def lan_check(
    params: Params,
    n_judges: int,
    max_rating: int,
    n_replications: int = 500,
    alpha: float = 0.05,
    seed=0,
    bounds: ParamBounds = DEFAULT_BOUNDS,
) -> CoverageReport:
    """Standardized-error coverage of the MLE at known true parameters.

    Each replication simulates a dataset from ``params``, fits it, and
    standardizes every estimate by its theoretical standard error.  Coverage
    is the fraction of replications whose standardized error lies inside the
    two-sided normal band at level ``alpha``.  Estimator normality makes
    each coverage approach ``1 - alpha`` as the judge count grows.  A true
    ``theta`` outside the box of ``bounds`` raises ``ValueError``.
    """
    echo = _check_study_args(params, bounds, n_judges, max_rating, n_replications, alpha, seed)
    n_judges, max_rating, n_replications, alpha, seed = (echo[key] for key in _RUN_ARGS)
    # the standard deviation of the standardized errors needs two of them
    _whole(n_replications, "lan_check needs at least two replications", 2)
    se = theoretical_se(params, max_rating, n_judges)
    z_crit = float(ndtri(1.0 - alpha / 2.0))
    recovered, p, theta = _fan_out(
        _replications, n_replications, 1, _point_fit, params, n_judges, max_rating, seed, bounds
    )
    p_z, theta_z = (p - params.p) / se.p, (theta - params.theta) / se.theta
    return CoverageReport(
        kind="z",
        **echo,
        consensus_recovery_rate=float(recovered.mean()),
        p_coverage=tuple(float(v) for v in (np.abs(p_z) <= z_crit).mean(axis=0)),
        theta_coverage=float((np.abs(theta_z) <= z_crit).mean()),
        p_z_mean=tuple(float(v) for v in p_z.mean(axis=0)),
        p_z_sd=tuple(float(v) for v in p_z.std(axis=0, ddof=1)),
        theta_z_mean=float(theta_z.mean()),
        theta_z_sd=float(theta_z.std(ddof=1)),
    )


def _replications(replicate, params, n_judges, max_rating, seed, bounds, start, stop):
    """Replications ``start..stop-1`` of one study, in order.

    Replication ``r`` samples a panel from ``(seed, r, 0)``;
    ``replicate(panel, derive_seed(seed, r, 1), bounds)`` gives its point
    consensus, then its columns.  Each row is whether the point consensus is
    the truth's, then the columns.
    """
    for r in range(start, stop):
        data = sample_dataset(params, n_judges, max_rating, derive_seed(seed, r, 0))
        consensus, *row = replicate(data, derive_seed(seed, r, 1), bounds)
        yield np.array_equal(consensus, params.consensus()), *row


def _point_fit(data, seed, bounds):
    """A :func:`lan_check` replication: point consensus, qualities, concentration."""
    result = fit(data, bounds)
    return result.consensus, result.p, result.theta


def _interval_fit(n_bootstrap, alpha, data, seed, bounds):
    """A :func:`coverage_study` replication: point consensus, intervals, clamp rate."""
    boot = bootstrap_fit(data, n_bootstrap, alpha, seed, bounds)
    return boot.point.consensus, boot.p_intervals, boot.theta_interval, boot.clamp_rate


def coverage_study(
    params: Params,
    n_judges: int,
    max_rating: int,
    n_replications: int = 300,
    n_bootstrap: int = 200,
    alpha: float = 0.10,
    seed=0,
    bounds: ParamBounds = DEFAULT_BOUNDS,
    workers: int = 1,
) -> CoverageReport:
    """Empirical coverage of bootstrap percentile intervals.

    Each replication simulates a dataset from ``params``, runs the full
    bootstrap pipeline on it, and records whether each parameter's interval
    covers the truth.  Valid intervals make every coverage approach
    ``1 - alpha``.  With ``workers`` > 1, the replications split into
    contiguous ranges, one per process, this one included; each range runs
    whole replications.  A true ``theta`` outside the box of ``bounds``
    raises ``ValueError``.
    """
    echo = _check_study_args(params, bounds, n_judges, max_rating, n_replications, alpha, seed)
    n_judges, max_rating, n_replications, alpha, seed = (echo[key] for key in _RUN_ARGS)
    n_bootstrap = _whole(n_bootstrap, "n_bootstrap must be a positive integer")
    workers = _whole(workers, "workers must be a positive integer")
    recovered, p_intervals, theta_intervals, clamp = _fan_out(
        _replications, n_replications, workers,
        partial(_interval_fit, n_bootstrap, alpha), params, n_judges, max_rating, seed, bounds,
    )
    (lows, highs), (lo, hi) = np.moveaxis(p_intervals, -1, 0), theta_intervals.T
    p_covered = (lows <= params.p) & (params.p <= highs)
    return CoverageReport(
        kind="bootstrap",
        **echo,
        consensus_recovery_rate=float(recovered.mean()),
        p_coverage=tuple(float(v) for v in p_covered.mean(axis=0)),
        theta_coverage=float(((lo <= params.theta) & (params.theta <= hi)).mean()),
        n_bootstrap=n_bootstrap,
        p_interval_width=tuple(float(v) for v in (highs - lows).mean(axis=0)),
        theta_interval_width=float((hi - lo).mean()),
        theta_clamp_rate=float(clamp.mean()),
    )
