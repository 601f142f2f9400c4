"""Exact samplers for the joint model and reproducible stream derivation.

Rankings are drawn by sequential insertion: objects enter the sample in
consensus order, and object ``m`` lands ``v`` places above the bottom of the
current list with probability proportional to ``exp(-theta * v)``.  Each
``v`` adds exactly ``v`` discordant pairs against the consensus, the
displacements are independent, and their normalizers multiply to the model
normalizer, so the draw is exact for every ``theta`` (no burn-in, no
rejection).  One vectorised routine does the insertion for both
:func:`sample_mallows` and :func:`sample_dataset`: it turns a matrix of
uniforms, one column per step, into rankings, advancing every row through
each step at once.

Randomness is organized as a tree: :func:`spawn_rng` and :func:`derive_seed`
map a root seed plus an integer path to independent streams.
:func:`sample_dataset` gives judge ``i`` the stream ``(seed, i)``, so a
dataset is reproducible regardless of evaluation order and a larger dataset
extends a smaller one drawn from the same seed.
"""

from __future__ import annotations

import numpy as np

from .model import Dataset, Params, as_ranking, _check_theta

__all__ = [
    "spawn_rng",
    "derive_seed",
    "sample_mallows",
    "sample_ratings",
    "sample_dataset",
]


def _check_path(seed, path) -> tuple[int, tuple[int, ...]]:
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    path = tuple(int(k) for k in path)
    if any(k < 0 for k in path):
        raise ValueError(f"stream path entries must be non-negative, got {path}")
    return seed, path


def spawn_rng(seed, *path) -> np.random.Generator:
    """Generator for the stream addressed by ``(seed, *path)``.

    Streams with different paths are statistically independent, and the same
    address always yields the same stream, so callers can hand out
    per-judge, per-replicate, or per-replication generators in any order.
    """
    seed, path = _check_path(seed, path)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))


def derive_seed(seed, *path) -> int:
    """Deterministic child seed for the stream addressed by ``(seed, *path)``.

    Use this to hand a whole subtree of randomness to a component that takes
    a plain integer seed (for example, one bootstrap run per simulated
    dataset).
    """
    seed, path = _check_path(seed, path)
    state = np.random.SeedSequence(seed, spawn_key=path).generate_state(1, np.uint64)
    return int(state[0])


def _insertion_rankings(center: np.ndarray, theta: float, uniforms: np.ndarray) -> np.ndarray:
    """Rankings built by repeated insertion, one row per row of ``uniforms``.

    ``uniforms`` is ``(rows, J - 1)``: column ``m - 1`` picks how far above the
    bottom of the growing list ``center[m]`` is inserted.  Every row is
    advanced through step ``m`` at once: the objects at or below the new slot
    move down one place, then ``center`` is scattered to its final positions.
    """
    rows, n = uniforms.shape[0], center.size
    positions = np.zeros((rows, n), dtype=np.intp)
    for m in range(1, n):
        cdf = np.cumsum(np.exp(-theta * np.arange(m + 1)))
        cdf /= cdf[-1]
        cdf[-1] = 1.0
        slot = m - np.searchsorted(cdf, uniforms[:, m - 1], side="right")
        positions[:, :m] += positions[:, :m] >= slot[:, None]
        positions[:, m] = slot
    rankings = np.empty((rows, n), dtype=np.intp)
    np.put_along_axis(rankings, positions, center, axis=1)
    return rankings


def sample_mallows(consensus, theta, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Draw rankings from the Mallows kernel centered at ``consensus``.

    Returns an ``(n_samples, J)`` integer array, one ranking per row, most
    preferred first.
    """
    consensus = as_ranking(consensus)
    theta = _check_theta(theta)
    n_samples = int(n_samples)
    if n_samples < 0:
        raise ValueError(f"n_samples must be non-negative, got {n_samples}")
    # insertion step m takes the m-th block of n_samples uniforms
    uniforms = rng.random((consensus.size - 1, n_samples)).T
    return _insertion_rankings(consensus, theta, uniforms)


def sample_ratings(p, max_rating: int, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an ``(n_samples, J)`` matrix of independent Binomial ratings."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("p must be a non-empty 1-D vector")
    if not np.all(np.isfinite(p)) or np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError(f"every rating probability must lie in [0, 1], got {p.tolist()}")
    max_rating = int(max_rating)
    if max_rating < 1:
        raise ValueError(f"max_rating must be a positive integer, got {max_rating}")
    n_samples = int(n_samples)
    if n_samples < 0:
        raise ValueError(f"n_samples must be non-negative, got {n_samples}")
    return rng.binomial(max_rating, p, size=(n_samples, p.size)).astype(np.int64)


def sample_dataset(
    params: Params,
    n_judges: int,
    max_rating: int,
    seed,
    consensus=None,
) -> Dataset:
    """Simulate a full dataset of paired rankings and ratings.

    Judge ``i`` draws its ``J - 1`` insertion uniforms and then its ratings
    from the dedicated stream ``(seed, i)``, so row ``i`` depends only on the
    seed and ``i``: its ranking is ``sample_mallows(consensus, theta, 1,
    spawn_rng(seed, i))[0]``.  The rankings of all judges are then built in
    one insertion pass.  ``consensus`` defaults to the ranking implied by
    ``params.p``.
    """
    n_judges = int(n_judges)
    if n_judges < 1:
        raise ValueError(f"need at least one judge, got {n_judges}")
    max_rating = int(max_rating)
    if max_rating < 1:
        raise ValueError(f"max_rating must be a positive integer, got {max_rating}")
    if consensus is None:
        consensus = params.consensus()
    consensus = as_ranking(consensus, params.n_objects)
    n = consensus.size
    seed, _ = _check_path(seed, ())
    uniforms = np.empty((n_judges, n - 1))
    ratings = np.empty((n_judges, n), dtype=np.int64)
    for i in range(n_judges):
        # the stream spawn_rng(seed, i), with the seed checked once; one
        # generator at a time, so no list of all judges' streams is held
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        uniforms[i] = rng.random(n - 1)
        ratings[i] = rng.binomial(max_rating, params.p)
    rankings = _insertion_rankings(consensus, params.theta, uniforms)
    return Dataset(ratings=ratings, rankings=rankings, max_rating=max_rating)
