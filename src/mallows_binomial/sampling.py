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
map a root seed plus an integer path to independent streams, and
:func:`spawn_rng` is the definition of a stream.  :func:`sample_dataset`
gives judge ``i`` the stream ``(seed, i)``, so a dataset is reproducible
regardless of evaluation order and a larger dataset extends a smaller one
drawn from the same seed.  Building one generator per judge (or per bootstrap
replicate) costs more than the draws it makes, so the samplers derive the
same generator states in bulk, by numpy's seed hash vectorised over the keys,
and set them on one reused generator.
"""

from __future__ import annotations

import numpy as np

from .model import Dataset, Params, _check_theta, _whole, as_ranking

__all__ = [
    "spawn_rng",
    "derive_seed",
    "sample_mallows",
    "sample_ratings",
    "sample_dataset",
]


def _check_path(seed, path) -> tuple[int, tuple[int, ...]]:
    seed = _whole(seed, "seed must be a non-negative integer", 0)
    path = tuple(_whole(k, "stream path entries must be non-negative integers", 0) for k in path)
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


# numpy's SeedSequence hash constants (pool of four uint32 words) and the
# PCG64 multiplier (O'Neill 2014)
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# keys per bulk derivation, so the states of a large range are never all held
_STATE_BLOCK = 4096


def _hashmix(value: np.ndarray, h: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hash of uint32 words under constant ``h``; the next constant."""
    value = value ^ np.uint32(h)
    h = h * mult & _MASK32
    value *= np.uint32(h)
    return value ^ value >> 16, h


def _pcg64_states(seed, keys) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``spawn_rng(seed, k)`` for each key ``k``.

    ``SeedSequence(seed, spawn_key=(k,))`` mixes the seed's words into a pool
    that is ``SeedSequence(seed).pool`` for every key (the zero words padding
    the seed change nothing), then mixes the key word into each pool word;
    ``generate_state(4, uint64)`` hashes the pool, and PCG64 seeds from those
    words with two steps of its 128-bit LCG.  The hash constants do not
    depend on the data, so the per-key steps are uint32 numpy passes over
    all keys at once.  A key must be one word, in ``[0, 2**32)``.
    """
    seed, _ = _check_path(seed, ())
    keys = np.asarray(keys)
    if keys.size and not (0 <= keys.min() and keys.max() <= _MASK32):
        raise ValueError(f"stream keys must lie in [0, 2**32), got {keys.min()}..{keys.max()}")
    keys = keys.astype(np.uint32)
    # the hash constant after the seed's 4 * max(4, words) hash steps
    h = _INIT_A * pow(_MULT_A, 4 * max(4, -(-seed.bit_length() // 32)), 1 << 32) & _MASK32
    pool = []
    for word in np.random.SeedSequence(seed).pool.tolist():
        value, h = _hashmix(keys, h, _MULT_A)
        value = np.uint32(_MIX_L * word & _MASK32) - value * np.uint32(_MIX_R)
        pool.append(value ^ value >> 16)
    h, words = _INIT_B, []
    for i in range(8):
        value, h = _hashmix(pool[i % 4], h, _MULT_B)
        words.append(value.astype(np.uint64))
    # uint32 pairs are little-endian uint64 words: seed high, low, inc high, low
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(
        *((words[j] | words[j + 1] << 32).tolist() for j in range(0, 8, 2))
    ):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        states.append(((((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def _streams(seed, start: int, stop: int):
    """The generators ``spawn_rng(seed, k)`` for ``k`` in ``start..stop-1``.

    One generator is yielded again with the next key's state, so each must
    be drawn from before the next is taken.
    """
    rng = np.random.Generator(np.random.PCG64())
    bit_generator = rng.bit_generator
    for lo in range(start, stop, _STATE_BLOCK):
        for state, inc in _pcg64_states(seed, range(lo, min(lo + _STATE_BLOCK, stop))):
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield rng


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
    n_samples = _whole(n_samples, "n_samples must be a non-negative integer", 0)
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
    max_rating = _whole(max_rating, "max_rating must be a positive integer")
    n_samples = _whole(n_samples, "n_samples must be a non-negative integer", 0)
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
    n_judges = _whole(n_judges, "n_judges must be a positive integer")
    max_rating = _whole(max_rating, "max_rating must be a positive integer")
    if consensus is None:
        consensus = params.consensus()
    consensus = as_ranking(consensus, params.n_objects)
    n = consensus.size
    p = params.p.tolist()
    uniforms = np.empty((n_judges, n - 1))
    ratings = []
    for i, rng in enumerate(_streams(seed, 0, n_judges)):
        rng.random(out=uniforms[i])
        # scalar draws: the same variates as one array call, without its checks
        ratings.append([rng.binomial(max_rating, p_j) for p_j in p])
    rankings = _insertion_rankings(consensus, params.theta, uniforms)
    return Dataset(
        ratings=np.array(ratings, dtype=np.int64), rankings=rankings, max_rating=max_rating
    )
