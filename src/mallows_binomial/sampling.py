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
replicate) costs more than its draws, so streams are derived in bulk, and
:func:`sample_dataset` replays PCG64 and numpy's binomial inversion over all
judges at once (on the numpy versions it is tested on); the bootstrap and
numpy's scalar-only draws set each state on one reused generator.
"""

from __future__ import annotations

import math

import numpy as np

from .model import Dataset, Params, _check_theta, _checked_dataset, _max_rating, _whole, as_ranking

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
_MASK64 = (1 << 64) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# uint64 shift counts and low-half mask for the limb arithmetic
_1, _11, _32, _58, _63 = (np.uint64(shift) for shift in (1, 11, 32, 58, 63))
_LOW32 = np.uint64(_MASK32)
# keys per bulk derivation, so the states of a large range are never all held
_STATE_BLOCK = 4096
# numpy (major, minor) versions the bulk replay is tested on; others sample per judge
_REPLAYED_NUMPY = ((2, 4),)
_NUMPY = tuple(int(part) for part in np.__version__.split(".")[:2])


def _hashmix(value: np.ndarray, h: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hash of uint32 words under constant ``h``; the next constant."""
    value = value ^ np.uint32(h)
    h = h * mult & _MASK32
    value *= np.uint32(h)
    return value ^ value >> 16, h


def _lcg(hi: np.ndarray, lo: np.ndarray, mult: int, inc_hi, inc_lo) -> tuple:
    """``(state * mult + inc) mod 2**128`` on uint64 limbs ``(hi, lo)``.  Of the
    products only ``lo * mult_lo`` needs its high word, built from 32-bit halves."""
    m_hi, m_lo = np.uint64(mult >> 64), np.uint64(mult & _MASK64)
    a1, a0 = lo >> _32, lo & _LOW32
    b1, b0 = m_lo >> _32, m_lo & _LOW32
    cross = a1 * b0
    mid = (a0 * b0 >> _32) + (cross & _LOW32) + a0 * b1
    carry_hi = a1 * b1 + (cross >> _32) + (mid >> _32)
    new_lo = lo * m_lo + inc_lo
    return carry_hi + hi * m_lo + lo * m_hi + inc_hi + (new_lo < inc_lo), new_lo


def _pcg64_states(seed, keys) -> tuple[np.ndarray, ...]:
    """uint64 limbs ``(state_hi, state_lo, inc_hi, inc_lo)`` of ``spawn_rng(seed, k)``.

    ``SeedSequence(seed, spawn_key=(k,))`` mixes the key word, in ``[0,
    2**32)``, into each word of ``SeedSequence(seed).pool`` (zero padding
    changes nothing); ``generate_state(4, uint64)`` hashes that pool, and
    PCG64 seeds from the words with two LCG steps.  The hash constants do
    not depend on the data, so every step is one numpy pass over all keys.
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
    s_hi, s_lo, i_hi, i_lo = (words[j] | words[j + 1] << _32 for j in range(0, 8, 2))
    inc_hi, inc_lo = i_hi << _1 | i_lo >> _63, i_lo << _1 | _1
    # the first step from state 0 gives inc; adding the seed is a step with multiplier 1
    hi, lo = _lcg(inc_hi, inc_lo, 1, s_hi, s_lo)
    return (*_lcg(hi, lo, _PCG64_MULT, inc_hi, inc_lo), inc_hi, inc_lo)


def _pcg64_doubles(seed, keys, k: int) -> np.ndarray:
    """Row ``r`` is ``spawn_rng(seed, keys[r]).random(k)``: each step advances every
    LCG, then applies XSL-RR, ``rotr64(hi ^ lo, hi >> 58)`` (O'Neill 2014)."""
    hi, lo, inc_hi, inc_lo = _pcg64_states(seed, keys)
    out = np.empty((lo.size, k))
    for column in range(k):
        hi, lo = _lcg(hi, lo, _PCG64_MULT, inc_hi, inc_lo)
        word, rot = hi ^ lo, hi >> _58
        word = word >> rot | word << (-rot & _63)
        out[:, column] = word >> _11
    return out * 2.0**-53


def _streams(seed, keys):
    """The generators ``spawn_rng(seed, k)`` for ``k`` in ``keys``.

    One generator is yielded again with the next key's state, so each must
    be drawn from before the next is taken.
    """
    rng = np.random.Generator(np.random.PCG64())
    bit_generator = rng.bit_generator
    for lo in range(0, len(keys), _STATE_BLOCK):
        limbs = _pcg64_states(seed, keys[lo : lo + _STATE_BLOCK])
        for s_hi, s_lo, i_hi, i_lo in zip(*(limb.tolist() for limb in limbs)):
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
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
    max_rating = _max_rating(max_rating)
    n_samples = _whole(n_samples, "n_samples must be a non-negative integer", 0)
    return rng.binomial(max_rating, p, size=(n_samples, p.size)).astype(np.int64)


def _binomial_inversion(uniforms: np.ndarray, n: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """numpy's ``binomial(n, p)`` by inversion on one double per row, for ``p != 0``
    and ``min(p, 1 - p) * n <= 30``; also the rows numpy would restart.

    The expressions and their order are numpy 2.4's ``random_binomial`` and
    ``random_binomial_inversion``; every row subtracts the same ``px``.
    """
    flip = not p <= 0.5
    pp = 1.0 - p if flip else p
    q = 1.0 - pp
    qn = math.exp(n * math.log1p(-pp))
    bound = int(min(n, n * pp + 10.0 * math.sqrt(n * pp * q + 1)))
    variates = np.zeros(uniforms.size, dtype=np.int64)
    rows = np.flatnonzero(uniforms > qn)
    u, px = uniforms[rows], qn
    for x in range(1, bound + 1):
        variates[rows] = x
        u = u - px
        px = ((n - x + 1) * pp * px) / (x * q)
        alive = u > px
        rows, u = rows[alive], u[alive]
    return (n - variates if flip else variates), rows


def sample_dataset(
    params: Params,
    n_judges: int,
    max_rating: int,
    seed,
    consensus=None,
) -> Dataset:
    """Simulate a full dataset of paired rankings and ratings.

    Judge ``i`` draws ``J - 1`` insertion uniforms, then ``binomial(max_rating,
    p_j)`` per object, from stream ``(seed, i)``.  All judges go in whole-array
    passes (PCG64 on uint64 limbs, numpy's binomial inversion, insertion); a
    panel with a BTPE object or another numpy than ``_REPLAYED_NUMPY``, and any
    judge whose inversion restarts, goes one judge at a time.  ``consensus``
    defaults to the one ``params.p`` implies.
    """
    n_judges = _whole(n_judges, "n_judges must be a positive integer")
    max_rating = _max_rating(max_rating)
    if consensus is None:
        consensus = params.consensus()
    consensus = as_ranking(consensus, params.n_objects)
    n = consensus.size
    p = params.p.tolist()
    # numpy draws nothing for p == 0, and one double per inverted variate
    drawn = [j for j, p_j in enumerate(p) if p_j != 0.0]
    ratings = np.zeros((n_judges, n), dtype=np.int64)
    if _NUMPY in _REPLAYED_NUMPY and all(min(p_j, 1.0 - p_j) * max_rating <= 30.0 for p_j in p):
        uniforms = _pcg64_doubles(seed, np.arange(n_judges), n - 1 + len(drawn))
        restart = [np.empty(0, dtype=np.intp)]
        for column, j in enumerate(drawn, start=n - 1):
            ratings[:, j], rows = _binomial_inversion(uniforms[:, column], max_rating, p[j])
            restart.append(rows)
        scalar = np.unique(np.concatenate(restart))
    else:
        uniforms = np.empty((n_judges, n - 1))
        scalar = np.arange(n_judges)
    for i, rng in zip(scalar.tolist(), _streams(seed, scalar)):
        rng.random(out=uniforms[i, : n - 1])
        ratings[i] = [rng.binomial(max_rating, p_j) for p_j in p]
    rankings = _insertion_rankings(consensus, params.theta, uniforms[:, : n - 1])
    return _checked_dataset(ratings, rankings, max_rating)
