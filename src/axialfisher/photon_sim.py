"""Seeded Monte Carlo detection of single photons on a Gaussian profile.

An exposure of n photons at squared width w^2 is drawn straight as its
two sufficient statistics (``sample_trials``): the count k beyond a
boundary radius r_b and t = sum of 2 r^2 / w^2, in O(1) work however
large n is.  The law is exact.  Each X = 2 r^2 / w^2 is a unit-mean
exponential; with c = 2 r_b^2 / w^2 split it as X = c F + c V:

* F = floor(X / c) is geometric, P(F >= f) = exp(-c f);
* V in [0, 1) has density proportional to exp(-c V), and its binary
  digits b_j are independent Bernoulli variables with
  P(b_j = 1) = 1 / (1 + exp(c 2^-j)), each exponential the C library's
  (``numerics.libm_exp``), so the law is the same bits on every CPU;
* F and V are independent, because the density factorises (Marsaglia,
  "Random variables with independent binary digits", Ann. Math.
  Statist. 42 (1971)).

Summed over the n photons, k = #{F >= 1} ~ Binomial(n, exp(-c)); the
sum of F is k + G with G ~ NegativeBinomial(k, 1 - exp(-c)) failures;
and the number M_j of photons with digit j set is Binomial(n, q_j),
independent across j and of (k, G).  So

    t = c (k + G + sum_{j <= L} 2^-j M_j) + rho,   0 <= rho < n c 2^-L,

and with L = 64 the dropped tail is below c 2^-64 per photon, finer than
the 2^-53 grid of a double-precision uniform draw.

The photon-level route stays as the reference the sampler is tested
against: ``sample_radii`` maps u uniform on (0, 1] through the inverse
survival function of the radial intensity,

    r = w * sqrt(-ln(u) / 2).

Everything is driven by explicit integer seeds, one route per job:
``derive_trial_seeds`` gives every trial's seed, and ``sample_trials``
and ``poisson_counts`` take those seeds and draw from each trial's
``default_rng(seed)``.  Trial t's seed is

    SeedSequence(entropy=base_seed, spawn_key=(t, substream))
        .generate_state(1, uint64),

and ``default_rng(seed)`` is PCG64 seeded with the four words
``SeedSequence(seed).generate_state(4, uint64)``.  So trials are
independent of execution order, and re-running any trial reproduces it
bit for bit.  Both hashes run once per call over all trials:
``derive_trial_seeds`` and the private ``_seed_states`` share one
numpy-vectorized port of ``numpy.random.SeedSequence``'s entropy hash
(``_pool`` fills and mixes a pool of four 32-bit words, ``_absorb`` takes
in the later words) that equals it bit for bit, and the samplers hand each
trial's state words straight to PCG64 instead of hashing its seed again.
A base seed's mixed pool is kept (``_base_pool``), so each call with a
recent base seed absorbs only t and ``substream``.  How a seed becomes a
generator stays inside this module.

numpy's random package, with the ``secrets`` and ``hashlib`` modules it
loads, is imported by the first call that seeds or draws (numpy loads it
on first access to ``np.random``), not with this module: the
deterministic bound routes and commands never load it.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .numerics import NumericalLimitError, finite_scalar, libm_exp

#: Binary digits of V drawn per exposure; the rest is below 2^-64.
_DIGITS = 64
_DIGIT_WEIGHTS = np.ldexp(1.0, -np.arange(1, _DIGITS + 1))

#: numpy's largest accepted Poisson mean.  Its negative-binomial draw
#: checks (1 - p) / p * (n + 10 sqrt(n)) against it, and ``TrialConfig``
#: checks a Poisson-total ``n_per_trial`` against it.
_INT64_MAX = np.iinfo(np.int64).max
_POISSON_LAM_MAX = _INT64_MAX - math.sqrt(_INT64_MAX) * 10

# numpy.random.SeedSequence's hash (pool of four 32-bit words), with its
# constants: hash call j of the entropy mixing xors with INIT_A MULT_A^j
# and multiplies by INIT_A MULT_A^(j+1) (mod 2^32); output word j uses the
# same map on INIT_B and MULT_B.
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def _hash_calls(init: int, mult: int, calls) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiply) constants of the given hash calls, read-only."""
    xor = np.array([init * pow(mult, j, 1 << 32) & _MASK32 for j in calls], dtype=np.uint32)
    mul = xor * np.uint32(mult)
    xor.flags.writeable = mul.flags.writeable = False
    return xor, mul


@functools.lru_cache(maxsize=16)
def _entropy_calls(n_tail: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """``mix_entropy``'s constants, one row per step, its hash calls
    numbered as numpy numbers them: 0-3 fill the pool; 4-15 mix each
    source word into the other three (its own column a placeholder whose
    result is discarded); then four absorb each of ``n_tail`` later words."""
    rows = [range(_POOL)]
    rows += [[_POOL + (_POOL - 1) * src + dst - (dst > src) for dst in range(_POOL)]
             for src in range(_POOL)]
    rows += [range(_POOL * (_POOL + w), _POOL * (_POOL + w + 1)) for w in range(n_tail)]
    return [_hash_calls(_INIT_A, _MULT_A, calls) for calls in rows]


_OUTPUT_CALLS = _hash_calls(_INIT_B, _MULT_B, range(2 * _POOL))
_OUTPUT_SOURCES = np.arange(2 * _POOL) % _POOL


def _hashmix(value, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` of ``value`` under each column's
    constants; uint32 arithmetic wraps mod 2^32."""
    value = value ^ xor
    value *= mul
    value ^= value >> _SHIFT
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix``, elementwise."""
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    result ^= result >> _SHIFT
    return result


def _pool(head: np.ndarray) -> np.ndarray:
    """The first part of SeedSequence's ``mix_entropy``, one pool per row:
    fill it from a row of ``head`` (at most four uint32 words, padded with
    zeros) and mix it."""
    fill, *rows = _entropy_calls(0)
    words = np.zeros((head.shape[0], _POOL), dtype=np.uint32)
    words[:, : head.shape[1]] = head
    pool = _hashmix(words, *fill)
    for src, (xor, mul) in enumerate(rows):
        mixed = _mix(pool, _hashmix(pool[:, src, None], xor, mul))
        mixed[:, src] = pool[:, src]
        pool = mixed
    return pool


def _absorb(pool: np.ndarray, tail) -> np.ndarray:
    """The rest of ``mix_entropy``: absorb each ``tail`` word (an int, or
    uint32 words broadcast over rows); ``pool`` itself is never written."""
    for word, (xor, mul) in zip(tail, _entropy_calls(len(tail))[1 + _POOL:]):
        pool = _mix(pool, _hashmix(word, xor, mul))
    return pool


@functools.lru_cache(maxsize=64)
def _base_pool(base_seed: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The filled and mixed pool of ``base_seed``'s first four 32-bit words
    (read-only, one row), and its further words, which come before t and
    ``substream`` in the tail."""
    words = [base_seed >> shift & _MASK32
             for shift in range(0, max(32, base_seed.bit_length()), 32)]
    pool = _pool(np.array([words[:_POOL]], dtype=np.uint32))
    pool.flags.writeable = False
    return pool, tuple(words[_POOL:])


def _output_words(pool: np.ndarray, n_words: int) -> np.ndarray:
    """``generate_state(n_words, uint64)`` of each row of ``pool``."""
    sources = _OUTPUT_SOURCES[: 2 * n_words]
    xor, mul = (consts[: 2 * n_words] for consts in _OUTPUT_CALLS)
    words = np.ascontiguousarray(_hashmix(pool[:, sources], xor, mul), dtype="<u4")
    return words.view("<u8").astype(np.uint64, copy=False)


def derive_trial_seeds(base_seed: int, trials: int, substream: int = 0) -> np.ndarray:
    """Trial t's seed ``SeedSequence(entropy=base_seed, spawn_key=(t,
    substream)).generate_state(1, uint64)`` for t = 0..trials-1, as a
    uint64 array computed in one vectorized pass.

    Distinct (base, trial, substream) triples give independent streams,
    and the mapping never changes between runs; ``substream`` separates
    the random purposes of one trial (statistics, fluctuating totals).
    The entropy is the base seed's 32-bit words, padded with zeros to
    four, then t and ``substream``, one word each: ``trials`` is at most
    2^32.
    """
    if base_seed < 0:
        raise ValueError(f"base_seed must be nonnegative, got {base_seed}")
    if not 0 <= trials <= 2**32:
        raise ValueError(f"trials must lie in [0, 2**32], got {trials}")
    if not 0 <= substream <= _MASK32:
        raise ValueError(f"substream must lie in [0, 2**32), got {substream}")
    pool, extra = _base_pool(int(base_seed))
    trial = np.arange(trials, dtype=np.uint32)[:, None]  # one pool row per trial
    return _output_words(_absorb(pool, [*extra, trial, substream]), 1)[:, 0]


def _seed_states(seeds: np.ndarray) -> np.ndarray:
    """PCG64's seed words for each uint64 seed, one row per seed: row i
    is ``SeedSequence(seeds[i]).generate_state(4, uint64)``, the words
    that ``default_rng(seeds[i])`` seeds its PCG64 with.

    A seed below 2^32 is one entropy word, and its missing second word
    hashes as the zero that pads a short pool: every seed is two words.
    """
    head = seeds.astype("<u8", copy=False).reshape(-1, 1).view("<u4")
    return _output_words(_pool(head), _POOL)


@functools.cache
def _state_words_class() -> type:
    """``_StateWords``, the seed sequence that hands PCG64 four
    precomputed seed words, defined on first use, once per process: its
    base class lives in numpy's random package, which only seeding and
    drawing need."""
    from numpy.random.bit_generator import ISeedSequence

    class _StateWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, dtype) != (_POOL, np.uint64):
                raise ValueError(f"holds 4 uint64 words, asked for {n_words} {dtype}")
            return self.words

    return _StateWords


def _generators(seeds) -> Iterator[np.random.Generator]:
    """``default_rng(seed)`` for each seed, built from the seeds'
    ``_seed_states`` rows, all hashed in one pass."""
    state_words = _state_words_class()
    for words in _seed_states(np.asarray(seeds, dtype=np.uint64)):
        yield np.random.Generator(np.random.PCG64(state_words(words)))


def sample_radii(width_sq: float, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` photon radii at squared width ``width_sq`` from
    ``default_rng(seed)``.

    The uniform variate is mapped to (0, 1] before the log so the
    transform never sees zero.
    """
    if n < 0:
        raise ValueError(f"photon count must be nonnegative, got {n}")
    finite_scalar("width_sq", width_sq)
    u = 1.0 - np.random.default_rng(seed).random(n)
    return np.sqrt(-0.5 * width_sq * np.log(u))


class _ExposureLaw(NamedTuple):
    """The constants of the (k, t) law at one width and boundary."""

    width_sq: float
    r_b: float
    c: float
    outside: float
    p: float
    digit_probs: np.ndarray


def _exposure_law(width_sq: float, r_b: float) -> _ExposureLaw:
    """c = 2 r_b^2 / width_sq, P(F >= 1) = exp(-c), p = 1 - exp(-c) and
    the 64 digit probabilities, checked.  Every exponential is the C
    library's (``math.exp``, ``math.expm1`` and, for the digits,
    ``numerics.libm_exp``), so the law, and the draws it feeds, are the
    same bits at every numpy SIMD level."""
    if width_sq == math.inf:
        raise NumericalLimitError("the true squared width width_sq overflows a double")
    c = 2.0 * r_b * r_b / finite_scalar("width_sq", width_sq)
    if not (r_b > 0.0 and 0.0 < c < math.inf):
        raise ValueError(
            "boundary radius r_b must be positive, with 2 r_b^2 / width_sq positive "
            f"and finite; got r_b={r_b!r}"
        )
    # q_j = 1 / (1 + exp(c 2^-j)), written with exp(-c 2^-j) so that a
    # large c underflows to q_j = 0 instead of overflowing.
    e = libm_exp(-c * _DIGIT_WEIGHTS)
    return _ExposureLaw(width_sq, r_b, c, math.exp(-c), -math.expm1(-c), e / (1.0 + e))


def _draw(rng: np.random.Generator, n: int, law: _ExposureLaw) -> tuple[int, float]:
    """One exposure of ``n`` photons: k, then G (only when k > 0), then
    the 64 digit counts in one call, all from ``rng``."""
    k = int(rng.binomial(n, law.outside))
    if (1.0 - law.p) / law.p * (k + 10.0 * math.sqrt(k)) > _POISSON_LAM_MAX:
        raise NumericalLimitError(
            f"boundary radius r_b={law.r_b!r} at width_sq={law.width_sq!r} gives "
            f"c = 2 r_b^2 / width_sq = {law.c!r}, too small to draw {k} photons beyond "
            "r_b: the true width is far wider than the calibrated one"
        )
    g = int(rng.negative_binomial(k, law.p)) if k else 0
    digits = rng.binomial(n, law.digit_probs)
    return k, law.c * math.fsum([k + g, *(digits * _DIGIT_WEIGHTS).tolist()])


def sample_trials(
    width_sq: float, r_b: float, totals: np.ndarray, seeds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each trial's sufficient statistics (k, t), as int64 and float arrays.

    Trial i draws an exposure of ``totals[i]`` photons from
    ``default_rng(seeds[i])``: k is the number of them beyond radius
    ``r_b`` and t the sum of 2 r^2 / w^2 over all of them, at squared
    width ``width_sq``; the module docstring derives the law.  Each
    generator draws k, then G (only when k > 0), then the 64 digit
    counts in one call, and the law's constants are computed once per
    call.  An empty exposure is (0, 0.0).  The G draw has mean about
    k / c for small c, and numpy cannot draw it past its Poisson limit
    (~9.2e18): c below ~1.1e-13 at 10^6 photons raises a
    ``NumericalLimitError`` (a ``ValueError``) naming r_b, width_sq and c.
    """
    law = _exposure_law(width_sq, r_b)
    totals = np.asarray(totals, dtype=np.int64)
    if totals.shape != np.shape(seeds):
        raise ValueError(f"{totals.size} totals for {np.size(seeds)} seeds")
    if totals.size and totals.min() < 0:
        raise ValueError(f"photon counts must be nonnegative, got {totals.min()}")
    rows = [_draw(rng, n, law) for n, rng in zip(totals.tolist(), _generators(seeds))]
    return (np.array([k for k, _ in rows], dtype=np.int64),
            np.array([t for _, t in rows], dtype=float))


def poisson_counts(mean: float, seeds: np.ndarray) -> np.ndarray:
    """One Poisson draw of ``mean`` from ``default_rng(seed)`` for each
    seed, as an int64 array: the fluctuating total photon numbers."""
    finite_scalar("mean", mean, "nonnegative")
    return np.array([rng.poisson(mean) for rng in _generators(seeds)], dtype=np.int64)
