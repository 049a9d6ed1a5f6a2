"""Seeded Monte Carlo detection of single photons on a Gaussian profile.

An exposure of n photons at squared width w^2 is drawn straight as its
two sufficient statistics (``sample_statistics``): the count k beyond a
boundary radius r_b and t = sum of 2 r^2 / w^2, in O(1) work however
large n is.  The law is exact.  Each X = 2 r^2 / w^2 is a unit-mean
exponential; with c = 2 r_b^2 / w^2 split it as X = c F + c V:

* F = floor(X / c) is geometric, P(F >= f) = exp(-c f);
* V in [0, 1) has density proportional to exp(-c V), and its binary
  digits b_j are independent Bernoulli variables with
  P(b_j = 1) = 1 / (1 + exp(c 2^-j));
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

    r = w * sqrt(-ln(u) / 2),

and ``count_outside`` counts the radii beyond r_b.  Everything is driven
by explicit integer seeds; per-trial streams are derived from a base
seed and a trial index so that trials are independent of execution
order, and re-running any trial reproduces it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# numpy loads its random package on first attribute access.  Load it with
# this module instead, so that pool workers forked by ``run_trials`` find it
# already imported rather than each importing it again.
import numpy.random  # noqa: F401

#: Binary digits of V drawn per exposure; the rest is below 2^-64.
_DIGITS = 64
_DIGIT_WEIGHTS = np.ldexp(1.0, -np.arange(1, _DIGITS + 1))

#: numpy's largest accepted Poisson mean, which its negative-binomial
#: draw checks (1 - p) / p * (n + 10 sqrt(n)) against.
_INT64_MAX = np.iinfo(np.int64).max
_POISSON_LAM_MAX = _INT64_MAX - math.sqrt(_INT64_MAX) * 10


def derive_trial_seed(base_seed: int, trial_index: int, substream: int = 0) -> int:
    """Injective, documented derivation of a per-trial RNG seed.

    Feeds ``base_seed`` as entropy and ``(trial_index, substream)`` as a
    spawn key into a seed sequence, so distinct (base, trial, substream)
    triples give independent streams and the mapping never changes
    between runs.  ``substream`` separates different random purposes
    within one trial (radii, fluctuating totals).
    """
    if base_seed < 0:
        raise ValueError(f"base_seed must be nonnegative, got {base_seed}")
    if trial_index < 0:
        raise ValueError(f"trial_index must be nonnegative, got {trial_index}")
    if substream < 0:
        raise ValueError(f"substream must be nonnegative, got {substream}")
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(trial_index, substream))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True, eq=False)
class DetectionSample:
    """One exposure: ``total_count`` photon radii drawn at squared beam
    width ``width_sq`` from the stream identified by ``seed``."""

    radii: np.ndarray
    width_sq: float
    total_count: int
    seed: int

    def __post_init__(self) -> None:
        radii = np.asarray(self.radii, dtype=float)
        object.__setattr__(self, "radii", radii)
        if radii.ndim != 1:
            raise ValueError(f"radii must be one-dimensional, got shape {radii.shape}")
        if self.total_count != radii.size:
            raise ValueError(
                f"total_count {self.total_count} disagrees with {radii.size} radii"
            )
        if not (self.width_sq > 0.0 and math.isfinite(self.width_sq)):
            raise ValueError(f"width_sq must be positive, got {self.width_sq}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if radii.size and radii.min() < 0.0:
            raise ValueError("radii must be nonnegative")


def sample_radii(width_sq: float, n: int, seed: int) -> DetectionSample:
    """Draw ``n`` photon radii at squared width ``width_sq``.

    The uniform variate is mapped to (0, 1] before the log so the
    transform never sees zero.
    """
    if n < 0:
        raise ValueError(f"photon count must be nonnegative, got {n}")
    if not (width_sq > 0.0 and math.isfinite(width_sq)):
        raise ValueError(f"width_sq must be positive, got {width_sq}")
    rng = np.random.default_rng(seed)
    u = 1.0 - rng.random(n)
    radii = np.sqrt(-0.5 * width_sq * np.log(u))
    return DetectionSample(radii=radii, width_sq=width_sq, total_count=n, seed=seed)


def sample_statistics(width_sq: float, n: int, r_b: float, seed: int) -> tuple[int, float]:
    """Draw an exposure's sufficient statistics (k, t) from their joint law.

    k is the number of the ``n`` photons beyond radius ``r_b`` and t the
    sum of 2 r^2 / w^2 over all of them, at squared width ``width_sq``;
    the module docstring derives the law.  One generator on ``seed``
    draws k, then G (only when k > 0), then the 64 digit counts in one
    call.  An empty exposure is (0, 0.0).  The G draw has mean about
    k / c for small c, and numpy cannot draw it past its Poisson limit
    (~9.2e18): c below ~1.1e-13 at 10^6 photons raises a ``ValueError``
    naming r_b, width_sq and c.
    """
    if n < 0:
        raise ValueError(f"photon count must be nonnegative, got {n}")
    if not (width_sq > 0.0 and math.isfinite(width_sq)):
        raise ValueError(f"width_sq must be positive, got {width_sq}")
    c = 2.0 * r_b * r_b / width_sq
    if not (r_b > 0.0 and 0.0 < c < math.inf):
        raise ValueError(
            "boundary radius r_b must be positive, with 2 r_b^2 / width_sq positive "
            f"and finite; got r_b={r_b!r}"
        )
    if n == 0:
        return 0, 0.0
    rng = np.random.default_rng(seed)
    k = int(rng.binomial(n, math.exp(-c)))
    p = -math.expm1(-c)
    if (1.0 - p) / p * (k + 10.0 * math.sqrt(k)) > _POISSON_LAM_MAX:
        raise ValueError(
            f"boundary radius r_b={r_b!r} at width_sq={width_sq!r} gives "
            f"c = 2 r_b^2 / width_sq = {c!r}, too small to draw {k} photons beyond "
            "r_b: the true width is far wider than the calibrated one"
        )
    g = int(rng.negative_binomial(k, p)) if k else 0
    # q_j = 1 / (1 + exp(c 2^-j)), written with exp(-c 2^-j) so that a
    # large c underflows to q_j = 0 instead of overflowing.
    e = np.exp(-c * _DIGIT_WEIGHTS)
    digits = rng.binomial(n, e / (1.0 + e))
    return k, c * math.fsum([k + g, *(digits * _DIGIT_WEIGHTS).tolist()])


def poisson_count(mean: float, seed: int) -> int:
    """One Poisson draw for a fluctuating total photon number."""
    if mean < 0.0:
        raise ValueError(f"mean must be nonnegative, got {mean}")
    return int(np.random.default_rng(seed).poisson(mean))


def count_outside(sample: DetectionSample, r_b: float) -> int:
    """Number of detections strictly beyond radius ``r_b``."""
    if r_b < 0.0:
        raise ValueError(f"boundary radius must be nonnegative, got {r_b}")
    return int(np.count_nonzero(sample.radii > r_b))
