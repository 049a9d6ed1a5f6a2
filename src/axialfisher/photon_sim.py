"""Seeded Monte Carlo detection of single photons on a Gaussian profile.

Sampling uses the inverse survival function of the radial intensity:
with u uniform on (0, 1],

    r = w * sqrt(-ln(u) / 2)

so the statistic 2 r^2 / w^2 is a unit-mean exponential.  Everything is
driven by explicit integer seeds; per-trial streams are derived from a
base seed and a trial index so that trials are independent of execution
order, and re-running any trial reproduces it bit for bit.

An exposure is reduced to its sufficient statistics as soon as it is
drawn: the count beyond a boundary radius (``count_outside``) and the
mean of r^2, which ``estimators.run_trials`` takes from the same radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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
