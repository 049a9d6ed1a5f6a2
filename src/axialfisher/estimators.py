"""Axial-displacement estimators and their Monte Carlo benchmarking.

One exposure of n photons reduces to two statistics: the count k beyond
the information-free radius r_b = w / sqrt(2), and the squared-width
statistic w^2_hat = 2 mean(r^2).  Both estimators are closed-form,
vectorized functions of them, benchmarked against the Cramer-Rao bounds:

* a binary "fraction outside" estimator that reads k and inverts the
  linearized response; cheap, camera-friendly, and carries 1 / (e - 1)
  of the full information at the optimal plane;
* a width estimator that reads w^2_hat, the sufficient statistic of the
  Gaussian profile, and inverts the width law in closed form; this one
  attains the full classical information asymptotically.

An exposure the estimator cannot invert (all photons on one side of the
boundary, none at all, or a width below the branch minimum) is flagged,
never raised.  Both estimators work from the ray matrix (A, B) of
``beam_optics.ray_matrix``, so free-space and relayed detection take the
same code: the width at the detector is w0^2 (A^2 + ((B + A delta) /
z_R)^2) for an object displaced by delta.

``run_trials`` draws each seeded exposure's statistics once, exactly and
without photon arrays (``photon_sim.sample_trials``), records (n, k,
w^2_hat) per trial, applies the configured estimator to those arrays and
reports the empirical spread next to the classical and quantum bounds.
``TrialReport.with_estimator`` reads another estimator off the same
exposures without resampling.  Trials use independent derived streams,
all derived up front in one pass, so the report depends only on the
configuration, not on which process runs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np
from numpy.typing import ArrayLike

from .beam_optics import BeamParams, RelaySystem, ray_matrix, ray_width_sq
from .fisher import info_boundary, qfi_gaussian, width_response
from .photon_sim import _POISSON_LAM_MAX, derive_trial_seeds, poisson_counts, sample_trials

#: Slopes smaller than this (in units of 1 / z_R) mark a detection plane
#: as carrying no usable first-order signal.
MIN_SLOPE_FRACTION = 1e-9


class UninformativePlaneError(ValueError):
    """The detection plane has (numerically) zero axial sensitivity."""


@dataclass(frozen=True)
class EstimatorCalibration:
    """Frozen per-plane constants of the fraction estimator.

    ``f0`` is the expected outside fraction at the nominal plane and
    ``slope`` the signed logarithmic response d/dz ln f_out, so that to
    first order f_out(z + delta) = f0 (1 + slope * delta).
    """

    r_b: float
    f0: float
    slope: float

    def __post_init__(self) -> None:
        if not (self.r_b > 0.0 and math.isfinite(self.r_b)):
            raise ValueError(f"boundary radius must be positive, got {self.r_b}")
        if not 0.0 < self.f0 < 1.0:
            raise ValueError(f"nominal fraction must lie in (0, 1), got {self.f0}")
        if not (self.slope != 0.0 and math.isfinite(self.slope)):
            raise ValueError(f"slope must be finite and nonzero, got {self.slope}")


def calibrate(
    beam: BeamParams, detector_plane: float, relay: RelaySystem | None = None
) -> EstimatorCalibration:
    """Calibrate the fraction estimator for a detector plane.

    The boundary is placed on the information-free circle of the nominal
    profile, where the nominal outside fraction is exactly 1/e and the
    response slope is (2 r_b^2 / w^2) d/dz ln w^2.  Planes with no
    first-order response (the waist, a geometric image plane) are
    rejected rather than calibrated.
    """
    w_sq, log_slope = width_response(beam, relay, detector_plane)
    r_b = info_boundary(w_sq)
    ratio = 2.0 * r_b * r_b / w_sq
    f0 = math.exp(-ratio)
    slope = ratio * log_slope
    if abs(slope) < MIN_SLOPE_FRACTION / beam.rayleigh_range:
        raise UninformativePlaneError(
            f"plane {detector_plane!r} has |d ln f_out / dz| = {abs(slope)!r}; "
            "no usable axial signal"
        )
    return EstimatorCalibration(r_b=r_b, f0=f0, slope=slope)


def estimate_fraction(
    outside: ArrayLike, total: ArrayLike, cal: EstimatorCalibration
) -> tuple[np.ndarray, np.ndarray]:
    """Displacement from the nominal plane via the outside fraction.

    delta_hat = (k / n - f0) / (f0 * slope) for outside counts k of n
    photons, elementwise.  Returns (estimates, flagged): exposures with
    k = 0 or k = n (an empty one included) carry no invertible fraction
    and get NaN, flagged, instead of a fabricated number.
    """
    k = np.asarray(outside, dtype=np.int64)
    n = np.asarray(total, dtype=np.int64)
    saturated = (k == 0) | (k == n)
    with np.errstate(invalid="ignore"):  # 0 / 0 on empty exposures
        estimates = (k / n - cal.f0) / (cal.f0 * cal.slope)
    return np.where(saturated, math.nan, estimates), saturated


def estimate_fraction_absolute(
    outside: ArrayLike, cal: EstimatorCalibration, expected_total: float
) -> tuple[np.ndarray, np.ndarray]:
    """Intensity-calibrated variant: no per-exposure normalization.

    Uses the absolute outside count against the calibrated expectation
    ``expected_total * f0``.  Appropriate when the total flux is known
    and the exposure's photon number fluctuates (Poisson totals).
    Returns (estimates, flagged); a zero count is NaN, flagged.
    """
    if expected_total <= 0.0:
        raise ValueError(f"expected_total must be positive, got {expected_total}")
    k = np.asarray(outside, dtype=np.int64)
    saturated = k == 0
    estimates = (k / (expected_total * cal.f0) - 1.0) / cal.slope
    return np.where(saturated, math.nan, estimates), saturated


def fraction_estimator_fi(cal: EstimatorCalibration) -> float:
    """Per-photon information of the binarized measurement.

    (f0 s)^2 / (f0 (1 - f0)): the binomial information of the outside
    count under the linearized response.
    """
    return (cal.f0 * cal.slope) ** 2 / (cal.f0 * (1.0 - cal.f0))


def estimate_mle_width(
    width_sq_hat: ArrayLike,
    beam: BeamParams,
    nominal_z: float,
    relay: RelaySystem | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Width-based displacement estimate from the nominal detector plane.

    The sufficient statistic w^2_hat = 2 mean(r^2) is inverted through
    w^2 = w0^2 (A^2 + ((B + A delta) / z_R)^2), with (A, B) the ray
    matrix to the nominal plane (free space when ``relay`` is None):

        delta_hat = (sign(B) z_R sqrt(w^2_hat / w0^2 - A^2) - B) / A,

    elementwise.  The branch is the side of the waist the nominal plane
    images to (the sign of B).  Returns (estimates, flagged): when the
    sampled width falls below the smallest width the branch reaches,
    w0^2 A^2, there is no solution and the estimate is clamped to the
    waist, flagged; an empty exposure (w^2_hat NaN) is NaN, flagged.
    """
    a, b = ray_matrix(relay, nominal_z)
    if b == 0.0:
        raise ValueError("nominal plane at the waist or its image: branch is ambiguous")
    if a == 0.0:
        raise ValueError("nominal plane at the back focal plane: the width does not "
                         "depend on the object distance")
    w_hat_sq = np.asarray(width_sq_hat, dtype=float)
    w0_sq = beam.waist**2
    clamped = w_hat_sq < w0_sq * a * a
    with np.errstate(invalid="ignore"):
        root = np.copysign(beam.rayleigh_range * np.sqrt(w_hat_sq / w0_sq - a * a), b)
    estimates = np.where(clamped, -b / a, (root - b) / a)
    return estimates, clamped | np.isnan(w_hat_sq)


@dataclass(frozen=True)
class TrialConfig:
    """Inputs of a Monte Carlo estimator benchmark."""

    beam: BeamParams
    detector_plane: float
    true_delta: float
    n_per_trial: int
    trials: int
    estimator: Literal["fraction", "fraction-absolute", "mle"]
    base_seed: int
    relay: RelaySystem | None = None
    poisson_total: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.n_per_trial < 2**63:
            raise ValueError(
                f"n_per_trial must be positive and below 2**63 (numpy draws a photon "
                f"count as a C long), got {self.n_per_trial}"
            )
        if self.poisson_total and float(self.n_per_trial) > _POISSON_LAM_MAX:
            raise ValueError(
                f"with poisson_total, n_per_trial must not exceed numpy's largest "
                f"Poisson mean {_POISSON_LAM_MAX!r}, got {self.n_per_trial}"
            )
        if not 0 < self.trials < 2**32:
            raise ValueError(
                f"trials must be positive and below 2**32 (a trial index is one "
                f"32-bit word of its seed's spawn key), got {self.trials}"
            )
        if self.estimator not in ("fraction", "fraction-absolute", "mle"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be nonnegative, got {self.base_seed}")


@dataclass(frozen=True, eq=False)
class TrialReport:
    """Outcome of ``run_trials``: per-trial records plus the summary
    statistics and the two Cramer-Rao floors they are judged against.

    ``totals``, ``counts_outside`` and ``width_sq_hat`` are each trial's
    sufficient statistics (n, k, w^2_hat); ``estimates`` and ``flagged``
    are the configured estimator applied to them."""

    config: TrialConfig
    trial_seeds: np.ndarray
    totals: np.ndarray
    counts_outside: np.ndarray
    width_sq_hat: np.ndarray
    estimates: np.ndarray
    flagged: np.ndarray
    mean_estimate: float
    empirical_std: float
    classical_crb_std: float
    quantum_crb_std: float

    def __post_init__(self) -> None:
        if self.classical_crb_std < self.quantum_crb_std * (1.0 - 1e-12):
            raise ValueError(
                "classical bound below the quantum bound: "
                f"{self.classical_crb_std!r} < {self.quantum_crb_std!r}"
            )

    @property
    def flagged_count(self) -> int:
        return int(self.flagged.sum())

    def with_estimator(self, estimator: str) -> TrialReport:
        """The same exposures read by another estimator: bit for bit the
        report ``run_trials`` gives for that estimator on this seed."""
        config = replace(self.config, estimator=estimator)
        cal = calibrate(config.beam, config.detector_plane, config.relay)
        return replace(
            self,
            config=config,
            **_estimate(config, cal, self.totals, self.counts_outside, self.width_sq_hat),
        )


def _true_width_sq(config: TrialConfig) -> float:
    """Squared width actually illuminating the detector, with the object
    displaced by the true delta."""
    a, b = ray_matrix(config.relay, config.detector_plane)
    return ray_width_sq(config.beam, a, b + a * config.true_delta)


def _estimate(
    config: TrialConfig,
    cal: EstimatorCalibration,
    totals: np.ndarray,
    counts: np.ndarray,
    width_sq_hat: np.ndarray,
) -> dict:
    """Apply ``config.estimator`` to the per-trial statistics and
    summarize the unflagged estimates: the report fields the estimator
    determines."""
    if config.estimator == "fraction":
        estimates, flagged = estimate_fraction(counts, totals, cal)
    elif config.estimator == "fraction-absolute":
        estimates, flagged = estimate_fraction_absolute(counts, cal, config.n_per_trial)
    else:
        estimates, flagged = estimate_mle_width(
            width_sq_hat, config.beam, config.detector_plane, config.relay
        )
    valid = estimates[~flagged]
    return {
        "estimates": estimates,
        "flagged": flagged,
        "mean_estimate": float(np.mean(valid)) if valid.size else math.nan,
        "empirical_std": float(np.std(valid, ddof=1)) if valid.size > 1 else math.nan,
    }


def run_trials(config: TrialConfig) -> TrialReport:
    """Run the seeded benchmark described by ``config``, in this process.

    Each trial draws one exposure's statistics (n, k, w^2_hat) from its
    own stream: ``derive_trial_seeds`` gives every trial's seed in one
    pass (substream 1 seeds a Poisson total), and ``sample_trials`` draws
    from each seed's ``default_rng``, all trials in one call.  The
    estimator then reads all trials at once.
    Flagged trials (saturated, empty or clamped) are excluded from the
    mean and standard deviation but remain in the per-trial arrays; the
    flag count is part of the report rather than silently dropped.
    """
    cal = calibrate(config.beam, config.detector_plane, config.relay)
    width_sq_true = _true_width_sq(config)

    seeds = derive_trial_seeds(config.base_seed, config.trials)
    if config.poisson_total:
        totals = poisson_counts(
            config.n_per_trial, derive_trial_seeds(config.base_seed, config.trials, substream=1)
        )
    else:
        totals = np.full(config.trials, config.n_per_trial, dtype=np.int64)
    counts, stats = sample_trials(width_sq_true, cal.r_b, totals, seeds)
    with np.errstate(divide="ignore", invalid="ignore"):  # empty exposures
        width_sq_hat = np.where(totals > 0, width_sq_true * stats / totals, math.nan)

    n_info = config.n_per_trial
    _, log_slope = width_response(config.beam, config.relay, config.detector_plane)
    return TrialReport(
        config=config,
        trial_seeds=seeds,
        totals=totals,
        counts_outside=counts,
        width_sq_hat=width_sq_hat,
        **_estimate(config, cal, totals, counts, width_sq_hat),
        classical_crb_std=1.0 / math.sqrt(n_info * (log_slope * log_slope)),
        quantum_crb_std=1.0 / math.sqrt(n_info * qfi_gaussian(config.beam)),
    )


def expected_fraction_estimate(config: TrialConfig) -> float:
    """Deterministic mean response of the fraction estimator.

    Replaces the sampled fraction with its exact expectation
    exp(-2 r_b^2 / w^2(true)); useful for bias analysis without Monte
    Carlo noise.
    """
    cal = calibrate(config.beam, config.detector_plane, config.relay)
    width_sq_true = _true_width_sq(config)
    f_out = math.exp(-2.0 * cal.r_b**2 / width_sq_true)
    return (f_out - cal.f0) / (cal.f0 * cal.slope)
