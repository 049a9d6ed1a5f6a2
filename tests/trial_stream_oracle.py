"""Per-trial route to ``run_trials``' exposures.

Each trial hashes its own seed with numpy's ``SeedSequence``
(``trial_seed``), builds ``default_rng`` on it (hashing it again), and
draws (n, k, t) with the body of the exact sampler written out once
more.  It shares no code with ``photon_sim``'s vectorized seed and state
derivation or with its draw, so the tests use it as the oracle for both.
"""

from __future__ import annotations

import math

import numpy as np

from axialfisher.estimators import TrialConfig, _true_width_sq, calibrate

_DIGIT_WEIGHTS = np.ldexp(1.0, -np.arange(1, 65))


def trial_seed(base_seed: int, trial: int, substream: int = 0) -> int:
    """Trial ``trial``'s seed, straight from numpy's ``SeedSequence``."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(trial, substream))
    return int(ss.generate_state(1, np.uint64)[0])


def exposure_statistics(width_sq: float, n: int, r_b: float, seed: int) -> tuple[int, float]:
    """(k, t) of one exposure of ``n`` photons from ``default_rng(seed)``."""
    c = 2.0 * r_b * r_b / width_sq
    if n == 0:
        return 0, 0.0
    rng = np.random.default_rng(seed)
    k = int(rng.binomial(n, math.exp(-c)))
    p = -math.expm1(-c)
    g = int(rng.negative_binomial(k, p)) if k else 0
    e = np.exp(-c * _DIGIT_WEIGHTS)
    digits = rng.binomial(n, e / (1.0 + e))
    return k, c * math.fsum([k + g, *(digits * _DIGIT_WEIGHTS).tolist()])


def trial_rows(config: TrialConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(seeds, totals, counts, width_sq_hat) of every trial, one at a time."""
    r_b = calibrate(config.beam, config.detector_plane, config.relay).r_b
    width_sq = _true_width_sq(config)
    rows = []
    for trial in range(config.trials):
        seed = trial_seed(config.base_seed, trial)
        n = config.n_per_trial
        if config.poisson_total:
            count_seed = trial_seed(config.base_seed, trial, substream=1)
            n = int(np.random.default_rng(count_seed).poisson(config.n_per_trial))
        k, t = exposure_statistics(width_sq, n, r_b, seed)
        rows.append((seed, n, k, width_sq * t / n if n else math.nan))
    seeds, totals, counts, width_sq_hat = zip(*rows)
    return (np.array(seeds, dtype=np.uint64), np.array(totals, dtype=np.int64),
            np.array(counts, dtype=np.int64), np.array(width_sq_hat, dtype=float))
