import math

import numpy as np
import pytest
from scipy import stats

from axialfisher.photon_sim import (
    DetectionSample,
    count_outside,
    derive_trial_seed,
    poisson_count,
    sample_radii,
)


def test_trial_seed_derivation_is_deterministic_and_distinct():
    seeds = {derive_trial_seed(7, t) for t in range(500)}
    assert len(seeds) == 500
    assert derive_trial_seed(7, 3) == derive_trial_seed(7, 3)
    assert derive_trial_seed(7, 3) != derive_trial_seed(8, 3)
    assert derive_trial_seed(7, 3, substream=1) != derive_trial_seed(7, 3)
    for s in list(seeds)[:10]:
        assert 0 <= s < 2**64


def test_sampling_is_bit_reproducible():
    a = sample_radii(2.0, 1000, seed=41)
    b = sample_radii(2.0, 1000, seed=41)
    c = sample_radii(2.0, 1000, seed=42)
    assert np.array_equal(a.radii, b.radii)
    assert not np.array_equal(a.radii, c.radii)


def test_sampled_second_moment():
    """2 r^2 / w^2 is a unit exponential, so mean(2 r^2) estimates w^2."""
    w_sq = 3.7
    sample = sample_radii(w_sq, 1_000_000, seed=11)
    w_hat_sq = 2.0 * float(np.mean(sample.radii**2))
    assert w_hat_sq == pytest.approx(w_sq, rel=5e-3)


def test_sampled_distribution_against_exponential_law():
    sample = sample_radii(1.0, 100_000, seed=5)
    pulls = 2.0 * sample.radii**2
    statistic = stats.kstest(pulls, "expon").statistic
    assert statistic < 1.628 / math.sqrt(pulls.size)  # 1% critical value


def test_two_seeds_give_statistically_compatible_samples():
    a = sample_radii(1.0, 30_000, seed=1)
    b = sample_radii(1.0, 30_000, seed=2)
    assert stats.ks_2samp(a.radii, b.radii).pvalue > 0.01


def test_fraction_outside_information_boundary():
    w_sq = 4.0
    r_b = math.sqrt(w_sq / 2.0)
    sample = sample_radii(w_sq, 1_000_000, seed=17)
    fraction = count_outside(sample, r_b) / sample.total_count
    # 5 sigma of a binomial at p = 1/e.
    assert abs(fraction - 1.0 / math.e) < 5.0 * math.sqrt(0.368 * 0.632 / 1e6)


def test_count_outside_is_strict():
    sample = DetectionSample(
        radii=np.array([0.5, 1.0, 1.5]), width_sq=1.0, total_count=3, seed=0
    )
    assert count_outside(sample, 1.0) == 1
    with pytest.raises(ValueError):
        count_outside(sample, -0.1)


def test_empty_sample_is_allowed():
    sample = sample_radii(1.0, 0, seed=0)
    assert sample.total_count == 0
    assert sample.radii.shape == (0,)
    assert count_outside(sample, 1.0) == 0


def test_sample_validation():
    with pytest.raises(ValueError):
        sample_radii(0.0, 10, seed=0)
    with pytest.raises(ValueError):
        sample_radii(1.0, -1, seed=0)
    with pytest.raises(ValueError):
        DetectionSample(radii=np.array([1.0]), width_sq=1.0, total_count=2, seed=0)
    with pytest.raises(ValueError):
        DetectionSample(radii=np.array([-1.0]), width_sq=1.0, total_count=1, seed=0)


def test_poisson_count_moments():
    draws = np.array([poisson_count(50.0, seed=s) for s in range(4000)])
    assert draws.mean() == pytest.approx(50.0, abs=5.0 * math.sqrt(50.0 / 4000.0))
    # Fano factor of a Poisson law is 1.
    assert draws.var() / draws.mean() == pytest.approx(1.0, abs=0.1)
    with pytest.raises(ValueError):
        poisson_count(-1.0, seed=0)

