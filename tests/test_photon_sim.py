import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from axialfisher.numerics import NumericalLimitError
from axialfisher.photon_sim import (
    _seed_states,
    derive_trial_seeds,
    poisson_counts,
    sample_radii,
    sample_trials,
)
from trial_stream_oracle import exposure_statistics, trial_seed


def test_trial_seed_derivation_is_deterministic_and_distinct():
    seeds = derive_trial_seeds(7, 500)
    assert seeds.dtype == np.uint64 and len(set(seeds.tolist())) == 500
    assert np.array_equal(seeds, derive_trial_seeds(7, 500))
    assert seeds[3] != derive_trial_seeds(8, 4)[3]
    assert seeds[3] != derive_trial_seeds(7, 4, substream=1)[3]


#: Base seeds at every boundary of SeedSequence's word count (1, 2, 4 and
#: more than 4 words), or any seed up to 2^200.
BASE_SEEDS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1, 2**128, 2**128 + 5]),
    st.integers(min_value=0, max_value=2**200),
)
#: Seeds of one word (zero among them) or of two words.
SEEDS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=2**64 - 1),
)


@settings(max_examples=300, deadline=None)
@given(base_seed=BASE_SEEDS, trials=st.integers(min_value=0, max_value=12),
       substream=st.sampled_from([0, 1]), extra=st.lists(SEEDS, max_size=4))
def test_vectorized_streams_equal_seed_sequence(base_seed, trials, substream, extra):
    """``derive_trial_seeds`` and ``_seed_states`` against numpy's
    ``SeedSequence``, bit for bit.  The seeds fed to ``_seed_states`` are
    the derived ones plus seeds that are 0 or have a zero high word."""
    seeds = derive_trial_seeds(base_seed, trials, substream)
    expected = [trial_seed(base_seed, t, substream) for t in range(trials)]
    assert seeds.dtype == np.uint64 and seeds.tolist() == expected
    seeds = np.concatenate([seeds, np.array(extra, dtype=np.uint64)])
    states = _seed_states(seeds)
    assert states.dtype == np.uint64 and states.shape == (seeds.size, 4)
    for seed, words in zip(seeds.tolist(), states):
        reference = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        assert words.tolist() == reference.tolist(), seed


def test_vectorized_streams_use_no_seed_sequence(monkeypatch):
    """The seeds and states come from the module's own port of the hash,
    not from numpy's ``SeedSequence``: with it raising they are unchanged."""
    base_seeds = [0, 2**32, 2**64 - 1, 2**130 + 5, 0xA71A10C]
    expected = [[trial_seed(base, t, 1) for t in range(3)] for base in base_seeds]
    extra = [0, 2**32 - 1, 2**64 - 1]
    expected_states = [np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()
                       for seed in extra]

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.random.SeedSequence called")

    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    assert [derive_trial_seeds(base, 3, 1).tolist() for base in base_seeds] == expected
    assert _seed_states(np.array(extra, dtype=np.uint64)).tolist() == expected_states


def test_warm_base_seeds_still_equal_seed_sequence():
    """A base seed's mixed pool is kept between calls: repeated and
    interleaved base seeds, more of them than the cache holds, still give
    numpy's seeds, and each call returns a fresh, writeable array."""
    base_seeds = [0, 2**32, 2**64 - 1, 2**130 + 5, 0xA71A10C, *range(100, 170)]
    for base in [*base_seeds, *reversed(base_seeds), *base_seeds[:5]]:
        seeds = derive_trial_seeds(base, 3, 2**32 - 1)
        assert seeds.tolist() == [trial_seed(base, t, 2**32 - 1) for t in range(3)], base
        assert seeds.flags.writeable
        seeds[:] = 0
    for _ in range(3):
        seeds = derive_trial_seeds(0xA71A10C, 4, 1)
        assert seeds.tolist() == [trial_seed(0xA71A10C, t, 1) for t in range(4)]
        seeds += np.uint64(1)


def test_vectorized_streams_reject_what_one_word_cannot_hold():
    with pytest.raises(ValueError, match="trials"):
        derive_trial_seeds(0, 2**32 + 1)
    with pytest.raises(ValueError, match="substream"):
        derive_trial_seeds(0, 3, substream=2**32)
    with pytest.raises(ValueError, match="base_seed"):
        derive_trial_seeds(-1, 3)


def test_sample_trials_equals_default_rng_on_each_seed():
    """The samplers draw from ``default_rng(seed)`` for each seed, as the
    numpy-only oracle does one seed at a time."""
    seeds = derive_trial_seeds(11, 6)
    totals = np.array([0, 1, 50, 1000, 3, 10**6])
    counts, stats = sample_trials(2.0, 0.9, totals, seeds)
    expected = [exposure_statistics(2.0, n, 0.9, seed)
                for n, seed in zip(totals.tolist(), seeds.tolist())]
    assert list(zip(counts.tolist(), stats.tolist())) == expected
    assert poisson_counts(40.0, seeds).tolist() == [
        np.random.default_rng(seed).poisson(40.0) for seed in seeds.tolist()]
    with pytest.raises(ValueError, match="nonnegative"):
        sample_trials(2.0, 0.9, np.array([3, -1]), seeds[:2])
    with pytest.raises(ValueError, match="seeds"):
        sample_trials(2.0, 0.9, totals, seeds[:5])


def test_sampling_is_bit_reproducible():
    a = sample_radii(2.0, 1000, seed=41)
    b = sample_radii(2.0, 1000, seed=41)
    c = sample_radii(2.0, 1000, seed=42)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampled_second_moment():
    """2 r^2 / w^2 is a unit exponential, so mean(2 r^2) estimates w^2."""
    w_sq = 3.7
    radii = sample_radii(w_sq, 1_000_000, seed=11)
    w_hat_sq = 2.0 * float(np.mean(radii**2))
    assert w_hat_sq == pytest.approx(w_sq, rel=5e-3)


def test_sampled_distribution_against_exponential_law():
    pulls = 2.0 * sample_radii(1.0, 100_000, seed=5) ** 2
    statistic = stats.kstest(pulls, "expon").statistic
    assert statistic < 1.628 / math.sqrt(pulls.size)  # 1% critical value


def test_two_seeds_give_statistically_compatible_samples():
    a = sample_radii(1.0, 30_000, seed=1)
    b = sample_radii(1.0, 30_000, seed=2)
    assert stats.ks_2samp(a, b).pvalue > 0.01


def test_fraction_outside_information_boundary():
    w_sq = 4.0
    r_b = math.sqrt(w_sq / 2.0)
    radii = sample_radii(w_sq, 1_000_000, seed=17)
    fraction = np.count_nonzero(radii > r_b) / radii.size
    # 5 sigma of a binomial at p = 1/e.
    assert abs(fraction - 1.0 / math.e) < 5.0 * math.sqrt(0.368 * 0.632 / 1e6)


def test_empty_sample_is_allowed():
    assert sample_radii(1.0, 0, seed=0).shape == (0,)


def test_sample_validation():
    with pytest.raises(ValueError):
        sample_radii(0.0, 10, seed=0)
    with pytest.raises(ValueError):
        sample_radii(1.0, -1, seed=0)


def test_poisson_count_moments():
    draws = poisson_counts(50.0, np.arange(4000))
    assert draws.mean() == pytest.approx(50.0, abs=5.0 * math.sqrt(50.0 / 4000.0))
    # Fano factor of a Poisson law is 1.
    assert draws.var() / draws.mean() == pytest.approx(1.0, abs=0.1)
    with pytest.raises(ValueError):
        poisson_counts(-1.0, np.arange(1))


# ---------------------------------------------------------------------------
# The exact (k, t) sampler against the photon-level oracle
# ---------------------------------------------------------------------------

ORACLE_TRIALS = 20_000
ORACLE_CASES = [(n, c) for n in (1, 3, 20, 1000) for c in (0.09, 1.0, 4.0)]
#: Bonferroni: the 3 two-sample tests of each of the 12 cases share a
#: family-wise false-failure rate of 1e-3.
ORACLE_ALPHA = 1e-3 / (3 * len(ORACLE_CASES))
#: Moment checks allow this many standard errors: a chance failure has
#: probability 2 Phi(-5) = 5.7e-7 per check.
MOMENT_SIGMAS = 5.0


def _photon_oracle(n, r_b, seed):
    """Per-trial (k, t) of ``ORACLE_TRIALS`` exposures of n photons at unit
    squared width, from photon radii: the count strictly beyond r_b and
    the sum of 2 r^2, over blocks of trials drawn by ``sample_radii``."""
    per_call = max(1, 200_000 // n)
    k, t = [], []
    for block, start in enumerate(range(0, ORACLE_TRIALS, per_call)):
        trials = min(per_call, ORACLE_TRIALS - start)
        radii = sample_radii(1.0, n * trials, trial_seed(seed, block)).reshape(trials, n)
        k.append(np.count_nonzero(radii > r_b, axis=1))
        t.append((2.0 * radii**2).sum(axis=1))
    return np.concatenate(k), np.concatenate(t)


def _chi2_homogeneity(a, b):
    """p-value of a chi-square test that two integer samples of equal size
    share one law; adjacent values are pooled until every bin holds at
    least 20 draws of both samples together (expected counts >= 10)."""
    lo = min(a.min(), b.min())
    size = max(a.max(), b.max()) - lo + 1
    counts = np.stack([np.bincount(a - lo, minlength=size),
                       np.bincount(b - lo, minlength=size)])
    bins, current = [], np.zeros(2, dtype=np.int64)
    for column in counts.T:
        current = current + column
        if current.sum() >= 20:
            bins.append(current)
            current = np.zeros(2, dtype=np.int64)
    bins[-1] = bins[-1] + current
    assert len(bins) >= 2, "k takes a single value: nothing to compare"
    return stats.chi2_contingency(np.array(bins).T, correction=False).pvalue


@pytest.mark.parametrize("n, c", ORACLE_CASES)
def test_statistics_sampler_matches_the_photon_oracle(n, c):
    """``sample_trials`` against photon radii, 2e4 fixed-seed trials a
    side: two-sample KS on t, chi-square on k and KS on t given the modal
    k, each at the Bonferroni level ORACLE_ALPHA = 1e-3 / 36 = 2.8e-5 (a
    correct sampler fails one of the 36 with probability below 1e-3 on a
    fresh seed).  The sampler's own draws then meet the closed forms
    E k = n e^-c, E t = Var t = n and Cov(k, t) = n c e^-c within 5
    standard errors each (a chance failure per check: 5.7e-7)."""
    case = ORACLE_CASES.index((n, c))
    r_b = math.sqrt(c / 2.0)
    seeds = np.arange(case * ORACLE_TRIALS, (case + 1) * ORACLE_TRIALS, dtype=np.uint64)
    k, t = sample_trials(1.0, r_b, np.full(ORACLE_TRIALS, n), seeds)
    k_ref, t_ref = _photon_oracle(n, r_b, seed=1000 + case)

    mode = np.bincount(np.concatenate([k, k_ref])).argmax()
    p_values = {
        "KS on t": stats.ks_2samp(t, t_ref).pvalue,
        "chi-square on k": _chi2_homogeneity(k, k_ref),
        f"KS on t | k = {mode}": stats.ks_2samp(t[k == mode], t_ref[k_ref == mode]).pvalue,
    }
    for name, p in p_values.items():
        assert p > ORACLE_ALPHA, f"{name}: p = {p!r} at n={n}, c={c}"

    root_t = math.sqrt(ORACLE_TRIALS)
    dk, dt = k - k.mean(), t - t.mean()
    moments = {
        "E k": (k.mean(), n * math.exp(-c), k.std() / root_t),
        "E t": (t.mean(), n, t.std() / root_t),
        "Var t": (np.mean(dt * dt), n, (dt * dt).std() / root_t),
        "Cov(k, t)": (np.mean(dk * dt), n * c * math.exp(-c), (dk * dt).std() / root_t),
    }
    for name, (got, expected, stderr) in moments.items():
        assert abs(got - expected) <= MOMENT_SIGMAS * stderr, (
            f"{name} = {got!r}, expected {expected!r} +- {stderr!r} at n={n}, c={c}"
        )


def _one_exposure(width_sq, n, r_b, seed):
    """(k, t) of one exposure of ``n`` photons through ``sample_trials``."""
    k, t = sample_trials(width_sq, r_b, np.array([n]), np.array([seed], dtype=np.uint64))
    return int(k[0]), float(t[0])


@settings(max_examples=200, deadline=None)
@given(
    width_sq=st.floats(min_value=1e-12, max_value=1e6),
    n=st.integers(min_value=0, max_value=10**6),
    c=st.floats(min_value=1e-12, max_value=2000.0),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_statistics_sampler_invariants(width_sq, n, c, seed):
    """0 <= k <= n, t >= c k, the same seed gives the same bits, and no
    floating-point warning at any boundary-to-width ratio from 1e-12 to
    2000 (exp underflow makes the digit probabilities exactly 0)."""
    r_b = math.sqrt(c * width_sq / 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k, t = _one_exposure(width_sq, n, r_b, seed)
    assert 0 <= k <= n
    assert t >= 2.0 * r_b * r_b / width_sq * k
    assert math.isfinite(t)
    assert (k, t) == _one_exposure(width_sq, n, r_b, seed)


@pytest.mark.parametrize("c", [1e-12, 2000.0])
def test_statistics_sampler_extreme_ratios(c):
    """The two ends of the ratio at full preset size: nearly every photon
    beyond the boundary, or none."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k, t = _one_exposure(1.0, 1_600_000, math.sqrt(c / 2.0), seed=3)
    assert k == (1_600_000 if c < 1.0 else 0)
    assert t == pytest.approx(1_600_000, rel=5e-3)


def test_statistics_sampler_empty_exposure_and_validation():
    assert _one_exposure(1.0, 0, 0.5, seed=0) == (0, 0.0)
    for r_b in (0.0, -0.5, math.nan, math.inf, 1e200, 1e-200):
        with pytest.raises(ValueError, match="r_b"):
            _one_exposure(1.0, 10, r_b, seed=0)
    with pytest.raises(ValueError):
        _one_exposure(0.0, 10, 0.5, seed=0)
    with pytest.raises(ValueError):
        _one_exposure(1.0, -1, 0.5, seed=0)


def test_statistics_sampler_names_a_width_past_double_range():
    """A positive width that overflowed is a numerical limit, which the
    CLI reports with the displacement that caused it; a width that is not
    positive stays a plain ValueError."""
    with pytest.raises(NumericalLimitError, match="width_sq overflows a double"):
        _one_exposure(math.inf, 10, 0.5, seed=0)
    for width_sq in (-1.0, math.nan):
        with pytest.raises(ValueError, match="width_sq must be positive") as caught:
            _one_exposure(width_sq, 10, 0.5, seed=0)
        assert not isinstance(caught.value, NumericalLimitError)


def test_statistics_sampler_names_r_b_past_the_outside_sum_limit():
    # c = 1e-13 at 10^6 photons: the outside sum G would exceed numpy's
    # negative-binomial range.
    with pytest.raises(NumericalLimitError, match="r_b") as caught:
        _one_exposure(1.0, 10**6, math.sqrt(0.5e-13), seed=0)
    assert "width_sq" in str(caught.value) and "c = " in str(caught.value)
