import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from axialfisher import photon_sim
from axialfisher.beam_optics import (
    BeamParams,
    RelaySystem,
    beam_width_sq,
    ray_matrix,
    ray_width_sq,
)
from axialfisher.estimators import (
    EstimatorCalibration,
    TrialConfig,
    TrialReport,
    UninformativePlaneError,
    calibrate,
    estimate_fraction,
    estimate_fraction_absolute,
    estimate_mle_width,
    expected_fraction_estimate,
    fraction_estimator_fi,
    run_trials,
)
from axialfisher.fisher import (
    classical_fi_analytic,
    preferred_detection_plane,
    qfi_gaussian,
)
from trial_stream_oracle import trial_rows, trial_seed

HENE = BeamParams.from_rayleigh_range(632.8e-9, 18.9e-6)
ZR = HENE.rayleigh_range
UNIT = BeamParams(math.pi, 1.0)


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


def test_calibration_one_rayleigh_range_out():
    """At z = +-z_R the boundary fraction is 1/e and |slope| = 1/z_R."""
    for sign in (-1.0, 1.0):
        cal = calibrate(HENE, sign * ZR)
        assert cal.f0 == pytest.approx(math.exp(-1.0), rel=1e-14)
        assert cal.slope * ZR == pytest.approx(sign, rel=1e-12)
        w_sq = beam_width_sq(HENE, sign * ZR)
        assert cal.r_b == pytest.approx(math.sqrt(w_sq / 2.0), rel=1e-14)


def test_calibration_rejects_uninformative_planes():
    with pytest.raises(UninformativePlaneError):
        calibrate(HENE, 0.0)
    # Geometric image plane behind a relay: no first-order width response.
    with pytest.raises(UninformativePlaneError):
        calibrate(UNIT, 5.0 / 4.0, relay=RelaySystem(1.0, 5.0))


def test_calibration_dataclass_validation():
    with pytest.raises(ValueError):
        EstimatorCalibration(r_b=-1.0, f0=0.3, slope=1.0)
    with pytest.raises(ValueError):
        EstimatorCalibration(r_b=1.0, f0=1.5, slope=1.0)
    with pytest.raises(ValueError):
        EstimatorCalibration(r_b=1.0, f0=0.3, slope=0.0)


def test_binarized_information_ratio():
    """Counting beyond r_b keeps 1/(e-1) of the plane's information."""
    cal = calibrate(HENE, -ZR)
    ratio = fraction_estimator_fi(cal) / classical_fi_analytic(HENE, -ZR)
    assert ratio == pytest.approx(1.0 / (math.e - 1.0), rel=1e-12)


# ---------------------------------------------------------------------------
# Fraction estimator
# ---------------------------------------------------------------------------


def test_fraction_estimate_inverts_the_linear_response():
    cal = calibrate(HENE, -ZR)
    estimate, flagged = estimate_fraction(37, 100, cal)
    assert not flagged
    assert estimate == pytest.approx((37 / 100 - cal.f0) / (cal.f0 * cal.slope), rel=1e-14)


def test_fraction_estimate_raises_when_saturated():
    """A saturated exposure (k = 0 or k = n, an empty one included) is
    not raised but flagged, with a NaN estimate."""
    cal = calibrate(HENE, -ZR)
    estimates, flagged = estimate_fraction([0, 5, 2, 0], [5, 5, 5, 0], cal)
    assert flagged.tolist() == [True, True, False, True]
    assert np.isnan(estimates[flagged]).all()
    assert math.isfinite(estimates[2])


def test_absolute_fraction_estimator():
    cal = calibrate(HENE, -ZR)
    estimate, flagged = estimate_fraction_absolute(40, cal, 100.0)
    assert not flagged
    assert estimate == pytest.approx((40 / (100.0 * cal.f0) - 1.0) / cal.slope, rel=1e-14)
    with pytest.raises(ValueError):
        estimate_fraction_absolute(40, cal, 0.0)
    estimates, flagged = estimate_fraction_absolute([0, 100], cal, 100.0)
    assert flagged.tolist() == [True, False]
    assert math.isnan(estimates[0]) and math.isfinite(estimates[1])


def test_vectorized_estimates_equal_the_scalar_closed_forms():
    """One call over many trials gives, entry by entry and bit for bit,
    the scalar closed form of each estimator."""
    rng = np.random.default_rng(3)
    cal = calibrate(HENE, -ZR)
    n = rng.integers(1, 10**6, 200)
    k = rng.integers(1, n)
    a, b = ray_matrix(None, -ZR)
    w0_sq = HENE.waist**2
    w_hat_sq = w0_sq * rng.uniform(1.0, 4.0, 200)
    fraction, _ = estimate_fraction(k, n, cal)
    absolute, _ = estimate_fraction_absolute(k, cal, 5e5)
    width, _ = estimate_mle_width(w_hat_sq, HENE, -ZR)
    for i in range(200):
        ki, ni, wi = int(k[i]), int(n[i]), float(w_hat_sq[i])
        assert fraction[i] == (ki / ni - cal.f0) / (cal.f0 * cal.slope)
        assert absolute[i] == (ki / (5e5 * cal.f0) - 1.0) / cal.slope
        root = math.copysign(ZR * math.sqrt(wi / w0_sq - a * a), b)
        assert width[i] == (root - b) / a


# ---------------------------------------------------------------------------
# Width estimator
# ---------------------------------------------------------------------------


def test_width_estimate_inverts_exactly():
    # The width statistic of an object at z = -0.8 z_R seen from -z_R.
    delta, clamped = estimate_mle_width(beam_width_sq(HENE, -0.8 * ZR), HENE, -ZR)
    assert not clamped
    assert delta == pytest.approx(0.2 * ZR, rel=1e-12)


def test_width_estimate_clamps_below_the_waist():
    delta, clamped = estimate_mle_width(2.0 * (0.01 * HENE.waist) ** 2, HENE, -ZR)
    assert clamped
    assert delta == pytest.approx(ZR, rel=1e-15)


def test_width_estimate_branch_validation():
    # The branch is the sign of B; at the waist, or at the geometric
    # image of the waist behind a relay, B = 0 and it is ambiguous.
    w_hat_sq = 2e-12
    with pytest.raises(ValueError):
        estimate_mle_width(w_hat_sq, HENE, 0.0)
    with pytest.raises(ValueError):
        estimate_mle_width(w_hat_sq, UNIT, 5.0 / 4.0, RelaySystem(1.0, 5.0))
    # At the back focal plane A = 0: the width carries no displacement.
    with pytest.raises(ValueError):
        estimate_mle_width(w_hat_sq, UNIT, 1.0, RelaySystem(1.0, 5.0))
    # An empty exposure has no width statistic: NaN, flagged.
    delta, flagged = estimate_mle_width(math.nan, HENE, -ZR)
    assert flagged and math.isnan(delta)


@settings(max_examples=200, deadline=None)
@pytest.mark.parametrize("side", [-1.0, 1.0], ids=["inside", "outside"])
@given(
    relayed=st.booleans(),
    log_zr=st.floats(-5.0, 0.0),
    log_focal=st.floats(-2.0, 1.0),
    focal_sign=st.sampled_from([-1.0, 1.0]),
    s_over_zr=st.floats(-50.0, 50.0),
    nominal=st.floats(0.1, 8.0),
    displaced=st.floats(0.05, 8.0),
)
def test_width_estimate_round_trips(
    side, relayed, log_zr, log_focal, focal_sign, s_over_zr, nominal, displaced
):
    """Feed the estimator the exact width of a displaced object and get
    the displacement back, free and behind a relay, on both branches.

    The nominal plane images to ``side * nominal`` Rayleigh ranges from
    the waist and the displaced object to ``side * displaced``, so the
    width stays on the nominal plane's branch."""
    beam = BeamParams.from_rayleigh_range(632.8e-9, 10.0**log_zr)
    zr = beam.rayleigh_range
    if relayed:
        # Keep the detector plane finite: its conjugate must not sit on
        # the front focal plane.
        assume(abs(s_over_zr - side * nominal) > 0.01)
        f = focal_sign * 10.0**log_focal
        s = s_over_zr * zr
        relay = RelaySystem(f, f + s)
        # The object-side plane conjugate to z' sits at s - f^2 / (z' - f).
        plane = f + f * f / (s - side * nominal * zr)
    else:
        relay = None
        plane = side * nominal * zr
    a, b = ray_matrix(relay, plane)
    # B / A is the conjugate plane's offset from the waist.
    delta = side * displaced * zr - b / a
    w_sq = ray_width_sq(beam, a, b + a * delta)
    delta_hat, clamped = estimate_mle_width(w_sq, beam, plane, relay)
    assert not clamped
    assert delta_hat == pytest.approx(delta, abs=1e-13 * zr)


# ---------------------------------------------------------------------------
# Monte Carlo benchmark
# ---------------------------------------------------------------------------


def _config(**overrides):
    base = dict(
        beam=HENE,
        detector_plane=-ZR,
        true_delta=50e-9,
        n_per_trial=5000,
        trials=40,
        estimator="fraction",
        base_seed=99,
    )
    base.update(overrides)
    return TrialConfig(**base)


def test_trial_config_validation():
    with pytest.raises(ValueError):
        _config(n_per_trial=0)
    with pytest.raises(ValueError):
        _config(trials=0)
    with pytest.raises(ValueError):
        _config(estimator="median")
    with pytest.raises(ValueError):
        _config(base_seed=-1)


@pytest.mark.parametrize("trials", [2**32, 2**40])
def test_trial_config_rejects_trial_indices_past_one_word(trials):
    """A trial index is one 32-bit word of its seed's spawn key."""
    with pytest.raises(ValueError, match="trials"):
        _config(trials=trials)
    assert _config(trials=2**32 - 1).trials == 2**32 - 1


def test_trial_config_rejects_poisson_means_past_numpy_limit():
    """numpy's Poisson draw rejects a mean above ~9.2234e18, below 2**63.
    With Poisson totals a larger n_per_trial is named as the input at
    fault, and at the limit itself numpy still draws."""
    limit = int(photon_sim._POISSON_LAM_MAX)
    with pytest.raises(ValueError, match="n_per_trial"):
        _config(n_per_trial=limit + 1024, poisson_total=True)
    assert _config(n_per_trial=limit + 1024).n_per_trial == limit + 1024
    config = _config(n_per_trial=limit, poisson_total=True)
    assert np.random.default_rng(0).poisson(config.n_per_trial) > 0


def test_run_trials_is_reproducible():
    a = run_trials(_config())
    b = run_trials(_config())
    assert np.array_equal(a.estimates, b.estimates)
    assert np.array_equal(a.trial_seeds, b.trial_seeds)
    assert a.empirical_std == b.empirical_std


RELAY_20X = RelaySystem(0.1, 0.105)


@pytest.mark.parametrize("poisson_total", [False, True], ids=["fixed", "poisson"])
@pytest.mark.parametrize("relay", [None, RELAY_20X], ids=["free", "relayed"])
def test_run_trials_matches_the_per_trial_route(relay, poisson_total):
    """Byte for byte the exposures drawn one trial at a time from numpy's
    own ``SeedSequence`` and ``default_rng`` (``tests/trial_stream_oracle.py``).
    The 8-photon Poisson run on seed 5 includes an empty exposure, which
    the last line checks."""
    plane = -ZR if relay is None else preferred_detection_plane(HENE, relay)
    for n_per_trial, base_seed in ((2000, 2**64 - 1), (8, 5)):
        config = _config(detector_plane=plane, relay=relay, poisson_total=poisson_total,
                         trials=37, n_per_trial=n_per_trial,
                         base_seed=base_seed, estimator="mle")
        report = run_trials(config)
        expected = trial_rows(config)
        got = (report.trial_seeds, report.totals, report.counts_outside, report.width_sq_hat)
        for name, a, b in zip(("seeds", "totals", "counts", "width_sq_hat"), got, expected):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert poisson_total == (report.totals == 0).any()


def test_totals_fixed_without_poisson_and_variable_with():
    fixed = run_trials(_config())
    assert (fixed.totals == 5000).all()
    fluct = run_trials(_config(poisson_total=True, estimator="fraction-absolute"))
    assert len(set(fluct.totals.tolist())) > 1
    assert fluct.totals[0] == np.random.default_rng(trial_seed(99, 0, substream=1)).poisson(5000)


def test_bounds_ordering_and_values():
    report = run_trials(_config(trials=3, n_per_trial=1_600_000))
    assert report.quantum_crb_std == pytest.approx(ZR / math.sqrt(1.6e6), rel=1e-12)
    assert report.quantum_crb_std == pytest.approx(1.494176194429559e-08, rel=1e-12)
    # At +-z_R the intensity measurement is optimal: the bounds coincide.
    assert report.classical_crb_std == pytest.approx(report.quantum_crb_std, rel=1e-12)
    away = run_trials(_config(detector_plane=-0.5 * ZR, trials=2))
    assert away.classical_crb_std > away.quantum_crb_std


def test_report_rejects_classical_below_quantum():
    good = run_trials(_config(trials=2))
    with pytest.raises(ValueError):
        TrialReport(
            config=good.config,
            trial_seeds=good.trial_seeds,
            totals=good.totals,
            counts_outside=good.counts_outside,
            width_sq_hat=good.width_sq_hat,
            estimates=good.estimates,
            flagged=good.flagged,
            mean_estimate=good.mean_estimate,
            empirical_std=good.empirical_std,
            classical_crb_std=1.0,
            quantum_crb_std=2.0,
        )


def test_saturated_trials_are_flagged_not_dropped():
    report = run_trials(_config(n_per_trial=3, trials=60, true_delta=0.0, base_seed=5))
    assert 0 < report.flagged_count < 60
    assert np.isnan(report.estimates[report.flagged]).all()
    assert math.isfinite(report.mean_estimate)
    assert math.isfinite(report.empirical_std)


@pytest.mark.parametrize("estimator", ["fraction", "fraction-absolute", "mle"])
def test_empty_poisson_exposures_are_flagged(estimator):
    """At one photon per exposure on average, about a third of the
    Poisson totals are zero; each such trial is NaN and flagged under
    every estimator instead of aborting the run."""
    report = run_trials(
        _config(estimator=estimator, poisson_total=True, n_per_trial=1, trials=50)
    )
    empty = report.totals == 0
    assert 0 < empty.sum() < 50
    assert report.flagged[empty].all()
    assert np.isnan(report.estimates[empty]).all()
    assert np.isnan(report.width_sq_hat[empty]).all()


def test_with_estimator_equals_a_separate_run():
    """Reading another estimator off a report's statistics gives what a
    fresh run with that estimator gives, without sampling again."""
    base = _config(estimator="mle", poisson_total=True, n_per_trial=2000, trials=30)
    report = run_trials(base)
    for estimator in ("fraction", "fraction-absolute", "mle"):
        view = report.with_estimator(estimator)
        fresh = run_trials(_config(estimator=estimator, poisson_total=True,
                                   n_per_trial=2000, trials=30))
        assert view.config == fresh.config
        for field in ("trial_seeds", "totals", "counts_outside", "width_sq_hat",
                      "estimates", "flagged"):
            assert np.array_equal(getattr(view, field), getattr(fresh, field),
                                  equal_nan=field in ("estimates", "width_sq_hat"))
        assert repr(view.mean_estimate) == repr(fresh.mean_estimate)
        assert repr(view.empirical_std) == repr(fresh.empirical_std)


def test_fraction_benchmark_statistics():
    report = run_trials(
        _config(n_per_trial=200_000, trials=60, true_delta=100e-9, base_seed=31)
    )
    bound = report.quantum_crb_std * math.sqrt(math.e - 1.0)
    assert report.flagged_count == 0
    assert abs(report.mean_estimate - 100e-9) < 4.0 * bound / math.sqrt(60)
    assert 0.7 < report.empirical_std / bound < 1.3


def test_mle_benchmark_statistics():
    report = run_trials(
        _config(
            estimator="mle", n_per_trial=200_000, trials=60, true_delta=100e-9, base_seed=31
        )
    )
    assert report.flagged_count == 0
    assert abs(report.mean_estimate - 100e-9) < 4.0 * report.quantum_crb_std / math.sqrt(60)
    assert 0.7 < report.empirical_std / report.quantum_crb_std < 1.3


def test_run_trials_cost_does_not_grow_with_the_photon_count():
    """10^12 photons per exposure, 8 TB as photon radii: each exposure is
    drawn as its statistics, so this runs like any other size.  The width
    estimates center on the truth and spread at the quantum bound, within
    5 standard errors each (a chance failure below 1e-6 per check)."""
    report = run_trials(_config(estimator="mle", n_per_trial=10**12, trials=200,
                                true_delta=100e-9, base_seed=13))
    bound = report.quantum_crb_std
    assert report.flagged_count == 0
    assert abs(report.mean_estimate - 100e-9) < 5.0 * bound / math.sqrt(200)
    assert abs(report.empirical_std / bound - 1.0) < 5.0 / math.sqrt(2 * 199)


def test_mle_through_a_relay_attains_the_bound():
    """20x magnifier: the image-side width inversion must recover the
    object displacement at the quantum-bound precision."""
    relay = RelaySystem(0.1, 0.105)
    from axialfisher.fisher import preferred_detection_plane

    plane = preferred_detection_plane(HENE, relay)
    config = TrialConfig(
        beam=HENE,
        detector_plane=plane,
        true_delta=0.05 * ZR,
        n_per_trial=50_000,
        trials=12,
        estimator="mle",
        base_seed=2024,
        relay=relay,
    )
    report = run_trials(config)
    assert report.flagged_count == 0
    assert report.classical_crb_std == pytest.approx(report.quantum_crb_std, rel=1e-9)
    assert report.mean_estimate == pytest.approx(0.05 * ZR, rel=0.05)
    assert 0.5 < report.empirical_std / report.quantum_crb_std < 1.5


def test_relay_mle_flags_instead_of_aborting():
    """Two photons per exposure behind the 20x relay: some sampled widths
    fall below the smallest width the branch reaches.  Those trials are
    clamped to the waist and flagged, as in free space, rather than
    aborting the run."""
    relay = RelaySystem(0.1, 0.105)
    plane = preferred_detection_plane(HENE, relay)
    report = run_trials(
        TrialConfig(
            beam=HENE,
            detector_plane=plane,
            true_delta=0.0,
            n_per_trial=2,
            trials=50,
            estimator="mle",
            base_seed=0xA71A10C,
            relay=relay,
        )
    )
    a, b = ray_matrix(relay, plane)
    assert 0 < report.flagged_count < 50
    assert (report.estimates[report.flagged] == -b / a).all()
    assert np.isfinite(report.estimates).all()


def test_mle_rejected_at_the_waist_plane():
    with pytest.raises(ValueError):
        run_trials(_config(estimator="mle", detector_plane=0.0))


# ---------------------------------------------------------------------------
# Deterministic bias analysis
# ---------------------------------------------------------------------------


def test_expected_fraction_estimate_is_nearly_unbiased_when_small():
    config = _config(true_delta=100e-9)
    response = expected_fraction_estimate(config)
    assert response == pytest.approx(100e-9, rel=1e-4)


def test_expected_fraction_estimate_bias_grows_quadratically():
    """Relative bias is about -(delta/z_R)^2 / 3 for moderate offsets."""
    for delta in (400e-9, 1650e-9):
        response = expected_fraction_estimate(_config(true_delta=delta))
        rel_bias = (response - delta) / delta
        predicted = -((delta / ZR) ** 2) / 3.0
        assert rel_bias == pytest.approx(predicted, rel=0.05)
        assert abs(rel_bias) < 0.05


def test_expected_fraction_estimate_fails_far_from_the_plane():
    response = expected_fraction_estimate(_config(true_delta=ZR))
    assert abs(response - ZR) / ZR > 0.05
