import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from axialfisher.beam_optics import (
    BeamParams,
    RelaySystem,
    beam_width_sq,
    ray_matrix,
    ray_width_sq,
)
from axialfisher.estimators import (
    EstimatorCalibration,
    SaturatedEstimateError,
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
from axialfisher.photon_sim import DetectionSample, derive_trial_seed, poisson_count

HENE = BeamParams.from_rayleigh_range(632.8e-9, 18.9e-6)
ZR = HENE.rayleigh_range
UNIT = BeamParams(math.pi, 1.0)


def _sample_from_radii(radii, width_sq=1.0):
    radii = np.asarray(radii, dtype=float)
    return DetectionSample(
        radii=radii, width_sq=width_sq, total_count=radii.size, seed=0
    )


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
        EstimatorCalibration(nominal_z=1.0, r_b=-1.0, f0=0.3, slope=1.0)
    with pytest.raises(ValueError):
        EstimatorCalibration(nominal_z=1.0, r_b=1.0, f0=1.5, slope=1.0)
    with pytest.raises(ValueError):
        EstimatorCalibration(nominal_z=1.0, r_b=1.0, f0=0.3, slope=0.0)


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
    n, k = 100, 37
    radii = np.concatenate([np.full(k, 2.0 * cal.r_b), np.full(n - k, 0.5 * cal.r_b)])
    sample = _sample_from_radii(radii, width_sq=beam_width_sq(HENE, -ZR))
    expected = (k / n - cal.f0) / (cal.f0 * cal.slope)
    assert estimate_fraction(sample, cal) == pytest.approx(expected, rel=1e-14)


def test_fraction_estimate_raises_when_saturated():
    cal = calibrate(HENE, -ZR)
    inside = _sample_from_radii(np.full(5, 0.1 * cal.r_b))
    outside = _sample_from_radii(np.full(5, 9.0 * cal.r_b))
    with pytest.raises(SaturatedEstimateError) as excinfo:
        estimate_fraction(inside, cal)
    assert excinfo.value.outside == 0
    with pytest.raises(SaturatedEstimateError):
        estimate_fraction(outside, cal)


def test_absolute_fraction_estimator():
    cal = calibrate(HENE, -ZR)
    radii = np.concatenate([np.full(40, 2.0 * cal.r_b), np.full(60, 0.0)])
    sample = _sample_from_radii(radii)
    expected = (40 / (100.0 * cal.f0) - 1.0) / cal.slope
    assert estimate_fraction_absolute(sample, cal, 100.0) == pytest.approx(
        expected, rel=1e-14
    )
    with pytest.raises(ValueError):
        estimate_fraction_absolute(sample, cal, 0.0)
    empty = _sample_from_radii(np.zeros(4))
    with pytest.raises(SaturatedEstimateError):
        estimate_fraction_absolute(empty, cal, 100.0)


# ---------------------------------------------------------------------------
# Width estimator
# ---------------------------------------------------------------------------


def test_width_estimate_inverts_exactly():
    # All radii equal: w_hat^2 = 2 r^2.  Choose it to match z = -0.8 z_R.
    target_w_sq = beam_width_sq(HENE, -0.8 * ZR)
    radii = np.full(50, math.sqrt(target_w_sq / 2.0))
    sample = _sample_from_radii(radii, width_sq=target_w_sq)
    delta, clamped = estimate_mle_width(sample, HENE, -ZR)
    assert not clamped
    assert delta == pytest.approx(0.2 * ZR, rel=1e-12)


def test_width_estimate_clamps_below_the_waist():
    radii = np.full(50, 0.01 * HENE.waist)
    sample = _sample_from_radii(radii)
    delta, clamped = estimate_mle_width(sample, HENE, -ZR)
    assert clamped
    assert delta == pytest.approx(ZR, rel=1e-15)


def test_width_estimate_branch_validation():
    # The branch is the sign of B; at the waist, or at the geometric
    # image of the waist behind a relay, B = 0 and it is ambiguous.
    sample = _sample_from_radii(np.full(5, 1e-6))
    with pytest.raises(ValueError):
        estimate_mle_width(sample, HENE, 0.0)
    with pytest.raises(ValueError):
        estimate_mle_width(sample, UNIT, 5.0 / 4.0, RelaySystem(1.0, 5.0))
    # At the back focal plane A = 0: the width carries no displacement.
    with pytest.raises(ValueError):
        estimate_mle_width(sample, UNIT, 1.0, RelaySystem(1.0, 5.0))
    empty = _sample_from_radii(np.zeros(0))
    with pytest.raises(ValueError):
        estimate_mle_width(empty, HENE, -ZR)


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
    sample = _sample_from_radii(np.full(4, math.sqrt(0.5 * w_sq)), width_sq=w_sq)
    delta_hat, clamped = estimate_mle_width(sample, beam, plane, relay)
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
    with pytest.raises(ValueError):
        _config(workers=0)


def test_run_trials_is_reproducible():
    a = run_trials(_config())
    b = run_trials(_config())
    assert np.array_equal(a.estimates, b.estimates)
    assert np.array_equal(a.trial_seeds, b.trial_seeds)
    assert a.empirical_std == b.empirical_std


def test_worker_count_does_not_change_results():
    serial = run_trials(_config())
    parallel = run_trials(_config(workers=2))
    assert np.array_equal(serial.estimates, parallel.estimates)
    assert np.array_equal(serial.totals, parallel.totals)


def test_totals_fixed_without_poisson_and_variable_with():
    fixed = run_trials(_config())
    assert (fixed.totals == 5000).all()
    fluct = run_trials(_config(poisson_total=True, estimator="fraction-absolute"))
    assert len(set(fluct.totals.tolist())) > 1
    assert fluct.totals[0] == poisson_count(5000, derive_trial_seed(99, 0, substream=1))


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
