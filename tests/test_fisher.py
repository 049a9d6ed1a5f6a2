import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from axialfisher.beam_optics import (
    BeamParams,
    ImageBeam,
    RelaySystem,
    beam_width_sq,
    image_beam_width_sq,
    intensity_pdf,
    pupil_field_family,
    ray_matrix,
    ray_width_sq,
    relay_transform,
)
from axialfisher import fisher
from axialfisher.estimators import EstimatorCalibration, TrialConfig, estimate_fraction_absolute
from axialfisher.fisher import (
    ALPHA_DEGENERACY_TOL,
    FisherScan,
    NormalizationDriftError,
    beam_fi_numeric,
    classical_fi_analytic,
    classical_fi_numeric,
    fi_density,
    generator_moments,
    geometric_image_plane,
    image_fi,
    info_boundary,
    info_fraction_beyond,
    info_fraction_outside,
    optimal_detection_planes,
    point_source_range_std,
    preferred_detection_plane,
    qfi_gaussian,
    qfi_point_source,
    qfi_pure_state,
    qfi_via_generator,
    scan_image_fi,
    width_response,
)
from axialfisher.numerics import (
    NumericalLimitError,
    QuadratureError,
    check_rule_gap,
    finite_scalar,
    rule_sums,
    stacked_radial_rule,
    unit_rules,
)
from axialfisher.photon_sim import (
    derive_trial_seeds, poisson_counts, sample_radii, sample_trials,
)
from pure_state_oracle import (
    adaptive_qfi_pure_state,
    central_derivative,
    gaussian_field_family,
    gouy_phase,
    wavefront_curvature,
)

UNIT = BeamParams(math.pi, 1.0)  # z_R = 1, k = 2, Q = 1
HENE = BeamParams.from_rayleigh_range(632.8e-9, 18.9e-6)

# Reference relay: f = 1, object one beam at z = 5 with z_R = 1.  All the
# image-side quantities are exact small fractions for this geometry.
RELAY = RelaySystem(1.0, 5.0)
PLANE_PLUS = 4.0 / 3.0
PLANE_MINUS = 6.0 / 5.0
GEOMETRIC = 5.0 / 4.0


# ---------------------------------------------------------------------------
# Quantum information
# ---------------------------------------------------------------------------


def test_qfi_is_inverse_square_rayleigh_range():
    assert qfi_gaussian(UNIT) == pytest.approx(1.0, rel=1e-15)
    assert qfi_gaussian(HENE) == pytest.approx(1.0 / 18.9e-6**2, rel=1e-12)


@pytest.mark.parametrize("beam", [UNIT, HENE], ids=["unit", "hene"])
def test_generator_route_reproduces_qfi(beam):
    assert qfi_via_generator(beam) == pytest.approx(qfi_gaussian(beam), rel=1e-12)


def test_generator_moments_against_closed_forms():
    """<G> = -1/(k w0^2) and <G^2> = 2/(k w0^2)^2 for the waist mode."""
    mean, second = generator_moments(HENE)
    k_w0_sq = HENE.wavenumber * HENE.waist**2
    assert mean == pytest.approx(-1.0 / k_w0_sq, rel=1e-10)
    assert second == pytest.approx(2.0 / k_w0_sq**2, rel=1e-10)
    assert mean < 0.0


def test_generator_route_two_grid_check_raises_on_a_coarse_grid(monkeypatch):
    """At a step of 0.4 w0 the grid's Nyquist frequency falls inside the
    kappa grid, and the gap to the 0.3 grid is ~7e-5 relative, far above
    ``RULE_TOL``; the error names the two steps."""
    monkeypatch.setattr(fisher, "SPECTRAL_STEPS", (0.4, 0.3))
    fisher._waist_mode_spectral_moments.cache_clear()
    try:
        with pytest.raises(QuadratureError, match="between grid steps 0.4 and 0.3"):
            qfi_via_generator(HENE)
    finally:
        fisher._waist_mode_spectral_moments.cache_clear()


# ---------------------------------------------------------------------------
# Classical information, free beam
# ---------------------------------------------------------------------------


def test_classical_fi_closed_form_landmarks():
    q = qfi_gaussian(UNIT)
    assert classical_fi_analytic(UNIT, 0.0) == 0.0
    assert classical_fi_analytic(UNIT, 1.0) == pytest.approx(q, rel=1e-15)
    assert classical_fi_analytic(UNIT, -1.0) == pytest.approx(q, rel=1e-15)
    assert classical_fi_analytic(UNIT, 2.0) == pytest.approx(0.64 * q, rel=1e-15)


def test_classical_never_exceeds_quantum():
    q = qfi_gaussian(HENE)
    for z in np.linspace(-6.0, 6.0, 121) * HENE.rayleigh_range:
        assert classical_fi_analytic(HENE, z) <= q * (1.0 + 1e-12)


def test_quadrature_route_matches_closed_form_on_a_grid():
    q = qfi_gaussian(HENE)
    for z in np.linspace(-3.0, 3.0, 13) * HENE.rayleigh_range:
        numeric = beam_fi_numeric(HENE, float(z))
        analytic = classical_fi_analytic(HENE, float(z))
        assert abs(numeric - analytic) <= 1e-7 * q + 1e-7 * analytic


def test_score_integral_gap_is_well_inside_its_roundoff_floor(monkeypatch):
    """On criterion 1's 61 planes the gap between the two radial rules of
    the score integral stays within a quarter of its floor
    100 sqrt(F) eps / step, while it exceeds 1e-10 F, the rule tolerance
    alone, on some of them."""
    gaps = []
    check = fisher.check_rule_gap

    def recording(coarse, fine, floor, what):
        gaps.append((abs(coarse - fine), floor, fine))
        return check(coarse, fine, floor, what)

    monkeypatch.setattr(fisher, "check_rule_gap", recording)
    for z in np.linspace(-3.0, 3.0, 61) * HENE.rayleigh_range:
        beam_fi_numeric(HENE, float(z))
    assert len(gaps) == 61
    assert all(gap <= 0.25 * floor for gap, floor, _ in gaps)
    assert any(gap > 1e-10 * fine for gap, _, fine in gaps)


def test_score_integral_raises_when_the_step_makes_it_diverge():
    """At z = 1 with step 3 the stencil's squared widths (17 and 5) exceed
    twice w^2(1) = 2, so (d_z p)^2 / p grows without bound in r and the
    two rules disagree."""
    with pytest.raises(QuadratureError, match="score integral") as excinfo:
        classical_fi_numeric(lambda z: beam_width_sq(UNIT, z), 1.0, 3.0)
    assert excinfo.value.estimate > 1.0


def test_quadrature_route_rejects_bad_width_function():
    with pytest.raises(ValueError, match="non-positive squared width"):
        classical_fi_numeric(lambda z: -1.0, 1.0, 1e-6)


@pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
def test_quadrature_route_rejects_a_width_bad_only_at_a_stencil_point(bad):
    """A width function that is fine at the centre but not a positive,
    finite squared width at a stencil point is refused there, naming the
    value and the point."""
    def width_sq_fn(z):
        return 1.0 if z < 1.0005 else bad

    with pytest.raises(ValueError) as excinfo:
        classical_fi_numeric(width_sq_fn, 1.0, 1e-3)
    assert type(excinfo.value) is ValueError
    assert str(excinfo.value) == f"width_sq_fn returned {bad!r} at z={1.0 + 1e-3!r}"


def _per_row_classical_fi(width_sq_fn, z: float, step: float) -> float:
    """``classical_fi_numeric`` with one ``intensity_pdf`` call per
    intensity, the centre and each stencil offset, and the score reduced
    by the same ``rule_sums`` on the unit weights."""
    w_sq = width_sq_fn(z)
    offsets = (step, -step, 0.5 * step, -0.5 * step)
    widths_sq = {offset: width_sq_fn(z + offset) for offset in offsets}
    radii = stacked_radial_rule(math.sqrt(w_sq))
    p = intensity_pdf(w_sq, radii)
    dp = central_derivative(
        lambda offset: intensity_pdf(widths_sq[offset], radii), 0.0, step
    )
    score = np.divide(dp * dp, p, out=np.zeros_like(p), where=p > 0.0)
    coarse, fine = (w_sq * rule_sums(score * unit_rules().weights)).tolist()
    floor = 100.0 * math.sqrt(abs(fine)) * np.finfo(float).eps / step
    return check_rule_gap(coarse, fine, floor, "score integral")


def test_classical_stencil_array_matches_the_per_row_route_bit_for_bit():
    """The five intensities as rows of one array do the arithmetic of five
    ``intensity_pdf`` calls, on 100 seeded free beams and 100 relayed
    ones (the width as a function of the object displacement)."""
    rng = np.random.default_rng(30)
    cases = []
    for _ in range(100):
        beam = BeamParams.from_rayleigh_range(
            10.0 ** rng.uniform(-6.5, -5.8), 10.0 ** rng.uniform(-6.0, -1.0)
        )
        zr = beam.rayleigh_range
        step = max(fisher.FD_STEP_FRACTION * zr, fisher.FD_STEP_FLOOR)
        cases.append((lambda zz, beam=beam: beam_width_sq(beam, zz),
                      float(rng.uniform(-4.0, 4.0) * zr), step))
        focal = 10.0 ** rng.uniform(-3.0, 0.0)
        relay = RelaySystem(focal, focal + float(rng.uniform(-5.0, 5.0)) * zr)
        image = relay_transform(beam, relay)
        plane = image.waist_position + float(rng.uniform(-4.0, 4.0)) * image.rayleigh_range
        a, b = ray_matrix(relay, plane)
        cases.append((lambda delta, beam=beam, a=a, b=b: ray_width_sq(beam, a, b + a * delta),
                      0.0, step))
    for width_sq_fn, z, step in cases:
        assert classical_fi_numeric(width_sq_fn, z, step) == _per_row_classical_fi(
            width_sq_fn, z, step
        )


# ---------------------------------------------------------------------------
# Through the relay
# ---------------------------------------------------------------------------


def test_image_width_response_at_reference_planes():
    w_sq_plus, slope_plus = width_response(UNIT, RELAY, PLANE_PLUS)
    assert w_sq_plus == pytest.approx(2.0 / 9.0, rel=1e-13)
    assert slope_plus == pytest.approx(1.0, rel=1e-12)
    _, slope_minus = width_response(UNIT, RELAY, PLANE_MINUS)
    assert slope_minus == pytest.approx(-1.0, rel=1e-12)


def test_width_response_in_free_space_is_the_curvature_law():
    for z in (-3.0, -1.0, 0.25, 2.0):
        w_sq, slope = width_response(HENE, None, z * HENE.rayleigh_range)
        assert w_sq == beam_width_sq(HENE, z * HENE.rayleigh_range)
        assert slope == 2.0 * wavefront_curvature(HENE, z * HENE.rayleigh_range)


def test_image_width_sensitivity_matches_finite_differences():
    """The ray-matrix derivative against a brute-force object shift
    through the image-beam transform."""
    configs = [
        (UNIT, RelaySystem(1.0, 5.0), 1.3),
        (UNIT, RelaySystem(1.0, 5.0), 0.4),
        (UNIT, RelaySystem(-2.0, 3.0), -1.0),
        (HENE, RelaySystem(0.1, 0.105), 40.0),
    ]
    for beam, relay, z_prime in configs:
        w_sq, slope = width_response(beam, relay, z_prime)
        analytic = w_sq * slope

        def by_shift(z_obj: float) -> float:
            moved = RelaySystem(relay.focal_length, z_obj)
            return image_beam_width_sq(relay_transform(beam, moved), z_prime)

        numeric = central_derivative(
            by_shift, relay.object_distance, step=1e-6 * beam.rayleigh_range
        )
        assert numeric == pytest.approx(analytic, rel=1e-6)


def test_image_fi_saturates_at_both_reference_planes():
    q = qfi_gaussian(UNIT)
    assert image_fi(UNIT, RELAY, PLANE_PLUS) == pytest.approx(q, rel=1e-12)
    assert image_fi(UNIT, RELAY, PLANE_MINUS) == pytest.approx(q, rel=1e-12)


def test_image_fi_vanishes_at_geometric_image_and_back_focal_plane():
    assert image_fi(UNIT, RELAY, GEOMETRIC) < 1e-25
    assert image_fi(UNIT, RELAY, RELAY.focal_length) < 1e-25


def test_optimal_planes_reference_case():
    planes = optimal_detection_planes(UNIT, RELAY)
    assert planes.alpha == pytest.approx(5.0 / 3.0, rel=1e-14)
    assert planes.plane_plus == pytest.approx(PLANE_PLUS, rel=1e-13)
    assert planes.plane_minus == pytest.approx(PLANE_MINUS, rel=1e-13)


def test_optimal_planes_saturate_across_random_geometries():
    """The closed form must hit F = Q for any non-degenerate geometry."""
    rng = np.random.default_rng(20260815)
    for _ in range(60):
        zr = 10.0 ** rng.uniform(-5.0, 0.0)
        beam = BeamParams.from_rayleigh_range(632.8e-9, zr) if zr < 0.1 else BeamParams(
            math.pi * rng.uniform(0.5, 2.0), math.sqrt(zr)
        )
        zr = beam.rayleigh_range
        f = float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-2.0, 1.0)
        t = float(rng.choice([-1.0, 1.0])) * rng.uniform(0.05, 0.8)
        relay = RelaySystem(f, f - zr / t)
        planes = optimal_detection_planes(beam, relay)
        q = qfi_gaussian(beam)
        # F never exceeds Q, so F = Q at two distinct planes means both
        # optima were found.
        assert planes.plane_plus != planes.plane_minus
        assert image_fi(beam, relay, planes.plane_plus) / q == pytest.approx(1.0, abs=1e-9)
        assert image_fi(beam, relay, planes.plane_minus) / q == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "offset,reachable",
    [(1.0, 1.5), (-1.0, 0.5)],
    ids=["f+zR", "f-zR"],
)
def test_degenerate_geometries_report_the_reachable_plane(offset, reachable):
    """At z = f +- z_R one optimum recedes to infinity.  The finite one
    is reported in both fields, alpha is NaN, and it still saturates
    the bound."""
    relay = RelaySystem(1.0, 1.0 + offset * UNIT.rayleigh_range)
    planes = optimal_detection_planes(UNIT, relay)
    assert math.isnan(planes.alpha)
    assert planes.plane_plus == planes.plane_minus
    assert planes.plane_plus == pytest.approx(reachable, rel=1e-15)
    assert image_fi(UNIT, relay, planes.plane_plus) == pytest.approx(
        qfi_gaussian(UNIT), rel=1e-12
    )
    assert preferred_detection_plane(UNIT, relay) == planes.plane_plus


def test_degenerate_geometry_reports_the_reachable_plane():
    """At z = f + z_R one optimum sits at the image waist and the other
    recedes to infinity; the reachable one must still be reported."""
    relay = RelaySystem(1.0, 2.0)
    planes = optimal_detection_planes(UNIT, relay)
    image = relay_transform(UNIT, relay)
    q = qfi_gaussian(UNIT)
    best = max(
        image_fi(UNIT, relay, planes.plane_plus),
        image_fi(UNIT, relay, planes.plane_minus),
    )
    assert best / q == pytest.approx(1.0, abs=1e-9)
    assert planes.plane_plus == pytest.approx(image.waist_position, rel=1e-15)
    assert planes.plane_minus == pytest.approx(image.waist_position, rel=1e-15)


def test_degeneracy_band_is_relative_to_the_rayleigh_range():
    """Just outside the band the closed form still holds, with one plane
    far away but finite."""
    offset = 1.0 + 4.0 * ALPHA_DEGENERACY_TOL
    relay = RelaySystem(1.0, 1.0 + offset)
    planes = optimal_detection_planes(UNIT, relay)
    assert math.isfinite(planes.alpha)
    assert abs(planes.plane_plus) > 1e10
    assert image_fi(UNIT, relay, planes.plane_minus) == pytest.approx(1.0, rel=1e-9)


def _exact_ray_matrix(relay, plane):
    """(A, B) by exact products of the gap and thin-lens matrices."""

    def gap(length):
        return np.array([[1, Fraction(length)], [0, 1]], dtype=object)

    if relay is None:
        matrix = gap(plane)
    else:
        lens = np.array([[1, 0], [-1 / Fraction(relay.focal_length), 1]], dtype=object)
        matrix = gap(plane) @ lens @ gap(relay.object_distance)
    return matrix[0, 0], matrix[0, 1]


@st.composite
def detection_geometries(draw):
    """(beam, relay or None, plane): lenses of either sign magnifying
    0.1x to 20x, objects within 50 Rayleigh ranges of the focal plane,
    detectors within 8 image-side Rayleigh ranges of the image waist."""
    beam = BeamParams.from_rayleigh_range(632.8e-9, 10.0 ** draw(st.floats(-5.0, 0.0)))
    zr = beam.rayleigh_range
    tau = draw(st.floats(-8.0, 8.0))
    if draw(st.booleans()):
        return beam, None, tau * zr
    s = draw(st.floats(-50.0, 50.0)) * zr
    magnification = 10.0 ** draw(st.floats(-1.0, math.log10(20.0)))
    f = draw(st.sampled_from([-1.0, 1.0])) * magnification * math.hypot(s, zr)
    relay = RelaySystem(f, f + s)
    image = relay_transform(beam, relay)
    return beam, relay, image.waist_position + tau * image.rayleigh_range


@settings(max_examples=300, deadline=None)
@given(geometry=detection_geometries())
def test_width_response_matches_exact_arithmetic(geometry):
    """Width and F from the focal-form ray matrix against exact rational
    arithmetic on the same floating-point inputs."""
    beam, relay, plane = geometry
    w_sq, slope = width_response(beam, relay, plane)
    a, b = _exact_ray_matrix(relay, plane)
    zr = Fraction(beam.rayleigh_range)
    exact_w_sq = Fraction(beam.waist) ** 2 * (a * a + b * b / (zr * zr))
    exact_slope = 2 * a * b / (a * a * zr * zr + b * b)
    assert abs(Fraction(w_sq) - exact_w_sq) / exact_w_sq <= 1e-13
    # F in units of Q: an absolute error, meaningful near F = 0 too.
    assert abs(Fraction(slope * slope) - exact_slope**2) * zr * zr <= 1e-13


def test_geometric_image_plane():
    assert geometric_image_plane(RELAY) == pytest.approx(GEOMETRIC, rel=1e-15)
    assert geometric_image_plane(RelaySystem(1.0, 1.0)) == math.inf


def test_preferred_plane_is_farther_from_geometric_image():
    # |4/3 - 5/4| = 1/12 > |6/5 - 5/4| = 1/20.
    assert preferred_detection_plane(UNIT, RELAY) == pytest.approx(PLANE_PLUS, rel=1e-12)


def test_preferred_plane_can_be_the_minus_plane():
    # Object inside the focal length (s = -1/2): z'_+ = 1/3, z'_- = 3 and a
    # virtual geometric image at -1, so the minus plane is the farther one.
    relay = RelaySystem(1.0, 0.5)
    planes = optimal_detection_planes(UNIT, relay)
    assert planes.plane_minus == pytest.approx(3.0, rel=1e-15)
    assert preferred_detection_plane(UNIT, relay) == planes.plane_minus


def test_preferred_plane_without_a_geometric_image_is_the_one_farther_from_the_lens():
    # Object at the front focal plane (s = 0): z'_+ = 0 and z'_- = 2.
    relay = RelaySystem(1.0, 1.0)
    planes = optimal_detection_planes(UNIT, relay)
    assert (planes.plane_plus, planes.plane_minus) == (0.0, 2.0)
    assert preferred_detection_plane(UNIT, relay) == 2.0


def _exact_farther_plane(beam, relay):
    """"plus" or "minus": which optimal plane lies farther from the
    geometric image f + f^2 / s, in exact rational arithmetic on the
    float inputs (f, z, z_R), or "minus" at s = 0, where the image is at
    infinity and the windows are equally wide."""
    f, zr = Fraction(relay.focal_length), Fraction(beam.rayleigh_range)
    s = Fraction(relay.object_distance) - f
    if s == 0:
        return "minus"
    image = f + f * f / s
    plus = abs(f + f * f / (s - zr) - image)
    minus = abs(f + f * f / (s + zr) - image)
    assert plus != minus
    return "plus" if plus > minus else "minus"


def test_preferred_plane_is_the_exact_farther_plane_from_the_geometric_image():
    """Over seeded relays of both lens signs with the object at z_R to
    1e8 z_R from the front focal plane, on either side, and at it, the
    preferred plane is the optimal plane that exact arithmetic on the
    same float inputs puts farther from the geometric image.  Where the
    two float planes are equal, either answer is that plane.  Far from
    the focal plane the two distances f^2 z_R / |s (s -+ z_R)| differ in
    the last bits of the planes, so a rounded comparison of them can
    pick the nearer plane."""
    rng = np.random.default_rng(20261022)
    decided = 0
    for f_sign in (-1.0, 1.0):
        for s_sign in (-1.0, 0.0, 1.0):
            for _ in range(200 if s_sign else 20):
                beam = BeamParams.from_rayleigh_range(632.8e-9, 10.0 ** rng.uniform(-5.0, -1.0))
                zr = beam.rayleigh_range
                f = f_sign * 10.0 ** rng.uniform(-2.0, 1.0)
                relay = RelaySystem(f, f + s_sign * zr * 10.0 ** rng.uniform(0.0, 8.0))
                planes = optimal_detection_planes(beam, relay)
                preferred = preferred_detection_plane(beam, relay)
                if planes.plane_plus == planes.plane_minus:
                    assert preferred == planes.plane_plus
                    continue
                farther = _exact_farther_plane(beam, relay)
                assert preferred == (planes.plane_plus if farther == "plus" else planes.plane_minus)
                decided += 1
    assert decided >= 600


def _window_width(beam, relay, plane):
    """Width in z' of the window of F/Q >= 0.99 around ``plane``, each
    edge found by bisection on ``image_fi``: toward the nearest zero of F
    (the waist in free space, else the focal plane or the geometric
    image), F/Q falls monotonically, and with no zero ahead the bracket is
    doubled outward.  ``math.inf`` when the window never closes."""
    q = qfi_gaussian(beam)

    def inside(offset):
        return image_fi(beam, relay, plane + offset) >= 0.99 * q

    zeros = [0.0] if relay is None else [relay.focal_length, geometric_image_plane(relay)]
    width = 0.0
    for direction in (-1.0, 1.0):
        ahead = [direction * (z - plane) for z in zeros
                 if math.isfinite(z) and direction * (z - plane) > 0.0]
        inner, outer = 0.0, min(ahead, default=1e-6 * abs(plane))
        while not ahead and inside(direction * outer):
            inner, outer = outer, 2.0 * outer
            if outer > 1e15 * abs(plane):
                return math.inf
        while inner < (mid := 0.5 * (inner + outer)) < outer:
            if inside(direction * mid):
                inner = mid
            else:
                outer = mid
        width += inner
    return width


def test_preferred_plane_has_the_wider_window_of_near_optimal_planes():
    """Over seeded relays of both lens signs, with the object on either
    side of the front focal plane at 0.01 to 100 Rayleigh ranges from it,
    the preferred plane's window of F/Q >= 0.99 is never the narrower.

    Why: F/Q depends on z' only through t = B / (A z_R), which is +-1 at
    the planes, and a <= +-t <= 1/a spans f^2 z_R (1/a - a) /
    |(s -+ a z_R)(s -+ z_R / a)| of z'.  The plane farther from the
    geometric image has the smaller |s -+ z_R|, and with it the smaller
    denominator."""
    rng = np.random.default_rng(20261019)
    checked = 0
    for f_sign in (-1.0, 1.0):
        for s_sign in (-1.0, 1.0):
            for _ in range(60):
                beam = BeamParams.from_rayleigh_range(632.8e-9, 10.0 ** rng.uniform(-5.0, -1.0))
                zr = beam.rayleigh_range
                f = f_sign * 10.0 ** rng.uniform(-2.0, 1.0)
                relay = RelaySystem(f, f + s_sign * zr * 10.0 ** rng.uniform(-2.0, 2.0))
                planes = optimal_detection_planes(beam, relay)
                if math.isnan(planes.alpha):
                    continue
                preferred = preferred_detection_plane(beam, relay)
                other = planes.plane_minus if preferred == planes.plane_plus else planes.plane_plus
                assert _window_width(beam, relay, preferred) >= _window_width(beam, relay, other)
                checked += 1
    assert checked >= 200


def test_free_space_preferred_plane_is_minus_zr_by_convention():
    """In free space the windows around +-z_R are equally wide, so -z_R is
    a convention, the one the preset's detector plane uses."""
    zr = HENE.rayleigh_range
    assert preferred_detection_plane(HENE, None) == -zr
    assert _window_width(HENE, None, -zr) == pytest.approx(
        _window_width(HENE, None, zr), rel=1e-12)


def test_scan_shape_and_structure():
    image = relay_transform(UNIT, RELAY)
    grid = np.linspace(
        image.waist_position - 6.0 * image.rayleigh_range,
        image.waist_position + 6.0 * image.rayleigh_range,
        601,
    )
    scan = scan_image_fi(UNIT, RELAY, grid)
    assert scan.fi_values.shape == grid.shape
    assert scan.qfi == pytest.approx(1.0, rel=1e-15)
    values = scan.fi_values
    # One array pass over the planes is bit for bit the per-plane loop.
    assert np.array_equal(values, [image_fi(UNIT, RELAY, zp) for zp in grid])
    interior_max = np.flatnonzero(
        (values[1:-1] > values[:-2]) & (values[1:-1] > values[2:])
    )
    assert interior_max.size == 2
    # The information dies at the geometric image between the two maxima.
    assert values.min() < 1e-20


def test_scan_rejects_values_above_quantum_bound():
    with pytest.raises(ValueError):
        FisherScan(
            plane_positions=np.array([0.0]),
            fi_values=np.array([1.1]),
            qfi=1.0,
        )


@pytest.mark.parametrize("bad,count,first,last", [
    ({2: math.nan}, 1, 2.0, 2.0),
    ({1: math.inf}, 1, 1.0, 1.0),
    ({0: -math.inf, 3: math.inf}, 2, 0.0, 3.0),
    ({4: math.nan, 1: math.inf}, 2, 1.0, 4.0),
    ({3: math.inf, 0: math.nan, 4: math.nan}, 3, 0.0, 4.0),
], ids=["nan", "inf", "both-infs", "nan-and-inf", "nan-first"])
def test_scan_names_the_planes_where_the_information_is_not_finite(bad, count, first, last):
    """NaN alone, inf alone or both, wherever they sit among finite
    values (including values that would fail the other checks): a
    ``NumericalLimitError`` naming how many planes and their range."""
    values = np.array([0.5, -1.0, 0.25, 7.0, 0.0])
    for index, value in bad.items():
        values[index] = value
    with pytest.raises(NumericalLimitError) as excinfo:
        FisherScan(plane_positions=np.arange(5.0), fi_values=values, qfi=1.0)
    assert str(excinfo.value) == (
        f"classical information is not finite at {count} of 5 planes, from "
        f"{first!r} m to {last!r} m: the ray matrix is out of double range there")


@pytest.mark.parametrize("values,parts", [
    ([0.5, -1e-300, 0.25], ["classical information cannot be negative"]),
    ([0.5, 1.0 + 2e-9, 0.25],
     ["classical information exceeds the quantum bound: max F = ", "1.000000002", " > Q = 1.0"]),
])
def test_scan_refuses_negative_information_and_information_above_q(values, parts):
    with pytest.raises(ValueError) as excinfo:
        FisherScan(plane_positions=np.arange(3.0), fi_values=np.array(values), qfi=1.0)
    assert not isinstance(excinfo.value, NumericalLimitError)
    assert str(excinfo.value) == "".join(parts)


def test_scan_accepts_q_within_its_tolerance_and_an_empty_scan():
    scan = FisherScan(plane_positions=[0.0, 1.0], fi_values=[0.0, 1.0 + 5e-10], qfi=1.0)
    assert scan.fi_values.tolist() == [0.0, 1.0 + 5e-10]
    empty = FisherScan(plane_positions=[], fi_values=[], qfi=1.0)
    assert empty.plane_positions.shape == empty.fi_values.shape == (0,)


@pytest.mark.parametrize("planes,values", [
    ([0.0, 1.0], [0.5]),
    ([0.0, 1.0], [[0.5, 0.5]]),
    ([], [0.5]),
    ([0.0], []),
])
def test_scan_refuses_mismatched_shapes(planes, values):
    with pytest.raises(ValueError, match="plane/value shape mismatch"):
        FisherScan(plane_positions=planes, fi_values=values, qfi=1.0)


@pytest.mark.parametrize("qfi", [0.0, -1.0, math.inf, math.nan])
def test_scan_refuses_a_quantum_bound_that_is_not_positive_and_finite(qfi):
    for planes in ([], [0.0]):
        with pytest.raises(ValueError, match="qfi must be positive and finite"):
            FisherScan(plane_positions=planes, fi_values=[0.0] * len(planes), qfi=qfi)


# ---------------------------------------------------------------------------
# Radial structure
# ---------------------------------------------------------------------------


def test_density_integrates_to_total_information():
    z = -HENE.rayleigh_range
    w_sq = beam_width_sq(HENE, z)
    dw_sq = w_sq * 2.0 * wavefront_curvature(HENE, z)
    total, _ = quad(lambda r: 2.0 * math.pi * fi_density(w_sq, dw_sq, r),
                    0.0, 20.0 * math.sqrt(w_sq), epsabs=0.0, epsrel=1e-11, limit=200)
    assert total == pytest.approx(classical_fi_analytic(HENE, z), rel=1e-9)


def test_density_vanishes_on_axis_and_at_the_boundary():
    w_sq, dw_sq = 2.0, 0.7
    r_b = info_boundary(w_sq)
    assert fi_density(w_sq, dw_sq, 0.0) == 0.0
    peak = max(fi_density(w_sq, dw_sq, r) for r in np.linspace(0.0, 3.0, 301))
    assert fi_density(w_sq, dw_sq, r_b) < 1e-25 * peak


def test_info_boundary_is_width_over_sqrt2():
    assert info_boundary(2.0) == pytest.approx(1.0, rel=1e-15)
    assert info_boundary(HENE.waist**2) == pytest.approx(HENE.waist / math.sqrt(2.0), rel=1e-15)


@pytest.mark.parametrize("width_sq", [1.0, 7.613921547934482e-12])
def test_fraction_outside_boundary_is_two_over_e(width_sq):
    fraction = info_fraction_outside(width_sq, info_boundary(width_sq))
    assert fraction == pytest.approx(2.0 / math.e, rel=1e-12)


@pytest.mark.parametrize("r_over_w", [0.0, 0.3, 1.0 / math.sqrt(2.0), 1.0, 1.7, 2.5])
def test_fraction_outside_matches_closed_form(r_over_w):
    """Integrating the radial density from r_b in x = 2 r^2 / w^2 gives
    the fraction e^{-x_b} (1 + x_b^2); on the boundary x_b = 1, so 2/e."""
    w_sq = HENE.waist**2
    r_b = r_over_w * HENE.waist
    x_b = 2.0 * r_b * r_b / w_sq
    closed = math.exp(-x_b) * (1.0 + x_b * x_b)
    assert info_fraction_outside(w_sq, r_b) == pytest.approx(closed, rel=1e-13)


def test_closed_form_fraction_matches_the_quadrature():
    """``info_fraction_beyond`` (what ``fi-density`` writes) against the
    quadrature ratio of ``info_fraction_outside`` over c in [0, 30]."""
    for c in np.linspace(0.0, 30.0, 301):
        r_b = math.sqrt(0.5 * c)
        closed = fisher.info_fraction_beyond(2.0 * r_b * r_b)
        assert closed == pytest.approx(info_fraction_outside(1.0, r_b), rel=1e-13)
    with pytest.raises(ValueError, match="nonnegative"):
        fisher.info_fraction_beyond(-1.0)


def _scalar_intensity(width_sq: float, r: float) -> float:
    return 2.0 / (math.pi * width_sq) * math.exp(-2.0 * r * r / width_sq)


@pytest.mark.parametrize("width_sq", [1e-12, 1e-9, 1e-6, 1e-3, 1.0])
def test_fisher_quadratures_agree_with_scipy_quad(width_sq):
    """The outside-fraction and score integrals of ``fisher``, taken by
    ``scipy.integrate.quad`` on scalar copies of the integrands over
    [0, 20 w] (the tail beyond is below e^-800)."""
    w = math.sqrt(width_sq)

    def oracle(fn, lower, rel_tol):
        value, _ = quad(fn, lower, 20.0 * w, epsabs=0.0, epsrel=rel_tol, limit=200)
        return value

    def shape(r):
        t = 2.0 * r * r / width_sq - 1.0
        return r * _scalar_intensity(width_sq, r) * t * t

    for r_over_w in (0.0, 0.3, 1.0 / math.sqrt(2.0), 1.7):
        r_b = r_over_w * w
        expected = oracle(shape, r_b, 1e-13) / oracle(shape, 0.0, 1e-13)
        assert info_fraction_outside(width_sq, r_b) == pytest.approx(expected, rel=1e-10)

    def width_sq_fn(z):
        return width_sq * (1.0 + z * z)

    for z, step in ((1.0, 1e-6), (0.3, 1e-6), (-2.0, 1e-5)):
        def score(r):
            p = _scalar_intensity(width_sq_fn(z), r)
            if p == 0.0:
                return 0.0
            dp = central_derivative(
                lambda offset: _scalar_intensity(width_sq_fn(z + offset), r), 0.0, step
            )
            return r * dp * dp / p

        # The stencil leaves ~1e-10 relative roundoff in the score.
        numeric = classical_fi_numeric(width_sq_fn, z, step)
        assert numeric == pytest.approx(2.0 * math.pi * oracle(score, 0.0, 1e-10), rel=1e-9)


def test_fraction_outside_validates_inputs():
    with pytest.raises(ValueError):
        info_fraction_outside(-1.0, 0.5)
    with pytest.raises(ValueError):
        info_fraction_outside(1.0, -0.5)


_PUPIL = pupil_field_family(1e-3, 1e7)


def _unit_width_sq(z: float) -> float:
    return beam_width_sq(UNIT, z)


_IMAGE = {"m_sq": 1.0, "waist": 1.0, "rayleigh_range": 1.0, "waist_position": 0.0}
_SEEDS = np.array([1, 2], dtype=np.uint64)
_CALIBRATION = EstimatorCalibration(r_b=1.0, f0=0.5, slope=1.0)


def _trial_config(**fields):
    return TrialConfig(**{"beam": UNIT, "detector_plane": -1.0, "true_delta": 0.0,
                          "n_per_trial": 100, "trials": 2, "estimator": "mle",
                          "base_seed": 0, **fields})


#: Every scalar library input with a finite domain, one row per input:
#: the test id's stem, the call with the value put in, the name the
#: refusal gives, and the sign of the domain (None: any finite value).
_FINITE_DOMAINS = [
    ("beam-wavelength", lambda v: BeamParams(v, 1e-6), "wavelength", "positive"),
    ("beam-waist", lambda v: BeamParams(1e-6, v), "waist", "positive"),
    ("beam-rayleigh", lambda v: BeamParams.from_rayleigh_range(1e-6, v), "rayleigh range",
     "positive"),
    ("beam-rayleigh-wavelength", lambda v: BeamParams.from_rayleigh_range(v, 1.0),
     "wavelength", "positive"),
    ("relay-focal", lambda v: RelaySystem(v, 1.0), "focal length", "nonzero"),
    ("relay-distance", lambda v: RelaySystem(1.0, v), "object distance", None),
    *((f"image-{name}", lambda v, name=name: ImageBeam(**{**_IMAGE, name: v}), name,
       "positive") for name in ("m_sq", "waist", "rayleigh_range")),
    ("image-waist_position", lambda v: ImageBeam(**{**_IMAGE, "waist_position": v}),
     "waist_position", None),
    ("pdf-width", lambda v: intensity_pdf(v, 1.0), "width_sq", "positive"),
    ("pupil-width", lambda v: pupil_field_family(v, 1e7), "pupil width", "positive"),
    ("pupil-wavenumber", lambda v: pupil_field_family(1e-3, v), "wavenumber", "positive"),
    ("scan-qfi", lambda v: FisherScan(plane_positions=[], fi_values=[], qfi=v), "qfi",
     "positive"),
    ("boundary-width", info_boundary, "width_sq", "positive"),
    ("fraction-width", lambda v: info_fraction_outside(v, 0.5), "width_sq", "positive"),
    ("fraction-boundary", lambda v: info_fraction_outside(1.0, v), "boundary radius",
     "nonnegative"),
    ("beyond-c", info_fraction_beyond, "boundary 2 r_b^2 / w^2", "nonnegative"),
    # z is refused before the default step 1e-3 |z| is derived from it.
    ("qfi-z", lambda v: qfi_pure_state(_PUPIL, v), "z", None),
    ("qfi-z-given-step", lambda v: qfi_pure_state(_PUPIL, v, step=1e-4), "z", None),
    ("qfi-step", lambda v: qfi_pure_state(_PUPIL, 0.1, step=v), "step", "positive"),
    ("qfi-scale", lambda v: qfi_pure_state(lambda z: _stating(v, _PUPIL(z)), 0.1),
     "transverse scale", "positive"),
    ("numeric-step", lambda v: classical_fi_numeric(_unit_width_sq, 1.0, v), "step",
     "positive"),
    ("point-wavenumber", lambda v: qfi_point_source(v, 1e-3, 1.0), "wavenumber", "positive"),
    ("point-width", lambda v: qfi_point_source(1e7, v, 1.0), "pupil width", "positive"),
    ("point-distance", lambda v: qfi_point_source(1e7, 1e-3, v), "source distance",
     "nonzero"),
    ("range-detections", lambda v: point_source_range_std(1e7, 1e-3, 1.0, v), "detections",
     "positive"),
    ("range-distance", lambda v: point_source_range_std(1e7, 1e-3, v, 1), "source distance",
     "nonzero"),
    ("rule-scale", stacked_radial_rule, "quadrature scale", "positive"),
    ("calibration-boundary", lambda v: EstimatorCalibration(v, 0.5, 1.0), "boundary radius",
     "positive"),
    ("calibration-slope", lambda v: EstimatorCalibration(1.0, 0.5, v), "slope", "nonzero"),
    ("absolute-total", lambda v: estimate_fraction_absolute([1, 2], _CALIBRATION, v),
     "expected_total", "positive"),
    ("trials-plane", lambda v: _trial_config(detector_plane=v), "detector_plane", None),
    ("trials-delta", lambda v: _trial_config(true_delta=v), "true_delta", None),
    ("radii-width", lambda v: sample_radii(v, 10, 0), "width_sq", "positive"),
    ("poisson-mean", lambda v: poisson_counts(v, _SEEDS), "mean", "nonnegative"),
]

#: The value outside each sign's domain that every row is also refused.
_OUT_OF_SIGN = {"positive": ("zero", 0.0), "nonnegative": ("negative", -0.5),
                "nonzero": ("zero", 0.0)}


def _finite_domain_cases():
    """NaN, both infinities and the value out of sign at every row of
    ``_FINITE_DOMAINS``, each with its whole message; then the sampler's
    width (whose +inf is a numerical limit), the local radius rule, and a
    small negative wavelength and step, which the square root of
    ``from_rayleigh_range`` and the score integral's rule gap had refused
    without a name."""
    for stem, call, name, sign in _FINITE_DOMAINS:
        cases = [("nan", math.nan), ("inf", math.inf), ("minus-inf", -math.inf)]
        if sign is not None:
            cases.append(_OUT_OF_SIGN[sign])
        domain = f"{sign} and finite" if sign else "finite"
        for case, value in cases:
            yield pytest.param(lambda call=call, value=value: call(value),
                               f"{name} must be {domain}, got {value}", id=f"{stem}-{case}")
    for case, value in (("nan", math.nan), ("minus-inf", -math.inf), ("zero", 0.0)):
        yield pytest.param(lambda value=value: sample_trials(value, 0.5, [10], _SEEDS[:1]),
                           f"width_sq must be positive and finite, got {value}",
                           id=f"statistics-width-{case}")
    yield pytest.param(lambda: intensity_pdf(1.0, math.nan), "radius must be nonnegative, got nan",
                       id="pdf-radius-nan")
    yield pytest.param(lambda: intensity_pdf(1.0, np.array([0.5, math.nan])),
                       "radius must be nonnegative, got nan", id="pdf-radii-nan")
    yield pytest.param(lambda: BeamParams.from_rayleigh_range(-1e-6, 1.0),
                       "wavelength must be positive and finite, got -1e-06",
                       id="beam-rayleigh-wavelength-small-negative")
    yield pytest.param(lambda: classical_fi_numeric(_unit_width_sq, 1.0, -1e-6),
                       "step must be positive and finite, got -1e-06",
                       id="numeric-step-small-negative")


@pytest.mark.parametrize("call,message", _finite_domain_cases())
def test_radial_routes_reject_non_finite_arguments_by_name(call, message):
    """Every scalar library input outside its finite domain is refused up
    front with a plain ``ValueError`` that names it, in the one format of
    ``numerics.finite_scalar``: not answered (``step=inf`` gave Q = 0,
    ``info_fraction_beyond(inf)`` NaN, ``estimate_fraction_absolute``
    with an infinite total 1.99e-5 for every count), not left to numpy
    (``poisson_counts(nan)``), and not reported as a normalization drift,
    a quadrature gap, a division by zero or a math domain error."""
    with pytest.raises(ValueError) as excinfo:
        call()
    assert type(excinfo.value) is ValueError
    assert str(excinfo.value) == message


#: The integer rules, one row per input: the test id's stem, the call
#: with the value put in, the name the refusal gives, the sign of the
#: domain and its inclusive upper bound (None: the largest double).
_INTEGER_DOMAINS = [
    ("trials-n", lambda v: _trial_config(n_per_trial=v), "n_per_trial", "positive", 2**63 - 1),
    ("trials-trials", lambda v: _trial_config(trials=v), "trials", "positive", 2**32 - 1),
    ("trials-seed", lambda v: _trial_config(base_seed=v), "base_seed", "nonnegative", None),
    ("seeds-base", lambda v: derive_trial_seeds(v, 3), "base_seed", "nonnegative", None),
    ("seeds-trials", lambda v: derive_trial_seeds(0, v), "trials", "nonnegative", 2**32 - 1),
    ("seeds-substream", lambda v: derive_trial_seeds(0, 3, v), "substream", "nonnegative",
     2**32 - 1),
    ("radii-n", lambda v: sample_radii(1.0, v, 0), "photon count n", "nonnegative",
     2**63 - 1),
]


def _refused(stem, case, call, value, name, sign, at_most=None):
    """``call(value)``, refused as ``name`` outside ``sign`` and ``at_most``
    in ``finite_scalar``'s one format."""
    bound = "finite" if at_most is None else f"at most {at_most}"
    domain = f"{sign} and {bound}" if sign else bound
    return pytest.param(lambda: call(value), f"{name} must be {domain}, got {value}",
                        id=f"{stem}-{case}")


def _past_double_range_cases():
    """+-10**400 at ``finite_scalar`` itself, at every row of
    ``_FINITE_DOMAINS`` and at every integer rule; then each integer
    rule's value out of sign and one past its bound, and a negative total
    of ``sample_trials``."""
    rules = [(f"rule-{sign}", lambda v, sign=sign: finite_scalar("x", v, sign), "x", sign)
             for sign in ("positive", "nonnegative", "nonzero", None)]
    for stem, call, name, sign, *at_most in [*rules, *_FINITE_DOMAINS, *_INTEGER_DOMAINS]:
        for case, value in (("plus", 10**400), ("minus", -10**400)):
            yield _refused(stem, case, call, value, name, sign, *at_most)
    for stem, call, name, sign, at_most in _INTEGER_DOMAINS:
        case, value = ("zero", 0) if sign == "positive" else ("negative", -1)
        yield _refused(stem, case, call, value, name, sign, at_most)
        if at_most is not None:
            yield _refused(stem, "past-bound", call, at_most + 1, name, sign, at_most)
    for case, low in (("negative", -1), ("int64-min", -2**63)):
        yield pytest.param(lambda low=low: sample_trials(1.0, 0.5, [3, low], _SEEDS),
                           f"photon counts must be nonnegative and finite, got {low}",
                           id=f"statistics-totals-{case}")


@pytest.mark.parametrize("call,message", _past_double_range_cases())
def test_integers_past_double_range_are_refused_by_name(call, message):
    """An int past double range is not finite: ``finite_scalar`` refuses
    it, and every scalar input it checks, in its one ``ValueError``
    format, never with an ``OverflowError`` from converting it to a
    double.  The integer rules (photons, trials, seeds, substreams) go
    through the same rule with their upper bound."""
    with pytest.raises(ValueError) as excinfo:
        call()
    assert type(excinfo.value) is ValueError
    assert str(excinfo.value) == message


# ---------------------------------------------------------------------------
# Derivative route for arbitrary fields
# ---------------------------------------------------------------------------


def test_pure_state_route_is_flat_for_the_free_beam():
    """Also for 1 um beams whose piston k z reaches ~2e7 rad, where a
    piston rounded into each radius's phase would open the rule gap."""
    beams = [HENE] + [BeamParams.from_rayleigh_range(1e-6, zr) for zr in (1e-3, 1e-2, 1.0)]
    for beam in beams:
        family = gaussian_field_family(beam)
        q = qfi_gaussian(beam)
        zr = beam.rayleigh_range
        for z in (0.0, zr, -zr, 3.0 * zr, -3.0 * zr, 0.37 * zr, -0.37 * zr):
            step = 1e-3 * zr if z == 0.0 else None
            assert qfi_pure_state(family, z, step=step) == pytest.approx(q, rel=1e-8)


def test_pure_state_requires_explicit_step_at_origin():
    with pytest.raises(ValueError):
        qfi_pure_state(gaussian_field_family(UNIT), 0.0)


def _stating(scale, profile):
    """``profile`` as a new function that states ``scale``: how a family
    built in a test passes its width on to ``qfi_pure_state``."""
    def stated(r):
        return profile(r)

    stated.scale = scale
    return stated


def test_pure_state_renormalizes_scaled_families():
    base = gaussian_field_family(UNIT)

    def scaled(z: float):
        inner = base(z)
        return _stating(inner.scale, lambda r: 2.5 * inner(r))

    assert qfi_pure_state(scaled, 1.0) == pytest.approx(qfi_gaussian(UNIT), rel=1e-8)


def test_pure_state_ignores_piston_phase():
    """A huge z-dependent global phase carries no information and must be
    removed by the gauge alignment rather than poisoning the derivative."""
    base = gaussian_field_family(UNIT)

    def spinning(z: float):
        inner = base(z)
        gauge = complex(math.cos(1e6 * z), math.sin(1e6 * z))
        return _stating(inner.scale, lambda r: gauge * inner(r))

    assert qfi_pure_state(spinning, 1.0) == pytest.approx(qfi_gaussian(UNIT), rel=1e-8)


def test_pure_state_is_zero_for_a_frozen_family():
    frozen_profile = gaussian_field_family(UNIT)(0.3)

    def frozen(_z: float):
        return frozen_profile

    assert abs(qfi_pure_state(frozen, 1.0)) <= 1e-12


def test_pure_state_rejects_pathological_profiles():
    """A profile that states no scale is refused by name before it is
    asked for a field, whatever its shape; a family whose fields turn
    through orthogonal modes is refused once the step spans them."""
    for shape in (lambda r: complex(r, 0.0), lambda r: complex(1.0, 0.0)):
        with pytest.raises(ValueError) as excinfo:
            qfi_pure_state(lambda _z, shape=shape: shape, 1.0)
        assert type(excinfo.value) is ValueError
        assert str(excinfo.value) == "transverse scale must be positive and finite, got nan"

    def rotating(z: float):
        """cos z L0 + sin z L1 of two orthonormal radial modes, whose
        envelope e^{-r^2} falls to 1/e at r = 1: Q = 4."""
        def profile(r):
            u = 2.0 * np.asarray(r) ** 2
            return (math.cos(z) + math.sin(z) * (1.0 - u)) * np.exp(-0.5 * u) + 0j
        profile.scale = 1.0
        return profile

    assert qfi_pure_state(rotating, 0.0, step=1e-3) == pytest.approx(4.0, rel=1e-9)
    with pytest.raises(NumericalLimitError, match=f"offset {math.pi / 2!r} nearly orthogonal"):
        qfi_pure_state(rotating, 0.0, step=math.pi / 2)
    # The default step's probe, 1e-3 z ~ pi / 2 away, is nearly orthogonal.
    z = 500.0 * math.pi
    with pytest.raises(NumericalLimitError, match=f"offset {1e-3 * z!r} nearly orthogonal"):
        qfi_pure_state(rotating, z)


@pytest.mark.parametrize("wavenumber,pupil_width", [(1e7, 2e-3), (2.0 * math.pi / 632.8e-9, 5e-4),
                                                  (2.0 * math.pi / 1.064e-6, 5e-3)])
def test_pure_state_step_rule_meets_the_point_source_closed_form(wavenumber, pupil_width):
    """Over pupil phases k w^2 / 2z from 15 to 150 rad, with the probe's
    speed h0 on either side of 0.02 (at phase 20 rad), Q stays within
    1e-8 of k^2 w^4 / (4 z^4)."""
    family = pupil_field_family(pupil_width, wavenumber)
    for phase in [*np.geomspace(15.0, 150.0, 11), 19.9, 20.1]:
        distance = wavenumber * pupil_width * pupil_width / (2.0 * phase)
        assert qfi_pure_state(family, distance) == pytest.approx(
            qfi_point_source(wavenumber, pupil_width, distance), rel=1e-8
        )


@pytest.mark.parametrize(
    "wavenumber,pupil_width,distance",
    [(1e7, 1.0, 2e5), (2.0 * math.pi / 632.8e-9, 2e-3, 0.5), (1e6, 0.05, 10.0),
     (1e6, 0.05, 8.0)],
)
def test_pure_state_matches_point_source_closed_form(wavenumber, pupil_width, distance):
    family = pupil_field_family(pupil_width, wavenumber)
    numeric = qfi_pure_state(family, distance)
    assert numeric == pytest.approx(
        qfi_point_source(wavenumber, pupil_width, distance), rel=1e-6
    )


ORACLE_CASES = [
    (pupil_field_family(1.0, 1e7), 2e5),
    (pupil_field_family(2e-3, 2.0 * math.pi / 632.8e-9), 0.5),
    (pupil_field_family(0.05, 1e6), 10.0),
    (pupil_field_family(0.05, 1e6), 8.0),
] + [
    (gaussian_field_family(HENE), n * HENE.rayleigh_range) for n in (1.0, -1.0, 3.0, -3.0)
]
ORACLE_IDS = ["orbit", "bench", "mid", "mid-z8", "hene+zR", "hene-zR", "hene+3zR", "hene-3zR"]


@pytest.mark.parametrize("family,z", ORACLE_CASES, ids=ORACLE_IDS)
def test_pure_state_rule_matches_adaptive_quadrature(family, z):
    """The fixed radial rule reproduces the adaptive route; both
    share the finite-difference stencil, so the gap is quadrature only."""
    fixed = qfi_pure_state(family, z)
    oracle = adaptive_qfi_pure_state(family, z)
    assert fixed == pytest.approx(oracle, rel=1e-10)


@pytest.mark.parametrize("factor", [10.0, 0.1])
def test_pure_state_rejects_a_mismatched_transverse_scale(factor):
    """A rule sized 10x too wide or too narrow for the pupil cannot
    resolve its inner products, and the gap between the two rules says so."""
    family = pupil_field_family(0.05, 1e6)

    def mismatched(z: float):
        inner = family(z)
        return _stating(factor * inner.scale, inner)

    with pytest.raises(QuadratureError) as excinfo:
        qfi_pure_state(mismatched, 10.0)
    assert excinfo.value.estimate > 1e-3


def _laguerre_gauss_01_family(beam: BeamParams):
    """z -> radial profile of the LG_0^1 mode of ``beam``,

    psi(r) = 2 r / (sqrt(pi) w^2) * exp(-r^2 / w^2)
             * exp(-i (k z + k r^2 C(z) / 2 - 2 gouy)),

    which vanishes on axis, its Gouy phase counted 2p + |l| + 1 = 2 times,
    stating ``scale = w(z)`` as ``gaussian_field_family`` does.  As there,
    the piston k z - 2 gouy is one complex carrier: added to each radius's
    phase it would round every radius by ulp(k z)."""
    k = beam.wavenumber

    def family(z: float):
        w_sq = beam_width_sq(beam, z)
        piston = k * z - 2.0 * gouy_phase(beam, z)
        carrier = 2.0 / (math.sqrt(math.pi) * w_sq) * complex(math.cos(piston),
                                                             -math.sin(piston))
        curv = wavefront_curvature(beam, z)

        def profile(r):
            return carrier * r * np.exp(-r * r / w_sq - 1j * (0.5 * k * r * r * curv))

        profile.scale = math.sqrt(w_sq)
        return profile

    return family


def test_pure_state_meets_the_laguerre_gauss_01_bound():
    """LG_0^1 is dark on axis, and with the width its family states Q is
    flat at (N^2 + 1 - l^2) / (2 z_R^2) = 2 / z_R^2 (N = 2p + |l| + 1),
    within 1e-9 over 200 seeded beams and planes."""
    rng = np.random.default_rng(40)
    for _ in range(200):
        beam = BeamParams.from_rayleigh_range(10.0 ** rng.uniform(-6.5, -5.8),
                                              10.0 ** rng.uniform(-6.0, -3.0))
        zr = beam.rayleigh_range
        z = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 4.0)) * zr
        q = qfi_pure_state(_laguerre_gauss_01_family(beam), z)
        assert q * zr * zr == pytest.approx(2.0, rel=1e-9)


SCALE_CASES = [
    gaussian_field_family(beam)(n * beam.rayleigh_range)
    for beam in (UNIT, HENE, BeamParams.from_rayleigh_range(1e-6, 1.0))
    for n in (0.0, 1.0, -3.0, 0.37)
] + [
    pupil_field_family(width, wavenumber)(distance)
    for width, wavenumber, distance in (
        (1.0, 1e7, 2e5), (2e-3, 2.0 * math.pi / 632.8e-9, 0.5),
        (0.05, 1e6, 8.0), (3e-7, 1e7, 1e-3), (40.0, 1e5, 1e3),
        (1e3, 1e5, 1e4), (1e20, 1e-3, 1e25),
    )
]


@pytest.mark.parametrize("profile", SCALE_CASES)
def test_field_profiles_state_their_one_over_e_radius(profile):
    """Each package profile's ``.scale``, from ~6e-5 m to 1e20 m, is the
    radius where its amplitude falls to 1/e of its axis value, within a
    few ulps."""
    ratio = abs(profile(profile.scale)) / abs(profile(0.0))
    assert ratio == pytest.approx(math.exp(-1.0), rel=4.0 * np.finfo(float).eps)


@pytest.mark.parametrize("profile", SCALE_CASES)
def test_pure_state_asks_a_profile_only_for_the_rule_radii_at_its_scale(profile):
    """No axis value and no search: with an explicit step, the five
    fields of a frozen family are each the profile on the stacked rules
    at the scale it states, and Q is 0."""
    asked = []

    def recording(r):
        asked.append(np.asarray(r).tobytes())
        return profile(r)

    assert qfi_pure_state(lambda _z: _stating(profile.scale, recording), 1.0, step=1e-3) == 0.0
    assert asked == [stacked_radial_rule(profile.scale).tobytes()] * 5


@pytest.mark.parametrize("family,z", ORACLE_CASES, ids=ORACLE_IDS)
def test_pure_state_calls_each_profile_once_per_field(family, z):
    """One call for the central field, one for the default step's probe
    and four for the one stencil."""
    calls = 0

    def counted(zz: float):
        inner = family(zz)

        def profile(r):
            nonlocal calls
            calls += 1
            return inner(r)

        return _stating(inner.scale, profile)

    qfi_pure_state(counted, z)
    assert calls == 6
    calls = 0
    qfi_pure_state(counted, z, step=1e-3 * abs(z))
    assert calls == 5


@pytest.mark.parametrize(
    "amplitude,message,drift",
    [(1e-160, "drifted by", 1e-3), (1e-162, "is not a positive finite number", math.inf)],
)
def test_pure_state_rejects_fields_it_cannot_normalize(amplitude, message, drift):
    """|psi|^2 of a field this faint is subnormal: at 1e-160 its norm
    keeps too few digits to renormalize, at 1e-162 it underflows to 0."""
    base = gaussian_field_family(UNIT)

    def faint(z: float):
        inner = base(z)
        return _stating(inner.scale, lambda r: amplitude * inner(r))

    with pytest.raises(NormalizationDriftError, match=message) as excinfo:
        qfi_pure_state(faint, 1.0)
    assert excinfo.value.drift >= drift


def test_normalization_drift_error_carries_drift():
    err = NormalizationDriftError("drifted", drift=0.25)
    assert err.drift == 0.25


# ---------------------------------------------------------------------------
# Point-source ranging
# ---------------------------------------------------------------------------


def test_point_source_scalings():
    base = qfi_point_source(1e6, 0.05, 10.0)
    assert qfi_point_source(2e6, 0.05, 10.0) == pytest.approx(4.0 * base, rel=1e-14)
    assert qfi_point_source(1e6, 0.1, 10.0) == pytest.approx(16.0 * base, rel=1e-14)
    assert qfi_point_source(1e6, 0.05, 20.0) == pytest.approx(base / 16.0, rel=1e-14)
    assert qfi_point_source(1e6, 0.05, -10.0) == pytest.approx(base, rel=1e-14)


def test_point_source_orbital_reference_numbers():
    assert qfi_point_source(1e7, 1.0, 2e5) == pytest.approx(1.5625e-8, rel=1e-14)
    assert point_source_range_std(1e7, 1.0, 2e5, 1) == pytest.approx(8000.0, rel=1e-14)
    assert point_source_range_std(1e7, 1.0, 2e5, 2_000_000) == pytest.approx(
        8000.0 / math.sqrt(2e6), rel=1e-14
    )


def test_point_source_validation():
    with pytest.raises(ValueError):
        qfi_point_source(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        qfi_point_source(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        qfi_point_source(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        point_source_range_std(1.0, 1.0, 1.0, 0)


@pytest.mark.parametrize(
    ("inputs", "name"),
    [
        ((math.nan, 1.0, 1.0), "wavenumber"),
        ((math.inf, 1.0, 1.0), "wavenumber"),
        ((1.0, math.nan, 1.0), "pupil width"),
        ((1.0, math.inf, 1.0), "pupil width"),
        ((1.0, 1.0, math.nan), "source distance"),
        ((1.0, 1.0, -math.inf), "source distance"),
    ],
)
def test_point_source_rejects_non_finite_inputs(inputs, name):
    domain = "nonzero" if name == "source distance" else "positive"
    message = f"^{name} must be {domain} and finite, got "
    with pytest.raises(ValueError, match=message):
        qfi_point_source(*inputs)
    with pytest.raises(ValueError, match=message):
        point_source_range_std(*inputs, 1)


def test_public_names_resolve():
    import axialfisher

    missing = [name for name in axialfisher.__all__ if not hasattr(axialfisher, name)]
    assert missing == []
