import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from axialfisher.beam_optics import (
    BeamParams,
    RelaySystem,
    beam_width_sq,
    gaussian_field_family,
    image_beam_width_sq,
    intensity_pdf,
    pupil_field_family,
    ray_matrix,
    ray_width_sq,
    relay_transform,
    wavefront_curvature,
)
from axialfisher import fisher
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
    central_derivative,
    check_rule_gap,
    stacked_radial_rule,
    unit_rule_sums,
)
from pure_state_oracle import adaptive_qfi_pure_state

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


def _per_row_classical_fi(width_sq_fn, z: float, step: float) -> float:
    """``classical_fi_numeric`` with one ``intensity_pdf`` call per
    intensity, the centre and each stencil offset, and the score reduced
    by the same ``unit_rule_sums``."""
    w_sq = width_sq_fn(z)
    offsets = (step, -step, 0.5 * step, -0.5 * step)
    widths_sq = {offset: width_sq_fn(z + offset) for offset in offsets}
    radii = stacked_radial_rule(math.sqrt(w_sq))
    p = intensity_pdf(w_sq, radii)
    dp = central_derivative(
        lambda offset: intensity_pdf(widths_sq[offset], radii), 0.0, step
    )
    score = np.divide(dp * dp, p, out=np.zeros_like(p), where=p > 0.0)
    coarse, fine = (w_sq * unit_rule_sums(score)).tolist()
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


def test_numeric_fallback_on_degenerate_geometry():
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


@pytest.mark.parametrize("call,names", [
    (lambda: qfi_pure_state(_PUPIL, 0.1, step=math.inf), "step must be finite"),
    (lambda: qfi_pure_state(_PUPIL, 0.1, step=math.nan), "step must be positive"),
    (lambda: qfi_pure_state(_PUPIL, 0.1, transverse_scale=math.nan),
     "transverse_scale must be positive"),
    (lambda: qfi_pure_state(_PUPIL, 0.1, transverse_scale=math.inf),
     "transverse_scale must be finite"),
    (lambda: qfi_pure_state(_PUPIL, math.nan), "z must be finite"),
    (lambda: qfi_pure_state(_PUPIL, math.inf, step=1e-4), "z must be finite"),
    (lambda: stacked_radial_rule(math.nan), "quadrature scale must be positive"),
    (lambda: stacked_radial_rule(math.inf), "quadrature scale must be finite"),
    (lambda: stacked_radial_rule(1.0, math.inf), "lower radius must be finite"),
    (lambda: central_derivative(math.sin, 0.0, math.nan),
     "finite-difference step must be positive"),
    (lambda: central_derivative(math.sin, 0.0, math.inf),
     "finite-difference step must be finite"),
    (lambda: info_fraction_outside(math.nan, 0.5), "width_sq must be positive"),
    (lambda: info_fraction_outside(math.inf, 0.5), "width_sq must be finite"),
    (lambda: info_fraction_outside(1.0, math.nan), "boundary radius must be nonnegative"),
    (lambda: info_fraction_outside(1.0, math.inf), "boundary radius must be finite"),
    (lambda: info_boundary(math.nan), "width_sq must be positive"),
    (lambda: info_boundary(math.inf), "width_sq must be finite"),
    (lambda: intensity_pdf(math.nan, 1.0), "width_sq must be positive"),
    (lambda: intensity_pdf(math.inf, 1.0), "width_sq must be finite"),
    (lambda: intensity_pdf(1.0, math.nan), "radius must be nonnegative"),
    (lambda: intensity_pdf(1.0, np.array([0.5, math.nan])), "radius must be nonnegative"),
], ids=["qfi-step-inf", "qfi-step-nan", "qfi-scale-nan", "qfi-scale-inf", "qfi-z-nan",
        "qfi-z-inf", "rule-scale-nan", "rule-scale-inf", "rule-lower-inf",
        "derivative-step-nan", "derivative-step-inf", "fraction-width-nan",
        "fraction-width-inf", "fraction-boundary-nan", "fraction-boundary-inf",
        "boundary-width-nan", "boundary-width-inf", "pdf-width-nan", "pdf-width-inf",
        "pdf-radius-nan", "pdf-radii-nan"])
def test_radial_routes_reject_non_finite_arguments_by_name(call, names):
    """A NaN or infinite argument is refused up front with a plain
    ``ValueError`` that names it, not answered (``step=inf`` gave Q = 0,
    ``info_boundary`` and ``intensity_pdf`` passed NaN and inf through)
    or reported as a normalization drift, a quadrature gap or a profile
    that vanishes on axis."""
    with pytest.raises(ValueError, match=names) as excinfo:
        call()
    assert type(excinfo.value) is ValueError


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


def test_pure_state_renormalizes_scaled_families():
    base = gaussian_field_family(UNIT)

    def scaled(z: float):
        inner = base(z)
        return lambda r: 2.5 * inner(r)

    assert qfi_pure_state(scaled, 1.0) == pytest.approx(qfi_gaussian(UNIT), rel=1e-8)


def test_pure_state_ignores_piston_phase():
    """A huge z-dependent global phase carries no information and must be
    removed by the gauge alignment rather than poisoning the derivative."""
    base = gaussian_field_family(UNIT)

    def spinning(z: float):
        inner = base(z)
        gauge = complex(math.cos(1e6 * z), math.sin(1e6 * z))
        return lambda r: gauge * inner(r)

    assert qfi_pure_state(spinning, 1.0) == pytest.approx(qfi_gaussian(UNIT), rel=1e-8)


def test_pure_state_is_zero_for_a_frozen_family():
    frozen_profile = gaussian_field_family(UNIT)(0.3)

    def frozen(_z: float):
        return frozen_profile

    assert abs(qfi_pure_state(frozen, 1.0)) <= 1e-12


def test_pure_state_rejects_pathological_profiles():
    def vanishing_on_axis(_z: float):
        return lambda r: complex(r, 0.0)

    with pytest.raises(ValueError):
        qfi_pure_state(vanishing_on_axis, 1.0)

    def non_decaying(_z: float):
        return lambda r: complex(1.0, 0.0)

    with pytest.raises(NumericalLimitError):
        qfi_pure_state(non_decaying, 1.0)

    def rotating(z: float):
        """cos z L0 + sin z L1 of two orthonormal radial modes: Q = 4."""
        def profile(r):
            u = 2.0 * np.asarray(r) ** 2
            return (math.cos(z) + math.sin(z) * (1.0 - u)) * np.exp(-0.5 * u) + 0j
        return profile

    assert qfi_pure_state(rotating, 0.0, step=1e-3) == pytest.approx(4.0, rel=1e-9)
    with pytest.raises(NumericalLimitError, match=f"offset {math.pi / 2!r} nearly orthogonal"):
        qfi_pure_state(rotating, 0.0, step=math.pi / 2)
    # The default step's probe, 1e-3 z ~ pi / 2 away, is nearly orthogonal.
    z = 500.0 * math.pi
    with pytest.raises(NumericalLimitError, match=f"offset {1e-3 * z!r} nearly orthogonal"):
        qfi_pure_state(rotating, z)


def test_pure_state_accepts_explicit_transverse_scale():
    family = gaussian_field_family(UNIT)
    w = math.sqrt(beam_width_sq(UNIT, 1.0))
    assert qfi_pure_state(family, 1.0, transverse_scale=w) == pytest.approx(
        qfi_gaussian(UNIT), rel=1e-8
    )


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
    with pytest.raises(QuadratureError) as excinfo:
        qfi_pure_state(family, 10.0, transverse_scale=factor * 0.05)
    assert excinfo.value.estimate > 1e-3


def _doubling_search(profile) -> float | None:
    """The transverse-scale search as a loop of scalar calls: 1e-12 m,
    doubled until |profile| falls below 1/e of its axis value."""
    target = abs(profile(0.0)) / math.e
    r = 1e-12
    for _ in range(120):
        if abs(profile(r)) < target:
            return r
        r *= 2.0
    return None


SCALE_CASES = [
    gaussian_field_family(beam)(n * beam.rayleigh_range)
    for beam in (UNIT, HENE, BeamParams.from_rayleigh_range(1e-6, 1.0))
    for n in (0.0, 1.0, -3.0, 0.37)
] + [
    pupil_field_family(width, wavenumber)(distance)
    for width, wavenumber, distance in (
        (1.0, 1e7, 2e5), (2e-3, 2.0 * math.pi / 632.8e-9, 0.5),
        (0.05, 1e6, 8.0), (3e-7, 1e7, 1e-3), (40.0, 1e5, 1e3),
        # Scales past the first block of the ladder (~1.4e2 m), in the
        # second and in the third.
        (1e3, 1e5, 1e4), (1e20, 1e-3, 1e25),
    )
]


@pytest.mark.parametrize("profile", SCALE_CASES)
def test_transverse_scale_ladder_matches_the_doubling_search(profile):
    assert fisher._estimate_transverse_scale(profile) == _doubling_search(profile)


@pytest.mark.parametrize("profile", SCALE_CASES)
def test_transverse_scale_ladder_asks_for_no_radius_past_the_answers_block(profile):
    """The ladder is walked in blocks and stops at the first block that
    holds a decayed radius: every radius the profile is asked for lies in
    that block or before it."""
    asked = []

    def recording(r):
        asked.append(np.asarray(r))
        return profile(r)

    scale = fisher._estimate_transverse_scale(recording)
    blocks = [block.tolist() for block in fisher._SCALE_BLOCKS]
    last = next(index for index, block in enumerate(blocks) if scale in block)
    assert [r.tolist() for r in asked] == [0.0, *blocks[:last + 1]]


def test_transverse_scale_ladder_is_quiet_where_a_profile_overflows(recwarn):
    """The ladder reaches ~6.6e23 m, far past any scale; a profile that
    overflows out there gives no warning and the same radius."""

    def overflowing(r):
        r = np.asarray(r)
        return np.exp(r - r * r) * np.exp(r) + 0j  # inf * 0 = nan beyond r ~ 710

    def growing(r):
        return np.exp(np.asarray(r, dtype=float) ** 2) + 0j

    assert fisher._estimate_transverse_scale(overflowing) == _doubling_search(overflowing)
    with pytest.raises(NumericalLimitError, match="does not decay"):
        fisher._estimate_transverse_scale(growing)
    assert len(recwarn) == 0


@pytest.mark.parametrize("family,z", ORACLE_CASES, ids=ORACLE_IDS)
def test_pure_state_calls_each_profile_once_per_field(family, z):
    """One call for the axis value, one on the scale ladder, one for the
    central field, one for the default step's probe and four for the one
    stencil."""
    calls = 0

    def counted(zz: float):
        inner = family(zz)

        def profile(r):
            nonlocal calls
            calls += 1
            return inner(r)

        return profile

    qfi_pure_state(counted, z)
    assert calls <= 8
    calls = 0
    qfi_pure_state(counted, z, step=1e-3 * abs(z))
    assert calls == 7


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
        return lambda r: amplitude * inner(r)

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
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        qfi_point_source(*inputs)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        point_source_range_std(*inputs, 1)


def test_public_names_resolve():
    import axialfisher

    missing = [name for name in axialfisher.__all__ if not hasattr(axialfisher, name)]
    assert missing == []
