import math

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
from pure_state_oracle import gaussian_field_family, gouy_phase, wavefront_curvature

HENE = BeamParams(632.8e-9, 1.951143452944258e-06)

# Dimensionless reference beam: waist 1, wavelength pi, so z_R = 1 and k = 2.
UNIT = BeamParams(math.pi, 1.0)


def radial_integral(fn, scale):
    """integral fn(r) 2 pi r dr by ``scipy.integrate.quad`` over
    [0, 20 scale]; for a Gaussian spot of 1/e^2 radius ``scale`` the tail
    beyond is below e^-800."""
    value, _ = quad(lambda r: fn(r) * 2.0 * math.pi * r, 0.0, 20.0 * scale,
                    epsabs=0.0, epsrel=1e-12, limit=200)
    return value


def test_derived_quantities():
    assert UNIT.rayleigh_range == pytest.approx(1.0, rel=1e-15)
    assert UNIT.wavenumber == pytest.approx(2.0, rel=1e-15)
    assert HENE.rayleigh_range == pytest.approx(18.9e-6, rel=1e-12)


def test_rayleigh_range_squares_the_waist_by_multiplication():
    """pi w0^2 / lambda with w0^2 = w0 * w0, the correctly rounded square,
    bit for bit on seeded waists; on some of them libm's pow (``**``)
    rounds the square differently."""
    rng = np.random.default_rng(54)
    waists = 10.0 ** rng.uniform(-150.0, 150.0, 20_000)
    assert any(float(w) ** 2 != float(w) * float(w) for w in waists)
    for w in waists.tolist():
        assert BeamParams(632.8e-9, w).rayleigh_range == math.pi * (w * w) / 632.8e-9


def test_from_rayleigh_range_round_trips():
    beam = BeamParams.from_rayleigh_range(632.8e-9, 18.9e-6)
    assert beam.rayleigh_range == pytest.approx(18.9e-6, rel=1e-15)
    assert beam.wavelength == 632.8e-9


@pytest.mark.parametrize("rayleigh_range", [math.nan, math.inf])
def test_from_rayleigh_range_names_a_bad_rayleigh_range(rayleigh_range):
    message = f"^rayleigh range must be positive and finite, got {rayleigh_range}$"
    with pytest.raises(ValueError, match=message):
        BeamParams.from_rayleigh_range(632.8e-9, rayleigh_range)


@pytest.mark.parametrize("wavelength,waist", [(0.0, 1.0), (-1e-6, 1.0), (1e-6, 0.0), (1e-6, -1.0)])
def test_rejects_nonpositive_parameters(wavelength, waist):
    with pytest.raises(ValueError):
        BeamParams(wavelength, waist)


def test_width_doubles_at_rayleigh_range():
    w0_sq = UNIT.waist**2
    assert beam_width_sq(UNIT, 0.0) == w0_sq
    assert beam_width_sq(UNIT, 1.0) == pytest.approx(2.0 * w0_sq, rel=1e-15)
    assert beam_width_sq(UNIT, -1.0) == pytest.approx(2.0 * w0_sq, rel=1e-15)


@given(z=st.floats(-50.0, 50.0))
def test_width_is_even_and_bounded_below(z):
    assert beam_width_sq(UNIT, z) == beam_width_sq(UNIT, -z)
    assert beam_width_sq(UNIT, z) >= UNIT.waist**2


def test_curvature_shape():
    """C(z) = z / (z^2 + z_R^2): odd, zero at the waist, extremal at z_R."""
    assert wavefront_curvature(UNIT, 0.0) == 0.0
    assert wavefront_curvature(UNIT, 1.0) == pytest.approx(0.5, rel=1e-15)
    assert wavefront_curvature(UNIT, -1.0) == pytest.approx(-0.5, rel=1e-15)
    assert wavefront_curvature(UNIT, 3.0) == pytest.approx(0.3, rel=1e-15)


@given(z=st.floats(-50.0, 50.0))
def test_gouy_phase_is_odd_and_bounded(z):
    assert gouy_phase(UNIT, z) == -gouy_phase(UNIT, -z)
    assert abs(gouy_phase(UNIT, z)) < math.pi / 2.0


@pytest.mark.parametrize("width_sq", [1e-12, 1.0, 7.613921547934482e-12])
def test_intensity_pdf_normalized(width_sq):
    total = radial_integral(lambda r: intensity_pdf(width_sq, r), math.sqrt(width_sq))
    assert total == pytest.approx(1.0, rel=1e-10)


def test_intensity_pdf_peak_value():
    assert intensity_pdf(4.0, 0.0) == pytest.approx(2.0 / (math.pi * 4.0), rel=1e-15)


def test_relay_transform_reference_case():
    # f = 1, object at z = 5, z_R = 1: m^2 = 1/17, image waist at 21/17.
    image = relay_transform(UNIT, RelaySystem(1.0, 5.0))
    assert image.m_sq == pytest.approx(1.0 / 17.0, rel=1e-14)
    assert image.waist == pytest.approx(1.0 / math.sqrt(17.0), rel=1e-14)
    assert image.rayleigh_range == pytest.approx(1.0 / 17.0, rel=1e-14)
    assert image.waist_position == pytest.approx(21.0 / 17.0, rel=1e-14)


@pytest.mark.parametrize("field,value", [
    ("m_sq", 0.0), ("m_sq", math.nan), ("m_sq", math.inf), ("waist", math.nan),
    ("waist", math.inf), ("rayleigh_range", math.nan), ("rayleigh_range", math.inf),
    ("waist_position", math.nan), ("waist_position", -math.inf),
])
def test_image_beam_names_a_field_that_is_not_a_finite_number(field, value):
    fields = {"m_sq": 1.0, "waist": 1.0, "rayleigh_range": 1.0, "waist_position": 0.0}
    with pytest.raises(ValueError, match=f"^{field} must be .*, got {value}$"):
        ImageBeam(**{**fields, field: value})


def test_relay_transform_refuses_an_image_beam_out_of_double_range():
    """f^2 overflows at f = 1e200, so m^2 is inf and the image-side
    waist position inf - inf; the transform refuses it instead of
    returning an ``ImageBeam`` of infinities and NaN."""
    with pytest.raises(ValueError, match="^m_sq must be positive and finite, got inf$"):
        relay_transform(BeamParams(632.8e-9, 1.95e-6), RelaySystem(1e200, 1e200))


def test_image_width_at_image_waist():
    image = relay_transform(UNIT, RelaySystem(1.0, 5.0))
    assert image_beam_width_sq(image, image.waist_position) == pytest.approx(
        image.waist**2, rel=1e-15
    )
    one_range_out = image.waist_position + image.rayleigh_range
    assert image_beam_width_sq(image, one_range_out) == pytest.approx(
        2.0 * image.waist**2, rel=1e-14
    )


def test_ray_matrix_reference_case():
    # Free space is a plain gap; behind f = 1 with the object at 5 the
    # geometric image (B = 0) sits at 5/4 and the back focal plane has A = 0.
    assert ray_matrix(None, 0.3) == (1.0, 0.3)
    assert ray_matrix(RelaySystem(1.0, 5.0), 1.25) == (-0.25, 0.0)
    assert ray_matrix(RelaySystem(1.0, 5.0), 1.0) == (0.0, 1.0)
    assert ray_width_sq(UNIT, 1.0, 1.0) == beam_width_sq(UNIT, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    log_zr=st.floats(-5.0, 0.0),
    focal_sign=st.sampled_from([-1.0, 1.0]),
    log_magnification=st.floats(-1.0, math.log10(20.0)),
    s_over_zr=st.floats(-50.0, 50.0),
    tau=st.floats(-8.0, 8.0),
)
def test_ray_width_matches_the_image_beam(log_zr, focal_sign, log_magnification, s_over_zr, tau):
    """The ray-matrix width law and the image-beam transform are two
    routes to the same relayed width, for lenses of either sign up to
    20x magnification."""
    beam = BeamParams.from_rayleigh_range(632.8e-9, 10.0**log_zr)
    zr = beam.rayleigh_range
    s = s_over_zr * zr
    f = focal_sign * 10.0**log_magnification * math.hypot(s, zr)
    relay = RelaySystem(f, f + s)
    image = relay_transform(beam, relay)
    plane = image.waist_position + tau * image.rayleigh_range
    assert ray_width_sq(beam, *ray_matrix(relay, plane)) == pytest.approx(
        image_beam_width_sq(image, plane), rel=1e-12
    )


def test_relay_rejects_zero_focal_length():
    with pytest.raises(ValueError):
        RelaySystem(0.0, 1.0)


def test_object_at_focal_plane_gives_unit_magnification_when_zr_matches():
    # s = 0: m^2 = f^2 / z_R^2 regardless of sign conventions.
    image = relay_transform(UNIT, RelaySystem(2.0, 2.0))
    assert image.m_sq == pytest.approx(4.0, rel=1e-15)


def test_pupil_phase_is_quadratic():
    """Relative to the axis the phase is -k r^2 / (2 z), on either side
    of the pupil."""
    for z in (10.0, -4.0):
        profile = pupil_field_family(0.05, 1e6)(z)
        for r in (0.005, 0.02):
            relative = profile(r) / profile(0.0)
            phase = 1e6 * r * r / (2.0 * z)
            assert abs(relative) == pytest.approx(math.exp(-r * r / 0.05**2), rel=1e-14)
            assert relative.real == pytest.approx(abs(relative) * math.cos(phase), abs=1e-12)
            assert relative.imag == pytest.approx(-abs(relative) * math.sin(phase), abs=1e-12)


def test_pupil_family_rejects_a_source_in_the_pupil_plane():
    family = pupil_field_family(0.05, 1e6)
    with pytest.raises(ValueError, match="pupil plane"):
        family(0.0)


@pytest.mark.parametrize("width,wavenumber,what", [
    (0.0, 1e6, "pupil width"), (-0.05, 1e6, "pupil width"),
    (math.inf, 1e6, "pupil width"), (math.nan, 1e6, "pupil width"),
    (0.05, 0.0, "wavenumber"), (0.05, -1e6, "wavenumber"),
    (0.05, math.inf, "wavenumber"), (0.05, math.nan, "wavenumber"),
])
def test_pupil_family_rejects_a_bad_width_or_wavenumber(width, wavenumber, what):
    with pytest.raises(ValueError, match=what):
        pupil_field_family(width, wavenumber)


def test_pupil_intensity_does_not_depend_on_distance():
    family = pupil_field_family(0.05, 1e6)
    near, far = family(3.0), family(3000.0)
    for r in (0.0, 0.01, 0.08):
        # |amp e^(-i phase)| rounds differently as the phase changes.
        assert abs(near(r)) ** 2 == pytest.approx(abs(far(r)) ** 2, rel=1e-15)


def test_gaussian_field_matches_intensity():
    """|psi|^2 must reproduce the normalized intensity profile."""
    z = 0.7
    w_sq = beam_width_sq(UNIT, z)
    profile = gaussian_field_family(UNIT)(z)
    for r in (0.0, 0.3, 1.0, 2.2):
        assert abs(profile(r)) ** 2 == pytest.approx(intensity_pdf(w_sq, r), rel=1e-13)


def test_gaussian_field_is_normalized():
    profile = gaussian_field_family(HENE)(2.0 * HENE.rayleigh_range)
    w = math.sqrt(beam_width_sq(HENE, 2.0 * HENE.rayleigh_range))
    total = radial_integral(lambda r: abs(profile(r)) ** 2, w)
    assert total == pytest.approx(1.0, rel=1e-10)


def test_gaussian_field_has_flat_wavefront_at_waist():
    profile = gaussian_field_family(UNIT)(0.0)
    reference = profile(0.0)
    for r in (0.2, 0.9, 1.7):
        relative = profile(r) / reference
        assert relative.imag == pytest.approx(0.0, abs=1e-15)
        assert relative.real > 0.0


def test_pupil_field_magnitude_and_normalization():
    profile = pupil_field_family(0.05, 1e6)(10.0)
    total = radial_integral(lambda r: abs(profile(r)) ** 2, 0.05)
    assert total == pytest.approx(1.0, rel=1e-10)
    for r in (0.0, 0.03, 0.09):
        assert abs(profile(r)) ** 2 == pytest.approx(intensity_pdf(0.05**2, r), rel=1e-13)


@pytest.mark.parametrize(
    "profile,width",
    [
        (gaussian_field_family(HENE)(0.0), HENE.waist),
        (gaussian_field_family(HENE)(-HENE.rayleigh_range), 2.0**0.5 * HENE.waist),
        (gaussian_field_family(UNIT)(3.0), 10.0**0.5),
        (pupil_field_family(0.05, 1e6)(10.0), 0.05),
    ],
    ids=["hene-waist", "hene-zR", "unit-3zR", "pupil"],
)
def test_field_profiles_take_arrays_of_radii(profile, width):
    radii = np.linspace(0.0, 5.0 * width, 41)
    together = profile(radii)
    one_by_one = np.array([profile(float(r)) for r in radii])
    assert together.shape == radii.shape
    assert np.all(np.abs(together - one_by_one) <= 1e-15 * np.abs(one_by_one))
