"""Gaussian-beam geometry and the field models built on it.

Everything here works in SI units: lengths in meters, wavenumbers in
inverse meters.  Angles and phases are radians.  The axial coordinate
``z`` is measured from the beam waist, positive in the propagation
direction; image-side coordinates ``z'`` are measured from the lens.

The fundamental mode is parameterized by wavelength and waist radius
alone.  Every derived quantity (wavenumber, Rayleigh range, width,
curvature, Gouy phase) comes out of those two numbers, which keeps the
types free of redundant, possibly inconsistent state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import libm_exp


@dataclass(frozen=True)
class BeamParams:
    """Fundamental Gaussian mode: wavelength and waist radius, in meters."""

    wavelength: float
    waist: float

    def __post_init__(self) -> None:
        if not (self.wavelength > 0.0 and math.isfinite(self.wavelength)):
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")
        if not (self.waist > 0.0 and math.isfinite(self.waist)):
            raise ValueError(f"waist must be positive, got {self.waist}")

    @classmethod
    def from_rayleigh_range(cls, wavelength: float, rayleigh_range: float) -> "BeamParams":
        """Build the mode whose Rayleigh range is ``rayleigh_range``.

        Convenience for configurations quoted as (wavelength, z_R); the
        waist is w0 = sqrt(z_R * wavelength / pi).
        """
        if not (rayleigh_range > 0.0 and math.isfinite(rayleigh_range)):
            raise ValueError(f"rayleigh range must be positive, got {rayleigh_range}")
        return cls(wavelength, math.sqrt(rayleigh_range * wavelength / math.pi))

    @property
    def wavenumber(self) -> float:
        """k = 2 pi / wavelength."""
        return 2.0 * math.pi / self.wavelength

    @property
    def rayleigh_range(self) -> float:
        """z_R = pi * waist^2 / wavelength."""
        return math.pi * (self.waist * self.waist) / self.wavelength


@dataclass(frozen=True)
class RelaySystem:
    """A thin lens of focal length ``focal_length`` placed a distance
    ``object_distance`` from the beam waist it images."""

    focal_length: float
    object_distance: float

    def __post_init__(self) -> None:
        if self.focal_length == 0.0 or not math.isfinite(self.focal_length):
            raise ValueError(f"focal length must be finite and nonzero, got {self.focal_length}")
        if not math.isfinite(self.object_distance):
            raise ValueError(f"object distance must be finite, got {self.object_distance}")


@dataclass(frozen=True)
class ImageBeam:
    """Gaussian beam on the image side of a relay.

    ``waist_position`` is measured from the lens; ``m_sq`` is the
    magnification squared that maps object-side lengths to image-side
    lengths (waist area and Rayleigh range both scale by it).
    """

    m_sq: float
    waist: float
    rayleigh_range: float
    waist_position: float

    def __post_init__(self) -> None:
        if self.m_sq <= 0.0:
            raise ValueError(f"m_sq must be positive, got {self.m_sq}")
        if self.waist <= 0.0 or self.rayleigh_range <= 0.0:
            raise ValueError("image waist and rayleigh range must be positive")


def ray_matrix(relay: RelaySystem | None, plane: float) -> tuple[float, float]:
    """Elements (A, B) of the ray-transfer matrix from the beam waist to
    a detector plane.

    Free space (``relay`` None, ``plane`` measured from the waist) gives
    A = 1, B = z.  Behind a thin lens (``plane`` measured from the lens),
    with s = object_distance - f and u = z' - f,

        A = -u / f,    B = (f^2 - s u) / f.

    Moving the object by delta (the waist-to-lens distance, or z in free
    space) leaves A unchanged and sends B to B + A delta.  B is written in
    focal coordinates on purpose: the expanded form d + z' - d z' / f
    cancels catastrophically at high magnification.
    """
    if relay is None:
        return 1.0, plane
    f = relay.focal_length
    s = relay.object_distance - f
    u = plane - f
    return -u / f, (f * f - s * u) / f


def ray_width_sq(beam: BeamParams, a: float, b: float) -> float:
    """Squared width behind the ray matrix (A, B) from the waist.

    w^2 = w0^2 * (A^2 + (B / z_R)^2)  (Kogelnik & Li, Appl. Opt. 1966)
    """
    b_zr = b / beam.rayleigh_range
    return beam.waist * beam.waist * (a * a + b_zr * b_zr)


def beam_width_sq(beam: BeamParams, z: float) -> float:
    """Squared 1/e^2 intensity radius at axial position z.

    w^2(z) = w0^2 * (1 + (z / z_R)^2)
    """
    return ray_width_sq(beam, 1.0, z)


def wavefront_curvature(beam: BeamParams, z: float) -> float:
    """Wavefront curvature C(z) = z / (z^2 + z_R^2), in 1/m.

    This is 1/R(z) written without the coordinate singularity the radius
    form has at the waist: C(0) = 0, and |C| peaks at z = +-z_R with
    value 1 / (2 z_R).
    """
    zr = beam.rayleigh_range
    return z / (z * z + zr * zr)


def gouy_phase(beam: BeamParams, z: float) -> float:
    """Gouy phase arctan(z / z_R), radians."""
    return math.atan2(z, beam.rayleigh_range)


def intensity_pdf(width_sq: float, r):
    """Normalized transverse intensity at radius r (a float or an array
    of radii) for a beam of squared width ``width_sq``.

    p(r) = 2 / (pi w^2) * exp(-2 r^2 / w^2), with
    integral of p(r) * 2 pi r dr over [0, inf) equal to one.  The
    exponential is ``numerics.libm_exp``, the same bits on every CPU.  A
    ``width_sq`` that is not a positive finite number, or a radius that
    is negative or NaN, raises ``ValueError``.
    """
    if not width_sq > 0.0:
        raise ValueError(f"width_sq must be positive, got {width_sq}")
    if not math.isfinite(width_sq):
        raise ValueError(f"width_sq must be finite, got {width_sq}")
    if not np.all(np.asarray(r) >= 0.0):
        raise ValueError(f"radius must be nonnegative, got {np.min(r)}")
    return 2.0 / (math.pi * width_sq) * libm_exp(-2.0 * r * r / width_sq)


def relay_transform(beam: BeamParams, relay: RelaySystem) -> ImageBeam:
    """Image-side Gaussian parameters produced by a thin-lens relay.

    With s = object_distance - focal_length,

        m^2  = f^2 / (s^2 + z_R^2)
        w0'  = m * w0
        z_R' = m^2 * z_R
        z0'  = m^2 * s + f   (image waist position, from the lens)

    The transform is exact for the fundamental mode; no geometric-optics
    approximation is taken, so it stays finite at s = 0 where the
    geometric image runs off to infinity.  It describes the image-side
    beam; the information and estimator code works from ``ray_matrix``
    instead, and this route is kept as its independent cross-check.
    """
    f = relay.focal_length
    s = relay.object_distance - f
    zr = beam.rayleigh_range
    m_sq = f * f / (s * s + zr * zr)
    m = math.sqrt(m_sq)
    return ImageBeam(
        m_sq=m_sq,
        waist=m * beam.waist,
        rayleigh_range=m_sq * zr,
        waist_position=m_sq * s + f,
    )


def image_beam_width_sq(image: ImageBeam, z_prime: float) -> float:
    """Squared width of the relayed beam at image-side position z'."""
    tau = (z_prime - image.waist_position) / image.rayleigh_range
    return image.waist * image.waist * (1.0 + tau * tau)


# ---------------------------------------------------------------------------
# Complex field models, one constructor per physical field.  Only
# ``fisher.qfi_pure_state`` reads field values; everything else works with
# intensities.  A family maps an axial position to a profile, and a profile
# takes a radius or an array of radii and returns the complex field with
# the same shape.
# ---------------------------------------------------------------------------

FieldProfile = Callable[[float | np.ndarray], complex | np.ndarray]
FieldFamily = Callable[[float], FieldProfile]


def gaussian_field_family(beam: BeamParams) -> FieldFamily:
    """z -> complex fundamental-mode profile at axial position z,

    psi(r) = sqrt(2/pi) / w * exp(-r^2 / w^2)
             * exp(-i (k z + k r^2 C(z) / 2 - gouy)),

    normalized so that the integral of |psi|^2 * 2 pi r dr is one.

    The piston k z - gouy is applied as one complex carrier.  Added to
    each radius's phase it would round every radius by ulp(k z), ~4e-9
    rad at z = 3 m and 1 um wavelength, which no later phase alignment
    removes.
    """
    k = beam.wavenumber

    def family(z: float) -> FieldProfile:
        w_sq = beam_width_sq(beam, z)
        piston = k * z - gouy_phase(beam, z)
        carrier = (math.sqrt(2.0 / math.pi) / math.sqrt(w_sq)
                   * complex(math.cos(piston), -math.sin(piston)))
        curv = wavefront_curvature(beam, z)

        def profile(r):
            return carrier * np.exp(-r * r / w_sq - 1j * (0.5 * k * r * r * curv))

        return profile

    return family


def pupil_field_family(pupil_width: float, wavenumber: float) -> FieldFamily:
    """z -> complex profile of a Gaussian-apodized pupil lit by a point
    source a distance z in front of it,

    psi(r) = sqrt(2 / (pi w^2)) * exp(-r^2 / w^2 - i k r^2 / (2 z)).

    The intensity does not depend on z: all distance information lives in
    the quadratic phase.  Width and wavenumber must be positive and
    finite; a source in the pupil plane (z = 0) has no finite phase and
    is rejected when its profile is asked for.
    """
    if not (pupil_width > 0.0 and math.isfinite(pupil_width)):
        raise ValueError(f"pupil width must be positive and finite, got {pupil_width}")
    if not (wavenumber > 0.0 and math.isfinite(wavenumber)):
        raise ValueError(f"wavenumber must be positive and finite, got {wavenumber}")
    w_sq = pupil_width * pupil_width
    amp = math.sqrt(2.0 / (math.pi * w_sq))

    def family(z: float) -> FieldProfile:
        if z == 0.0:
            raise ValueError("a source in the pupil plane makes the quadratic phase diverge")
        # -r^2 / w^2 - i k r^2 / (2 z), both quadratic in r: one complex
        # factor of r^2, folded once per field.
        exponent = complex(-1.0 / w_sq, -wavenumber / (2.0 * z))

        def profile(r):
            return amp * np.exp(exponent * (r * r))

        return profile

    return family
