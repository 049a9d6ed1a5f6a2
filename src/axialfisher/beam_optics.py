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
        if rayleigh_range <= 0.0:
            raise ValueError(f"rayleigh range must be positive, got {rayleigh_range}")
        return cls(wavelength, math.sqrt(rayleigh_range * wavelength / math.pi))

    @property
    def wavenumber(self) -> float:
        """k = 2 pi / wavelength."""
        return 2.0 * math.pi / self.wavelength

    @property
    def rayleigh_range(self) -> float:
        """z_R = pi * waist^2 / wavelength."""
        return math.pi * self.waist**2 / self.wavelength


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


@dataclass(frozen=True)
class PupilField:
    """Gaussian-apodized pupil illuminated by a point source.

    The source sits a distance ``source_distance`` in front of the pupil;
    ``focal_length`` shifts the origin of the quadratic phase, and zero is
    a valid value (bare spherical wavefront).  The intensity profile is
    independent of the source distance: all distance information lives in
    the quadratic phase.
    """

    pupil_width: float
    wavenumber: float
    source_distance: float
    focal_length: float = 0.0

    def __post_init__(self) -> None:
        if self.pupil_width <= 0.0:
            raise ValueError(f"pupil width must be positive, got {self.pupil_width}")
        if self.wavenumber <= 0.0:
            raise ValueError(f"wavenumber must be positive, got {self.wavenumber}")
        if self.source_distance == self.focal_length:
            raise ValueError(
                "source distance equal to focal length makes the quadratic phase diverge"
            )


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
    zr = beam.rayleigh_range
    return beam.waist**2 * (a * a + (b / zr) ** 2)


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
    integral of p(r) * 2 pi r dr over [0, inf) equal to one.
    """
    if width_sq <= 0.0:
        raise ValueError(f"width_sq must be positive, got {width_sq}")
    if np.any(np.asarray(r) < 0.0):
        raise ValueError(f"radius must be nonnegative, got {np.min(r)}")
    return 2.0 / (math.pi * width_sq) * np.exp(-2.0 * r * r / width_sq)


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
    return image.waist**2 * (1.0 + tau * tau)


def pupil_phase(pupil: PupilField, r: float) -> float:
    """Quadratic phase k r^2 / (2 (z - f)) carried by the pupil field."""
    return (
        pupil.wavenumber
        * r
        * r
        / (2.0 * (pupil.source_distance - pupil.focal_length))
    )


# ---------------------------------------------------------------------------
# Complex field models.  Only the two places that need actual field values
# (the pupil and the generator/derivative checks) use these; everything
# else works with intensities.  A profile takes a radius or an array of
# radii and returns the complex field with the same shape.
# ---------------------------------------------------------------------------

FieldProfile = Callable[[float | np.ndarray], complex | np.ndarray]
FieldFamily = Callable[[float], FieldProfile]


def gaussian_field(beam: BeamParams, z: float) -> FieldProfile:
    """Complex fundamental-mode profile at axial position z.

    psi(r) = sqrt(2/pi) / w * exp(-r^2 / w^2)
             * exp(-i (k z + k r^2 C(z) / 2 - gouy))

    normalized so that the integral of |psi|^2 * 2 pi r dr is one.
    """
    w_sq = beam_width_sq(beam, z)
    w = math.sqrt(w_sq)
    amp = math.sqrt(2.0 / math.pi) / w
    curv = wavefront_curvature(beam, z)
    k = beam.wavenumber
    piston = k * z - gouy_phase(beam, z)

    def profile(r):
        return amp * np.exp(-r * r / w_sq - 1j * (piston + 0.5 * k * r * r * curv))

    return profile


def gaussian_field_family(beam: BeamParams) -> FieldFamily:
    """z -> radial complex profile, for derivative-based information checks."""

    def family(z: float) -> FieldProfile:
        return gaussian_field(beam, z)

    return family


def pupil_field(pupil: PupilField) -> FieldProfile:
    """Complex pupil-plane profile for a point source at ``source_distance``."""
    w_sq = pupil.pupil_width**2
    amp = math.sqrt(2.0 / (math.pi * w_sq))

    def profile(r):
        return amp * np.exp(-r * r / w_sq - 1j * pupil_phase(pupil, r))

    return profile


def pupil_field_family(
    pupil_width: float, wavenumber: float, focal_length: float = 0.0
) -> FieldFamily:
    """z -> pupil profile with the source at distance z."""

    def family(z: float) -> FieldProfile:
        return pupil_field(
            PupilField(
                pupil_width=pupil_width,
                wavenumber=wavenumber,
                source_distance=z,
                focal_length=focal_length,
            )
        )

    return family
