"""Adaptive-quadrature route to the pure-state quantum information, and
the Gaussian beam's field family the tests feed it and the package's
pure-state route.

Every inner product is an adaptive quadrature (``scipy.integrate.quad``)
over [0, 20 s], with s the central profile's ``.scale``, where a field
whose Gaussian envelope falls to 1/e at s has |psi|^2 below e^-800
beyond.  It shares the Richardson formula, the renormalization, the
gauge alignment and the probe that picks the default step with
``fisher.qfi_pure_state``, and nothing of its fixed radial rules
(``numerics.RULES``), so the tests use it as the oracle for those rules.
Its stencil is ``central_derivative``, written out here apart from the
package's ``numerics.stencil_derivative``.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.integrate import quad

from axialfisher.beam_optics import BeamParams, beam_width_sq


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


def gaussian_field_family(beam: BeamParams):
    """z -> complex fundamental-mode profile at axial position z,

    psi(r) = sqrt(2/pi) / w * exp(-r^2 / w^2)
             * exp(-i (k z + k r^2 C(z) / 2 - gouy)),

    normalized so that the integral of |psi|^2 * 2 pi r dr is one, with
    ``.scale`` = w(z) as ``beam_optics``' field contract asks.

    The piston k z - gouy is applied as one complex carrier.  Added to
    each radius's phase it would round every radius by ulp(k z), ~4e-9
    rad at z = 3 m and 1 um wavelength, which no later phase alignment
    removes.  A real rotation turns each field, the same bits at every SIMD
    level (numpy's complex product fuses a multiply-add under AVX2).
    """
    k = beam.wavenumber

    def family(z: float):
        w_sq = beam_width_sq(beam, z)
        piston = k * z - gouy_phase(beam, z)
        carrier = (math.sqrt(2.0 / math.pi) / math.sqrt(w_sq)
                   * complex(math.cos(piston), -math.sin(piston)))
        cos_part, sin_part = carrier.real, carrier.imag
        curv = wavefront_curvature(beam, z)

        def profile(r):
            field = np.asarray(np.exp(-r * r / w_sq - 1j * (0.5 * k * r * r * curv)))
            x, y = field.real, field.imag
            field.real, field.imag = cos_part * x - sin_part * y, cos_part * y + sin_part * x
            return field[()]

        profile.scale = math.sqrt(w_sq)
        return profile

    return family


def central_derivative(fn: Callable[[float], complex], x: float, step: float):
    """First derivative of ``fn`` at ``x`` by Richardson-extrapolated
    central differences: the two-point rules at steps ``step`` and
    ``step / 2`` combined to cancel the leading O(step^2) error, leaving
    O(step^4).  Works unchanged for complex-valued ``fn``."""
    half = 0.5 * step
    coarse = (fn(x + step) - fn(x - step)) / (2.0 * step)
    fine = (fn(x + half) - fn(x - half)) / (2.0 * half)
    return (4.0 * fine - coarse) / 3.0


def _radial_integral(
    fn: Callable[[float], complex], scale: float, rel_tol: float, abs_tol: float = 0.0
) -> complex:
    """integral fn(r) 2 pi r dr over [0, 20 scale]."""
    value, _ = quad(
        lambda r: fn(r) * 2.0 * math.pi * r, 0.0, 20.0 * scale,
        epsabs=abs_tol, epsrel=rel_tol, limit=200, complex_func=True,
    )
    return value


def adaptive_qfi_pure_state(
    field_family,
    z: float,
    step: float | None = None,
    quad_tol: float = 1e-10,
) -> float:
    """Q = 4 (<d_z psi|d_z psi> - |<psi|d_z psi>|^2) by adaptive radial
    quadrature, with the same step rule as ``fisher.qfi_pure_state``: by
    default one probe field at 1e-3 |z| gives the speed sqrt(Q) from its
    Bures angle, and the stencil runs at 0.01 / speed when that step is
    the shorter."""
    refine = step is None
    if step is None:
        step = 1e-3 * abs(z)
    center_raw = field_family(z)
    scale = center_raw.scale

    def normalized(profile):
        norm_sq = _radial_integral(
            lambda r: abs(profile(r)) ** 2, scale, quad_tol
        ).real
        inv = 1.0 / math.sqrt(norm_sq)
        return lambda r: inv * profile(r)

    psi_c = normalized(center_raw)

    def center_overlap(profile) -> complex:
        return _radial_integral(
            lambda r: psi_c(r).conjugate() * profile(r), scale, quad_tol,
            abs_tol=quad_tol,
        )

    def aligned(offset: float):
        profile = normalized(field_family(z + offset))
        overlap = center_overlap(profile)
        gauge = overlap.conjugate() / abs(overlap)
        return lambda r: gauge * profile(r)

    def evaluate(h: float) -> float:
        stencil = {offset: aligned(offset) for offset in (h, -h, 0.5 * h, -0.5 * h)}

        def dpsi(r: float) -> complex:
            return central_derivative(lambda offset: stencil[offset](r), 0.0, h)

        grad_sq = _radial_integral(
            lambda r: abs(dpsi(r)) ** 2, scale, quad_tol
        ).real
        # Absolute floors keep the adaptive rule from chasing pure
        # roundoff in components that vanish by symmetry.
        floor = quad_tol * (1.0 + math.sqrt(max(grad_sq, 0.0)))
        overlap = _radial_integral(
            lambda r: psi_c(r).conjugate() * dpsi(r), scale, quad_tol,
            abs_tol=floor,
        )
        return 4.0 * (grad_sq - abs(overlap) ** 2)

    if not refine:
        return evaluate(step)
    probe = normalized(field_family(z + step))
    speed = 2.0 * math.acos(min(abs(center_overlap(probe)), 1.0)) / step
    return evaluate(0.01 / speed if speed * step > 0.02 else step)
