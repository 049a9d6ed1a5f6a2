"""Adaptive-quadrature route to the pure-state quantum information.

Every inner product is an adaptive quadrature (``scipy.integrate.quad``)
over [0, 20 s], with s the central profile's ``.scale``, where a field
whose Gaussian envelope falls to 1/e at s has |psi|^2 below e^-800
beyond.  It shares
the Richardson stencil, the renormalization, the gauge alignment and the
probe that picks the default step with ``fisher.qfi_pure_state``, and
nothing of its fixed radial rules (``numerics.RULES``), so the tests use
it as the oracle for those rules.
"""

from __future__ import annotations

import math
from typing import Callable

from scipy.integrate import quad

from axialfisher.numerics import central_derivative


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
