"""Adaptive-quadrature route to the pure-state quantum information.

This is the route ``fisher.qfi_pure_state`` took before it moved to a
fixed Gauss-Laguerre rule: every inner product is two adaptive ``quad``
calls on scalar complex integrands, each with its own error control.  It
shares the Richardson stencil, the renormalization and the gauge
alignment with the library, and nothing of the radial rule, so the tests
use it as the oracle for that rule.  It is slow (~15 ms a call) and takes
scalar profiles only.
"""

from __future__ import annotations

import math
from typing import Callable

from axialfisher.fisher import _estimate_transverse_scale
from axialfisher.numerics import central_derivative, integral_to_infinity


def _complex_radial_inner(
    left: Callable[[float], complex],
    right: Callable[[float], complex],
    scale: float,
    rel_tol: float,
    abs_tol: float,
) -> complex:
    """<left|right> = integral conj(left) right 2 pi r dr."""

    def real_part(r: float) -> float:
        return (left(r).conjugate() * right(r)).real * 2.0 * math.pi * r

    def imag_part(r: float) -> float:
        return (left(r).conjugate() * right(r)).imag * 2.0 * math.pi * r

    return complex(
        integral_to_infinity(real_part, scale=scale, rel_tol=rel_tol, abs_tol=abs_tol),
        integral_to_infinity(imag_part, scale=scale, rel_tol=rel_tol, abs_tol=abs_tol),
    )


def adaptive_qfi_pure_state(
    field_family,
    z: float,
    step: float | None = None,
    quad_tol: float = 1e-10,
    transverse_scale: float | None = None,
) -> float:
    """Q = 4 (<d_z psi|d_z psi> - |<psi|d_z psi>|^2) by adaptive radial
    quadrature, with the same step default and refinement as
    ``fisher.qfi_pure_state``."""
    refine = step is None
    if step is None:
        step = 1e-3 * abs(z)
    center_raw = field_family(z)
    if transverse_scale is None:
        transverse_scale = _estimate_transverse_scale(center_raw)

    def normalized(profile):
        norm_sq = integral_to_infinity(
            lambda r: abs(profile(r)) ** 2 * 2.0 * math.pi * r,
            scale=transverse_scale,
            rel_tol=quad_tol,
        )
        inv = 1.0 / math.sqrt(norm_sq)
        return lambda r: inv * profile(r)

    psi_c = normalized(center_raw)

    def aligned(offset: float):
        profile = normalized(field_family(z + offset))
        overlap = _complex_radial_inner(
            psi_c, profile, transverse_scale, quad_tol, abs_tol=quad_tol
        )
        gauge = overlap.conjugate() / abs(overlap)
        return lambda r: gauge * profile(r)

    def evaluate(h: float) -> float:
        stencil = {offset: aligned(offset) for offset in (h, -h, 0.5 * h, -0.5 * h)}

        def dpsi(r: float) -> complex:
            return central_derivative(lambda offset: stencil[offset](r), 0.0, h)

        grad_sq = integral_to_infinity(
            lambda r: abs(dpsi(r)) ** 2 * 2.0 * math.pi * r,
            scale=transverse_scale,
            rel_tol=quad_tol,
        )
        # Absolute floors keep the adaptive rule from chasing pure
        # roundoff in components that vanish by symmetry.
        floor = quad_tol * (1.0 + math.sqrt(max(grad_sq, 0.0)))
        overlap = _complex_radial_inner(
            psi_c, dpsi, transverse_scale, quad_tol, abs_tol=floor
        )
        return 4.0 * (grad_sq - abs(overlap) ** 2)

    result = evaluate(step)
    if refine and result > 0.0:
        speed = math.sqrt(result)
        if speed * step > 0.02:
            result = evaluate(0.01 / speed)
    return result
