"""Shared numerical kernels.

Two tools live here because several physics modules need them in the same
form: an adaptive quadrature for semi-infinite radial integrals, and a
Richardson-extrapolated central difference for axial derivatives.

The radial integrals all have the shape ``integral of f(r) dr from a to
infinity`` with an integrand that decays on a known transverse length
scale.  Mapping ``r = a + scale * t / (1 - t)`` compresses the half-line
onto ``t in [0, 1)`` so that the integrand's mass lands at moderate ``t``
and the adaptive rule can resolve it with a bounded number of panels.
"""

from __future__ import annotations

from typing import Callable

from scipy import integrate

#: Default relative tolerance for radial quadratures.
DEFAULT_REL_TOL = 1e-9

#: Hard cap on adaptive subdivisions.  Hitting it raises QuadratureError
#: instead of silently returning a degraded estimate.
SUBDIVISION_CAP = 200


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance.

    Carries the integrator's achieved error estimate so callers can report
    how far the result was from the request.
    """

    def __init__(self, message: str, estimate: float = float("nan")):
        super().__init__(message)
        self.estimate = estimate


def integral_to_infinity(
    fn: Callable[[float], float],
    scale: float,
    lower: float = 0.0,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = 0.0,
) -> float:
    """Integrate ``fn`` over ``[lower, inf)``.

    Parameters
    ----------
    fn : callable
        Real-valued integrand of one real variable.
    scale : float
        Decay length of the integrand, used to condition the change of
        variable.  Must be positive.
    lower : float
        Lower limit of integration.
    rel_tol, abs_tol : float
        Tolerances handed to the adaptive rule.  ``abs_tol`` defaults to
        zero so the request is purely relative; pass a small floor when
        the integrand itself can be tiny (oscillatory transforms).
    """
    if scale <= 0.0:
        raise ValueError(f"quadrature scale must be positive, got {scale}")
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")

    def mapped(t: float) -> float:
        u = 1.0 - t
        return fn(lower + scale * t / u) * scale / (u * u)

    return _checked_quad(mapped, 0.0, 1.0, rel_tol, abs_tol, "semi-infinite")


def finite_integral(
    fn: Callable[[float], float],
    lower: float,
    upper: float,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = 0.0,
) -> float:
    """Integrate ``fn`` over ``[lower, upper]`` with the same failure
    contract as ``integral_to_infinity``.

    Meant for integrands whose tails are known to underflow before a
    finite cutoff (e.g. Gaussian-windowed oscillatory transforms), where
    an explicit truncation behaves far better than a mapped half-line.
    """
    if not upper > lower:
        raise ValueError(f"need upper > lower, got [{lower}, {upper}]")
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    return _checked_quad(fn, lower, upper, rel_tol, abs_tol, "finite")


def _checked_quad(
    fn: Callable[[float], float], lower: float, upper: float, rel_tol: float,
    abs_tol: float, kind: str,
) -> float:
    """``quad`` over ``[lower, upper]`` that raises ``QuadratureError``
    instead of returning an unconverged value.  ``kind`` names the
    integral in the message."""
    out = integrate.quad(
        fn,
        lower,
        upper,
        epsabs=abs_tol,
        epsrel=rel_tol,
        limit=SUBDIVISION_CAP,
        full_output=True,
    )
    value, estimate = out[0], out[1]
    if len(out) > 3:
        # quad appends an explanation exactly when it could not converge
        raise QuadratureError(
            f"{kind} quadrature did not converge: "
            f"{out[3]} (value={value!r}, error estimate={estimate!r})",
            estimate=estimate,
        )
    return value


def central_derivative(fn: Callable[[float], float], x: float, step: float):
    """First derivative of ``fn`` at ``x`` by Richardson-extrapolated
    central differences.

    Combines the two-point rule at steps ``step`` and ``step / 2`` to
    cancel the leading O(step^2) error, leaving O(step^4).  Works
    unchanged for complex-valued ``fn``.
    """
    if step <= 0.0:
        raise ValueError(f"finite-difference step must be positive, got {step}")
    coarse = (fn(x + step) - fn(x - step)) / (2.0 * step)
    half = 0.5 * step
    fine = (fn(x + half) - fn(x - half)) / (2.0 * half)
    return (4.0 * fine - coarse) / 3.0
