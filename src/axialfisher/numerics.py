"""Shared numerical kernels.

Three tools live here because several physics modules need them in the
same form: an adaptive quadrature for semi-infinite radial integrals, a
fixed Gauss-Laguerre rule for Gaussian-windowed radial inner products,
and a Richardson-extrapolated central difference for axial derivatives.

The radial integrals all have the shape ``integral of f(r) dr from a to
infinity`` with an integrand that decays on a known transverse length
scale.  Mapping ``r = a + scale * t / (1 - t)`` compresses the half-line
onto ``t in [0, 1)`` so that the integrand's mass lands at moderate ``t``
and the adaptive rule can resolve it with a bounded number of panels.

``scipy.integrate`` is imported on first use, not with the package, so
commands that never integrate (the Monte Carlo runs) do not pay for it.
It is bound to this module's ``integrate`` global on first access, and
the adaptive rule reads that global at call time, so rebinding
``numerics.integrate`` (to a tracing proxy, say) takes effect.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

#: Default relative tolerance for radial quadratures.
DEFAULT_REL_TOL = 1e-9

#: Hard cap on adaptive subdivisions.  Hitting it raises QuadratureError
#: instead of silently returning a degraded estimate.
SUBDIVISION_CAP = 200


def __getattr__(name: str):
    # PEP 562: import scipy.integrate on first access and cache it, so the
    # later lookups find the global without coming back here.
    if name == "integrate":
        from scipy import integrate

        globals()["integrate"] = integrate
        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class NumericalLimitError(ValueError):
    """The inputs take a numerical method past what it can do: a draw
    past the sampler's range, a finite-difference stencil whose fields
    are nearly orthogonal, a profile with no transverse scale.

    A ``ValueError``, because a different input is the remedy; the CLI
    still reports it as a numerical failure (exit code 2), not as a
    usage error.
    """


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
    integrate = globals().get("integrate") or __getattr__("integrate")
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


def _laguerre(n: int, u: float) -> tuple[float, float, float]:
    """L_n(u), L_{n-1}(u) and sum_{k<n} L_k(u)^2, by the three-term
    recurrence."""
    prev, cur, sum_sq = 0.0, 1.0, 0.0
    for k in range(n):
        sum_sq += cur * cur
        prev, cur = cur, ((2 * k + 1 - u) * cur - k * prev) / (k + 1)
    return cur, prev, sum_sq


def _zeros_below(n: int, u: float) -> int:
    """Number of zeros of L_n below u: the negative pivots of J - u, with
    J the Jacobi matrix of the Laguerre recurrence (diagonal 2k + 1,
    off-diagonal k), counted as a Sturm sequence."""
    count = 0
    pivot = 1.0 - u
    for k in range(1, n):
        count += pivot < 0.0
        pivot = (2 * k + 1 - u) - k * k / (pivot or 1e-300)
    return count + (pivot < 0.0)


@functools.cache
def _laguerre_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-scale radii and weights of ``radial_rule``; read-only arrays
    because the cache hands the same ones to every caller.

    Each zero u_i of L_n is isolated by bisection on the Sturm count and
    polished by Newton steps (u L_n' = n (L_n - L_{n-1})); its weight is
    the Christoffel number 1 / sum_{k<n} L_k(u_i)^2, a sum of positive
    terms that stays accurate where the zeros crowd near u = 0.  All zeros
    lie below 4n (Gershgorin).  This is plain float arithmetic on purpose:
    numpy's ``laggauss`` solves an eigenproblem through LAPACK, whose first
    call keeps ~1 MB more resident memory for the life of the process.
    """
    n = nodes
    zeros, scaled_weights = [], []
    lo = 0.0
    for i in range(n):
        hi = 4.0 * n
        while hi - lo > 1e-3 * hi:
            mid = 0.5 * (lo + hi)
            if _zeros_below(n, mid) > i:
                hi = mid
            else:
                lo = mid
        u = 0.5 * (lo + hi)
        for _ in range(4):
            ln, lm, _ = _laguerre(n, u)
            u -= u * ln / (n * (ln - lm))
        zeros.append(u)
        scaled_weights.append(math.exp(u) / _laguerre(n, u)[2])
    u = np.array(zeros)
    radii = np.sqrt(0.5 * u)
    weights = 0.5 * np.pi * np.array(scaled_weights)
    radii.flags.writeable = False
    weights.flags.writeable = False
    return radii, weights


def radial_rule(scale: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Radii and weights of the ``nodes``-point Gauss-Laguerre rule for
    ``integral f(r) 2 pi r dr`` over ``[0, inf)``.

    The map u = 2 r^2 / scale^2 turns the measure into
    (pi scale^2 / 2) du, so with Laguerre nodes u_i and weights w_i the
    radii are scale sqrt(u_i / 2) and the weights (pi scale^2 / 2) w_i e^{u_i}.
    The rule is exact when f(r) e^{2 r^2 / scale^2} is a polynomial of
    degree below 2 ``nodes`` in u, and accurate when f is a Gaussian of
    1/e^2 radius ``scale`` (|psi|^2 for a field whose amplitude falls to
    1/e there) times a factor smooth in u.  The caller estimates the
    error by comparing two orders.
    """
    if scale <= 0.0:
        raise ValueError(f"quadrature scale must be positive, got {scale}")
    radii, weights = _laguerre_rule(nodes)
    return scale * radii, (scale * scale) * weights


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
