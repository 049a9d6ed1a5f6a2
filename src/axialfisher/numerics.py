"""Shared numerical kernels.

Four tools live here because several physics modules need them in the
same form: an adaptive Gauss-Kronrod quadrature for radial integrals, a
fixed Gauss-Laguerre rule for Gaussian-windowed radial inner products,
the Bessel function J0, and a Richardson-extrapolated central difference
for axial derivatives.

The radial integrals all have the shape ``integral of f(r) dr from a to
infinity`` with an integrand that decays on a known transverse length
scale.  Mapping ``r = a + scale * t / (1 - t)`` compresses the half-line
onto ``t in [0, 1)`` so that the integrand's mass lands at moderate ``t``
and the adaptive rule can resolve it with a bounded number of panels.
Integrands take an array of points and return an array of the same
shape: each round of the adaptive rule evaluates them once on every
panel it still has to resolve.

Everything here is numpy; scipy is not imported.  The module still
resolves ``numerics.integrate`` to ``scipy.integrate`` on first access,
because the benchmark's tracer (``perfbench/tracer.py``) reads that name
when it installs; no library code reads it.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

#: Default relative tolerance for radial quadratures.
DEFAULT_REL_TOL = 1e-9

#: Hard cap on the adaptive rule's panels.  Hitting it raises
#: QuadratureError instead of silently returning a degraded estimate.
SUBDIVISION_CAP = 200

#: Midpoint nodes of Bessel's integral in ``bessel_j0`` over [0, pi].
BESSEL_NODES = 384

Integrand = Callable[[np.ndarray], np.ndarray]

# QUADPACK's qk15 on [-1, 1]: the Kronrod abscissae from 1 down to 0 and
# their weights, and the weights of the embedded 7-point Gauss rule,
# whose nodes are every other abscissa (zero weight at the others).
_XGK = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
)
_WGK = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_WG = (
    0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327,
)


def _mirrored(half: tuple[float, ...], sign: float = 1.0) -> np.ndarray:
    """The 15 node values from the 8 given for x >= 0, ordered from -1."""
    return np.array([sign * v for v in half[:-1]] + list(reversed(half)))


_NODES = _mirrored(_XGK, -1.0)
_KRONROD_WEIGHTS = _mirrored(_WGK)
_GAUSS_WEIGHTS = _mirrored(_WG)

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny

#: Equal panels the adaptive rule starts from.
_INITIAL_PANELS = 16

#: A panel narrower than this, relative to its endpoints, is not split:
#: the nodes of its halves would round onto their ends.
_NARROWEST_PANEL = 2000.0 * _EPS


def __getattr__(name: str):
    # PEP 562: perfbench/tracer.py reads ``numerics.integrate`` when it
    # installs, so the name still resolves (to scipy.integrate, imported
    # on first access and cached).  The quadrature does not use it.
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
    fn: Integrand,
    scale: float,
    lower: float = 0.0,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = 0.0,
) -> float:
    """Integrate ``fn`` over ``[lower, inf)``.

    Parameters
    ----------
    fn : callable
        Real-valued integrand: takes an array of points and returns the
        values as an array of the same shape.
    scale : float
        Decay length of the integrand, used to condition the change of
        variable.  Must be positive.
    lower : float
        Lower limit of integration.
    rel_tol, abs_tol : float
        Tolerances of the adaptive rule.  ``abs_tol`` defaults to zero so
        the request is purely relative; pass a small floor when the
        integrand itself can be tiny (oscillatory transforms).
    """
    if scale <= 0.0:
        raise ValueError(f"quadrature scale must be positive, got {scale}")
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")

    def mapped(t: np.ndarray) -> np.ndarray:
        u = 1.0 - t
        return fn(lower + scale * t / u) * scale / (u * u)

    return _checked_quad(mapped, 0.0, 1.0, rel_tol, abs_tol, "semi-infinite")


def finite_integral(
    fn: Integrand,
    lower: float,
    upper: float,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = 0.0,
) -> float:
    """Integrate ``fn`` over ``[lower, upper]`` with the same integrand
    and failure contract as ``integral_to_infinity``.

    Meant for integrands whose tails are known to underflow before a
    finite cutoff (e.g. Gaussian-windowed oscillatory transforms), where
    an explicit truncation behaves far better than a mapped half-line.
    """
    if not (upper > lower and math.isfinite(lower) and math.isfinite(upper)):
        raise ValueError(f"need finite upper > lower, got [{lower}, {upper}]")
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    return _checked_quad(fn, lower, upper, rel_tol, abs_tol, "finite")


def _kronrod_panels(
    fn: Integrand, lo: np.ndarray, hi: np.ndarray, kind: str
) -> tuple[np.ndarray, np.ndarray]:
    """Integral and error estimate of the 15-point Kronrod rule on each
    panel ``[lo[i], hi[i]]``, from one call of ``fn`` on all their nodes.

    The error is QUADPACK's: the Kronrod-Gauss gap ``|K - G|``, scaled by
    ``resasc * min(1, (200 |K - G| / resasc)^1.5)`` with ``resasc`` the
    integral of ``|f - K / (hi - lo)|``, and never below 50 ulps of the
    integral of ``|f|``.
    """
    half = 0.5 * (hi - lo)
    points = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    values = np.asarray(fn(points), dtype=float)
    if values.shape != points.shape:
        raise ValueError(
            f"integrand returned shape {values.shape} for points of shape "
            f"{points.shape}; it must take and return arrays"
        )
    if not np.isfinite(values).all():
        where = float(points[~np.isfinite(values)][0])
        raise QuadratureError(
            f"{kind} quadrature: the integrand is not finite at {where!r}"
        )
    kronrod = values @ _KRONROD_WEIGHTS
    gap = np.abs(kronrod - values @ _GAUSS_WEIGHTS) * half
    resabs = np.abs(values) @ _KRONROD_WEIGHTS * half
    resasc = np.abs(values - 0.5 * kronrod[:, None]) @ _KRONROD_WEIGHTS * half
    # resasc min(1, (200 gap / resasc)^1.5), read as 0 where resasc = 0
    # (a constant integrand, whose gap is roundoff below the floor).
    ratio = np.minimum(200.0 * gap, resasc) / np.maximum(resasc, _TINY)
    error = np.maximum(resasc * ratio**1.5, 50.0 * _EPS * resabs)
    return kronrod * half, error


def _checked_quad(
    fn: Integrand, lower: float, upper: float, rel_tol: float, abs_tol: float,
    kind: str,
) -> float:
    """Globally adaptive Gauss-Kronrod 7/15 quadrature over
    ``[lower, upper]`` that raises ``QuadratureError`` instead of
    returning an unconverged value.  ``kind`` names the integral in the
    message.

    The rule starts from ``_INITIAL_PANELS`` equal panels, and each round
    evaluates the integrand once on the nodes of every panel made in the
    previous round.  It stops when the summed error
    estimate is within ``max(abs_tol, rel_tol |integral|)``; otherwise it
    bisects every panel whose error exceeds an equal share of that
    tolerance (at least one does, the largest).
    More than ``SUBDIVISION_CAP`` panels, a panel too narrow to split, or
    an integrand that is not finite raises ``QuadratureError``.
    """
    edges = np.linspace(lower, upper, _INITIAL_PANELS + 1)
    lo, hi = edges[:-1], edges[1:]
    value, error = _kronrod_panels(fn, lo, hi, kind)
    while True:
        total = float(np.sum(value))
        estimate = float(np.sum(error))
        tolerance = max(abs_tol, rel_tol * abs(total))
        if estimate <= tolerance:
            return total
        split = (error > tolerance / error.size) | (error == error.max())
        if lo.size + np.count_nonzero(split) > SUBDIVISION_CAP:
            raise QuadratureError(
                f"{kind} quadrature did not converge within {SUBDIVISION_CAP} panels "
                f"(value={total!r}, error estimate={estimate!r}, "
                f"tolerance={tolerance!r})",
                estimate=estimate,
            )
        a, b = lo[split], hi[split]
        narrow = b - a <= _NARROWEST_PANEL * np.maximum(np.abs(a), np.abs(b))
        if narrow.any():
            raise QuadratureError(
                f"{kind} quadrature cannot resolve the integrand near "
                f"{float(a[narrow][0])!r} (value={total!r}, "
                f"error estimate={estimate!r}, tolerance={tolerance!r})",
                estimate=estimate,
            )
        mid = 0.5 * (a + b)
        new_lo = np.concatenate([a, mid])
        new_hi = np.concatenate([mid, b])
        new_value, new_error = _kronrod_panels(fn, new_lo, new_hi, kind)
        keep = ~split
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        value = np.concatenate([value[keep], new_value])
        error = np.concatenate([error[keep], new_error])


def bessel_j0(x) -> np.ndarray:
    """Bessel function J0 of an array (or a scalar), elementwise.

    Bessel's integral J0(x) = (1/pi) integral cos(x sin theta) over
    theta in [0, pi] has a periodic, entire integrand, so the midpoint
    rule converges geometrically: with ``BESSEL_NODES`` = 384 nodes its
    error is of order J_768(x), below roundoff for |x| < ~600.  What is
    left is the rounding of x sin(theta), a few ulps of |x| (5e-15 at
    x = 420).  The nodes at theta and pi - theta share sin(theta), so
    half of them are evaluated, one node at a time: memory stays at a
    few arrays the size of x.
    """
    x = np.asarray(x, dtype=float)
    total = np.zeros_like(x)
    half = BESSEL_NODES // 2
    for k in range(half):
        total += np.cos(x * math.sin(math.pi * (k + 0.5) / BESSEL_NODES))
    return total / half


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
