"""Shared numerical kernels.

Three tools live here because several physics modules need them in the
same form: a fixed pair of trapezoid rules for radial integrals of a
Gaussian-windowed integrand, the check that takes the gap between two
estimates of an integral (the two rules, or two grids) as its error
estimate, and a Richardson-extrapolated central difference for axial
derivatives.

Every radial integral of the package has the shape
``integral f(r) 2 pi r dr`` from some radius to infinity, with f a
Gaussian spot of known width times a factor smooth in u = 2 r^2 / w^2.
In u that is e^{-u} times the smooth factor.  The double-exponential
substitution u = exp(t - e^{-t}) makes the integrand in t decay double
exponentially at both ends, and the trapezoid rule in t integrates it on
a fixed set of nodes.  Each integral is taken on the two rules of
``RULES`` and ``check_rule_gap`` accepts the fine rule's value only when
the coarse one agrees with it.  ``stacked_radial_rule`` puts both node
sets on one array of radii, so each integrand is evaluated once for the
pair.  The rules have no zeros to find: each node and weight is one
closed-form expression, rounded once to a double.

Everything here is numpy, and the standard library's ``decimal`` for the
rules.  Only the benchmark tracer's hook needs scipy, a test dependency:
``numerics.integrate`` resolves to ``scipy.integrate`` on first access,
because ``perfbench/tracer.py`` reads that name when it installs; no
library code reads it.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

#: The two rules of every radial integral, coarse then fine, as
#: (step h, t_lo, t_hi): the trapezoid rule of step h on [t_lo, t_hi] in
#: t, where u = 2 r^2 / scale^2 = exp(t - e^{-t}).  The answer comes from
#: the fine rule (89 nodes), and the gap to the coarse one (37 nodes) is
#: its error estimate.
RULES = ((0.25, -4.5, 4.5), (0.125, -5.0, 6.0))

#: Largest relative gap between the two rules that ``check_rule_gap``
#: accepts, on top of the caller's roundoff floor.
RULE_TOL = 1e-10


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
    """Two estimates of an integral (the two rules of ``RULES``, or two
    grids) disagree beyond their tolerance.

    Carries the gap between them, the error estimate, so callers can
    report how far the result was from the request.
    """

    def __init__(self, message: str, estimate: float = float("nan")):
        super().__init__(message)
        self.estimate = estimate


def check_rule_gap(
    coarse: float, fine: float, floor: float, what: str,
    between: str = f"radial rules of steps {RULES[0][0]!r} and {RULES[1][0]!r}",
) -> float:
    """``fine``, the value of ``what`` on the fine rule of ``RULES``
    (or the finer of the two estimates that ``between`` names), once the
    coarse value ``coarse`` is within ``RULE_TOL |fine| + floor`` of it.

    ``floor`` is the roundoff the caller's integrand carries, which no
    rule can resolve; a gap below it says nothing about the quadrature.
    A larger gap, or a value that is not a number, raises
    ``QuadratureError`` carrying the gap.
    """
    gap = abs(coarse - fine)
    if not gap <= RULE_TOL * abs(fine) + floor:
        raise QuadratureError(
            f"{what} differs by {gap!r} between {between} (value={fine!r})",
            estimate=gap,
        )
    return fine


@functools.cache
def _unit_rules() -> tuple[np.ndarray, np.ndarray, tuple[slice, ...]]:
    """The unit-scale rules of ``RULES`` end to end, read-only, and the
    slice that picks each rule out of them.

    A rule of step h over [t_lo, t_hi] has the nodes t = t_lo + k h, each
    with u = exp(t - e^{-t}), radius sqrt(u / 2) and weight
    (pi / 2) h u (1 + e^{-t}), the trapezoid rule in t for
    ``integral f(r) 2 pi r dr`` = (pi / 2) ``integral f du``.  Every
    radius and weight is taken in 40-digit decimal arithmetic and rounded
    once to a double, so each is the correctly rounded value of its
    formula, the same on every platform: no libm and no numpy kernel
    reaches them.  In doubles the argument t - e^{-t} (down to -153) would
    carry ~1e-14 of absolute rounding, tens of ulps of u.
    """
    import decimal  # only the rules need it, once per process

    pi = decimal.Decimal("3.141592653589793238462643383279502884197")
    radii, weights, parts = [], [], []
    with decimal.localcontext() as context:
        context.prec = 40
        for step, t_lo, t_hi in RULES:
            start, h = len(radii), decimal.Decimal(step)
            for k in range(round((t_hi - t_lo) / step) + 1):
                t = decimal.Decimal(t_lo + k * step)  # exact: a multiple of 1/8
                decay = (-t).exp()
                u = (t - decay).exp()
                radii.append(float((u / 2).sqrt()))
                weights.append(float(pi / 2 * h * u * (1 + decay)))
            parts.append(slice(start, len(radii)))
    radii, weights = np.array(radii), np.array(weights)
    radii.flags.writeable = False
    weights.flags.writeable = False
    return radii, weights, tuple(parts)


def stacked_radial_rule(
    scale: float, lower: float = 0.0
) -> tuple[np.ndarray, tuple[tuple[slice, np.ndarray], ...]]:
    """Radii and weights of the two rules of ``RULES`` for
    ``integral f(r) 2 pi r dr`` over ``[lower, inf)``, both on one array
    of radii, so that an integrand is evaluated once for the pair of sums
    ``check_rule_gap`` compares.

    Returns the radii, the coarse rule's followed by the fine rule's, and
    one ``(part, weights)`` pair per rule, coarse first: ``radii[part]``
    and ``weights`` are that rule's radii and weights.  A rule's sum of
    integrand values ``f`` on these radii is ``f[..., part] @ weights``.

    The map r^2 = lower^2 + scale^2 u / 2 turns the measure into
    (pi scale^2 / 2) du, so with unit radii rho_i and weights w_i the
    radii are hypot(lower, scale rho_i) and the weights scale^2 w_i,
    whatever ``lower`` is; at ``lower`` = 0 the radii are scale rho_i
    exactly.  In t, with u = exp(t - e^{-t}), the integrand
    g(u(t)) u'(t) decays double exponentially at t -> -inf and, for
    g = e^{-u} times a factor smooth in u, at t -> +inf, and the
    trapezoid rule on such an integrand converges geometrically in 1/h
    (Takahasi & Mori, Publ. RIMS 9, 721 (1974); Trefethen & Weideman,
    SIAM Rev. 56, 385 (2014)).  So both rules are accurate when f is a
    Gaussian of 1/e^2 radius ``scale`` (|psi|^2 for a field whose
    amplitude falls to 1/e there) times a factor smooth in u: on
    e^{-u} u^m (m <= 5, from four lower radii) the fine rule is within
    1e-15 and the coarse one within 2e-11, relative.  The fine rule also
    reaches further out (u up to ~400, against ~89), so the gap checks the
    truncated tail as well as the coarse step.
    """
    if scale <= 0.0:
        raise ValueError(f"quadrature scale must be positive, got {scale}")
    if not lower >= 0.0:
        raise ValueError(f"lower radius must be nonnegative, got {lower}")
    radii, weights, parts = _unit_rules()
    radii, weights = np.hypot(lower, scale * radii), (scale * scale) * weights
    return radii, tuple((part, weights[part]) for part in parts)


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
