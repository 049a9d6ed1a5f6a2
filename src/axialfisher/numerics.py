"""Shared numerical kernels.

Five tools live here because several physics modules need them in the
same form: the finite-domain check of a scalar input, a fixed pair of
trapezoid rules for radial integrals of a Gaussian-windowed integrand,
the check that takes the gap between two estimates of an integral as
its error estimate, a Richardson-extrapolated central difference of
four function values already in hand, and an exponential and a cosine
that are the same bits at every numpy SIMD level (``libm_exp``,
``libm_cos``).

Every radial integral of the package has the shape
``integral f(r) 2 pi r dr`` over [0, inf), with f a Gaussian spot of
known width times a factor smooth in u = 2 r^2 / w^2.  In u that is
e^{-u} times the smooth factor.  The double-exponential substitution
u = exp(t - e^{-t}) makes the integrand in t decay double exponentially
at both ends, and the trapezoid rule in t integrates it on a fixed set
of nodes.  Each integral is taken on the two rules of ``RULES`` and
``check_rule_gap`` accepts the fine rule's value only when the coarse
one agrees with it.  ``unit_rules`` is the one place that knows the
rules' layout: both node sets end to end, each node's radius, u, window
e^{-u} and weight one closed-form expression rounded once to a double,
cached on first use.  ``stacked_radial_rule`` scales the radii, so each
integrand is evaluated once for the pair, and ``rule_sums``
(``unit_rule_norms_sq`` for |f|^2 of complex fields) reduces values
times the weights to both rules' sums in one fixed-order numpy
reduction, never a BLAS product, so an integral is the same bits on
every CPU.

Everything here is numpy, and the standard library's ``decimal`` for the
rules.  Only the benchmark tracer's hook needs scipy, a test dependency:
``numerics.integrate`` resolves to ``scipy.integrate`` on first access,
because ``perfbench/tracer.py`` reads that name when it installs; no
library code reads it.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import NamedTuple

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


_SIGN_TESTS = {"positive": operator.gt, "nonnegative": operator.ge, "nonzero": operator.ne}


def finite_scalar(name: str, value: float, sign: str | None = "positive") -> float:
    """``value`` if it is finite and ``sign`` (positive, nonnegative,
    nonzero, or ``None`` for any), the library's one finite-domain check
    of a scalar input; else ``ValueError("<name> must be <sign> and
    finite, got <value>")``, without a sign "<name> must be finite, ..."."""
    if math.isfinite(value) and (sign is None or _SIGN_TESTS[sign](value, 0.0)):
        return value
    raise ValueError(f"{name} must be {f'{sign} and ' if sign else ''}finite, got {value}")


class NumericalLimitError(ValueError):
    """The inputs take a numerical method past what it can do: a draw
    past the sampler's range, a finite-difference stencil whose fields
    are nearly orthogonal.

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


class _UnitRules(NamedTuple):
    """The unit-scale rules of ``RULES`` end to end, read-only."""

    #: The coarse rule's radii followed by the fine rule's.
    radii: np.ndarray
    #: u = 2 rho^2 at each unit radius rho.
    u: np.ndarray
    #: The Gaussian window e^{-u} at each unit radius.
    window: np.ndarray
    #: The weight of each radius in its own rule.
    weights: np.ndarray
    #: The first index of each rule, for ``np.add.reduceat``.
    starts: np.ndarray
    #: The number of radii of each rule, for ``np.repeat``.
    sizes: np.ndarray
    #: Each weight twice, for the real and imaginary parts of a complex
    #: value side by side.
    pair_weights: np.ndarray
    #: The first index of each rule among those side-by-side parts.
    pair_starts: np.ndarray


@functools.cache
def unit_rules() -> _UnitRules:
    """The unit-scale rules of ``RULES``, coarse then fine on every
    array, built once per process on first use and read-only.

    A rule of step h over [t_lo, t_hi] has the nodes t = t_lo + k h, each
    with u = exp(t - e^{-t}), radius sqrt(u / 2), window e^{-u} and weight
    (pi / 2) h u (1 + e^{-t}), the trapezoid rule in t for
    ``integral f(r) 2 pi r dr`` = (pi / 2) ``integral f du``.  So the
    coarse rule's nodes are the fine rule's nodes 4, 6, ..., 76, the same
    radius, u and window bits at exactly twice the weight.  Every
    radius, u, window and weight is taken in 40-digit decimal arithmetic
    and rounded once to a double, so each is the correctly rounded value
    of its formula, the same on every platform: no libm and no numpy
    kernel reaches them.  In doubles the argument t - e^{-t} (down to
    -153) would carry ~1e-14 of absolute rounding, tens of ulps of u.
    An integrand known in u needs neither radii nor an exponential on
    the nodes; the weights do not depend on the scale, so an integral on
    the radii of ``stacked_radial_rule(scale)`` is ``scale**2`` times
    ``rule_sums`` of its values times ``weights``, and a per-rule value
    spreads back over the radii as ``value.repeat(sizes, axis=-1)``.

    In t the integrand g(u(t)) u'(t) decays double exponentially at
    t -> -inf and, for g = e^{-u} times a factor smooth in u, at
    t -> +inf, and the trapezoid rule on such an integrand converges
    geometrically in 1/h (Takahasi & Mori, Publ. RIMS 9, 721 (1974);
    Trefethen & Weideman, SIAM Rev. 56, 385 (2014)).  So both rules are
    accurate when f is a Gaussian of 1/e^2 radius ``scale`` (|psi|^2 for
    a field whose amplitude falls to 1/e there) times a factor smooth in
    u: on e^{-u} u^m (m <= 5, and shifted to e^{-c} e^{-u} (u + c)^m for
    c up to 4) the fine rule is within 1e-15 and the coarse one within
    2e-11, relative.  The fine rule also reaches further out (u up to ~400,
    against ~89), so the gap checks the truncated tail as well as the
    coarse step.

    The limit is the coarse rule's, in the degree of the smooth factor:
    its relative error on e^{-u} u^m is 1.0e-11 at m = 5, 1.6e-10 at
    m = 6 and 6.6e-8 at m = 12, while the fine rule stays within 5e-16.
    So ``check_rule_gap`` (``RULE_TOL`` 1e-10) refuses a correct fine
    value once the factor has degree 6 or more in u (a Laguerre-Gauss
    mode with 2p + |l| >= 3, say).  Every integrand of the package has
    degree 4 or less.
    """
    import decimal  # only the rules need it, once per process

    pi = decimal.Decimal("3.141592653589793238462643383279502884197")
    radii, us, windows, weights, starts = [], [], [], [], []
    with decimal.localcontext() as context:
        context.prec = 40
        for step, t_lo, t_hi in RULES:
            starts.append(len(radii))
            h = decimal.Decimal(step)
            for k in range(round((t_hi - t_lo) / step) + 1):
                t = decimal.Decimal(t_lo + k * step)  # exact: a multiple of 1/8
                decay = (-t).exp()
                u = (t - decay).exp()
                radii.append(float((u / 2).sqrt()))
                us.append(float(u))
                windows.append(float((-u).exp()))
                weights.append(float(pi / 2 * h * u * (1 + decay)))
    weights, starts = np.array(weights), np.array(starts)
    rules = _UnitRules(np.array(radii), np.array(us), np.array(windows), weights,
                       starts, np.diff(starts, append=len(radii)),
                       weights.repeat(2), 2 * starts)
    for array in rules:
        array.flags.writeable = False
    return rules


def stacked_radial_rule(scale: float) -> np.ndarray:
    """Radii of the two rules of ``RULES`` for ``integral f(r) 2 pi r dr``
    over [0, inf), the coarse rule's followed by the fine rule's, so that
    an integrand is evaluated once for the pair of sums
    ``check_rule_gap`` compares: ``scale`` times the unit radii of
    ``unit_rules``, whose weights times ``scale**2`` are the rules'.
    Both rules are accurate when f is a Gaussian of 1/e^2 radius
    ``scale`` times a factor of degree 5 or less in u = 2 r^2 / scale^2
    (``unit_rules``).
    """
    return finite_scalar("quadrature scale", scale) * unit_rules().radii


def rule_sums(terms: np.ndarray) -> np.ndarray:
    """Each rule's sum of ``terms``, values on the radii of
    ``stacked_radial_rule`` along the last axis already times the unit
    weights: an array of the leading shape with the coarse and the fine
    sum on its last axis.

    Each sum is one fixed-order numpy reduction (``np.add.reduceat``),
    whose order of additions is numpy's and not the CPU's, and no BLAS
    kernel reaches it, so it is the same bits on every CPU.  Complex
    terms are summed alike, their real and imaginary parts apart.
    """
    return np.add.reduceat(terms, unit_rules().starts, axis=-1)


def unit_rule_norms_sq(fields: np.ndarray) -> np.ndarray:
    """Each rule's unit-weight sum of |f|^2 for complex ``fields`` on the
    radii of ``stacked_radial_rule`` (the last axis, C-contiguous): the
    squares of the real and imaginary parts, side by side, times each
    weight twice, in one fixed-order reduction."""
    rules = unit_rules()
    terms = np.square(fields.view(float))
    terms *= rules.pair_weights
    return np.add.reduceat(terms, rules.pair_starts, axis=-1)


def libm_exp(x) -> np.ndarray:
    """e^x for every element of ``x``, as the C library's ``exp`` (and
    ``math.exp``) gives it, the same bits at every numpy SIMD level.

    numpy's real ``exp`` has an AVX-512 loop that differs from the C
    library in the last bit of ~5 % of doubles; its complex ``exp`` runs
    the C library per element at every level, and e^{x + 0i} is
    e^x (cos 0 + i sin 0) = e^x exactly.
    """
    return np.exp(np.asarray(x, dtype=complex)).real


def libm_cos(x) -> np.ndarray:
    """cos x for every element of ``x``, as the real part of the C
    library's complex exponential e^{ix} = cos x + i sin x, the same
    bits at every numpy SIMD level (``libm_exp``'s route: numpy's real
    ``cos`` has SIMD loops of its own)."""
    return np.exp(1j * np.asarray(x, dtype=float)).real


def stencil_derivative(values, step: float):
    """First derivative by Richardson-extrapolated central differences,
    from the four values of a function at offsets ``step``, ``-step``,
    ``step / 2`` and ``-step / 2`` in that order: numbers or arrays (the
    rows of one array, say), real or complex, differenced directly.

    The two-point rules at steps ``step`` and ``step / 2`` combine to
    cancel their leading O(step^2) error, leaving O(step^4).
    """
    plus, minus, half_plus, half_minus = values
    coarse = (plus - minus) / (2.0 * step)
    half = 0.5 * step
    fine = (half_plus - half_minus) / (2.0 * half)
    return (4.0 * fine - coarse) / 3.0
