"""Shared numerical kernels.

Three tools live here because several physics modules need them in the
same form: a fixed pair of Gauss-Laguerre rules for radial integrals of
a Gaussian-windowed integrand, the check that takes the gap between two
estimates of an integral (the two orders, or two grids) as its error
estimate, and a Richardson-extrapolated central difference for axial
derivatives.

Every radial integral of the package has the shape
``integral f(r) 2 pi r dr`` from some radius to infinity, with f a
Gaussian spot of known width times a factor smooth in u = 2 r^2 / w^2.
In u that is e^{-u} times the smooth factor, which Gauss-Laguerre
quadrature integrates on a fixed set of nodes.  Each integral is taken on
``RULE_NODES`` = (48, 96) nodes and ``check_rule_gap`` accepts the finer
value only when the coarser one agrees with it.  ``stacked_radial_rule``
puts both node sets on one array of radii, so each integrand is
evaluated once for the pair.

The Gauss-Laguerre rule finds all its zeros at once, by Sturm counts on
an array of points and Newton steps on the array of zeros, without
LAPACK.

Everything here is numpy; scipy is not imported.  The module still
resolves ``numerics.integrate`` to ``scipy.integrate`` on first access,
because the benchmark's tracer (``perfbench/tracer.py``) reads that name
when it installs; no library code reads it.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

#: Gauss-Laguerre orders of every radial integral: the answer comes from
#: the finer rule, and the gap to the coarser one is its error estimate.
RULE_NODES = (48, 96)

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
    """Two estimates of an integral (two Gauss-Laguerre orders, or two
    grids) disagree beyond their tolerance.

    Carries the gap between them, the error estimate, so callers can
    report how far the result was from the request.
    """

    def __init__(self, message: str, estimate: float = float("nan")):
        super().__init__(message)
        self.estimate = estimate


def check_rule_gap(
    coarse: float, fine: float, floor: float, what: str,
    between: str = f"{RULE_NODES[0]} and {RULE_NODES[1]} Gauss-Laguerre nodes",
) -> float:
    """``fine``, the value of ``what`` on the finer of ``RULE_NODES``
    (or of the two estimates that ``between`` names), once the coarser
    value ``coarse`` is within ``RULE_TOL |fine| + floor`` of it.

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


def _laguerre(n: int, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """L_n(u), L_{n-1}(u) and sum_{k<n} L_k(u)^2 at every u, by the
    three-term recurrence."""
    prev, cur, sum_sq = np.zeros_like(u), np.ones_like(u), np.zeros_like(u)
    for k in range(n):
        sum_sq += cur * cur
        prev, cur = cur, ((2 * k + 1 - u) * cur - k * prev) / (k + 1)
    return cur, prev, sum_sq


def _zeros_below(n: int, u: np.ndarray) -> np.ndarray:
    """Number of zeros of L_n below each u: the negative pivots of J - u,
    with J the Jacobi matrix of the Laguerre recurrence (diagonal 2k + 1,
    off-diagonal k), counted as a Sturm sequence.  A pivot of exactly 0
    counts as positive and makes the next one -inf."""
    negative = np.empty((n,) + u.shape, dtype=bool)
    pivot = 1.0 - u
    with np.errstate(divide="ignore"):
        for k in range(1, n):
            np.less(pivot, 0.0, out=negative[k - 1])
            pivot = (2 * k + 1 - u) - k * k / pivot
    np.less(pivot, 0.0, out=negative[n - 1])
    return np.count_nonzero(negative, axis=0)


def _isolate_zeros(n: int, cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Brackets ``[lo, hi)`` holding one zero of L_n each, in order.

    All zeros lie below 4n (Gershgorin), nearly uniformly in sqrt(u), so
    one Sturm count on ``cells`` cells uniform in sqrt(u) over [0, 4n]
    separates them once ``cells`` is a few times n.  While some cell
    holds more than one zero the grid is refined (twice the cells).
    """
    while True:
        grid = 4.0 * n * (np.arange(cells + 1) / cells) ** 2
        counts = _zeros_below(n, grid)
        found = counts[1:] - counts[:-1]
        if found.max() <= 1:
            one = found == 1
            return grid[:-1][one], grid[1:][one]
        cells *= 2


#: The inner ends of a bracket's eighths, as fractions of its width.
_EIGHTHS = np.arange(1, 8) / 8


@functools.cache
def _laguerre_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Radii and weights of the ``nodes``-point rule at unit scale, from
    which ``stacked_radial_rule`` maps its rules; read-only arrays because
    the cache hands the same ones to every caller.

    All zeros u_i of L_n are found at once.  ``_isolate_zeros`` puts each
    in a cell of a grid with 8n cells; vectorized bisection on the Sturm
    count narrows every cell to 1e-3 of its upper end (three rounds for
    the rules in use), and Newton steps (u L_n' = n (L_n - L_{n-1}))
    polish the zeros.  The weight of u_i is
    the Christoffel number 1 / sum_{k<n} L_k(u_i)^2, a sum of positive
    terms that stays accurate where the zeros crowd near u = 0.  This is
    elementwise float arithmetic on purpose: numpy's ``laggauss`` solves
    an eigenproblem through LAPACK, whose first call keeps ~1 MB more
    resident memory for the life of the process.
    """
    n = nodes
    lo, hi = _isolate_zeros(n, 8 * n)
    index = np.arange(n)[:, None]
    while np.any(hi - lo > 1e-3 * hi):
        # Three bisections at once: the Sturm count at the seven inner
        # eighths of every bracket says which eighth holds its zero.  An
        # eighth's ends are recomputed from the same exact fractions, so
        # they are the very points counted.
        inner = lo[:, None] * (1.0 - _EIGHTHS) + hi[:, None] * _EIGHTHS
        cell = np.count_nonzero(_zeros_below(n, inner) <= index, axis=1) / 8
        lo, hi = (lo * (1.0 - cell) + hi * cell,
                  lo * (1.0 - (cell + 0.125)) + hi * (cell + 0.125))
    u = 0.5 * (lo + hi)
    for _ in range(4):
        ln, lm, _ = _laguerre(n, u)
        u = u - u * ln / (n * (ln - lm))
    radii = np.sqrt(0.5 * u)
    weights = 0.5 * np.pi * np.exp(u) / _laguerre(n, u)[2]
    radii.flags.writeable = False
    weights.flags.writeable = False
    return radii, weights


@functools.cache
def _stacked_laguerre_rules() -> tuple[np.ndarray, np.ndarray, tuple[slice, ...]]:
    """The unit-scale rules of ``RULE_NODES`` end to end, read-only, and
    the slice that picks each rule out of them."""
    rules = [_laguerre_rule(nodes) for nodes in RULE_NODES]
    radii = np.concatenate([rule_radii for rule_radii, _ in rules])
    weights = np.concatenate([rule_weights for _, rule_weights in rules])
    radii.flags.writeable = False
    weights.flags.writeable = False
    coarse = RULE_NODES[0]
    return radii, weights, (slice(0, coarse), slice(coarse, None))


def stacked_radial_rule(
    scale: float, lower: float = 0.0
) -> tuple[np.ndarray, tuple[tuple[slice, np.ndarray], ...]]:
    """Radii and weights of the Gauss-Laguerre rules of ``RULE_NODES``
    for ``integral f(r) 2 pi r dr`` over ``[lower, inf)``, both orders on
    one array of radii, so that an integrand is evaluated once for the
    pair of sums ``check_rule_gap`` compares.

    Returns the radii, the coarse rule's followed by the fine rule's, and
    one ``(part, weights)`` pair per rule, coarse first: ``radii[part]``
    and ``weights`` are that rule's radii and weights.  A rule's sum of
    integrand values ``f`` on these radii is ``f[..., part] @ weights``.

    The map r^2 = lower^2 + scale^2 u / 2 turns the measure into
    (pi scale^2 / 2) du, so with Laguerre nodes u_i and weights w_i the
    radii are hypot(lower, scale sqrt(u_i / 2)) and the weights
    (pi scale^2 / 2) w_i e^{u_i}, whatever ``lower`` is; at ``lower`` = 0
    the radii are scale sqrt(u_i / 2) exactly.  A rule of n nodes is
    exact when f(r) e^{2 (r^2 - lower^2) / scale^2} is a polynomial of
    degree below 2n in u, and accurate when f is a Gaussian of 1/e^2
    radius ``scale`` (|psi|^2 for a field whose amplitude falls to 1/e
    there) times a factor smooth in u.
    """
    if scale <= 0.0:
        raise ValueError(f"quadrature scale must be positive, got {scale}")
    if not lower >= 0.0:
        raise ValueError(f"lower radius must be nonnegative, got {lower}")
    radii, weights, parts = _stacked_laguerre_rules()
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
