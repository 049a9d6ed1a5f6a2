"""Fisher information for axial localization with Gaussian beams.

The quantum limit for estimating the axial position of a Gaussian beam
is flat in z: Q = 1 / z_R^2 per detected photon.  The classical
information carried by an intensity-only (photon-counting) measurement
of the transverse profile is

    F(z) = (d/dz ln w^2(z))^2,

which saturates Q exactly one Rayleigh range on either side of the
waist.  This module computes both sides of that comparison three
independent ways (closed form, radial quadrature of the intensity
score, spectral-domain generator variance).  Free-space and relayed
detection share one route: the ray matrix (A, B) from the waist to the
detector gives w^2 = w0^2 (A^2 + (B / z_R)^2), and moving the object by
delta sends B to B + A delta, so

    F = (2 A B / (A^2 z_R^2 + B^2))^2.

The detection planes where that reaches the quantum bound follow in
closed form.

All positions are meters.  Information values are 1/m^2.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .beam_optics import (
    BeamParams,
    FieldFamily,
    FieldProfile,
    RelaySystem,
    beam_width_sq,
    intensity_pdf,
    ray_matrix,
    ray_width_sq,
)
from .numerics import (
    NumericalLimitError,
    check_rule_gap,
    finite_scalar,
    libm_cos,
    libm_exp,
    rule_sums,
    stacked_radial_rule,
    stencil_derivative,
    unit_rule_norms_sq,
    unit_rules,
)

#: Pinned relative step for axial finite differences, in units of the
#: caller's axial scale.
FD_STEP_FRACTION = 1e-6

#: Absolute floor for axial finite-difference steps [m].
FD_STEP_FLOOR = 1e-12

#: Steps of the two uniform grids, in x = r / w0 and in kappa = q w0, on
#: which ``_waist_mode_spectral_moments`` takes the spectral moments.
#: Both grids end below 10, where e^{-x^2} and kappa^4 e^{-kappa^2 / 2}
#: are below 1e-17 of their peaks.
SPECTRAL_STEPS = (0.3, 0.15)

#: |s -+ z_R| below this many Rayleigh ranges (s = object distance - f)
#: puts one optimal plane at infinity.
ALPHA_DEGENERACY_TOL = 1e-12


class NormalizationDriftError(RuntimeError):
    """A field profile failed to renormalize within tolerance."""

    def __init__(self, message: str, drift: float):
        super().__init__(message)
        self.drift = drift


@dataclass(frozen=True)
class FisherScan:
    """Classical information sampled over detection planes, with the
    quantum ceiling it is measured against."""

    plane_positions: np.ndarray
    fi_values: np.ndarray
    qfi: float

    def __post_init__(self) -> None:
        planes = np.asarray(self.plane_positions, dtype=float)
        values = np.asarray(self.fi_values, dtype=float)
        object.__setattr__(self, "plane_positions", planes)
        object.__setattr__(self, "fi_values", values)
        if planes.shape != values.shape:
            raise ValueError(
                f"plane/value shape mismatch: {planes.shape} vs {values.shape}"
            )
        finite_scalar("qfi", self.qfi)
        if not values.size:
            return
        low, high = values.min(), values.max()  # a NaN reaches both, an inf one
        if not (math.isfinite(low) and math.isfinite(high)):
            bad = planes[~np.isfinite(values)]
            raise NumericalLimitError(
                f"classical information is not finite at {bad.size} of {planes.size} "
                f"planes, from {float(bad.min())!r} m to {float(bad.max())!r} m: the "
                "ray matrix is out of double range there"
            )
        if low < 0.0:
            raise ValueError("classical information cannot be negative")
        if high > self.qfi * (1.0 + 1e-9):
            raise ValueError(
                "classical information exceeds the quantum bound: "
                f"max F = {float(high)!r} > Q = {self.qfi!r}"
            )


@dataclass(frozen=True)
class OptimalPlanes:
    """The two image-side planes where the relayed intensity measurement
    reaches the quantum bound.  ``alpha`` is the asymmetry parameter of
    the closed form.  In a degenerate geometry one plane is at infinity:
    ``alpha`` is then NaN and both fields hold the reachable plane."""

    alpha: float
    plane_plus: float
    plane_minus: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.plane_plus) and math.isfinite(self.plane_minus)):
            raise ValueError("optimal planes must be finite")


# ---------------------------------------------------------------------------
# Quantum side
# ---------------------------------------------------------------------------


def qfi_gaussian(beam: BeamParams) -> float:
    """Per-photon quantum information for axial displacement: 1 / z_R^2.

    Independent of z; free propagation is unitary so the information
    cannot decay with distance.
    """
    zr = beam.rayleigh_range
    return 1.0 / (zr * zr)


@functools.cache
def _waist_mode_spectral_moments() -> tuple[float, float]:
    """Moments <q^2> and <q^4> of the waist mode's spatial-frequency
    density, in units of 1/w0^2 and 1/w0^4.

    The mode is separable, h(x) h(y) with h(x) = (2 / pi)^{1/4} e^{-x^2}
    in x = r / w0, so with H the cosine transform of h and
    m_p = sum kappa^p H^2 / sum H^2, <q^2> = 2 m_2 and
    <q^4> = 2 m_4 + 2 m_2^2.  H(kappa) is the sum of h(x) cos(kappa x)
    over a uniform grid in x, and m_p a sum over the same grid in kappa
    (constant factors cancel in the ratios): the trapezoid rule on the
    whole line, the origin counted once and the other nodes (up to 10)
    twice, which converges geometrically for these
    entire, fast-decaying integrands.  Nothing here uses the transform's
    closed form.  The moments are taken at both ``SPECTRAL_STEPS``, with
    fixed-order ``np.sum`` reductions (no BLAS product) and e^{-x^2} and
    cos(kappa x) from libm (``numerics.libm_exp``, ``numerics.libm_cos``),
    so they are the same bits on every CPU, and the finer grid's returned;
    ``QuadratureError`` is raised when the two differ by more than
    ``numerics.RULE_TOL``.
    """
    estimates = []
    for step in SPECTRAL_STEPS:
        grid = step * np.arange(int(10.0 / step) + 1)  # x and kappa
        weights = np.where(grid > 0.0, 2.0, 1.0)
        sq = grid * grid
        spectrum = np.sum(libm_cos(np.multiply.outer(grid, grid)) * (weights * libm_exp(-sq)),
                          axis=1)
        density = weights * spectrum * spectrum
        total = np.sum(density)
        m2 = float(np.sum(density * sq) / total)
        m4 = float(np.sum(density * (sq * sq)) / total)
        estimates.append((2.0 * m2, 2.0 * m4 + 2.0 * m2 * m2))
    between = f"grid steps {SPECTRAL_STEPS[0]!r} and {SPECTRAL_STEPS[1]!r}"
    return tuple(check_rule_gap(coarse, fine, 0.0, "spectral moment", between)
                 for coarse, fine in zip(*estimates))


def generator_moments(beam: BeamParams) -> tuple[float, float]:
    """First and second moments of the axial-displacement generator on
    the waist mode, from spectral-domain quadrature.

    The generator acts multiplicatively in the transverse frequency
    domain with eigenvalue -q^2 / (2k); the moments are taken against
    the numerically transformed mode.
    """
    q2, q4 = _waist_mode_spectral_moments()
    k = beam.wavenumber
    kw0_sq = k * (beam.waist * beam.waist)
    mean = -q2 / (2.0 * kw0_sq)
    second = q4 / (4.0 * (kw0_sq * kw0_sq))
    return mean, second


def qfi_via_generator(beam: BeamParams) -> float:
    """Quantum information as four times the generator variance.

    An independent route to ``qfi_gaussian``: nothing here assumes the
    1 / z_R^2 form, it emerges from the frequency-domain moments.
    """
    mean, second = generator_moments(beam)
    return 4.0 * (second - mean * mean)


# ---------------------------------------------------------------------------
# Classical side, object space
# ---------------------------------------------------------------------------


def classical_fi_analytic(beam: BeamParams, z: float) -> float:
    """Closed-form classical information of the transverse intensity.

    F(z) = (d/dz ln w^2)^2 = 4 C(z)^2, the free-space case of
    ``image_fi``.  Equals the quantum bound at z = +-z_R and vanishes at
    the waist.
    """
    return image_fi(beam, None, z)


def classical_fi_numeric(
    width_sq_fn: Callable[[float], float], z: float, step: float
) -> float:
    """Classical information by direct radial quadrature of the score.

    F(z) = integral (d_z p)^2 / p 2 pi r dr  over r in [0, inf)

    with p the normalized intensity of squared 1/e^2 width
    ``width_sq_fn(z)`` and d_z p taken by Richardson-extrapolated central
    differences.  This is the reference the closed form is validated
    against; it shares no algebra with ``classical_fi_analytic``.

    ``step`` is the finite-difference step in meters, refused with
    ``ValueError`` unless positive and finite; for a width law of axial
    scale ``scale``, ``max(1e-6 * scale, 1e-12)`` works.

    The integral is taken on both radial rules of ``numerics.RULES`` at
    scale w = sqrt(w^2(z)), with the five intensities (the centre and the
    stencil) evaluated once on both node sets
    (``numerics.stacked_radial_rule``), as the rows of one array, with
    one ``numerics.libm_exp`` call, and the stencil rows differenced
    directly (``numerics.stencil_derivative``); the score times the
    rules' unit weights (``numerics.unit_rules``) is reduced once
    (``numerics.rule_sums``) and its two sums times w^2 are the integral
    on each rule, the same bits on every CPU.
    Their gap is the error estimate, checked by
    ``numerics.check_rule_gap`` above a roundoff floor of
    100 sqrt(F) eps / ``step``: each p carries a few ulps, so d_z p
    carries ~eps p / step, and F = integral (d_z p)^2 / p moves by
    ~eps sqrt(F) / step, differently on each node set.  A step so large
    that a stencil width exceeds twice w^2(z) makes the integral diverge,
    and the gap raises ``QuadratureError``.
    """
    finite_scalar("step", step)
    w_sq = width_sq_fn(z)
    if not (w_sq > 0.0 and math.isfinite(w_sq)):
        raise ValueError(
            f"width_sq_fn returned a non-positive squared width {w_sq!r} at z={z!r}"
        )

    offsets = (step, -step, 0.5 * step, -0.5 * step)
    widths_sq = [w_sq]
    for offset in offsets:
        value = width_sq_fn(z + offset)
        if not (value > 0.0 and math.isfinite(value)):
            raise ValueError(f"width_sq_fn returned {value!r} at z={z + offset!r}")
        widths_sq.append(value)

    radii = stacked_radial_rule(math.sqrt(w_sq))
    # The centre and stencil intensities as the rows of one array: the
    # arithmetic of ``intensity_pdf``, row by row.
    column = np.array(widths_sq)[:, np.newaxis]
    p, *rows = 2.0 / (math.pi * column) * libm_exp(-2.0 * radii * radii / column)
    dp = stencil_derivative(rows, step)
    # Far tail: p has underflowed, and the score with it.
    score = np.divide(dp * dp, p, out=np.zeros_like(p), where=p > 0.0)
    coarse, fine = (w_sq * rule_sums(score * unit_rules().weights)).tolist()
    floor = 100.0 * math.sqrt(abs(fine)) * sys.float_info.epsilon / step
    return check_rule_gap(coarse, fine, floor, "score integral")


def beam_fi_numeric(beam: BeamParams, z: float) -> float:
    """``classical_fi_numeric`` for a free beam, with the step pinned to
    the beam's Rayleigh range."""
    return classical_fi_numeric(
        lambda zz: beam_width_sq(beam, zz),
        z,
        step=max(FD_STEP_FRACTION * beam.rayleigh_range, FD_STEP_FLOOR),
    )


# ---------------------------------------------------------------------------
# Classical side, free or through a relay
# ---------------------------------------------------------------------------


def width_response(
    beam: BeamParams, relay: RelaySystem | None, plane: float
) -> tuple[float, float]:
    """(w^2, d/d delta ln w^2) at a detector plane, in free space
    (``relay`` None) or behind a relay.  ``plane`` may be an array of
    planes; both results then have its shape.

    With (A, B) = ``ray_matrix(relay, plane)`` and B -> B + A delta,

        d/d delta ln w^2 = 2 A B / (A^2 z_R^2 + B^2),

    which in free space is the curvature identity 2 z / (z^2 + z_R^2).
    """
    a, b = ray_matrix(relay, plane)
    return ray_width_sq(beam, a, b), _log_width_slope(beam, a, b)


def _log_width_slope(beam: BeamParams, a, b):
    """d/d delta ln w^2 = 2 A B / (A^2 z_R^2 + B^2) behind the ray matrix
    (A, B): ``width_response``'s slope, without the width."""
    zr = beam.rayleigh_range
    return 2.0 * a * b / (a * a * zr * zr + b * b)


def image_fi(beam: BeamParams, relay: RelaySystem | None, z_prime: float) -> float:
    """Classical information about the object distance available from
    the intensity profile at detector plane z' (a float or an array of
    planes), in free space (``relay`` None) or behind a relay: the square
    of ``width_response``'s slope, which alone is computed."""
    slope = _log_width_slope(beam, *ray_matrix(relay, z_prime))
    return slope * slope


def scan_image_fi(
    beam: BeamParams, relay: RelaySystem, plane_positions: Sequence[float]
) -> FisherScan:
    """Evaluate ``image_fi`` over a set of detector planes."""
    planes = np.asarray(plane_positions, dtype=float)
    # Planes out of the ray matrix's range give inf or nan, which
    # FisherScan reports with the planes at fault.
    with np.errstate(over="ignore", invalid="ignore"):
        values = image_fi(beam, relay, planes)
    return FisherScan(plane_positions=planes, fi_values=values, qfi=qfi_gaussian(beam))


def geometric_image_plane(relay: RelaySystem) -> float:
    """Thin-lens image position f z / (z - f), from the lens.

    At this plane the relayed width is stationary in the object distance
    and the intensity profile carries no axial information.  With the
    object at the front focal plane the image is at infinity: ``math.inf``.
    """
    f = relay.focal_length
    z = relay.object_distance
    if z == f:
        return math.inf
    return f * z / (z - f)


def optimal_detection_planes(beam: BeamParams, relay: RelaySystem) -> OptimalPlanes:
    """Closed-form detector planes where ``image_fi`` reaches the
    quantum bound.

    F = Q exactly where B = +-A z_R.  With s = object_distance - f that
    puts the planes at

        z'_+ = f + f^2 / (s - z_R),    z'_- = f + f^2 / (s + z_R),

    with alpha = (s + z_R) / (s - z_R) the asymmetry of the pair about
    the image waist.  When |s| is within ``ALPHA_DEGENERACY_TOL``
    Rayleigh ranges of z_R one plane is at infinity; the reachable
    plane is then reported in both fields and alpha is NaN.
    """
    f = relay.focal_length
    s = relay.object_distance - f
    zr = beam.rayleigh_range
    if abs(abs(s) - zr) <= ALPHA_DEGENERACY_TOL * zr:
        reachable = f + f * f / (s + math.copysign(zr, s))
        return OptimalPlanes(alpha=math.nan, plane_plus=reachable, plane_minus=reachable)
    return OptimalPlanes(
        alpha=(s + zr) / (s - zr),
        plane_plus=f + f * f / (s - zr),
        plane_minus=f + f * f / (s + zr),
    )


def preferred_detection_plane(beam: BeamParams, relay: RelaySystem | None) -> float:
    """The one default detector plane.  In free space (``relay`` None):
    -z_R, a convention, as the windows of F/Q >= 0.99 around +-z_R are
    equally wide.  Behind a relay: the optimal plane farther from the
    geometric image plane (from the lens if there is no image), whose
    window is never the narrower; ``tests/test_fisher.py`` measures both
    by bisection on ``image_fi`` over seeded relays.
    """
    if relay is None:
        return -beam.rayleigh_range
    planes = optimal_detection_planes(beam, relay)
    anchor = geometric_image_plane(relay)
    if math.isinf(anchor):
        return max(planes.plane_plus, planes.plane_minus)
    if abs(planes.plane_plus - anchor) >= abs(planes.plane_minus - anchor):
        return planes.plane_plus
    return planes.plane_minus


# ---------------------------------------------------------------------------
# Radial structure of the information
# ---------------------------------------------------------------------------


def fi_density(width_sq: float, dwidth_sq_dz: float, r):
    """Radial density of classical information at radius r (a float or
    an array of radii).

    F(r) = r p(r) (d_z w^2 / w^2)^2 (2 r^2 / w^2 - 1)^2,

    normalized so that 2 pi * integral F(r) dr equals the total
    information.  Vanishes on the circle r = w / sqrt(2) where the
    intensity is first-order insensitive to defocus.
    """
    p = intensity_pdf(width_sq, r)  # checks width_sq and r
    slope = dwidth_sq_dz / width_sq
    shape = 2.0 * r * r / width_sq - 1.0
    return r * p * slope * slope * shape * shape


def info_boundary(width_sq: float) -> float:
    """Radius w / sqrt(2) of the information-free circle.  A ``width_sq``
    that is not a positive finite number raises ``ValueError``."""
    return math.sqrt(0.5 * finite_scalar("width_sq", width_sq))


def info_fraction_outside(width_sq: float, r_b: float) -> float:
    """Fraction of the classical information carried by radii beyond r_b.

    Ratio of two integrals of the radial density on the fine radial rule,
    over [r_b, inf) and over [0, inf); the slope factor cancels, so the
    result depends only on c = 2 r_b^2 / w^2.  In u = 2 (r^2 - r_b^2) / w^2
    the density over [r_b, inf) is 2 / (pi w^2) e^{-c} e^{-u}
    (c + u - 1)^2, and over [0, inf) (c = 0) 2 / (pi w^2) e^{-u} (u - 1)^2,
    so both integrands are the rules' cached window e^{-u} times a
    quadratic in the cached u (``numerics.unit_rules``), taken times the
    unit weights as the two rows of one array and reduced once
    (``numerics.rule_sums``).  No radius is built and no exponential
    is taken on the nodes: e^{-c} is one ``math.exp``, and the result is
    the same bits on every CPU.  The fine rule integrates each within
    4e-15 and the coarse one within 4e-13 (relative, for c up to 30), so
    the gap check passes with a wide margin.  A ``width_sq`` or ``r_b``
    that is not a finite number raises ``ValueError``.
    """
    finite_scalar("width_sq", width_sq)
    finite_scalar("boundary radius", r_b, "nonnegative")
    # The integrals over [r_b, inf) and over [0, inf) as the two rows of
    # one array, with c - 1 and -1 added to u; the rules' weights carry
    # the w^2 of the density's 2 / (pi w^2).
    c = 2.0 * r_b * r_b / width_sq
    rules = unit_rules()
    t = rules.u + np.array(((c - 1.0,), (-1.0,)))
    factors = np.array(((2.0 / math.pi * math.exp(-c),), (2.0 / math.pi,)))
    outside, total = (factors * rule_sums(rules.window * (t * t) * rules.weights)).tolist()
    return (check_rule_gap(*outside, 0.0, "outside information")
            / check_rule_gap(*total, 0.0, "total information"))


def info_fraction_beyond(c: float) -> float:
    """``info_fraction_outside`` in closed form, at the boundary
    c = 2 r_b^2 / w^2: integral over u > c of (u - 1)^2 e^{-u} du is
    (1 + c^2) e^{-c}, and the total is 1."""
    finite_scalar("boundary 2 r_b^2 / w^2", c, "nonnegative")
    return (1.0 + c * c) * math.exp(-c)


# ---------------------------------------------------------------------------
# Derivative-based information for arbitrary pure radial fields
# ---------------------------------------------------------------------------


# qfi_pure_state's fields are rows on the stacked radii of both rules,
# and every inner product is on the rules' unit weights, so the common
# scale^2 of the weights cancels from the normalized fields and from Q.


def _fields_on(profiles: Sequence[FieldProfile], radii: np.ndarray):
    """One row per profile, its field on ``radii``, and the squared norm
    of each row on each rule, checked positive and finite."""
    fields = np.array([profile(radii) for profile in profiles], dtype=complex)
    norm_sq = unit_rule_norms_sq(fields)
    for value in norm_sq.ravel().tolist():
        if not 0.0 < value < math.inf:
            raise NormalizationDriftError(
                f"field norm^2 = {value!r} is not a positive finite number",
                drift=float("inf"),
            )
    return fields, norm_sq


def _check_drift(norm_sq: np.ndarray) -> None:
    """``norm_sq``, renormalized fields' squared norms on each rule, are 1
    within the tolerance."""
    drift = max(abs(value - 1.0) for value in norm_sq.ravel().tolist())
    if drift > 1e-8:
        raise NormalizationDriftError(
            f"renormalized field norm drifted by {drift!r} (tolerance 1e-8)",
            drift=drift,
        )


def _normalized(profiles: Sequence[FieldProfile], radii: np.ndarray) -> np.ndarray:
    """One row per profile: its field on ``radii``, scaled to unit norm on
    each rule."""
    fields, norm_sq = _fields_on(profiles, radii)
    fields /= np.sqrt(norm_sq).repeat(unit_rules().sizes, axis=-1)
    _check_drift(unit_rule_norms_sq(fields))
    return fields


def _check_overlaps(sizes: np.ndarray, offsets: Sequence[float]) -> None:
    """Each row of ``sizes`` (|<psi_c | psi(z + offset)>| on each rule,
    one row per offset) is far from orthogonal."""
    for offset, smallest in zip(offsets, sizes.min(axis=-1).tolist()):
        if smallest < 1e-3:
            raise NumericalLimitError(
                f"field at offset {offset!r} nearly orthogonal to the center "
                "field; reduce the finite-difference step"
            )


def qfi_pure_state(
    field_family: FieldFamily,
    z: float,
    step: float | None = None,
) -> float:
    """Quantum information of a pure radial field family at parameter z.

    Q = 4 ( <d_z psi | d_z psi> - |<psi | d_z psi>|^2 )

    with the derivative taken by Richardson-extrapolated central
    differences of the renormalized profiles.  Each stencil profile is
    renormalized (so families that lose norm, e.g. after pupil
    filtering, are handled) and phase-aligned to the central profile,
    which removes any piston phase before differencing; the result is
    gauge invariant, so this only improves conditioning.

    Every inner product is taken on the fixed radial rules of
    ``numerics.RULES`` in u = 2 r^2 / s^2, where s is the central
    profile's ``.scale``, the 1/e amplitude radius of its Gaussian
    envelope, which the family's constructor states.  The field
    profiles must therefore accept an array of radii and return the
    complex field with the same shape (``beam_optics.FieldProfile``).
    Each field is evaluated once, on both node sets at once
    (``numerics.stacked_radial_rule``), and each set of fields (the
    centre with the probe below, the stencil's four) is one array.
    Every inner product is one fixed-order reduction on the rules' unit
    weights (``numerics.unit_rules``), whose common scale^2 the
    normalization cancels; folded into the conjugated centre once, they
    make each overlap with it one product and one ``numerics.rule_sums``.
    No BLAS kernel reaches Q.
    Its complex products are numpy's, fused multiply-adds wherever numpy
    dispatches AVX2 or AVX-512: Q is the same bits with the AVX-512
    loops off, not on a CPU without AVX2.  Each stencil field is
    normalized and turned onto the centre's phase by one factor per
    rule, conj(o) / (|o| |f|) with o = <psi_c | f> / |f|, and the aligned
    rows are differenced directly (``numerics.stencil_derivative``).
    Q is computed on the coarse and on the fine rule, and the fine value
    is returned.  Their gap is the error estimate: ``QuadratureError`` is
    raised when it exceeds ``numerics.RULE_TOL`` |Q| (plus a roundoff
    floor that lets a frozen family return Q = 0), e.g. when the stated
    scale is far from the field's actual width.

    By default the step is chosen from one probe field at h0 = 1e-3 |z|
    (an explicit step is required at z = 0): sqrt(Q) is the state's rate
    of change, so the truncation error scales like (sqrt(Q) step)^4, and
    the probe's overlap with the central field on the fine rule gives
    that rate as speed = 2 arccos |overlap| / h0, the Bures angle being
    sqrt(Q) h0 / 2 to second order.  The one stencil then runs at
    0.01 / speed when speed h0 > 0.02, and at h0 otherwise.  An
    explicitly passed step is used as given.  A probe or stencil field
    nearly orthogonal to the central one (|overlap| < 1e-3: the step is
    too large) raises ``NumericalLimitError``; a ``z`` or ``step`` that is
    not a finite number, or a central profile that states no positive
    finite ``.scale``, raises ``ValueError`` naming it.
    """
    finite_scalar("z", z, None)
    refine = step is None
    if step is None:
        if z == 0.0:
            raise ValueError("at z = 0 an explicit finite-difference step is required")
        step = 1e-3 * abs(z)
    finite_scalar("step", step)

    center_raw = field_family(z)
    scale = finite_scalar("transverse scale", getattr(center_raw, "scale", math.nan))
    radii = stacked_radial_rule(scale)
    rules = unit_rules()
    # centre: conj(psi_c) times the unit weights; an overlap is one rule_sums.
    if refine:
        # The Bures angle arccos |<psi(z) | psi(z + h)>| is sqrt(Q) h / 2 to
        # second order, so one probe field, normalized together with the
        # centre, gives the state's speed sqrt(Q).
        psi_c, probe = _normalized([center_raw, field_family(z + step)], radii)
        centre = psi_c.conj() * rules.weights
        size = np.abs(rule_sums(probe * centre))
        _check_overlaps(size[np.newaxis], [step])
        speed = 2.0 * math.acos(min(float(size[-1]), 1.0)) / step
        if speed * step > 0.02:
            step = 0.01 / speed
    else:
        centre = _normalized([center_raw], radii)[0].conj() * rules.weights
    offsets = (step, -step, 0.5 * step, -0.5 * step)
    fields, norm_sq = _fields_on([field_family(z + offset) for offset in offsets], radii)
    # Normalize each field and turn it onto the centre's phase, which
    # removes any piston phase.
    norms = np.sqrt(norm_sq)
    overlaps = rule_sums(fields * centre) / norms
    size = np.abs(overlaps)
    _check_overlaps(size, offsets)
    fields *= (overlaps.conj() / (size * norms)).repeat(rules.sizes, axis=-1)
    dpsi = stencil_derivative(fields, step)
    # The stencil fields' squared norms and d_z psi's, in one reduction.
    norm_sq = unit_rule_norms_sq(np.vstack((fields, dpsi)))
    _check_drift(norm_sq[:-1])
    grad_sq = norm_sq[-1].tolist()
    overlap = rule_sums(centre * dpsi).tolist()
    values = [4.0 * (g - abs(o) * abs(o)) for g, o in zip(grad_sq, overlap)]
    # Differencing unit-norm states leaves roundoff of order eps / h in
    # d_z psi; a gap below that floor says nothing about the rule.
    floor = (1e3 * sys.float_info.epsilon / step) ** 2
    return check_rule_gap(
        *values, floor,
        f"pure-state information (transverse scale={scale!r})",
    )


def _check_point_source(wavenumber: float, pupil_width: float, z: float) -> None:
    finite_scalar("wavenumber", wavenumber)
    finite_scalar("pupil width", pupil_width)
    finite_scalar("source distance", z, "nonzero")


def qfi_point_source(wavenumber: float, pupil_width: float, z: float) -> float:
    """Per-detection quantum information for ranging a point source
    through a Gaussian pupil: Q = k^2 w_l^4 / (4 z^4), taken as
    ((k w_l / z)(w_l / z))^2 / 4, so that no step leaves double range
    before Q does."""
    _check_point_source(wavenumber, pupil_width, z)
    ratio = pupil_width / z
    root = wavenumber * ratio * ratio
    return root * root / 4.0


def point_source_range_std(
    wavenumber: float, pupil_width: float, z: float, detections: int
) -> float:
    """Quantum-limited ranging precision 1 / sqrt(n Q) = 2 z^2 / (k w_l^2
    sqrt(n)), taken as 2 (z / w_l)((z / w_l) / k) / sqrt(n), so that it
    leaves double range only where the precision does, not where Q does."""
    finite_scalar("detections", detections)
    _check_point_source(wavenumber, pupil_width, z)
    ratio = abs(z) / pupil_width
    return 2.0 * ratio * (ratio / wavenumber) / math.sqrt(detections)
