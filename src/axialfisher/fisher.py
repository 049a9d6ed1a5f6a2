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
    central_derivative,
    check_rule_gap,
    stacked_radial_rule,
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
        if not (self.qfi > 0.0 and math.isfinite(self.qfi)):
            raise ValueError(f"qfi must be positive and finite, got {self.qfi}")
        if not np.isfinite(values).all():
            bad = planes[~np.isfinite(values)]
            raise NumericalLimitError(
                f"classical information is not finite at {bad.size} of {planes.size} "
                f"planes, from {float(bad.min())!r} m to {float(bad.max())!r} m: the "
                "ray matrix is out of double range there"
            )
        if values.size:
            if values.min() < 0.0:
                raise ValueError("classical information cannot be negative")
            if values.max() > self.qfi * (1.0 + 1e-9):
                raise ValueError(
                    "classical information exceeds the quantum bound: "
                    f"max F = {values.max()!r} > Q = {self.qfi!r}"
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
    fixed-order ``np.sum`` reductions (no BLAS product), and the finer
    grid's returned; ``QuadratureError`` is raised when the two differ by
    more than ``numerics.RULE_TOL``.
    """
    estimates = []
    for step in SPECTRAL_STEPS:
        grid = step * np.arange(int(10.0 / step) + 1)  # x and kappa
        weights = np.where(grid > 0.0, 2.0, 1.0)
        sq = grid * grid
        spectrum = np.sum(np.cos(np.multiply.outer(grid, grid)) * (weights * np.exp(-sq)),
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
    ``width_response``.  Equals the quantum bound at z = +-z_R and
    vanishes at the waist.
    """
    slope = width_response(beam, None, z)[1]
    return slope * slope


def classical_fi_numeric(
    width_sq_fn: Callable[[float], float], z: float, step: float
) -> float:
    """Classical information by direct radial quadrature of the score.

    F(z) = integral (d_z p)^2 / p 2 pi r dr  over r in [0, inf)

    with p the normalized intensity of squared 1/e^2 width
    ``width_sq_fn(z)`` and d_z p taken by Richardson-extrapolated central
    differences.  This is the reference the closed form is validated
    against; it shares no algebra with ``classical_fi_analytic``.

    ``step`` is the finite-difference step in meters; for a width law of
    axial scale ``scale``, ``max(1e-6 * scale, 1e-12)`` works.

    The integral is taken on both radial rules of ``numerics.RULES`` at
    scale w = sqrt(w^2(z)), with the five intensities (the centre and the
    stencil) evaluated once on both node sets
    (``numerics.stacked_radial_rule``), as the rows of one array.
    Their gap is the error estimate, checked by
    ``numerics.check_rule_gap`` above a roundoff floor of
    100 sqrt(F) eps / ``step``: each p carries a few ulps, so d_z p
    carries ~eps p / step, and F = integral (d_z p)^2 / p moves by
    ~eps sqrt(F) / step, differently on each node set.  A step so large
    that a stencil width exceeds twice w^2(z) makes the integral diverge,
    and the gap raises ``QuadratureError``.
    """
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

    radii, rules = stacked_radial_rule(math.sqrt(w_sq))
    # The centre and stencil intensities as the rows of one array: the
    # arithmetic of ``intensity_pdf``, row by row.
    column = np.array(widths_sq)[:, np.newaxis]
    p, *rows = 2.0 / (math.pi * column) * np.exp(-2.0 * radii * radii / column)
    stencil = dict(zip(offsets, rows))
    dp = central_derivative(lambda offset: stencil[offset], 0.0, step)
    # Far tail: p has underflowed, and the score with it.
    score = np.divide(dp * dp, p, out=np.zeros_like(p), where=p > 0.0)
    coarse, fine = (float(score[part] @ weights) for part, weights in rules)
    floor = 100.0 * math.sqrt(abs(fine)) * np.finfo(float).eps / step
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
    zr = beam.rayleigh_range
    return ray_width_sq(beam, a, b), 2.0 * a * b / (a * a * zr * zr + b * b)


def image_fi(beam: BeamParams, relay: RelaySystem, z_prime: float) -> float:
    """Classical information about the object distance available from
    the intensity profile at detector plane z' (a float or an array of
    planes)."""
    slope = width_response(beam, relay, z_prime)[1]
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
    """Radius w / sqrt(2) of the information-free circle."""
    if width_sq <= 0.0:
        raise ValueError(f"width_sq must be positive, got {width_sq}")
    return math.sqrt(0.5 * width_sq)


def info_fraction_outside(width_sq: float, r_b: float) -> float:
    """Fraction of the classical information carried by radii beyond r_b.

    Ratio of two sums of the radial density on the fine radial rule
    (``numerics.stacked_radial_rule``), over [r_b, inf) and over
    [0, inf); the slope factor cancels, so the result depends only on
    r_b / w.  In u = 2 (r^2 - r_b^2) / w^2 the density is e^{-u} times a
    quadratic in u, which the fine rule integrates within 4e-15 and the
    coarse one within 4e-13 (relative, for 2 r_b^2 / w^2 up to 30), so
    the gap check passes with a wide margin.
    """
    if width_sq <= 0.0:
        raise ValueError(f"width_sq must be positive, got {width_sq}")
    if r_b < 0.0:
        raise ValueError(f"boundary radius must be nonnegative, got {r_b}")

    def integral(lower: float, what: str) -> float:
        radii, rules = stacked_radial_rule(math.sqrt(width_sq), lower)
        t = 2.0 * radii * radii / width_sq - 1.0
        density = intensity_pdf(width_sq, radii) * t * t
        sums = (float(density[part] @ weights) for part, weights in rules)
        return check_rule_gap(*sums, 0.0, what)

    return integral(r_b, "outside information") / integral(0.0, "total information")


def info_fraction_beyond(c: float) -> float:
    """``info_fraction_outside`` in closed form, at the boundary
    c = 2 r_b^2 / w^2: integral over u > c of (u - 1)^2 e^{-u} du is
    (1 + c^2) e^{-c}, and the total is 1."""
    if not c >= 0.0:
        raise ValueError(f"boundary 2 r_b^2 / w^2 must be nonnegative, got {c}")
    return (1.0 + c * c) * math.exp(-c)


# ---------------------------------------------------------------------------
# Derivative-based information for arbitrary pure radial fields
# ---------------------------------------------------------------------------


#: Radii of ``_estimate_transverse_scale``'s search: 1e-12 m doubled up
#: to 119 times, ~6.6e23 m at the top.
_SCALE_LADDER = np.ldexp(1e-12, np.arange(120))
_SCALE_LADDER.flags.writeable = False


def _estimate_transverse_scale(profile: FieldProfile) -> float:
    """Radius where |profile| falls to 1/e of its axis value: the first
    radius of ``_SCALE_LADDER`` where it is below that, from one call of
    the profile on the whole ladder.  Used only to condition quadrature
    maps."""
    center = abs(profile(0.0))
    if not (center > 0.0 and math.isfinite(center)):
        raise ValueError(
            "cannot infer a transverse scale for a profile that vanishes "
            "on axis; pass transverse_scale explicitly"
        )
    # Far out on the ladder a profile may overflow or lose its phase to
    # nan; those radii lie past its scale or count as not decayed.
    with np.errstate(all="ignore"):
        below = np.abs(profile(_SCALE_LADDER)) < center / math.e
    below = np.broadcast_to(below, _SCALE_LADDER.shape)
    if not below.any():
        raise NumericalLimitError(
            "field profile does not decay; cannot infer a transverse scale"
        )
    return float(_SCALE_LADDER[np.argmax(below)])


def qfi_pure_state(
    field_family: FieldFamily,
    z: float,
    step: float | None = None,
    transverse_scale: float | None = None,
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
    ``numerics.RULES`` in u = 2 r^2 / s^2, where s is
    ``transverse_scale`` or, by default, the radius where the central
    profile's amplitude falls to 1/e.  The field
    profiles must therefore accept an array of radii and return the
    complex field with the same shape (``beam_optics.FieldProfile``).
    Each field is evaluated once, on both node sets at once
    (``numerics.stacked_radial_rule``), and the four fields of a stencil
    are normalized, aligned and differenced as the rows of one array.
    Q is computed on the coarse and on the fine rule, and the fine value
    is returned.  Their gap is the error estimate: ``QuadratureError`` is
    raised when it exceeds ``numerics.RULE_TOL`` |Q| (plus a roundoff
    floor that lets a frozen family return Q = 0), e.g. when
    ``transverse_scale`` is far from the field's actual width.

    By default the step is chosen from one probe field at h0 = 1e-3 |z|
    (an explicit step is required at z = 0): sqrt(Q) is the state's rate
    of change, so the truncation error scales like (sqrt(Q) step)^4, and
    the probe's overlap with the central field on the fine rule gives
    that rate as speed = 2 arccos |overlap| / h0, the Bures angle being
    sqrt(Q) h0 / 2 to second order.  The one stencil then runs at
    0.01 / speed when speed h0 > 0.02, and at h0 otherwise.  An
    explicitly passed step is used as given.  A probe or stencil field
    nearly orthogonal to the central one (|overlap| < 1e-3: the step is
    too large) or, with no ``transverse_scale``, a profile that does not
    decay raises ``NumericalLimitError``.
    """
    refine = step is None
    if step is None:
        if z == 0.0:
            raise ValueError("at z = 0 an explicit finite-difference step is required")
        step = 1e-3 * abs(z)
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")

    center_raw = field_family(z)
    if transverse_scale is None:
        transverse_scale = _estimate_transverse_scale(center_raw)
    if transverse_scale <= 0.0:
        raise ValueError(f"transverse_scale must be positive, got {transverse_scale}")
    radii, rules = stacked_radial_rule(transverse_scale)
    # Rule j's weights in column j and zeros on the other rule's nodes, so
    # one product gives every field's sums on both rules; ``node_rule``
    # spreads a per-rule factor back over the nodes.
    weights = np.zeros((radii.size, len(rules)))
    node_rule = np.empty(radii.size, dtype=int)
    for column, (part, rule_weights) in enumerate(rules):
        weights[part, column] = rule_weights
        node_rule[part] = column

    def normalized(profiles: Sequence[FieldProfile]) -> np.ndarray:
        """One row per profile: its field on ``radii``, scaled to unit
        norm on each rule's nodes."""
        fields = np.empty((len(profiles), radii.size), dtype=complex)
        for row, profile in zip(fields, profiles):
            row[...] = profile(radii)
        norm_sq = (fields.real**2 + fields.imag**2) @ weights
        if not 0.0 < norm_sq.min() <= norm_sq.max() < math.inf:
            bad = next(v for v in norm_sq.flat if not 0.0 < v < math.inf)
            raise NormalizationDriftError(
                f"field norm^2 = {float(bad)!r} is not a positive finite number",
                drift=float("inf"),
            )
        fields /= np.sqrt(norm_sq)[:, node_rule]
        drift = float(np.abs((fields.real**2 + fields.imag**2) @ weights - 1.0).max())
        if drift > 1e-8:
            raise NormalizationDriftError(
                f"renormalized field norm drifted by {drift!r} (tolerance 1e-8)",
                drift=drift,
            )
        return fields

    psi_c_conj = normalized([center_raw])[0].conj()

    def fields_and_overlaps(offsets: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """The normalized fields at ``offsets`` and their overlaps with
        the central field on each rule."""
        fields = normalized([field_family(z + offset) for offset in offsets])
        overlap = (fields * psi_c_conj) @ weights
        too_small = np.abs(overlap).min(axis=1) < 1e-3
        if too_small.any():
            raise NumericalLimitError(
                f"field at offset {offsets[int(np.argmax(too_small))]!r} nearly "
                "orthogonal to the center field; reduce the finite-difference step"
            )
        return fields, overlap

    def evaluate(h: float) -> float:
        offsets = (h, -h, 0.5 * h, -0.5 * h)
        fields, overlap = fields_and_overlaps(offsets)
        fields *= (overlap.conj() / np.abs(overlap))[:, node_rule]
        stencil = dict(zip(offsets, fields))
        dpsi = central_derivative(lambda offset: stencil[offset], 0.0, h)
        grad_sq = (dpsi.real**2 + dpsi.imag**2) @ weights
        overlap = (psi_c_conj * dpsi) @ weights
        values = 4.0 * (grad_sq - np.abs(overlap) ** 2)
        # Differencing unit-norm states leaves roundoff of order eps / h in
        # d_z psi; a gap below that floor says nothing about the rule.
        floor = (1e3 * np.finfo(float).eps / h) ** 2
        return check_rule_gap(
            *values.tolist(), floor,
            f"pure-state information (transverse scale={transverse_scale!r})",
        )

    if not refine:
        return evaluate(step)
    # The Bures angle arccos |<psi(z) | psi(z + h)>| is sqrt(Q) h / 2 to
    # second order, so one probe field gives the state's speed sqrt(Q).
    overlap = fields_and_overlaps([step])[1][0, -1]
    speed = 2.0 * math.acos(min(abs(overlap), 1.0)) / step
    return evaluate(0.01 / speed if speed * step > 0.02 else step)


def _check_point_source(wavenumber: float, pupil_width: float, z: float) -> None:
    if wavenumber <= 0.0:
        raise ValueError(f"wavenumber must be positive, got {wavenumber}")
    if pupil_width <= 0.0:
        raise ValueError(f"pupil width must be positive, got {pupil_width}")
    if z == 0.0:
        raise ValueError("source distance must be nonzero")
    for name, value in (("wavenumber", wavenumber), ("pupil width", pupil_width),
                        ("source distance", z)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


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
    if detections <= 0:
        raise ValueError(f"detections must be positive, got {detections}")
    _check_point_source(wavenumber, pupil_width, z)
    ratio = abs(z) / pupil_width
    return 2.0 * ratio * (ratio / wavenumber) / math.sqrt(detections)
