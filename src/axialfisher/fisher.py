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
    DEFAULT_REL_TOL,
    NumericalLimitError,
    QuadratureError,
    bessel_j0,
    central_derivative,
    integral_to_infinity,
    radial_rule,
)

#: Pinned relative step for axial finite differences, in units of the
#: caller's axial scale.
FD_STEP_FRACTION = 1e-6

#: Absolute floor for axial finite-difference steps [m].
FD_STEP_FLOOR = 1e-12

#: Gauss-Laguerre orders of the pure-state inner products: the answer
#: comes from the finer rule, and the gap to the coarser one is its
#: error estimate.
PURE_STATE_NODES = (48, 96)

#: Largest relative gap between the two pure-state rules.
PURE_STATE_TOL = 1e-10

#: Relative tolerance of the outside-fraction quadratures.
FRACTION_QUAD_TOL = 1e-11

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
def _waist_mode_spectral_moments() -> tuple[float, float, float]:
    """Moments (M0, M2, M4) of the waist mode's spatial-frequency density.

    Works in dimensionless variables u = r / w0, kappa = q * w0.  The
    transform g~(kappa) = integral g(u) J0(kappa u) u du of the mode
    g(u) = sqrt(2 / pi) e^{-u^2} is evaluated by quadrature at each kappa
    node of the outer moment integrals, so the momentum-space density is
    obtained numerically rather than from the known closed form.

    Both integrals are Gauss-Laguerre rules (``numerics.radial_rule``):
    in u with the mode's own window e^{-u^2} (scale sqrt 2), and in kappa
    with scale 2, the width a spectral density of that window has by the
    uncertainty relation.  The moments are taken on 48 and on 96 nodes in
    both variables and the 96-node values returned; ``QuadratureError``
    is raised when the two differ by more than ``PURE_STATE_TOL``.
    """
    amp = math.sqrt(2.0 / math.pi)
    estimates = []
    for nodes in PURE_STATE_NODES:
        u, u_weights = radial_rule(math.sqrt(2.0), nodes)
        kappa, kappa_weights = radial_rule(2.0, nodes)
        # radial_rule integrates against 2 pi u du; the transform wants u du.
        mode = u_weights * amp * np.exp(-u * u) / (2.0 * math.pi)
        density = (bessel_j0(np.multiply.outer(kappa, u)) @ mode) ** 2
        estimates.append([float(kappa_weights @ (kappa**power * density))
                          for power in (0, 2, 4)])
    for coarse, fine in zip(*estimates):
        if not abs(coarse - fine) <= PURE_STATE_TOL * abs(fine):
            raise QuadratureError(
                f"spectral moment differs by {abs(coarse - fine)!r} between "
                f"{PURE_STATE_NODES[0]} and {PURE_STATE_NODES[1]} Gauss-Laguerre "
                f"nodes (value={fine!r})",
                estimate=abs(coarse - fine),
            )
    m0, m2, m4 = estimates[1]
    return m0, m2, m4


def generator_moments(beam: BeamParams) -> tuple[float, float]:
    """First and second moments of the axial-displacement generator on
    the waist mode, from spectral-domain quadrature.

    The generator acts multiplicatively in the transverse frequency
    domain with eigenvalue -q^2 / (2k); the moments are taken against
    the numerically transformed mode.
    """
    m0, m2, m4 = _waist_mode_spectral_moments()
    k = beam.wavenumber
    w0_sq = beam.waist**2
    mean = -(m2 / m0) / (2.0 * k * w0_sq)
    second = (m4 / m0) / (4.0 * (k * w0_sq) ** 2)
    return mean, second


def qfi_via_generator(beam: BeamParams) -> float:
    """Quantum information as four times the generator variance.

    An independent route to ``qfi_gaussian``: nothing here assumes the
    1 / z_R^2 form, it emerges from the frequency-domain moments.
    """
    mean, second = generator_moments(beam)
    if not mean < 0.0:
        raise ArithmeticError(
            f"generator mean should be negative, got {mean!r}; "
            "spectral quadrature is inconsistent"
        )
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
    width_fn: Callable[[float], float],
    z: float,
    step: float,
    quad_tol: float = DEFAULT_REL_TOL,
) -> float:
    """Classical information by direct radial quadrature of the score.

    F(z) = 2 pi * integral r (d_z p)^2 / p dr  over r in [0, inf)

    with p the normalized intensity for the width law ``width_fn`` and
    d_z p taken by Richardson-extrapolated central differences.  This is
    the reference the closed form is validated against; it shares no
    algebra with ``classical_fi_analytic``.

    ``step`` is the finite-difference step in meters; for a width law of
    axial scale ``scale``, ``max(1e-6 * scale, 1e-12)`` works.
    """
    if not 0.0 < quad_tol <= 1e-4:
        raise ValueError(f"quad_tol must lie in (0, 1e-4], got {quad_tol}")
    w_center = width_fn(z)
    if not (w_center > 0.0 and math.isfinite(w_center)):
        raise ValueError(f"width_fn returned a non-positive width {w_center!r} at z={z!r}")

    widths = {}
    for offset in (step, -step, 0.5 * step, -0.5 * step):
        w = width_fn(z + offset)
        if not (w > 0.0 and math.isfinite(w)):
            raise ValueError(f"width_fn returned {w!r} at z={z + offset!r}")
        widths[offset] = w

    def integrand(r: np.ndarray) -> np.ndarray:
        p = intensity_pdf(w_center, r)
        dp = central_derivative(
            lambda offset: intensity_pdf(widths[offset], r), 0.0, step
        )
        # Far tail: p has underflowed, and the score with it.
        return np.divide(r * dp * dp, p, out=np.zeros_like(p), where=p > 0.0)

    return 2.0 * math.pi * integral_to_infinity(
        integrand, scale=math.sqrt(w_center), rel_tol=quad_tol
    )


def beam_fi_numeric(beam: BeamParams, z: float, quad_tol: float = DEFAULT_REL_TOL) -> float:
    """``classical_fi_numeric`` for a free beam, with the step pinned to
    the beam's Rayleigh range."""
    return classical_fi_numeric(
        lambda zz: beam_width_sq(beam, zz),
        z,
        quad_tol=quad_tol,
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
    the image waist.  When |s -+ z_R| is within ``ALPHA_DEGENERACY_TOL``
    Rayleigh ranges of zero one plane is at infinity; the reachable
    plane is then reported in both fields and alpha is NaN.
    """
    f = relay.focal_length
    s = relay.object_distance - f
    zr = beam.rayleigh_range
    if abs(s - zr) <= ALPHA_DEGENERACY_TOL * zr:
        reachable = f + f * f / (s + zr)
        return OptimalPlanes(alpha=math.nan, plane_plus=reachable, plane_minus=reachable)
    if abs(s + zr) <= ALPHA_DEGENERACY_TOL * zr:
        reachable = f + f * f / (s - zr)
        return OptimalPlanes(alpha=math.nan, plane_plus=reachable, plane_minus=reachable)
    return OptimalPlanes(
        alpha=(s + zr) / (s - zr),
        plane_plus=f + f * f / (s - zr),
        plane_minus=f + f * f / (s + zr),
    )


def preferred_detection_plane(beam: BeamParams, relay: RelaySystem) -> float:
    """Single default detector plane for downstream consumers.

    Of the two optimal planes, prefer the one farther from the geometric
    image plane (more defocus, which tolerates camera-placement error
    better).  If the geometric image does not exist, take the plane
    farther from the lens.
    """
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

    Quadrature ratio of the radial density; the slope factor cancels, so
    the result depends only on r_b / w.
    """
    if width_sq <= 0.0:
        raise ValueError(f"width_sq must be positive, got {width_sq}")
    if r_b < 0.0:
        raise ValueError(f"boundary radius must be nonnegative, got {r_b}")

    def shape(r: np.ndarray) -> np.ndarray:
        t = 2.0 * r * r / width_sq - 1.0
        return r * intensity_pdf(width_sq, r) * t * t

    scale = math.sqrt(width_sq)
    total = integral_to_infinity(shape, scale=scale, rel_tol=FRACTION_QUAD_TOL)
    outside = integral_to_infinity(
        shape, scale=scale, lower=r_b, rel_tol=FRACTION_QUAD_TOL
    )
    return outside / total


# ---------------------------------------------------------------------------
# Derivative-based information for arbitrary pure radial fields
# ---------------------------------------------------------------------------


def _estimate_transverse_scale(profile: FieldProfile) -> float:
    """Radius where |profile| falls to 1/e of its axis value, found by
    geometric search.  Used only to condition quadrature maps."""
    center = abs(profile(0.0))
    if not (center > 0.0 and math.isfinite(center)):
        raise ValueError(
            "cannot infer a transverse scale for a profile that vanishes "
            "on axis; pass transverse_scale explicitly"
        )
    target = center / math.e
    r = 1e-12
    for _ in range(120):
        if abs(profile(r)) < target:
            return r
        r *= 2.0
    raise NumericalLimitError("field profile does not decay; cannot infer a transverse scale")


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

    Every inner product is a fixed Gauss-Laguerre rule in
    u = 2 r^2 / s^2 (``numerics.radial_rule``), where s is
    ``transverse_scale`` or, by default, the radius where the central
    profile's amplitude falls to 1/e.  The field profiles must therefore
    accept an array of radii and return the complex field with the same
    shape (``beam_optics.FieldProfile``); each is evaluated once on each
    node set.  Q is computed on 48 and on 96 nodes, and the 96-node value
    is returned.  Their gap is the error estimate: ``QuadratureError``
    is raised when it exceeds ``PURE_STATE_TOL`` |Q| (plus a roundoff
    floor that lets a frozen family return Q = 0), e.g. when
    ``transverse_scale`` is far from the field's actual width.

    ``step`` defaults to 1e-3 |z| (an explicit value is required at
    z = 0) and is then refined once against the result: sqrt(Q) is the
    state's rate of change, so the truncation error scales like
    (sqrt(Q) step)^4 and a first estimate of Q tells us the step that
    meets the tolerance.  An explicitly passed step is used as given.
    A stencil field nearly orthogonal to the central one (the step is too
    large) or, with no ``transverse_scale``, a profile that does not decay
    raises ``NumericalLimitError``.
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
    rules = [radial_rule(transverse_scale, nodes) for nodes in PURE_STATE_NODES]

    def normalized(profile: FieldProfile) -> list[np.ndarray]:
        """``profile`` on each rule's radii, scaled to unit norm there."""
        samples = []
        for radii, weights in rules:
            values = np.asarray(profile(radii), dtype=complex)
            norm_sq = float(np.dot(weights, values.real**2 + values.imag**2))
            if not (norm_sq > 0.0 and math.isfinite(norm_sq)):
                raise NormalizationDriftError(
                    f"field norm^2 = {norm_sq!r} is not a positive finite number",
                    drift=float("inf"),
                )
            values = values / math.sqrt(norm_sq)
            drift = abs(float(np.dot(weights, values.real**2 + values.imag**2)) - 1.0)
            if drift > 1e-8:
                raise NormalizationDriftError(
                    f"renormalized field norm drifted by {drift!r} (tolerance 1e-8)",
                    drift=drift,
                )
            samples.append(values)
        return samples

    psi_c = normalized(center_raw)

    def aligned(offset: float) -> list[np.ndarray]:
        samples = normalized(field_family(z + offset))
        for index, (_, weights) in enumerate(rules):
            overlap = np.dot(weights, psi_c[index].conj() * samples[index])
            mag = abs(overlap)
            if mag < 1e-3:
                raise NumericalLimitError(
                    f"stencil field at offset {offset!r} nearly orthogonal to the "
                    "center field; reduce the finite-difference step"
                )
            samples[index] = samples[index] * (overlap.conjugate() / mag)
        return samples

    def evaluate(h: float) -> float:
        stencil = {offset: aligned(offset) for offset in (h, -h, 0.5 * h, -0.5 * h)}
        values = []
        for index, (_, weights) in enumerate(rules):
            dpsi = central_derivative(lambda offset: stencil[offset][index], 0.0, h)
            grad_sq = np.dot(weights, dpsi.real**2 + dpsi.imag**2)
            overlap = np.dot(weights, psi_c[index].conj() * dpsi)
            values.append(float(4.0 * (grad_sq - abs(overlap) ** 2)))
        coarse, fine = values
        # Differencing unit-norm states leaves roundoff of order eps / h in
        # d_z psi; a gap below that floor says nothing about the rule.
        floor = (1e3 * np.finfo(float).eps / h) ** 2
        gap = abs(coarse - fine)
        if not gap <= PURE_STATE_TOL * abs(fine) + floor:
            raise QuadratureError(
                f"pure-state information differs by {gap!r} between "
                f"{PURE_STATE_NODES[0]} and {PURE_STATE_NODES[1]} Gauss-Laguerre "
                f"nodes (value={fine!r}, transverse scale={transverse_scale!r})",
                estimate=gap,
            )
        return fine

    result = evaluate(step)
    if refine and result > 0.0:
        speed = math.sqrt(result)
        if speed * step > 0.02:
            result = evaluate(0.01 / speed)
    return result


def qfi_point_source(wavenumber: float, pupil_width: float, z: float) -> float:
    """Per-detection quantum information for ranging a point source
    through a Gaussian pupil: Q = k^2 w_l^4 / (4 z^4)."""
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
    return (wavenumber * pupil_width * pupil_width) ** 2 / (4.0 * z**4)


def point_source_range_std(
    wavenumber: float, pupil_width: float, z: float, detections: int
) -> float:
    """Quantum-limited ranging precision 2 z^2 / (k w_l^2 sqrt(n))."""
    if detections <= 0:
        raise ValueError(f"detections must be positive, got {detections}")
    return 1.0 / math.sqrt(detections * qfi_point_source(wavenumber, pupil_width, z))
