"""Command-line front end.

Subcommands:

* ``fi-scan``              information vs detector plane behind a relay
* ``fi-density``           radial information and intensity profiles
* ``optimal-plane``        closed-form optimal detector planes
* ``point-source``         quantum ranging limit through a Gaussian pupil
* ``simulate``             seeded Monte Carlo estimator benchmark
* ``reproduce-experiment`` preset benchmark with pass/fail checks

Lengths on the command line accept unit suffixes (nm, um, mm, m, km);
internally everything is SI meters.  Every output file starts with a
header that embeds the resolved configuration (and, for the Monte Carlo
commands, the seed), so artifacts are self-describing and runs can be
reproduced from the file alone.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 check
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .beam_optics import BeamParams, RelaySystem, intensity_pdf
from .estimators import (
    ESTIMATORS,
    TrialConfig,
    TrialReport,
    UninformativePlaneError,
    calibrate,
    expected_fraction_estimate,
    fraction_estimator_fi,
    run_trials,
)
from .fisher import (
    NormalizationDriftError,
    fi_density,
    geometric_image_plane,
    image_fi,
    info_boundary,
    info_fraction_beyond,
    optimal_detection_planes,
    point_source_range_std,
    preferred_detection_plane,
    qfi_gaussian,
    qfi_point_source,
    scan_image_fi,
    width_response,
)
from .numerics import NumericalLimitError, QuadratureError, finite_scalar

#: Fixed default seed so that bare invocations are reproducible.
DEFAULT_SEED = 0xA71A10C

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_CHECK_FAILED = 3

_UNIT_FACTORS = {
    "nm": 1e-9,
    "um": 1e-6,
    "µm": 1e-6,
    "mm": 1e-3,
    "m": 1.0,
    "km": 1e3,
}

_LENGTH_RE = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*([a-zµ]*)\s*$"
)

# Preset matching the tabletop configuration the benchmark mirrors.
_PRESET_WAVELENGTH = 632.8e-9
_PRESET_RAYLEIGH = 18.9e-6
_PRESET_N_PER_TRIAL = 1_600_000
_PRESET_TRIALS = 200
_PRESET_DELTAS = "10nm,100nm,400nm,1000nm,1650nm"

_STD_CHECK_REL_TOL = 0.10
_BIAS_CHECK_REL_TOL = 0.05
#: A relay fails when F/Q at one of its optimal planes is further below 1.
_PLANE_FI_TOL = 1e-6

_TRIAL_COLUMNS = ("trial_index", "seed", "n", "count_outside", "delta_hat_m")
_REPRODUCE_COLUMNS = (
    "true_delta_m",
    "mle_mean_m",
    "mle_std_m",
    "fraction_mean_m",
    "fraction_std_m",
    "fraction_response_m",
    "quantum_bound_m",
    "fraction_bound_m",
)


class UsageError(Exception):
    """Bad flags or parameter values; maps to exit code 1."""


#: "-1m" and "-6e-5" are values, not options (argparse's pattern takes only "-1", "-0.5").
_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _in_domain(text: str, value, refusal: str, sign: str | None = None,
               at_most: int | None = None):
    """``value``, parsed from ``text``, if the library's one rule,
    ``numerics.finite_scalar``, takes it; else the usage error ``refusal``."""
    try:
        return finite_scalar(text, value, sign, at_most)
    except ValueError:
        raise argparse.ArgumentTypeError(refusal) from None


def parse_length(text: str) -> float:
    """Parse a length with an optional unit suffix into meters; one that
    overflows a double is rejected here rather than failing downstream.

    This and the other ``type=`` functions raise
    ``argparse.ArgumentTypeError``, so the usage error names the flag."""
    match = _LENGTH_RE.match(text)
    if not match:
        raise argparse.ArgumentTypeError(f"cannot parse length {text!r}")
    value, unit = match.groups()
    try:
        meters = float(value) * _UNIT_FACTORS[unit] if unit else float(value)
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown length unit {unit!r} in {text!r}; use one of "
            + ", ".join(sorted(set(_UNIT_FACTORS) - {"µm"}))
        ) from None
    return _in_domain(text, meters, f"length {text!r} overflows a double")


def parse_delta_list(text: str) -> list[float]:
    items = [piece for piece in text.split(",") if piece.strip()]
    if not items:
        raise argparse.ArgumentTypeError(f"empty displacement list {text!r}")
    return [parse_length(piece) for piece in items]


def _at_least(minimum: int):
    """The domain of an integer flag: integers from ``minimum`` up that
    fit in a double, decided as the flag is parsed."""
    def at_least(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            kind = "a positive integer" if minimum == 1 else f"an integer of at least {minimum}"
            raise argparse.ArgumentTypeError(f"expected {kind}, got {value}")
        return _in_domain(text, value, f"integer {text!r} overflows a double")
    return at_least


def _restricted(parse, sign: str = "positive"):
    """``parse`` restricted to the finite values of ``sign``: positive,
    or nonzero for --focal and --distance."""
    def restricted(text: str) -> float:
        return _in_domain(text, parse(text), f"expected a {sign} finite value, got {text!r}", sign)
    restricted.__name__ = parse.__name__  # argparse's "invalid float value: 'x'"
    return restricted


def _seed(text: str) -> int:
    try:
        value = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}") from None
    return _in_domain(text, value, f"seed must fit in 64 bits, got {value}", "nonnegative",
                      at_most=2**64 - 1)


# ---------------------------------------------------------------------------
# Self-describing output helpers
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    """A header value or CSV cell: a float's round-tripping repr, else str."""
    return repr(value) if isinstance(value, float) else str(value)


def render_header(config: dict) -> str:
    """One-line ``# key=value`` header embedding the resolved config."""
    parts = []
    for key in sorted(config):
        value = config[key]
        rendered = _cell(value)
        if any(ch.isspace() for ch in rendered):
            raise ValueError(f"config value for {key!r} contains whitespace: {value!r}")
        parts.append(f"{key}={rendered}")
    return "# " + " ".join(parts)


def _jsonify(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    return value


def write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(_jsonify(payload), indent=2, sort_keys=True) + "\n",
        encoding="ascii",
    )


def write_csv(
    path: Path, config: dict, columns: Sequence[str], rows: Iterable[Sequence]
) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(render_header(config) + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def _write_json(args, stem: str, payload: dict) -> None:
    """Write ``payload`` to ``<stem>.json``, or to --out."""
    out = Path(args.out or f"{stem}.json")
    write_json(out, payload)
    print(f"wrote {out}")


def _write_table(
    args, stem: str, csv_config: dict, columns: Sequence[str], rows: list,
    sidecar: dict, full: dict | None = None,
) -> None:
    """Write a command's table: ``<stem>.csv`` (headed by ``csv_config``)
    plus a ``.json`` sidecar, or with ``--format json`` one JSON file
    holding ``full`` when given, else the sidecar with the columns and
    rows added."""
    if args.format == "json":
        if full is None:
            full = {**sidecar, "columns": list(columns), "rows": rows}
        _write_json(args, stem, full)
    else:
        out = Path(args.out or f"{stem}.csv")
        write_csv(out, csv_config, columns, rows)
        sidecar_path = out.with_suffix(".json")
        write_json(sidecar_path, sidecar)
        print(f"wrote {out} and {sidecar_path}")


# ---------------------------------------------------------------------------
# Shared flag groups
# ---------------------------------------------------------------------------


def _add_common(
    parser: argparse.ArgumentParser, *, seed: bool = False, tabular: bool = False
) -> None:
    """--out and --config everywhere; --seed for the sampling commands
    and --format for the ones that write a table."""
    if seed:
        parser.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                            help="base RNG seed (default %(default)#x)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="output path (default: command-specific name in cwd)")
    if tabular:
        parser.add_argument("--format", choices=("csv", "json"), default="csv",
                            help="tabular output format (default %(default)s)")
    parser.add_argument("--config", default=None, metavar="PATH",
                        help="key=value file supplying defaults for these flags")


def _add_beam(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--wavelength", type=_restricted(parse_length), default=None,
                        help="vacuum wavelength, e.g. 632.8nm")
    parser.add_argument("--waist", type=_restricted(parse_length), default=None,
                        help="beam waist radius, e.g. 1.95um")
    parser.add_argument("--rayleigh-range", type=_restricted(parse_length), default=None,
                        help="Rayleigh range, e.g. 18.9um")


def _add_relay(parser: argparse.ArgumentParser, plane: bool = False) -> None:
    """--focal and --object-distance, and --plane for a command that reads one."""
    parser.add_argument("--focal", type=_restricted(parse_length, "nonzero"), default=None,
                        help="relay focal length")
    parser.add_argument("--object-distance", type=parse_length, default=None,
                        help="waist-to-lens distance")
    if plane:
        parser.add_argument("--plane", type=parse_length, default=None,
                            help="detector plane (default: -z_R, or the preferred "
                            "optimal plane behind a relay)")


_BEAM_FLAGS = ("wavelength", "waist", "rayleigh_range")


def beam_from_args(args) -> BeamParams:
    """The beam of the two beam flags given.  It is a numerical limit,
    naming the two, unless lambda, w0, z_R and 1 / z_R^2, as ``BeamParams``
    and ``qfi_gaussian`` compute them, all lie in (0, inf)."""
    values = [getattr(args, name, None) for name in _BEAM_FLAGS]
    given = [name.replace("_", "-") for name, value in zip(_BEAM_FLAGS, values)
             if value is not None]
    if len(given) != 2:
        raise UsageError(
            "specify exactly two of --wavelength/--waist/--rayleigh-range "
            f"(got {sorted(given) or 'none'})"
        )
    wavelength, waist, rayleigh = values
    if waist is None:
        waist = math.sqrt(rayleigh * wavelength / math.pi)
    elif wavelength is None:
        wavelength = math.pi * (waist * waist) / rayleigh
    # A derived wavelength of 0 is reported before the z_R it would divide.
    rayleigh = math.pi * (waist * waist) / wavelength if wavelength else math.inf
    rayleigh_sq = rayleigh * rayleigh
    for name, value, unit in (
        ("the wavelength lambda", wavelength, "m"),
        ("the waist w0", waist, "m"),
        ("the Rayleigh range z_R", rayleigh, "m"),
        ("the information 1 / z_R^2", 1.0 / rayleigh_sq if rayleigh_sq else math.inf, "/m^2"),
    ):
        if not 0.0 < value < math.inf:
            raise NumericalLimitError(f"{_beam_flags(args)} give {name} = {value!r} {unit}, "
                                      "which is out of double range")
    return BeamParams(wavelength, waist)


def _beam_flags(args) -> str:
    """The two beam flags the run gave, with their values."""
    return " and ".join(f"--{name.replace('_', '-')} {getattr(args, name)!r} m"
                        for name in _BEAM_FLAGS if getattr(args, name, None) is not None)


def relay_from_args(args, beam: BeamParams, required: bool = False) -> RelaySystem | None:
    """The relay of --focal and --object-distance, if given.  It is a
    numerical limit when its optimal planes f + f^2 / (s -+ z_R) overflow,
    round to the focal plane (A = 0: no information), collapse onto one
    plane out of the degenerate geometry, or miss F/Q = 1 by
    ``_PLANE_FI_TOL``."""
    if args.focal is None and args.object_distance is None:
        if required:
            raise UsageError(
                f"{args.command} needs a relay: --focal and --object-distance"
            )
        return None
    if args.focal is None or args.object_distance is None:
        raise UsageError("--focal and --object-distance must be given together")
    relay = RelaySystem(args.focal, args.object_distance)
    try:
        planes = optimal_detection_planes(beam, relay)
    except ValueError:  # OptimalPlanes rejects planes that are not finite
        raise NumericalLimitError(
            f"--focal {args.focal!r} m is too long for double precision: the optimal "
            "planes f + f^2 / (s -+ z_R) overflow"
        ) from None
    plus, minus = planes.plane_plus, planes.plane_minus
    if relay.focal_length in (plus, minus):
        raise NumericalLimitError(
            f"--focal {args.focal!r} m is too short for double precision: the "
            "optimal planes f + f^2 / (s -+ z_R) round to the focal plane"
        )
    try:
        ratio_plus, ratio_minus = _fi_over_qfi(beam, relay, plus, minus)
    except ZeroDivisionError:  # A^2 z_R^2 + B^2 underflows to 0 at a plane
        ratio_plus = ratio_minus = math.nan
    collapsed = plus == minus and not math.isnan(planes.alpha)
    if collapsed or not (ratio_plus >= 1.0 - _PLANE_FI_TOL and ratio_minus >= 1.0 - _PLANE_FI_TOL):
        raise NumericalLimitError(
            f"{_beam_flags(args)} give z_R = {beam.rayleigh_range!r} m, too short for double "
            f"precision behind this relay: the optimal planes f + f^2 / (s -+ z_R) are {plus!r} "
            f"m and {minus!r} m, where F/Q is {ratio_plus!r} and {ratio_minus!r} instead of 1"
        )
    return relay


def plane_from_args(args, beam: BeamParams, relay: RelaySystem | None) -> float:
    """--plane, whose squared beam width must stay in double range, or
    else ``preferred_detection_plane``."""
    if args.plane is None:
        return preferred_detection_plane(beam, relay)
    if not math.isfinite(width_response(beam, relay, args.plane)[0]):
        raise NumericalLimitError(
            f"--plane {args.plane!r} m is too far for double precision: the squared "
            "beam width there overflows"
        )
    return args.plane


def _plane_flags(args) -> str:
    """--plane when the run passed it, else the flags that set the
    default plane."""
    if getattr(args, "plane", None) is not None:
        return "--plane"
    setters = (*_BEAM_FLAGS, "focal", "object_distance")
    return ", ".join("--" + name.replace("_", "-") for name in setters
                     if getattr(args, name, None) is not None)


def _fi_over_qfi(beam: BeamParams, relay: RelaySystem, *planes: float) -> list[float]:
    """F/Q at each of ``planes`` behind ``relay``."""
    qfi = qfi_gaussian(beam)
    return [image_fi(beam, relay, plane) / qfi for plane in planes]


def _beam_config(beam: BeamParams, relay: RelaySystem | None = None) -> dict:
    config = {"wavelength_m": beam.wavelength, "waist_m": beam.waist}
    if relay is not None:
        config["focal_m"] = relay.focal_length
        config["object_distance_m"] = relay.object_distance
    return config


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _plane_markers(beam: BeamParams, relay: RelaySystem) -> dict:
    """The closed-form optimal planes behind ``relay`` and the geometric
    image plane (infinite, so null in JSON, with the object at the front
    focal plane)."""
    planes = optimal_detection_planes(beam, relay)
    return {
        "alpha": planes.alpha,
        "fallback": math.isnan(planes.alpha),
        "plane_plus_m": planes.plane_plus,
        "plane_minus_m": planes.plane_minus,
        "geometric_image_plane_m": geometric_image_plane(relay),
    }


def cmd_fi_scan(args) -> int:
    beam = beam_from_args(args)
    relay = relay_from_args(args, beam, required=True)
    if not args.zmax > args.zmin:
        raise UsageError("--zmax must exceed --zmin")
    planes = np.linspace(args.zmin, args.zmax, args.steps)
    try:
        scan = scan_image_fi(beam, relay, planes)
    except NumericalLimitError as fault:
        raise NumericalLimitError(
            f"--zmin {args.zmin!r} m to --zmax {args.zmax!r} m: {fault}") from None
    config = {
        "command": "fi-scan",
        "steps": args.steps,
        "zmax_m": args.zmax,
        "zmin_m": args.zmin,
        **_beam_config(beam, relay),
    }
    markers = {"qfi_per_m2": scan.qfi, **_plane_markers(beam, relay)}
    rows = [
        (float(zp), float(fi), float(fi / scan.qfi))
        for zp, fi in zip(scan.plane_positions, scan.fi_values)
    ]
    _write_table(args, "fi_scan", config, ("z_prime_m", "fi_per_m2", "fi_over_qfi"),
                 rows, {"config": config, "markers": markers})
    return EXIT_OK


def cmd_fi_density(args) -> int:
    beam = beam_from_args(args)
    relay = relay_from_args(args, beam)
    plane = plane_from_args(args, beam, relay)
    w_sq, log_slope = width_response(beam, relay, plane)
    dw_sq = w_sq * log_slope
    if dw_sq == 0.0:
        raise UninformativePlaneError(
            f"plane {plane!r} has zero axial sensitivity; no information density"
        )
    rmax = args.rmax if args.rmax is not None else 3.0 * math.sqrt(w_sq)
    if not 2.0 * rmax * rmax / w_sq < math.inf:
        raise NumericalLimitError(
            f"--rmax {rmax!r} m is too large for double precision: 2 r^2 / w^2 overflows"
        )

    radii = np.linspace(0.0, rmax, args.steps)
    with np.errstate(over="ignore", invalid="ignore"):
        density = fi_density(w_sq, dw_sq, radii)
    if not np.isfinite(density).all():
        raise NumericalLimitError(
            f"{_beam_flags(args)} give z_R = {beam.rayleigh_range!r} m, too short for double "
            "precision at this plane: the information density r p(r) (d ln w^2 / dz)^2 overflows"
        )
    if not density.max() > 0.0:
        raise NumericalLimitError(
            f"--rmax {rmax!r} m is too large for --steps {args.steps}: the information "
            "density underflows to 0 at every radius sampled"
        )
    intensity = intensity_pdf(w_sq, radii)
    r_b = info_boundary(w_sq)

    config = {
        "command": "fi-density",
        "plane_m": plane,
        "rmax_m": rmax,
        "steps": args.steps,
        **_beam_config(beam, relay),
    }

    summary = {
        "boundary_radius_m": r_b,
        "fraction_outside": info_fraction_beyond(2.0 * r_b * r_b / w_sq),
        "width_sq_m2": w_sq,
        "dwidth_sq_dz_m": dw_sq,
    }
    rows = [
        (float(r), float(d / density.max()), float(i / intensity.max()))
        for r, d, i in zip(radii, density, intensity)
    ]
    _write_table(args, "fi_density", config, ("r_m", "fi_density_norm", "intensity_norm"),
                 rows, {"config": config, "summary": summary})
    return EXIT_OK


def cmd_optimal_plane(args) -> int:
    beam = beam_from_args(args)
    relay = relay_from_args(args, beam, required=True)
    config = {
        "command": "optimal-plane",
        **_beam_config(beam, relay),
    }
    markers = _plane_markers(beam, relay)
    plus, minus = markers["plane_plus_m"], markers["plane_minus_m"]
    geometric = markers["geometric_image_plane_m"]
    ratio_plus, ratio_minus = _fi_over_qfi(beam, relay, plus, minus)
    payload = {
        "config": config,
        **markers,
        "fi_over_qfi_plus": ratio_plus,
        "fi_over_qfi_minus": ratio_minus,
        "preferred_plane_m": preferred_detection_plane(beam, relay),
        "qfi_per_m2": qfi_gaussian(beam),
    }
    if not math.isinf(geometric):
        payload["defocus_plus_m"] = plus - geometric
        payload["defocus_minus_m"] = minus - geometric
    _write_json(args, "optimal_plane", payload)
    print(
        f"optimal planes: {plus!r} m and {minus!r} m"
        + (" (degenerate geometry: the other plane is at infinity)"
           if markers["fallback"] else "")
    )
    return EXIT_OK


def cmd_point_source(args) -> int:
    qfi = qfi_point_source(args.wavenumber, args.pupil_width, args.distance)
    sigma_one = point_source_range_std(args.wavenumber, args.pupil_width, args.distance, 1)
    sigma_n = point_source_range_std(
        args.wavenumber, args.pupil_width, args.distance, args.detections
    )
    if not all(sys.float_info.min <= value < math.inf for value in (qfi, sigma_one, sigma_n)):
        raise NumericalLimitError(
            f"--distance {args.distance!r} m is out of double range for this pupil: "
            f"Q = k^2 w_l^4 / (4 z^4) = {qfi!r} /m^2, and the precision 1 / sqrt(n Q) = "
            f"{sigma_one!r} m at n = 1 and {sigma_n!r} m at --detections {args.detections}"
        )
    config = {
        "command": "point-source",
        "detections": args.detections,
        "distance_m": args.distance,
        "pupil_width_m": args.pupil_width,
        "wavenumber_per_m": args.wavenumber,
    }
    payload = {
        "config": config,
        "qfi_per_m2": qfi,
        "sigma_single_m": sigma_one,
        "sigma_n_m": sigma_n,
    }
    _write_json(args, "point_source", payload)
    print(f"range precision: {sigma_n!r} m at {args.detections} detections")
    return EXIT_OK


def cmd_simulate(args) -> int:
    beam = beam_from_args(args)
    relay = relay_from_args(args, beam)
    plane = plane_from_args(args, beam, relay)
    config = TrialConfig(
        beam=beam,
        detector_plane=plane,
        true_delta=args.delta,
        n_per_trial=args.n_per_trial,
        trials=args.trials,
        estimator=args.estimator,
        base_seed=args.seed,
        relay=relay,
        poisson_total=args.poisson_total,
    )
    report, = _run_displaced(config, "--delta")

    rows = [
        (index, int(seed), int(total), int(outside), float(estimate))
        for index, (seed, total, outside, estimate) in enumerate(
            zip(report.trial_seeds, report.totals, report.counts_outside, report.estimates)
        )
    ]
    summary = {
        "config": {
            "base_seed": config.base_seed,
            "detector_plane_m": config.detector_plane,
            "estimator": config.estimator,
            "n_per_trial": config.n_per_trial,
            "poisson_total": config.poisson_total,
            "trials": config.trials,
            "true_delta_m": config.true_delta,
            **_beam_config(beam, relay),
        },
        "mean_estimate_m": report.mean_estimate,
        "empirical_std_m": report.empirical_std,
        "classical_crb_std_m": report.classical_crb_std,
        "quantum_crb_std_m": report.quantum_crb_std,
        "flagged_trials": report.flagged_count,
    }
    trials = [
        {**dict(zip(_TRIAL_COLUMNS, row)), "flagged": bool(flag)}
        for row, flag in zip(rows, report.flagged)
    ]
    _write_table(args, "simulate", {"command": "simulate", **summary["config"]},
                 _TRIAL_COLUMNS, rows, summary, full={**summary, "trials": trials})
    print(
        f"estimator={report.config.estimator} mean={report.mean_estimate!r} m "
        f"std={report.empirical_std!r} m quantum_bound={report.quantum_crb_std!r} m"
    )
    return EXIT_OK


def _run_displaced(config: TrialConfig, flag: str, *more: str) -> list[TrialReport]:
    """``run_trials``, and its exposures read by the ``more`` estimators.
    Their numerical limits, which only a far displacement causes, name
    ``flag``: a displaced width past double range, a draw past the
    sampler's range, or fewer than two unflagged trials."""
    try:
        first = run_trials(config)
        reports = [first, *(first.with_estimator(name) for name in more)]
        for report in reports:
            if report.flagged_count > config.trials - 2:
                raise NumericalLimitError(
                    f"the {report.config.estimator} estimator flags {report.flagged_count} "
                    f"of --trials {config.trials}, too many for a mean and std")
        return reports
    except NumericalLimitError as fault:
        raise NumericalLimitError(f"{flag} {config.true_delta!r} m: {fault}") from None


def _displacement_summary(config: TrialConfig) -> dict:
    """One displacement of the preset: the width MLE's report, the
    fraction estimator read off the same exposures, and the fraction
    estimator's exact mean response.  A module-level function, so that a
    process pool pickles it by name."""
    mle, fraction = _run_displaced(config, "--deltas", "fraction")
    return {
        "true_delta_m": config.true_delta,
        "mle_mean_m": mle.mean_estimate,
        "mle_std_m": mle.empirical_std,
        "mle_flagged": mle.flagged_count,
        "fraction_mean_m": fraction.mean_estimate,
        "fraction_std_m": fraction.empirical_std,
        "fraction_flagged": fraction.flagged_count,
        "fraction_response_m": expected_fraction_estimate(config),
    }


def cmd_reproduce_experiment(args) -> int:
    beam = beam_from_args(args)
    plane = preferred_detection_plane(beam, None)
    quantum_bound = 1.0 / math.sqrt(args.n_per_trial * qfi_gaussian(beam))
    fraction_bound = 1.0 / math.sqrt(
        args.n_per_trial * fraction_estimator_fi(calibrate(beam, plane)))

    config = {
        "command": "reproduce-experiment",
        "deltas_m": ",".join(repr(d) for d in args.deltas),
        "detector_plane_m": plane,
        "n_per_trial": args.n_per_trial,
        "seed": args.seed,
        "trials": args.trials,
        **_beam_config(beam),
    }

    configs = [
        TrialConfig(
            beam=beam,
            detector_plane=plane,
            true_delta=delta,
            n_per_trial=args.n_per_trial,
            trials=args.trials,
            estimator="mle",
            base_seed=args.seed,
        )
        for delta in args.deltas
    ]
    processes = min(args.workers, len(configs))
    if processes == 1:
        summaries = list(map(_displacement_summary, configs))
    else:
        # The workers fork at the pool's first map.  Importing numpy's
        # random package here lets them inherit it; otherwise each worker
        # imports it again before its first draw.
        import numpy.random  # noqa: F401
        from concurrent.futures import ProcessPoolExecutor

        # This process is one of the workers: it computes the first share
        # while the pool computes the rest.  Leaving the block joins the
        # pool's processes, on the error path too.
        share = -(-len(configs) // processes)
        with ProcessPoolExecutor(max_workers=processes - 1) as pool:
            rest = pool.map(_displacement_summary, configs[share:])
            summaries = [*map(_displacement_summary, configs[:share]), *rest]

    rows = []
    failures = []
    for per_delta in summaries:
        delta = per_delta["true_delta_m"]
        row = {**per_delta, "quantum_bound_m": quantum_bound,
               "fraction_bound_m": fraction_bound}
        rows.append(tuple(float(row[column]) for column in _REPRODUCE_COLUMNS))
        if args.check:
            for label, key, name, bound in (
                ("width", "mle_std_m", "the quantum bound", quantum_bound),
                ("fraction", "fraction_std_m", "its binomial bound", fraction_bound),
            ):
                err = abs(per_delta[key] - bound) / bound
                if not err <= _STD_CHECK_REL_TOL:
                    failures.append(
                        f"delta={delta!r} m: {label} std {per_delta[key]!r} m "
                        f"departs from {name} {bound!r} m by {err:.3f}"
                    )
            bias = abs(per_delta["fraction_response_m"] - delta)
            if not bias <= _BIAS_CHECK_REL_TOL * abs(delta):
                failures.append(
                    f"delta={delta!r} m: fraction response bias {bias!r} m exceeds "
                    f"{_BIAS_CHECK_REL_TOL:.0%} of the displacement"
                )

    depth_of_focus = 2.0 * beam.rayleigh_range
    resolved = depth_of_focus / quantum_bound  # 2 sqrt(n): the paper's headline
    payload = {
        "config": config,
        "quantum_bound_m": quantum_bound,
        "fraction_bound_m": fraction_bound,
        "depth_of_focus_m": depth_of_focus,
        "depth_of_focus_over_quantum_bound": resolved,
        "per_delta": summaries,
        "checks": {
            "enabled": bool(args.check),
            "failures": failures,
        },
    }
    _write_table(args, "reproduce_experiment", config, _REPRODUCE_COLUMNS, rows,
                 payload, full=payload)
    print(f"quantum bound: {quantum_bound!r} m per exposure")
    print(f"depth of focus 2 z_R: {depth_of_focus!r} m, {resolved!r} quantum bounds")

    if args.check and failures:
        for failure in failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    if args.check:
        print("all checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly and entry point
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="axialfisher",
        description="Fisher-information limits and estimator benchmarks "
        "for axial localization with Gaussian beams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("fi-scan", help="information vs detector plane")
    _add_common(scan, tabular=True)
    _add_beam(scan)
    _add_relay(scan)
    scan.add_argument("--zmin", type=parse_length, required=True,
                      help="first detector plane (from the lens)")
    scan.add_argument("--zmax", type=parse_length, required=True,
                      help="last detector plane (from the lens)")
    scan.add_argument("--steps", type=_at_least(2), default=201)
    scan.set_defaults(func=cmd_fi_scan)

    density = sub.add_parser("fi-density", help="radial information density")
    _add_common(density, tabular=True)
    _add_beam(density)
    _add_relay(density, plane=True)
    density.add_argument("--rmax", type=_restricted(parse_length), default=None,
                         help="largest radius (default: 3 beam widths)")
    density.add_argument("--steps", type=_at_least(2), default=400)
    density.set_defaults(func=cmd_fi_density)

    optimal = sub.add_parser("optimal-plane", help="optimal detector planes")
    _add_common(optimal)
    _add_beam(optimal)
    _add_relay(optimal)
    optimal.set_defaults(func=cmd_optimal_plane)

    point = sub.add_parser("point-source", help="quantum ranging limit")
    _add_common(point)
    point.add_argument("--wavenumber", type=_restricted(float), required=True,
                       help="wavenumber k in 1/m")
    point.add_argument("--pupil-width", type=_restricted(parse_length), required=True)
    point.add_argument("--distance", type=_restricted(parse_length, "nonzero"), required=True)
    point.add_argument("--detections", type=_at_least(1), default=1)
    point.set_defaults(func=cmd_point_source)

    simulate = sub.add_parser("simulate", help="Monte Carlo estimator benchmark")
    _add_common(simulate, seed=True, tabular=True)
    _add_beam(simulate)
    _add_relay(simulate, plane=True)
    simulate.add_argument("--delta", type=parse_length, default=0.0,
                          help="true displacement from the nominal plane")
    simulate.add_argument("--n-per-trial", type=_at_least(1), default=100_000)
    simulate.add_argument("--trials", type=_at_least(2), default=200)
    simulate.add_argument("--estimator", choices=ESTIMATORS, default="fraction")
    simulate.add_argument("--poisson-total", action="store_true",
                          help="draw each exposure's photon number from a Poisson law")
    simulate.set_defaults(func=cmd_simulate)

    reproduce = sub.add_parser(
        "reproduce-experiment",
        help="preset benchmark: 632.8nm beam, z_R=18.9um, 1.6e6 detections",
    )
    _add_common(reproduce, seed=True, tabular=True)
    reproduce.add_argument("--wavelength", type=_restricted(parse_length),
                           default=_PRESET_WAVELENGTH)
    reproduce.add_argument("--rayleigh-range", type=_restricted(parse_length),
                           default=_PRESET_RAYLEIGH)
    reproduce.add_argument("--n-per-trial", type=_at_least(1),
                           default=_PRESET_N_PER_TRIAL)
    reproduce.add_argument("--trials", type=_at_least(2), default=_PRESET_TRIALS)
    reproduce.add_argument("--deltas", type=parse_delta_list,
                           default=_PRESET_DELTAS,
                           help="comma-separated displacements, e.g. 10nm,1650nm")
    reproduce.add_argument("--workers", type=_at_least(1), default=1)
    reproduce.add_argument("--check", action="store_true",
                           help="verify stds and bias against the bounds; "
                           "exit 3 on failure")
    reproduce.set_defaults(func=cmd_reproduce_experiment)

    return parser


def _config_file_tokens(path: str) -> list[str]:
    """Turn a key=value config file into synthetic command-line tokens."""
    tokens: list[str] = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key = key.strip().replace("_", "-")
        value = value.strip()
        if value.lower() in ("true", "false"):
            if value.lower() == "true":
                tokens.append(f"--{key}")
            continue
        tokens.extend([f"--{key}", value])
    return tokens


_CONFIG_FINDER = _Parser(add_help=False)  # --config, or any abbreviation argparse accepts
_CONFIG_FINDER.add_argument("--config")


def _inject_config(argv: list[str]) -> list[str]:
    """Splice the --config file's tokens in right after the subcommand, so
    that explicitly passed flags still win (they come later)."""
    path = _CONFIG_FINDER.parse_known_args(argv)[0].config
    if path is None:
        return argv
    if not argv or argv[0].startswith("-"):
        raise UsageError("--config requires a subcommand")
    return [argv[0], *_config_file_tokens(path), *argv[1:]]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_inject_config(argv))
        return args.func(args)
    except (NumericalLimitError, QuadratureError, NormalizationDriftError,
            ArithmeticError) as numerical:
        print(f"numerical failure: {numerical}", file=sys.stderr)
        return EXIT_NUMERICAL
    except UninformativePlaneError as flat:
        print(f"error: {flat} (the plane is set by {_plane_flags(args)})", file=sys.stderr)
        return EXIT_USAGE
    except (UsageError, ValueError, FileNotFoundError) as bad:
        print(f"error: {bad}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
