import argparse
import filecmp
import json
import math
import multiprocessing
import os
import random
import re
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import axialfisher
from axialfisher import cli, photon_sim
from axialfisher.beam_optics import BeamParams, RelaySystem
from axialfisher.cli import (
    DEFAULT_SEED,
    EXIT_CHECK_FAILED,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    beam_from_args,
    build_parser,
    main,
    parse_delta_list,
    parse_length,
    render_header,
)
from axialfisher.estimators import (
    TrialConfig,
    calibrate,
    fraction_estimator_fi,
    run_trials,
)
from axialfisher.fisher import preferred_detection_plane
from axialfisher.numerics import NumericalLimitError, QuadratureError


# ---------------------------------------------------------------------------
# Flag parsing helpers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    ("text", "meters"),
    [
        ("632.8nm", 632.8e-9),
        ("1um", 1e-6),
        ("1µm", 1e-6),
        ("18.9um", 18.9e-6),
        ("2.5mm", 2.5e-3),
        ("0.105m", 0.105),
        ("200km", 200e3),
        ("0.05", 0.05),
        ("-1650nm", -1650e-9),
        ("1e-6m", 1e-6),
    ],
)
def test_parse_length(text, meters):
    assert parse_length(text) == pytest.approx(meters, rel=1e-15)


@pytest.mark.parametrize("text", ["", "nm", "5 parsecs", "5furlongs", "--3nm"])
def test_parse_length_rejects_garbage(text):
    with pytest.raises(argparse.ArgumentTypeError):
        parse_length(text)


def test_parse_delta_list():
    assert parse_delta_list("10nm,1650nm") == pytest.approx([10e-9, 1650e-9])
    assert parse_delta_list("1um,") == pytest.approx([1e-6])
    with pytest.raises(argparse.ArgumentTypeError):
        parse_delta_list(",")


@pytest.mark.parametrize(("argv", "text"), [
    (["simulate", "--delta", "1e400m"], "1e400m"),
    (["fi-scan", "--focal", "10mm", "--object-distance", "12mm", "--zmin", "10mm",
      "--zmax", "1e400"], "1e400"),
    (["fi-density", "--plane", "1e308km"], "1e308km"),
    (["reproduce-experiment", "--deltas", "10nm,1e400nm"], "1e400nm"),
], ids=["simulate-delta", "fi-scan-zmax", "fi-density-plane", "reproduce-deltas"])
def test_lengths_that_overflow_are_usage_errors(tmp_path, capsys, argv, text):
    """A length past the largest double is rejected as it is parsed, with
    its flag and text in the message, before any arithmetic can warn
    about it."""
    command, *flags = argv
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, *SMALL_BEAM, *flags, "--out", str(tmp_path / "out.csv")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: argument {flags[-2]}: length {text!r} overflows a double\n")
    assert caught == []
    assert list(tmp_path.iterdir()) == []


def parse_run_header(line: str) -> dict:
    """Reconstruct the config dict from a header line written by
    ``render_header``."""
    if not line.startswith("# "):
        raise ValueError(f"not a run header: {line!r}")
    config: dict = {}
    for item in line[2:].split():
        key, _, raw = item.partition("=")
        if raw in ("True", "False"):
            config[key] = raw == "True"
            continue
        try:
            config[key] = int(raw)
            continue
        except ValueError:
            pass
        try:
            config[key] = float(raw)
            continue
        except ValueError:
            pass
        config[key] = raw
    return config


def test_run_header_round_trip():
    config = {
        "command": "simulate",
        "trials": 200,
        "wavelength_m": 632.8e-9,
        "poisson_total": False,
        "estimator": "mle",
    }
    line = render_header(config)
    assert line.startswith("# ")
    assert parse_run_header(line) == config
    # Keys are emitted sorted so diffs between runs are stable.
    keys = [item.split("=")[0] for item in line[2:].split()]
    assert keys == sorted(keys)


def test_render_header_rejects_whitespace_values():
    with pytest.raises(ValueError):
        render_header({"note": "two words"})


def test_parse_run_header_rejects_other_lines():
    with pytest.raises(ValueError):
        parse_run_header("r_m,fi_density_norm")


# ---------------------------------------------------------------------------
# Beam resolution
# ---------------------------------------------------------------------------


def _scan_args(*extra):
    argv = ["fi-scan", "--zmin", "0m", "--zmax", "1m", *extra]
    return build_parser().parse_args(argv)


def test_beam_from_wavelength_and_waist():
    beam = beam_from_args(_scan_args("--wavelength", "632.8nm", "--waist", "1.951um"))
    assert beam.wavelength == pytest.approx(632.8e-9)
    assert beam.waist == pytest.approx(1.951e-6)


def test_beam_from_wavelength_and_rayleigh_range():
    beam = beam_from_args(
        _scan_args("--wavelength", "632.8nm", "--rayleigh-range", "18.9um")
    )
    assert beam.rayleigh_range == pytest.approx(18.9e-6, rel=1e-12)


def test_beam_from_waist_and_rayleigh_range():
    beam = beam_from_args(_scan_args("--waist", "1m", "--rayleigh-range", "1m"))
    assert beam.wavelength == pytest.approx(math.pi, rel=1e-15)
    assert beam.rayleigh_range == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize(("given", "construct"), [
    (("--wavelength", "--waist"), lambda wavelength, waist: BeamParams(wavelength, waist)),
    (("--wavelength", "--rayleigh-range"), BeamParams.from_rayleigh_range),
    (("--waist", "--rayleigh-range"),
     lambda waist, rayleigh: BeamParams(math.pi * (waist * waist) / rayleigh, waist)),
], ids=["wavelength-waist", "wavelength-rayleigh-range", "waist-rayleigh-range"])
def test_valid_beams_are_bit_identical_to_the_direct_constructions(given, construct):
    """Wherever the beam check passes, ``beam_from_args`` builds the beam
    that each parameterization built directly before the check, bit for
    bit: over seeded log-uniform pairs on 1e-200 ... 1e200 m."""
    rng = random.Random(f"beam-{'-'.join(given)}")
    passed = 0
    for _ in range(400):
        first, second = (10.0 ** rng.uniform(-200.0, 200.0) for _ in range(2))
        args = _scan_args(f"{given[0]}={first!r}m", f"{given[1]}={second!r}m")
        try:
            beam = beam_from_args(args)
        except NumericalLimitError:
            continue
        assert beam == construct(first, second)
        passed += 1
    assert passed >= 100


@pytest.mark.parametrize(
    "extra",
    [
        (),
        ("--wavelength", "632.8nm"),
        ("--wavelength", "632.8nm", "--waist", "1um", "--rayleigh-range", "1um"),
    ],
)
def test_beam_needs_exactly_two_parameters(extra):
    with pytest.raises(UsageError):
        beam_from_args(_scan_args(*extra))


# ---------------------------------------------------------------------------
# Information-scan commands
# ---------------------------------------------------------------------------

UNIT_BEAM = ("--waist", "1m", "--rayleigh-range", "1m")
RELAY = ("--focal", "1m", "--object-distance", "5m")


def test_fi_scan_markers_and_csv(tmp_path):
    out = tmp_path / "scan.csv"
    code = main(
        [
            "fi-scan",
            *UNIT_BEAM,
            *RELAY,
            "--zmin", "0.5m",
            "--zmax", "2m",
            "--steps", "301",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK

    lines = out.read_text().splitlines()
    header = parse_run_header(lines[0])
    assert header["focal_m"] == 1.0
    assert "seed" not in header  # deterministic: nothing is sampled
    assert lines[1] == "z_prime_m,fi_per_m2,fi_over_qfi"
    assert len(lines) == 2 + 301

    ratios = [float(line.split(",")[2]) for line in lines[2:]]
    assert 0.995 < max(ratios) <= 1.0 + 1e-12
    assert min(ratios) >= 0.0

    markers = json.loads(out.with_suffix(".json").read_text())["markers"]
    assert markers["fallback"] is False
    assert markers["alpha"] == pytest.approx(5.0 / 3.0, rel=1e-12)
    assert markers["plane_plus_m"] == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert markers["plane_minus_m"] == pytest.approx(6.0 / 5.0, rel=1e-12)
    assert markers["geometric_image_plane_m"] == pytest.approx(1.25, rel=1e-12)
    assert markers["qfi_per_m2"] == pytest.approx(1.0, rel=1e-12)


def test_optimal_plane_reaches_the_quantum_limit(tmp_path):
    out = tmp_path / "planes.json"
    assert main(["optimal-plane", *UNIT_BEAM, *RELAY, "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["fi_over_qfi_plus"] == pytest.approx(1.0, abs=1e-9)
    assert payload["fi_over_qfi_minus"] == pytest.approx(1.0, abs=1e-9)
    assert payload["preferred_plane_m"] == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert payload["defocus_plus_m"] == pytest.approx(4.0 / 3.0 - 1.25, rel=1e-9)
    assert payload["defocus_minus_m"] == pytest.approx(1.2 - 1.25, rel=1e-9)


def test_optimal_plane_numeric_fallback(tmp_path):
    # Waist one Rayleigh range in front of the focus: one optimal plane
    # is at infinity.  The command reports the reachable one in both
    # fields, with alpha null and the fallback marker set.
    out = tmp_path / "degenerate.json"
    argv = [
        "optimal-plane",
        *UNIT_BEAM,
        "--focal", "1m",
        "--object-distance", "2m",
        "--out", str(out),
    ]
    assert main(argv) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["fallback"] is True
    assert payload["alpha"] is None
    assert payload["plane_plus_m"] == payload["plane_minus_m"] == pytest.approx(1.5, rel=1e-15)
    assert payload["fi_over_qfi_plus"] == pytest.approx(1.0, abs=1e-9)
    assert payload["fi_over_qfi_minus"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("command", ["optimal-plane", "fi-scan"])
def test_object_at_the_front_focal_plane_has_no_geometric_image(tmp_path, command):
    """With the object at the front focal plane the geometric image is at
    infinity: its marker is null and no defocus is reported."""
    out = tmp_path / "markers.json"
    argv = [command, *UNIT_BEAM, "--focal", "1m", "--object-distance", "1m",
            "--out", str(out)]
    if command == "fi-scan":
        argv += ["--zmin", "0.5m", "--zmax", "2m", "--steps", "11", "--format", "json"]
    assert main(argv) == EXIT_OK
    payload = json.loads(out.read_text())
    markers = payload["markers"] if command == "fi-scan" else payload
    assert markers["geometric_image_plane_m"] is None
    assert (markers["plane_plus_m"], markers["plane_minus_m"]) == (0.0, 2.0)
    assert not [key for key in payload if key.startswith("defocus")]
    if command == "optimal-plane":
        assert payload["preferred_plane_m"] == 2.0


def test_fi_density_summary(tmp_path):
    out = tmp_path / "density.csv"
    assert main(["fi-density", *UNIT_BEAM, "--out", str(out)]) == EXIT_OK
    sidecar = json.loads(out.with_suffix(".json").read_text())
    assert "seed" not in sidecar["config"]
    summary = sidecar["summary"]
    # Default plane is -z_R where w^2 = 2 w0^2; the boundary sits at w/sqrt(2).
    assert summary["width_sq_m2"] == pytest.approx(2.0, rel=1e-12)
    assert summary["boundary_radius_m"] == pytest.approx(1.0, rel=1e-12)
    assert summary["fraction_outside"] == pytest.approx(2.0 / math.e, rel=1e-9)

    lines = out.read_text().splitlines()
    assert lines[1] == "r_m,fi_density_norm,intensity_norm"
    first = lines[2].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 0.0  # no axial information on axis
    assert float(first[2]) == 1.0  # but peak intensity


def test_fi_density_rejects_the_waist_plane(tmp_path, capsys):
    code = main(["fi-density", *UNIT_BEAM, "--plane", "0m",
                 "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_USAGE
    assert "zero axial sensitivity" in capsys.readouterr().err


def test_zero_sensitivity_at_the_default_plane_names_the_flags_that_set_it(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "preferred_detection_plane", lambda beam, relay: 0.0)
    for command in ("fi-density", "simulate"):
        assert main([command, *UNIT_BEAM]) == EXIT_USAGE
        assert capsys.readouterr().err.endswith(
            "(the plane is set by --waist, --rayleigh-range)\n")
    assert not list(tmp_path.iterdir())


def test_point_source_ranging(tmp_path):
    out = tmp_path / "leo.json"
    argv = [
        "point-source",
        "--wavenumber", "1e7",
        "--pupil-width", "1m",
        "--distance", "200km",
        "--detections", "2000000",
        "--out", str(out),
    ]
    assert main(argv) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["qfi_per_m2"] == pytest.approx(1.5625e-8, rel=1e-12)
    assert payload["sigma_single_m"] == pytest.approx(8000.0, rel=1e-12)
    assert payload["sigma_n_m"] == pytest.approx(8000.0 / math.sqrt(2e6), rel=1e-12)


def test_sampler_limit_exits_two(tmp_path, monkeypatch, capsys):
    """A true width ~4e6 times the calibrated one takes the sampler past
    numpy's negative-binomial range: a numerical failure, not a usage
    error, and no artifact is written."""
    monkeypatch.chdir(tmp_path)
    code = main(["simulate", *SMALL_BEAM, "--delta", "100m", "--estimator", "mle",
                 "--n-per-trial", "1000000", "--trials", "2"])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "r_b=" in err
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# Monte Carlo commands
# ---------------------------------------------------------------------------

SMALL_BEAM = ("--wavelength", "632.8nm", "--rayleigh-range", "18.9um")


@pytest.mark.parametrize(("argv", "key", "value"), [
    (["point-source", "--wavenumber", "1e7", "--pupil-width", "2mm", "--distance", "-1m"],
     "distance_m", -1.0),
    (["fi-scan", *SMALL_BEAM, "--focal", "10mm", "--object-distance", "12mm",
      "--zmin", "-6e-5", "--zmax", "60mm", "--steps", "3", "--format", "json"], "zmin_m",
     -6e-5),
    (["simulate", *SMALL_BEAM, "--delta", "-2um", "--n-per-trial", "1000", "--trials", "2",
      "--format", "json"], "true_delta_m", -2e-6),
], ids=["distance-unit", "zmin-exponent", "delta-unit"])
def test_negative_lengths_with_a_unit_or_an_exponent_are_values(tmp_path, capsys, argv, key,
                                                                 value):
    """A negative length written as its own token, with a unit or an
    exponent, is a flag's value, not an unknown option: the run writes it
    into its artifact.  An unknown flag is still a usage error."""
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["config"][key] == value
    capsys.readouterr()
    assert main([*argv, "--bogus", "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: unrecognized arguments: --bogus\n"


def test_simulate_writes_per_trial_csv(tmp_path):
    out = tmp_path / "run.csv"
    argv = [
        "simulate",
        *SMALL_BEAM,
        "--delta", "100nm",
        "--n-per-trial", "2000",
        "--trials", "8",
        "--out", str(out),
    ]
    assert main(argv) == EXIT_OK
    lines = out.read_text().splitlines()
    config = parse_run_header(lines[0])
    assert config["estimator"] == "fraction"
    assert config["base_seed"] == DEFAULT_SEED
    assert lines[1] == "trial_index,seed,n,count_outside,delta_hat_m"
    assert len(lines) == 2 + 8
    sidecar = json.loads(out.with_suffix(".json").read_text())
    assert sidecar["flagged_trials"] == 0
    assert "trials" not in sidecar


def test_simulate_behind_a_relay_detects_at_the_preferred_plane(tmp_path):
    """Behind a relay the default detector plane is the preferred optimal
    plane; ``--plane`` overrides it."""
    relay_flags = ("--focal", "10mm", "--object-distance", "10.5mm")
    argv = ["simulate", *SMALL_BEAM, *relay_flags, "--estimator", "mle",
            "--n-per-trial", "2000", "--trials", "4"]
    beam = BeamParams.from_rayleigh_range(parse_length("632.8nm"), parse_length("18.9um"))
    relay = RelaySystem(parse_length("10mm"), parse_length("10.5mm"))
    for extra, plane in (((), preferred_detection_plane(beam, relay)),
                         (("--plane", "250mm"), parse_length("250mm"))):
        out = tmp_path / "run.csv"
        assert main([*argv, *extra, "--out", str(out)]) == EXIT_OK
        config = parse_run_header(out.read_text().splitlines()[0])
        assert config["detector_plane_m"] == plane
        assert (config["focal_m"], config["object_distance_m"]) == (
            relay.focal_length, relay.object_distance)


def test_simulate_names_n_per_trial_past_a_c_long(tmp_path, monkeypatch, capsys):
    """numpy draws a photon count as a C long: 2**63 photons is a usage
    error naming n_per_trial, and 2**63 - 1 still runs."""
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", *SMALL_BEAM, "--trials", "2", "--n-per-trial"]
    assert main([*argv, str(10**19)]) == EXIT_USAGE
    assert "n_per_trial" in capsys.readouterr().err
    assert main([*argv, str(2**63)]) == EXIT_USAGE
    assert "n_per_trial" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    assert main([*argv, str(2**63 - 1), "--out", "run.csv"]) == EXIT_OK
    assert (tmp_path / "run.csv").read_text().splitlines()[2].split(",")[2] == str(2**63 - 1)


def test_simulate_names_n_per_trial_past_the_poisson_limit(tmp_path, monkeypatch, capsys):
    """numpy's Poisson draw takes means up to ~9.2234e18, below 2**63: a
    Poisson-total run past it is a usage error naming n_per_trial, and
    9e18 photons still run."""
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", *SMALL_BEAM, "--poisson-total", "--estimator", "fraction-absolute",
            "--trials", "2", "--n-per-trial"]
    assert main([*argv, str(2**63 - 1)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: with poisson_total, n_per_trial must not exceed numpy's largest Poisson "
        f"mean {photon_sim._POISSON_LAM_MAX!r}, got {2**63 - 1}\n"
    )
    assert not list(tmp_path.iterdir())
    assert main([*argv, str(9 * 10**18), "--out", "run.csv"]) == EXIT_OK


def _run_fresh(argv, timeout, cwd=None):
    """Run ``python *argv`` in a fresh interpreter that imports the package
    from this checkout; returns the completed process."""
    src = str(Path(axialfisher.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, timeout=timeout, cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )


# The deterministic commands, and the four quadrature routes to the bounds.
_DETERMINISTIC_ROUTES = """
import sys
from axialfisher import beam_optics, fisher
from axialfisher.cli import main
out = {out!r}
beam = ["--wavelength", "632.8nm", "--rayleigh-range", "18.9um"]
relay = ["--focal", "10mm", "--object-distance", "12mm"]
codes = [
    main(["fi-scan", *beam, *relay, "--zmin", "10mm", "--zmax", "60mm",
          "--out", out + "/scan.csv"]),
    main(["fi-density", *beam, "--out", out + "/density.csv"]),
    main(["fi-density", *beam, *relay, "--out", out + "/density-relay.csv"]),
    main(["optimal-plane", *beam, *relay, "--out", out + "/planes.json"]),
    main(["point-source", "--wavenumber", "1e7", "--pupil-width", "2mm",
          "--distance", "1m", "--out", out + "/point.json"]),
]
hene = beam_optics.BeamParams.from_rayleigh_range(632.8e-9, 18.9e-6)
fisher.info_fraction_outside(1e-12, fisher.info_boundary(1e-12))
fisher.beam_fi_numeric(hene, hene.rayleigh_range)
fisher.qfi_via_generator(hene)
fisher.qfi_pure_state(beam_optics.pupil_field_family(2e-3, 1e7), 1.0)
"""


def test_no_command_or_bound_route_imports_scipy(tmp_path):
    """Every command, and the four quadrature routes to the bounds, run on
    numpy alone: scipy is a test-only oracle."""
    script = _DETERMINISTIC_ROUTES.format(out=str(tmp_path)) + """
codes += [
    main(["simulate", *beam, "--n-per-trial", "2000", "--trials", "4",
          "--out", out + "/free.csv"]),
    main(["simulate", *beam, *relay, "--estimator", "mle",
          "--n-per-trial", "2000", "--trials", "4", "--out", out + "/relay.csv"]),
    main(["reproduce-experiment", "--n-per-trial", "2000", "--trials", "4",
          "--out", out + "/preset.csv"]),
]
print(codes, sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
    done = _run_fresh(["-c", script], timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"{[EXIT_OK] * 8} []"


def test_importing_the_package_loads_no_sampler_or_process_pool(tmp_path):
    """Importing the package loads neither numpy's random package (with
    the ``secrets`` and ``hashlib`` modules it brings) nor the process
    pool's; the deterministic commands and bound routes still have not
    loaded numpy's random package when they are done."""
    script = (
        "import sys, axialfisher, axialfisher.cli\n"
        "print(sorted(name for name in sys.modules\n"
        "             if name.split('.')[0] in ('secrets', '_hashlib', 'concurrent',\n"
        "                                       'multiprocessing')\n"
        "             or name.startswith('numpy.random')))\n"
    )
    done = _run_fresh(["-c", script], timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"

    script = _DETERMINISTIC_ROUTES.format(out=str(tmp_path)) + (
        "print(codes, 'numpy.random' in sys.modules)\n"
    )
    done = _run_fresh(["-c", script], timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"{[EXIT_OK] * 5} False"


def test_simulate_has_no_workers_flag(tmp_path, capsys):
    """``simulate`` runs its trials in one process; ``--workers`` is a
    usage error that names the flag."""
    argv = ["simulate", *SMALL_BEAM, "--n-per-trial", "2000", "--trials", "4",
            "--workers", "2", "--out", str(tmp_path / "run.csv")]
    assert main(argv) == EXIT_USAGE
    assert "--workers" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_preset_pool_draws_the_same_trials_in_a_fresh_interpreter(tmp_path):
    """The preset spreads its displacements over one pool whose workers
    fork after the parent has imported numpy's random package.  Two
    workers write the same CSV and JSON, byte for byte, as one."""
    for workers in ("1", "2"):
        (tmp_path / workers).mkdir()
        done = _run_fresh(["-m", "axialfisher", "reproduce-experiment", "--n-per-trial", "2000",
                           "--trials", "9", "--deltas", "100nm,400nm,1000nm", "--seed", "11",
                           "--workers", workers, "--out", "run.csv"],
                          timeout=120, cwd=tmp_path / workers)
        assert done.returncode == EXIT_OK, done.stderr
    for name in ("run.csv", "run.json"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_serial_sampling_commands_load_no_pool_module(tmp_path):
    """``simulate``, and the preset at one worker, open no pool, so
    neither loads ``concurrent`` or ``multiprocessing``."""
    script = f"""
import sys
from axialfisher.cli import main
out = {str(tmp_path)!r}
codes = [
    main(["simulate", {", ".join(map(repr, SMALL_BEAM))}, "--n-per-trial", "2000",
          "--trials", "4", "--out", out + "/simulate.csv"]),
    main(["reproduce-experiment", "--n-per-trial", "2000", "--trials", "4",
          "--workers", "1", "--out", out + "/preset.csv"]),
]
print(codes, sorted(name for name in sys.modules
                    if name.split(".")[0] in ("concurrent", "multiprocessing")))
"""
    done = _run_fresh(["-c", script], timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"{[EXIT_OK] * 2} []"


def test_preset_opens_one_pool_and_joins_it(tmp_path, built_pools):
    """Three displacements on two workers: the command's own process is one
    of them, so its pool holds min(workers, displacements) - 1 = 1 process,
    and no worker outlives the command."""
    argv = ["reproduce-experiment", "--trials", "4", "--deltas", "100nm,400nm,1000nm",
            "--workers", "2", "--seed", "3", "--out", str(tmp_path / "run.csv")]
    assert main(argv) == EXIT_OK
    assert built_pools == [[1, 1]]
    assert multiprocessing.active_children() == []


def test_preset_runs_one_displacement_without_a_pool(tmp_path, built_pools):
    """With one displacement there is nothing to spread: two workers
    build no pool and write the same bytes as one."""
    for workers in ("1", "2"):
        argv = ["reproduce-experiment", "--trials", "4", "--deltas", "400nm",
                "--workers", workers, "--seed", "3", "--out", str(tmp_path / f"{workers}.csv")]
        assert main(argv) == EXIT_OK
    assert built_pools == []
    for suffix in (".csv", ".json"):
        assert (tmp_path / f"1{suffix}").read_bytes() == (tmp_path / f"2{suffix}").read_bytes()


def test_preset_joins_its_pool_on_a_numerical_failure(tmp_path, built_pools, capsys):
    """At 100 m the true width is so far from the calibrated one that the
    sampler raises inside the pool's worker: the command exits 2, and the
    pool it opened is joined all the same."""
    argv = ["reproduce-experiment", "--trials", "4", "--deltas", "100nm,100m",
            "--workers", "2", "--out", str(tmp_path / "run.csv")]
    assert main(argv) == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical failure: ")
    assert len(built_pools) == 1 and built_pools[0][0] == 1
    assert multiprocessing.active_children() == []


def test_preset_joins_its_pool_on_a_failure_in_its_own_share(tmp_path, built_pools, capsys):
    """The first displacement is the command's own share: when the sampler
    raises there, the command exits 2 and still joins the pool's worker."""
    argv = ["reproduce-experiment", "--trials", "4", "--deltas", "100m,100nm",
            "--workers", "2", "--out", str(tmp_path / "run.csv")]
    assert main(argv) == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical failure: ")
    assert built_pools == [[1, 1]]
    assert multiprocessing.active_children() == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("deltas", ["100nm,1650nm", "10nm,400nm,1000nm",
                                    "10nm,100nm,400nm,1000nm,1650nm"])
def test_preset_runs_min_workers_displacements_processes(tmp_path, built_pools, deltas):
    """``--workers N`` over D displacements runs min(N, D) processes, this
    one included: a pool of min(N, D) - 1, or none at all.  Every split
    writes the serial run's bytes."""
    count = len(deltas.split(","))
    for workers in (1, 2, 3, 5, 8):
        built_pools.clear()
        argv = ["reproduce-experiment", "--trials", "4", "--deltas", deltas, "--seed", "5",
                "--workers", str(workers), "--out", str(tmp_path / f"{workers}.csv")]
        assert main(argv) == EXIT_OK
        processes = min(workers, count)
        assert built_pools == ([[processes - 1] * 2] if processes > 1 else [])
        assert multiprocessing.active_children() == []
        for suffix in (".csv", ".json"):
            assert ((tmp_path / f"{workers}{suffix}").read_bytes()
                    == (tmp_path / f"1{suffix}").read_bytes())


def test_simulate_json_format(tmp_path):
    out = tmp_path / "run.json"
    argv = [
        "simulate",
        *SMALL_BEAM,
        "--estimator", "mle",
        "--n-per-trial", "1000",
        "--trials", "5",
        "--format", "json",
        "--out", str(out),
    ]
    assert main(argv) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["config"]["estimator"] == "mle"
    assert len(payload["trials"]) == 5
    assert all(math.isfinite(t["delta_hat_m"]) for t in payload["trials"])


def test_simulate_default_output_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", *SMALL_BEAM, "--n-per-trial", "500", "--trials", "3"]
    assert main(argv) == EXIT_OK
    assert (tmp_path / "simulate.csv").exists()
    assert (tmp_path / "simulate.json").exists()


def _reduced_reproduce(out, *extra):
    return [
        "reproduce-experiment",
        "--n-per-trial", "20000",
        "--trials", "20",
        "--deltas", "100nm,400nm",
        "--out", str(out),
        *extra,
    ]


def test_reproduce_experiment_is_byte_deterministic(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(_reduced_reproduce(first, "--seed", "7")) == EXIT_OK
    assert main(_reduced_reproduce(second, "--seed", "7")) == EXIT_OK
    assert filecmp.cmp(first, second, shallow=False)
    assert filecmp.cmp(
        first.with_suffix(".json"), second.with_suffix(".json"), shallow=False
    )
    different = tmp_path / "c.csv"
    assert main(_reduced_reproduce(different, "--seed", "8")) == EXIT_OK
    assert not filecmp.cmp(first, different, shallow=False)


def test_reproduce_experiment_row_layout(tmp_path):
    out = tmp_path / "rows.csv"
    assert main(_reduced_reproduce(out, "--seed", "7")) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[1] == (
        "true_delta_m,mle_mean_m,mle_std_m,fraction_mean_m,fraction_std_m,"
        "fraction_response_m,quantum_bound_m,fraction_bound_m"
    )
    assert len(lines) == 2 + 2  # one row per displacement
    row = lines[2].split(",")
    assert float(row[0]) == pytest.approx(100e-9)
    bound = float(row[6])
    assert float(row[7]) == pytest.approx(bound * math.sqrt(math.e - 1.0), rel=1e-12)


@pytest.mark.parametrize(("extra", "wavelength", "rayleigh_range", "n"), [
    ((), 632.8e-9, 18.9e-6, 1_600_000),
    (("--rayleigh-range", "25um", "--n-per-trial", "123457"), 632.8e-9, 25e-6, 123457),
    (("--wavelength", "1064nm", "--rayleigh-range", "3mm", "--n-per-trial", "7"),
     1064e-9, 3e-3, 7),
], ids=["preset", "zr25um", "nd-yag"])
def test_reproduce_experiment_fraction_bound_is_the_binomial_bound(
        tmp_path, extra, wavelength, rayleigh_range, n):
    """fraction_bound_m is the fraction estimator's own information at the
    calibrated plane, 1 / sqrt(n F_frac); that is F / (e - 1), so the
    bound sits within roundoff of the quantum bound times sqrt(e - 1)."""
    out = tmp_path / "bound.csv"
    argv = ["reproduce-experiment", "--trials", "2", "--deltas", "100nm",
            *extra, "--out", str(out)]
    assert main(argv) == EXIT_OK
    payload = json.loads(out.with_suffix(".json").read_text())
    beam = BeamParams.from_rayleigh_range(wavelength, rayleigh_range)
    cal = calibrate(beam, -beam.rayleigh_range)
    bound = payload["fraction_bound_m"]
    assert bound == 1.0 / math.sqrt(n * fraction_estimator_fi(cal))
    assert bound == pytest.approx(
        payload["quantum_bound_m"] * math.sqrt(math.e - 1.0), rel=1e-15, abs=0.0)


def test_reproduce_experiment_states_the_headline(tmp_path, capsys):
    """The preset's depth of focus 2 z_R is 2 sqrt(n) quantum bounds z_R /
    sqrt(n): at 1.6e6 detections, over three orders of magnitude."""
    out = tmp_path / "headline.csv"
    argv = ["reproduce-experiment", "--trials", "2", "--deltas", "100nm", "--out", str(out)]
    assert main(argv) == EXIT_OK
    payload = json.loads(out.with_suffix(".json").read_text())
    ratio = payload["depth_of_focus_over_quantum_bound"]
    assert payload["depth_of_focus_m"] == pytest.approx(37.8e-6, rel=1e-12)
    assert ratio == pytest.approx(2.0 * math.sqrt(1.6e6), rel=1e-12, abs=0.0)
    assert ratio > 1e3
    assert ratio == payload["depth_of_focus_m"] / payload["quantum_bound_m"]
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"depth of focus 2 z_R: {payload['depth_of_focus_m']!r} m, {ratio!r} quantum bounds")


def _one_pass_argv(out):
    return [
        "reproduce-experiment",
        "--n-per-trial", "2000",
        "--trials", "3",
        "--deltas", "100nm,400nm",
        "--seed", "7",
        "--out", str(out),
    ]


def test_reproduce_experiment_samples_each_exposure_once(tmp_path, monkeypatch):
    """Both estimators read the same exposure: one draw of its statistics
    per trial and displacement, 2 x 3 in all."""
    real = photon_sim._draw
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(photon_sim, "_draw", counting)
    assert main(_one_pass_argv(tmp_path / "once.csv")) == EXIT_OK
    assert len(calls) == 6


def test_reproduce_experiment_columns_equal_separate_runs(tmp_path):
    """Each displacement's width and fraction columns are, bit for bit,
    those of a separate ``run_trials`` with that estimator on the seed."""
    argv = _one_pass_argv(tmp_path / "rows.csv")
    assert main(argv) == EXIT_OK
    rows = json.loads((tmp_path / "rows.json").read_text())["per_delta"]
    args = build_parser().parse_args(argv)
    beam = BeamParams.from_rayleigh_range(args.wavelength, args.rayleigh_range)
    for row, delta in zip(rows, args.deltas, strict=True):
        for estimator in ("mle", "fraction"):
            report = run_trials(TrialConfig(
                beam=beam, detector_plane=-beam.rayleigh_range, true_delta=delta,
                n_per_trial=args.n_per_trial, trials=args.trials,
                estimator=estimator, base_seed=args.seed,
            ))
            assert row[f"{estimator}_mean_m"] == report.mean_estimate
            assert row[f"{estimator}_std_m"] == report.empirical_std
            assert row[f"{estimator}_flagged"] == report.flagged_count


def test_simulate_flags_empty_exposures(tmp_path):
    """Width MLE at one photon per Poisson exposure: the empty trials are
    flagged, not a usage error."""
    out = tmp_path / "empty.json"
    argv = [
        "simulate",
        *SMALL_BEAM,
        "--estimator", "mle",
        "--poisson-total",
        "--n-per-trial", "1",
        "--trials", "50",
        "--format", "json",
        "--out", str(out),
    ]
    assert main(argv) == EXIT_OK
    trials = json.loads(out.read_text())["trials"]
    empty = [t for t in trials if t["n"] == 0]
    assert empty and all(t["flagged"] for t in empty)


def test_reproduce_experiment_check_passes(tmp_path):
    argv = [
        "reproduce-experiment",
        "--n-per-trial", "100000",
        "--trials", "800",
        "--deltas", "100nm",
        "--check",
        "--out", str(tmp_path / "check.csv"),
    ]
    assert main(argv) == EXIT_OK
    payload = json.loads((tmp_path / "check.json").read_text())
    assert payload["checks"]["enabled"] is True
    assert payload["checks"]["failures"] == []


def test_packaged_preset_check_passes(tmp_path):
    """The packaged preset itself (200 trials x 5 displacements x 1.6e6
    photons, default seed) passes --check in under a second.  Its std
    checks are about 2 standard errors wide, so on a fresh seed the run
    fails by chance 11.7 % of the time (95 % CI 10.7-12.7 %, 4000 seeds);
    per displacement the width check fails 5.2-5.4 % and the fraction
    check 3.9-5.7 % of the time."""
    start = time.perf_counter()
    assert main(["reproduce-experiment", "--check",
                 "--out", str(tmp_path / "preset.csv")]) == EXIT_OK
    assert time.perf_counter() - start < 1.0


def test_reproduce_experiment_check_flags_large_displacements(tmp_path, capsys):
    # One Rayleigh range out, the linearized fraction readout is biased by
    # tens of percent; --check must fail loudly.
    argv = [
        "reproduce-experiment",
        "--n-per-trial", "2000",
        "--trials", "20",
        "--deltas", "18900nm",
        "--check",
        "--out", str(tmp_path / "bad.csv"),
    ]
    assert main(argv) == EXIT_CHECK_FAILED
    err = capsys.readouterr().err
    assert "CHECK FAILED" in err
    assert "18" in err


# ---------------------------------------------------------------------------
# Config files and exit codes
# ---------------------------------------------------------------------------


def _csv_table(path):
    """The column names and rows of a CSV artifact, numbers parsed."""
    lines = path.read_text().splitlines()

    def number(cell):
        try:
            return int(cell)
        except ValueError:
            return float(cell)

    return lines[1].split(","), [[number(cell) for cell in line.split(",")]
                                 for line in lines[2:]]


@pytest.mark.parametrize(
    ("argv", "table_key"),
    [
        (["fi-scan", *UNIT_BEAM, *RELAY, "--zmin", "0.5m", "--zmax", "2m",
          "--steps", "11"], "rows"),
        (["fi-density", *SMALL_BEAM, "--focal", "100mm", "--object-distance", "105mm",
          "--steps", "11"], "rows"),
        (["simulate", *SMALL_BEAM, "--n-per-trial", "500", "--trials", "4"], "trials"),
        (["reproduce-experiment", "--n-per-trial", "20000", "--trials", "5",
          "--deltas", "100nm,400nm", "--check"], None),
    ],
    ids=["fi-scan", "fi-density", "simulate", "reproduce-experiment"],
)
def test_json_format_is_the_csv_sidecar_plus_the_table(tmp_path, argv, table_key):
    csv_out = tmp_path / "table.csv"
    json_out = tmp_path / "whole.json"
    csv_code = main([*argv, "--out", str(csv_out)])
    assert main([*argv, "--format", "json", "--out", str(json_out)]) == csv_code
    sidecar = json.loads(csv_out.with_suffix(".json").read_text())
    whole = json.loads(json_out.read_text())
    columns, rows = _csv_table(csv_out)
    if table_key == "rows":
        assert whole == {**sidecar, "columns": columns, "rows": rows}
    elif table_key == "trials":
        trials = whole.pop("trials")
        assert whole == sidecar
        assert [[trial[c] for c in columns] for trial in trials] == rows
        assert [trial["flagged"] for trial in trials] == [False] * len(rows)
    else:
        assert whole == sidecar


def test_config_file_supplies_defaults(tmp_path):
    """argparse finds the file under ``--config PATH``, ``--config=PATH``
    or any abbreviation it accepts, such as ``--conf``."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# reduced benchmark\n"
        "n_per_trial = 1000\n"
        "trials = 5\n"
        "deltas = 100nm\n"
        "seed = 3\n"
    )
    out = tmp_path / "out.csv"
    for form in (["--config", str(cfg)], [f"--config={cfg}"], ["--conf", str(cfg)]):
        argv = ["reproduce-experiment", *form, "--trials", "7", "--out", str(out)]
        assert main(argv) == EXIT_OK
        config = json.loads(out.with_suffix(".json").read_text())["config"]
        assert config["n_per_trial"] == 1000  # from the file
        assert config["trials"] == 7  # explicit flag wins
        assert config["seed"] == 3


def test_missing_config_file_is_a_usage_error(tmp_path, capsys):
    code = main(["simulate", *SMALL_BEAM, "--config", str(tmp_path / "nope.cfg")])
    assert code == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["fi-scan", "--zmin", "0m", "--zmax", "1m", "--wavelength", "632.8nm"],
        ["fi-scan", *UNIT_BEAM, "--zmin", "0m", "--zmax", "1m",
         "--steps", "0"],
        ["simulate", *SMALL_BEAM, "--delta", "5parsecs"],
        ["point-source", "--wavenumber", "1e7", "--pupil-width", "-1m",
         "--distance", "1km"],
        ["no-such-command"],
    ],
)
def test_usage_errors_exit_one(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err


def test_config_file_true_line_sets_a_flag(tmp_path, capsys):
    """A ``check = true`` line passes ``--check``; ``--config=PATH`` works
    like ``--config PATH``."""
    cfg = tmp_path / "check.cfg"
    cfg.write_text("n_per_trial = 2000\ntrials = 20\ndeltas = 18900nm\ncheck = true\n")
    out = tmp_path / "out.csv"
    argv = ["reproduce-experiment", f"--config={cfg}", "--out", str(out)]
    assert main(argv) == EXIT_CHECK_FAILED
    assert "CHECK FAILED" in capsys.readouterr().err
    assert json.loads(out.with_suffix(".json").read_text())["checks"]["enabled"] is True


_CONFIG_FILES = {
    "check.cfg": "check = true\n",
    "bad.cfg": "# reduced run\nn_per_trial 1000\n",
}


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["simulate", *SMALL_BEAM, "--seed", "abc"],
         "argument --seed: seed must be an integer, got 'abc'"),
        (["simulate", *SMALL_BEAM, "--seed", str(2**64)],
         f"argument --seed: seed must fit in 64 bits, got {2**64}"),
        (["simulate", *SMALL_BEAM, "--trials", "x"],
         "argument --trials: expected an integer, got 'x'"),
        (["simulate", *SMALL_BEAM, "--trials", "0"],
         "argument --trials: expected an integer of at least 2, got 0"),
        (["simulate", *SMALL_BEAM, "--n-per-trial", "0"],
         "argument --n-per-trial: expected a positive integer, got 0"),
        (["fi-scan", *UNIT_BEAM, *RELAY, "--zmin", "1m", "--zmax", "1m"],
         "--zmax must exceed --zmin"),
        (["simulate", *SMALL_BEAM, "--trials", "1"],
         "argument --trials: expected an integer of at least 2, got 1"),
        (["reproduce-experiment", "--trials", "1"],
         "argument --trials: expected an integer of at least 2, got 1"),
        (["fi-scan", *UNIT_BEAM, *RELAY, "--zmin", "0m", "--zmax", "1m", "--steps", "1"],
         "argument --steps: expected an integer of at least 2, got 1"),
        (["fi-density", *UNIT_BEAM, "--steps", "1"],
         "argument --steps: expected an integer of at least 2, got 1"),
        (["fi-density", *UNIT_BEAM, "--rmax", "0m"],
         "argument --rmax: expected a positive finite value, got '0m'"),
        (["simulate", *SMALL_BEAM, "--focal", "1m"],
         "--focal and --object-distance must be given together"),
        (["fi-scan", *UNIT_BEAM, "--zmin", "0m", "--zmax", "1m"],
         "fi-scan needs a relay: --focal and --object-distance"),
        (["fi-scan", "--wavelength=-1nm", "--waist", "1um", *RELAY, "--zmin", "0m",
          "--zmax", "1m"], "argument --wavelength: expected a positive finite value, got '-1nm'"),
        (["fi-density", "--wavelength=-1nm", "--rayleigh-range", "1um"],
         "argument --wavelength: expected a positive finite value, got '-1nm'"),
        (["simulate", "--wavelength", "1nm", "--rayleigh-range=-1um"],
         "argument --rayleigh-range: expected a positive finite value, got '-1um'"),
        (["optimal-plane", *UNIT_BEAM, "--focal", "0m", "--object-distance", "1m"],
         "argument --focal: expected a nonzero finite value, got '0m'"),
        (["point-source", "--wavenumber", "1e7", "--pupil-width", "1m", "--distance", "0m"],
         "argument --distance: expected a nonzero finite value, got '0m'"),
        (["point-source", "--wavenumber", "-1", "--pupil-width", "1m", "--distance", "1km"],
         "argument --wavenumber: expected a positive finite value, got '-1'"),
        (["point-source", "--wavenumber", "nan", "--pupil-width", "1m",
          "--distance", "200km"],
         "argument --wavenumber: expected a positive finite value, got 'nan'"),
        (["point-source", "--wavenumber", "inf", "--pupil-width", "1m",
          "--distance", "200km"],
         "argument --wavenumber: expected a positive finite value, got 'inf'"),
        (["point-source", "--wavenumber", "1e7", "--pupil-width", "1m", "--distance", "1km",
          "--detections", "1" + "0" * 400],
         f"argument --detections: integer {'1' + '0' * 400!r} overflows a double"),
        (["simulate", *UNIT_BEAM, "--plane", "0m", "--n-per-trial", "10", "--trials", "2"],
         "plane 0.0 has |d ln f_out / dz| = 0.0; no usable axial signal (the plane is set "
         "by --plane)"),
        (["simulate", *SMALL_BEAM, "--config", "check.cfg"],
         "unrecognized arguments: --check"),
        (["simulate", *SMALL_BEAM, "--config=bad.cfg"],
         "bad.cfg:2: expected key=value, got 'n_per_trial 1000'"),
        (["--config", "check.cfg", "simulate", *SMALL_BEAM],
         "--config requires a subcommand"),
    ],
    ids=["seed-text", "seed-range", "int-text", "int-zero", "n-per-trial-zero",
         "simulate-trials-one",
         "reproduce-trials-one", "zmax", "scan-steps",
         "density-steps", "rmax", "one-relay-flag", "scan-without-relay", "wavelength",
         "negative-wavelength-with-rayleigh-range", "rayleigh-range", "focal",
         "zero-distance", "wavenumber", "wavenumber-nan", "wavenumber-inf",
         "detections-past-a-double",
         "uninformative-plane", "config-true-line", "config-malformed",
         "config-before-subcommand"],
)
def test_usage_errors_exit_one_with_the_message(argv, message, tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in _CONFIG_FILES.items():
        (tmp_path / name).write_text(text)
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(_CONFIG_FILES)


@pytest.mark.parametrize(
    "argv",
    [
        ["fi-scan", *UNIT_BEAM, *RELAY, "--zmin", "0m", "--zmax", "1m", "--seed", "3"],
        ["fi-density", *UNIT_BEAM, "--seed", "3"],
        ["optimal-plane", *UNIT_BEAM, *RELAY, "--seed", "3"],
        ["optimal-plane", *UNIT_BEAM, *RELAY, "--format", "json"],
        ["point-source", "--wavenumber", "1e7", "--pupil-width", "1m",
         "--distance", "1km", "--format", "csv"],
    ],
    ids=["fi-scan-seed", "fi-density-seed", "optimal-plane-seed",
         "optimal-plane-format", "point-source-format"],
)
def test_deterministic_commands_reject_unused_flags(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


_TINY_FOCAL = ("--focal", "1e-300m", "--object-distance", "5m")
_TINY_RAYLEIGH = ("--waist", "1e-80m", "--rayleigh-range", "1e-160m",
                  "--focal", "1m", "--object-distance", "5m")
_INFORMATION_MESSAGE = (
    "{} give the information 1 / z_R^2 = {} /m^2, which is out of double range"
)
_TINY_RAYLEIGH_MESSAGE = _INFORMATION_MESSAGE.format(
    "--waist 1e-80 m and --rayleigh-range 1e-160 m", "inf")
_RELAY_RAYLEIGH = ("--wavelength", "1um", "--rayleigh-range", "1e-150m", *RELAY)
_RELAY_RAYLEIGH_MESSAGE = (
    "--wavelength 1e-06 m and --rayleigh-range {} m give z_R = {} m, too short for double "
    "precision behind this relay: the optimal planes f + f^2 / (s -+ z_R) are {} m and {} m, "
    "where F/Q is {} and {} instead of 1"
)
_LONG_FOCAL = ("--wavelength", "1um", "--waist", "1mm", "--object-distance", "5m",
               "--focal", "1e200m")
_LONG_FOCAL_MESSAGE = (
    "--focal 1e+200 m is too long for double precision: the optimal planes "
    "f + f^2 / (s -+ z_R) overflow"
)
_WIDE_WAIST = ("--wavelength", "1um", "--waist", "1e160m")
_WIDE_WAIST_MESSAGE = (
    "--wavelength 1e-06 m and --waist 1e+160 m give the Rayleigh range z_R = inf m, "
    "which is out of double range"
)
_POINT_SOURCE_MESSAGE = (
    "--distance {0} m is out of double range for this pupil: Q = k^2 w_l^4 / (4 z^4) = {1} "
    "/m^2, and the precision 1 / sqrt(n Q) = {2} m at n = 1 and {2} m at --detections 1"
)
_DERIVED_WAIST_MESSAGE = (
    "--wavelength {} m and --rayleigh-range {} m give the waist w0 = {} m, which is out "
    "of double range"
)
_DERIVED_WAVELENGTH_MESSAGE = (
    "--waist {} m and --rayleigh-range {} m give the wavelength lambda = {} m, which is "
    "out of double range"
)
_FAR_PLANE_MESSAGE = (
    "--plane 1e+200 m is too far for double precision: the squared beam width there "
    "overflows"
)


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["fi-scan", *UNIT_BEAM, *RELAY, "--zmin", "0m", "--zmax", "1e308m", "--steps", "3"],
         "--zmin 0.0 m to --zmax 1e+308 m: classical information is not finite at 2 of 3 "
         "planes, from 5e+307 m to 1e+308 m: the ray matrix is out of double range there"),
        (["optimal-plane", *UNIT_BEAM, *_TINY_FOCAL],
         "--focal 1e-300 m is too short for double precision: the optimal planes "
         "f + f^2 / (s -+ z_R) round to the focal plane"),
        (["fi-scan", *UNIT_BEAM, *_TINY_FOCAL, "--zmin", "0m", "--zmax", "1m"],
         "--focal 1e-300 m is too short for double precision: the optimal planes "
         "f + f^2 / (s -+ z_R) round to the focal plane"),
        (["simulate", *UNIT_BEAM, "--focal", "1e-150m", "--object-distance", "5m",
          "--n-per-trial", "10", "--trials", "2"],
         "--focal 1e-150 m is too short for double precision: the optimal planes "
         "f + f^2 / (s -+ z_R) round to the focal plane"),
        (["optimal-plane", *_TINY_RAYLEIGH], _TINY_RAYLEIGH_MESSAGE),
        (["fi-scan", *_TINY_RAYLEIGH, "--zmin", "0.5m", "--zmax", "2m"],
         _TINY_RAYLEIGH_MESSAGE),
        (["fi-density", *_TINY_RAYLEIGH], _TINY_RAYLEIGH_MESSAGE),
        (["simulate", *_TINY_RAYLEIGH, "--n-per-trial", "10", "--trials", "2"],
         _TINY_RAYLEIGH_MESSAGE),
        (["fi-scan", *_LONG_FOCAL, "--zmin", "0m", "--zmax", "1m"], _LONG_FOCAL_MESSAGE),
        (["fi-density", *_LONG_FOCAL], _LONG_FOCAL_MESSAGE),
        (["optimal-plane", *_LONG_FOCAL], _LONG_FOCAL_MESSAGE),
        (["simulate", *_LONG_FOCAL, "--n-per-trial", "10", "--trials", "2"],
         _LONG_FOCAL_MESSAGE),
        (["optimal-plane", "--waist", "1e-85m", "--rayleigh-range", "1e-170m", *RELAY],
         _INFORMATION_MESSAGE.format("--waist 1e-85 m and --rayleigh-range 1e-170 m", "inf")),
        (["optimal-plane", *_RELAY_RAYLEIGH],
         _RELAY_RAYLEIGH_MESSAGE.format("1e-150", "9.999999999999997e-151", "1.25", "1.25",
                                        "0.0", "0.0")),
        (["fi-scan", *_RELAY_RAYLEIGH, "--zmin", "0.5m", "--zmax", "2m"],
         _RELAY_RAYLEIGH_MESSAGE.format("1e-150", "9.999999999999997e-151", "1.25", "1.25",
                                        "0.0", "0.0")),
        (["optimal-plane", "--wavelength", "1um", "--rayleigh-range", "1e-153m",
          "--focal=-3e-161m", "--object-distance", "6e-152m"],
         _RELAY_RAYLEIGH_MESSAGE.format("1e-153", "1e-153", "-2.999999998475933e-161",
                                        "-2.9999999985259023e-161", "nan", "nan")),
        (["fi-density", "--waist", "1e-80m", "--rayleigh-range", "1e-160m"],
         _TINY_RAYLEIGH_MESSAGE),
        (["fi-density", "--waist", "1e-85m", "--rayleigh-range", "1e-170m"],
         _INFORMATION_MESSAGE.format("--waist 1e-85 m and --rayleigh-range 1e-170 m", "inf")),
        (["simulate", "--waist", "1e-80m", "--rayleigh-range", "1e-160m",
          "--n-per-trial", "10", "--trials", "2"], _TINY_RAYLEIGH_MESSAGE),
        (["reproduce-experiment", "--rayleigh-range", "1e-170m", "--trials", "2"],
         _INFORMATION_MESSAGE.format("--wavelength 6.328e-07 m and --rayleigh-range 1e-170 m",
                                     "inf")),
        (["fi-density", *_WIDE_WAIST], _WIDE_WAIST_MESSAGE),
        (["simulate", *_WIDE_WAIST, "--n-per-trial", "10", "--trials", "2"],
         _WIDE_WAIST_MESSAGE),
        (["optimal-plane", *_WIDE_WAIST, *RELAY], _WIDE_WAIST_MESSAGE),
        (["fi-density", "--wavelength", "1um", "--waist", "1mm", "--plane", "1e200m"],
         _FAR_PLANE_MESSAGE),
        (["simulate", "--wavelength", "1um", "--waist", "1mm", *RELAY, "--plane", "1e200m",
          "--n-per-trial", "10", "--trials", "2"], _FAR_PLANE_MESSAGE),
        (["fi-density", "--wavelength", "1um", "--rayleigh-range", "1e-150m"],
         "--wavelength 1e-06 m and --rayleigh-range 1e-150 m give z_R = "
         "9.999999999999997e-151 m, too short for double precision at this plane: the "
         "information density r p(r) (d ln w^2 / dz)^2 overflows"),
        (["fi-density", "--wavelength", "1um", "--waist", "1mm", "--rmax", "1e200m"],
         "--rmax 1e+200 m is too large for double precision: 2 r^2 / w^2 overflows"),
        (["fi-density", "--wavelength", "1um", "--waist", "1mm", "--rmax", "1km"],
         "--rmax 1000.0 m is too large for --steps 400: the information density "
         "underflows to 0 at every radius sampled"),
        (["point-source", "--wavenumber", "1e7", "--pupil-width", "1mm", "--distance", "1e80m"],
         _POINT_SOURCE_MESSAGE.format("1e+80", "2.49997e-319", "2.0000000000000002e+159")),
        (["point-source", "--wavenumber", "1e7", "--pupil-width", "1mm",
          "--distance", "1e-90m"],
         _POINT_SOURCE_MESSAGE.format("1e-90", "inf", "1.9999999999999998e-181")),
        (["fi-density", "--wavelength", "1e-200m", "--rayleigh-range", "1e-200m"],
         _DERIVED_WAIST_MESSAGE.format("1e-200", "1e-200", "0.0")),
        (["simulate", "--wavelength", "1e200m", "--rayleigh-range", "1e200m"],
         _DERIVED_WAIST_MESSAGE.format("1e+200", "1e+200", "inf")),
        (["reproduce-experiment", "--wavelength", "1e-200m", "--rayleigh-range", "1e-200m"],
         _DERIVED_WAIST_MESSAGE.format("1e-200", "1e-200", "0.0")),
        (["fi-density", "--waist", "1e-200m", "--rayleigh-range", "1e-200m"],
         _DERIVED_WAVELENGTH_MESSAGE.format("1e-200", "1e-200", "0.0")),
        (["fi-density", "--waist", "1e160m", "--rayleigh-range", "1m"],
         _DERIVED_WAVELENGTH_MESSAGE.format("1e+160", "1.0", "inf")),
        (["fi-density", "--wavelength", "1um", "--waist", "1e-81m"],
         _INFORMATION_MESSAGE.format("--wavelength 1e-06 m and --waist 1e-81 m", "inf")),
        (["reproduce-experiment", "--rayleigh-range", "1e300m", "--trials", "2"],
         _INFORMATION_MESSAGE.format("--wavelength 6.328e-07 m and --rayleigh-range 1e+300 m",
                                     "0.0")),
        (["simulate", "--wavelength", "1um", "--waist", "1mm", "--delta", "1e300m",
          "--trials", "2"],
         "--delta 1e+300 m: the true squared width width_sq overflows a double"),
        (["simulate", "--wavelength", "1um", "--waist", "1mm", "--delta", "1e6m",
          "--n-per-trial", "1000", "--trials", "3"],
         "--delta 1000000.0 m: the fraction estimator flags 3 of --trials 3, too many for a "
         "mean and std"),
        (["reproduce-experiment", "--n-per-trial", "573", "--trials", "2",
          "--deltas=-0.050660106091398135m"],
         "--deltas -0.050660106091398135 m: the fraction estimator flags 2 of --trials 2, "
         "too many for a mean and std"),
        (["simulate", "--wavelength", "1um", "--waist", "1mm", "--delta", "1e10m",
          "--n-per-trial", "1000", "--trials", "2"],
         "--delta 10000000000.0 m: boundary radius r_b=0.001 at width_sq=10132118357867.578 "
         "gives c = 2 r_b^2 / width_sq = 1.973920881458123e-19, too small to draw 1000 "
         "photons beyond r_b: the true width is far wider than the calibrated one"),
    ],
    ids=["scan-past-double-range", "optimal-plane-tiny-focal", "fi-scan-tiny-focal",
         "simulate-tiny-focal", "optimal-plane-tiny-rayleigh-range",
         "fi-scan-tiny-rayleigh-range", "fi-density-tiny-rayleigh-range",
         "simulate-tiny-rayleigh-range", "fi-scan-long-focal", "fi-density-long-focal",
         "optimal-plane-long-focal", "simulate-long-focal",
         "optimal-plane-rayleigh-range-squared-underflows",
         "optimal-plane-relay-rayleigh-range-too-short",
         "fi-scan-relay-rayleigh-range-too-short", "optimal-plane-relay-width-law-underflows",
         "free-fi-density-tiny-rayleigh-range",
         "free-fi-density-rayleigh-range-squared-underflows",
         "free-simulate-tiny-rayleigh-range", "reproduce-tiny-rayleigh-range",
         "fi-density-wide-waist", "simulate-wide-waist", "optimal-plane-wide-waist",
         "fi-density-far-plane", "simulate-relayed-far-plane",
         "fi-density-information-density-overflows", "fi-density-huge-rmax",
         "fi-density-rmax-past-the-beam", "point-source-far", "point-source-near",
         "fi-density-derived-waist-underflows", "simulate-derived-waist-overflows",
         "reproduce-derived-waist-underflows", "fi-density-derived-wavelength-underflows",
         "fi-density-derived-wavelength-overflows", "free-derived-rayleigh-range-too-short",
         "reproduce-rayleigh-range-too-long", "simulate-delta-past-double-range",
         "simulate-every-trial-flagged", "reproduce-every-trial-flagged",
         "simulate-delta-past-the-sampler"],
)
def test_numerical_limits_exit_two_with_the_message(argv, message, tmp_path, monkeypatch,
                                                    capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_NUMERICAL
    assert capsys.readouterr() == ("", f"numerical failure: {message}\n")
    assert not list(tmp_path.iterdir())


def test_numerical_failures_exit_two(monkeypatch, capsys):
    def explode(args):
        raise QuadratureError("integral did not converge", estimate=float("nan"))

    monkeypatch.setattr(cli, "cmd_fi_scan", explode)
    code = main(["fi-scan", *UNIT_BEAM, "--zmin", "0m", "--zmax", "1m"])
    assert code == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The documented commands
# ---------------------------------------------------------------------------


def _readme_examples() -> list[list[str]]:
    """Every ``axialfisher ...`` command of README's command-line section,
    as the argument list after the program name."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command-line interface", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in section.split("```sh\n")[1:]:
        command = block.split("```", 1)[0].replace("\\\n", " ")
        tokens = shlex.split(command)
        if tokens and tokens[0] == "axialfisher":
            examples.append(tokens[1:])
    return examples


_README_EXAMPLES = _readme_examples()


def test_readme_documents_every_subcommand():
    assert sorted(argv[0] for argv in _README_EXAMPLES) == [
        "fi-density", "fi-scan", "optimal-plane", "point-source", "reproduce-experiment",
        "simulate"]


@pytest.mark.parametrize("argv", _README_EXAMPLES, ids=[a[0] for a in _README_EXAMPLES])
def test_readme_examples_run_as_written(argv, tmp_path, monkeypatch, capsys):
    """Each documented command exits 0 and writes its named file: --out,
    or the command's default name, with a JSON sidecar beside a CSV."""
    monkeypatch.chdir(tmp_path)
    assert main(list(argv)) == EXIT_OK
    if "--out" in argv:
        out = Path(argv[argv.index("--out") + 1])
    else:
        suffix = ".json" if argv[0] in ("optimal-plane", "point-source") else ".csv"
        out = Path(argv[0].replace("-", "_") + suffix)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        {out.name, out.with_suffix(".json").name})
    assert capsys.readouterr().out.startswith(f"wrote {out}")


# ---------------------------------------------------------------------------
# Seeded sweep over every command's numerical limits
# ---------------------------------------------------------------------------


def _sweep_argv(rng: random.Random) -> list[str]:
    """One command line: every length log-uniform on 1e-300 ... 1e300 m,
    signed where a negative value has a meaning, and every flag written
    as ``--flag=value`` so that a negative value parses as a value."""

    def length(signed=False):
        value = 10.0 ** rng.uniform(-300.0, 300.0)
        return -value if signed and rng.random() < 0.5 else value

    def flag(name, value, unit="m"):
        return [f"--{name}={value!r}{unit}"]

    def beam():
        names = rng.sample(["wavelength", "waist", "rayleigh-range"], 2)
        return [token for name in names for token in flag(name, length())]

    def relay(required=False):
        if required or rng.random() < 0.5:
            return flag("focal", length()) + flag("object-distance", length(signed=True))
        return []

    def maybe(name, signed=False):
        return flag(name, length(signed)) if rng.random() < 0.5 else []

    command = rng.choice(["fi-scan", "fi-density", "optimal-plane", "point-source",
                          "simulate", "reproduce-experiment"])
    if command == "fi-scan":
        zmin, zmax = sorted([length(signed=True), length(signed=True)])
        return [command, *beam(), *relay(required=True), *flag("zmin", zmin),
                *flag("zmax", zmax), f"--steps={rng.randint(2, 6)}"]
    if command == "fi-density":
        return [command, *beam(), *relay(), *maybe("plane", signed=True), *maybe("rmax"),
                f"--steps={rng.randint(2, 50)}"]
    if command == "optimal-plane":
        return [command, *beam(), *relay(required=True)]
    if command == "point-source":
        return [command, *flag("wavenumber", 10.0 ** rng.uniform(-300.0, 300.0), unit=""),
                *flag("pupil-width", length()), *flag("distance", length()),
                f"--detections={rng.randint(1, 10**6)}"]
    small = [f"--n-per-trial={rng.randint(1, 1000)}", f"--trials={rng.randint(2, 4)}"]
    if command == "simulate":
        return [command, *beam(), *relay(), *maybe("plane", signed=True),
                *maybe("delta", signed=True), *small,
                f"--estimator={rng.choice(['fraction', 'fraction-absolute', 'mle'])}",
                *(["--poisson-total"] if rng.random() < 0.5 else [])]
    deltas = ",".join(f"{length(signed=True)!r}m" for _ in range(rng.randint(1, 2)))
    return [command, *maybe("wavelength"), *maybe("rayleigh-range"), *small,
            f"--deltas={deltas}"]


#: The flags whose values ``_edge_argv`` replaces.
_EDGE_FLAGS = {"--wavelength", "--waist", "--rayleigh-range", "--focal", "--object-distance",
               "--zmin", "--zmax", "--plane", "--rmax", "--wavenumber", "--pupil-width",
               "--distance", "--detections", "--delta", "--deltas"}


def _edge_argv(rng: random.Random) -> list[str]:
    """A ``_sweep_argv`` command line with one to three of its lengths,
    wavenumbers or detection counts replaced by a value at or past the
    edge of its domain: zero, negative, unparseable as a length (nan,
    inf) or past double range, and detection counts up to 10^400."""
    argv = _sweep_argv(rng)
    slots = [i for i, token in enumerate(argv) if token.split("=", 1)[0] in _EDGE_FLAGS]
    for i in rng.sample(slots, min(len(slots), rng.randint(1, 3))):
        name = argv[i].split("=", 1)[0]
        if name == "--detections":
            value = str(rng.randint(1, 10 ** rng.randint(1, 400)))
        else:
            unit = "" if name == "--wavenumber" else "m"
            negative = f"-{10.0 ** rng.uniform(-300.0, 300.0)!r}{unit}"
            value = rng.choice([f"0{unit}", f"-0{unit}", negative, "nan", "inf", f"1e400{unit}"])
        argv[i] = f"{name}={value}"
    return argv


_SWEEP = ([_sweep_argv(random.Random(f"sweep-{case}")) for case in range(300)]
          + [_edge_argv(random.Random(f"sweep-edge-{case}")) for case in range(100)])

#: Flags whose default a sweep case may leave at fault.
_SWEEP_DEFAULTS = {"reproduce-experiment": {"--wavelength", "--rayleigh-range"}}


def _all_finite(value) -> bool:
    if isinstance(value, dict):
        return all(map(_all_finite, value.values()))
    if isinstance(value, list):
        return all(map(_all_finite, value))
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    return value is not None


def test_sweep_exits_cleanly_with_finite_artifacts_or_a_named_flag(tmp_path, capsys):
    """400 fixed command lines, over all six commands, with lengths across
    the double range, and in the last 100 of them values at or past the
    edges of their flags' domains.  Each exits 0, 1 or 2; an exit-0 run writes only
    finite values (JSON writes a non-finite value as null); any other exit
    names a flag the run passed, or one whose default was at fault."""
    faults = []
    for case, argv in enumerate(_SWEEP):
        suffix = "json" if argv[0] in ("optimal-plane", "point-source") else "csv"
        code = main([*argv, f"--out={tmp_path / f'case{case}.{suffix}'}"])
        err = capsys.readouterr().err
        if code == EXIT_OK:
            for path in tmp_path.glob(f"case{case}.*"):
                if path.suffix == ".json":
                    finite = _all_finite(json.loads(path.read_text()))
                else:
                    rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
                    finite = all(math.isfinite(float(item)) for row in rows for item in row)
                if not finite:
                    faults.append((argv, f"non-finite value in {path.suffix}"))
            continue
        passed = {token.split("=", 1)[0] for token in argv if token.startswith("--")}
        named = set(re.findall(r"--[a-z][a-z-]*", err))
        if code not in (EXIT_USAGE, EXIT_NUMERICAL):
            faults.append((argv, f"exit {code}: {err}"))
        elif not named & (passed | _SWEEP_DEFAULTS.get(argv[0], set())):
            faults.append((argv, err.strip()))
    assert not faults, f"{len(faults)} faults, first ones: {faults[:5]}"
