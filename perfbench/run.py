"""axialfisher benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's inputs are generated
here from ``--seed``; the package sees only those inputs.  Each workload
runs in fresh interpreters (``worker.py``): ``SETUP_PROBES`` set-up-only
probes give ``setup_s``, then one measured process runs units of work
for ``--seconds`` seconds.  ``--workload all`` runs every workload in
turn.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  The exit code is 0 only when every
output was correct.

Outputs of every unit of work are hashed, and the digests are kept in
``.perfbench_out/digests.json`` keyed by the package's source hash and
the unit's inputs, so a rerun of the same code on the same inputs that
writes different bytes counts as a failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import ReferenceKernel

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Fresh interpreters timed to READY for ``setup_s``, besides the measured one.
SETUP_PROBES = 5
#: Hard limit on one worker process, so a hung run still exits in time.
WORKER_TIMEOUT_S = 150.0

#: Workload parameters.  Trials are cut from the preset's 200 so that a
#: unit of work takes about a second; detections per exposure stay at the
#: packaged 1.6e6 (12.8 MB per array, in cache against a 105 MiB L3).
WORKLOADS = {
    "preset-mc": {"trials": 4, "workers": 1, "min_units": 3, "traced_units": 2},
    "preset-mc-par": {"trials": 4, "workers": os.cpu_count() or 1, "min_units": 3,
                      "traced_units": 2},
    "relay-mc": {"trials": 500, "n_per_trial": 10_000, "min_units": 5, "traced_units": 3},
    "bounds": {"queries": 40, "degenerate": 8, "focal": 4, "min_units": 3, "traced_units": 1},
}

#: Which end-to-end metric and workload each per-layer metric should move.
MOVES = {
    "photon_sim.sample_radii.busy_s": "wall_s, detections_per_s on preset-mc (dominant), relay-mc (minor); no change on bounds",
    "photon_sim.sample_radii.calls": "wall_s on preset-mc, relay-mc",
    "photon_sim.sample_radii.ns_per_detection": "wall_s, detections_per_s on preset-mc",
    "photon_sim.sample_radii.bytes_computed_per_detection": "peak_rss_mb on preset-mc",
    "photon_sim.sample_radii.unique_ratio": "wall_s on preset-mc",
    "photon_sim.count_outside.busy_s": "wall_s on preset-mc",
    "photon_sim.count_outside.calls_per_trial.mle": "wall_s on preset-mc",
    "photon_sim.count_outside.calls_per_trial.fraction": "wall_s on preset-mc",
    "photon_sim.count_outside.calls_per_trial.fraction-absolute": "wall_s on relay-mc",
    "photon_sim.derive_trial_seed.busy_s": "wall_s on relay-mc",
    "estimators.run_trials.busy_s": "wall_s on preset-mc, preset-mc-par, relay-mc",
    "estimators.run_trials.self_s": "wall_s on preset-mc, preset-mc-par (pool), relay-mc",
    "estimators.estimate_mle_width.busy_s": "wall_s on preset-mc",
    "estimators.estimate_fraction.busy_s": "wall_s on preset-mc",
    "estimators.estimate_fraction_absolute.busy_s": "wall_s on relay-mc",
    "estimators.calibrate.busy_s": "wall_s on preset-mc, relay-mc (once per report); setup_s on relay-mc",
    "estimators.flagged_ratio": "fail_ratio on preset-mc, relay-mc",
    "beam_optics.relay_transform.calls": "wall_s on relay-mc; query_ms_p50 on bounds",
    "beam_optics.relay_transform.calls_per_trial.mle": "wall_s on relay-mc",
    "beam_optics.image_beam_width_sq.busy_s": "wall_s on relay-mc",
    "fisher.scan_image_fi.busy_s": "query_ms_p50 on bounds",
    "fisher.image_fi.calls": "query_ms_p50 on bounds",
    "fisher.optimal_planes_numeric.calls": "query_ms_p90, wall_s on bounds",
    "fisher.optimal_planes_numeric.busy_s": "query_ms_p90, wall_s on bounds",
    "fisher.qfi_pure_state.busy_s": "query_ms_p90, wall_s on bounds",
    "fisher.beam_fi_numeric.busy_s": "query_ms_p90, wall_s on bounds",
    "fisher.info_fraction_outside.busy_s": "query_ms_p90, wall_s on bounds",
    "fisher.qfi_via_generator.cold_s": "setup_s on bounds",
    "numerics.integral_to_infinity.calls": "wall_s, query_ms_p90 on bounds",
    "numerics.integral_to_infinity.busy_s": "wall_s, query_ms_p90 on bounds",
    "numerics.finite_integral.calls": "setup_s on bounds (cold spectral moments only)",
    "numerics.finite_integral.busy_s": "setup_s on bounds (cold spectral moments only)",
    "numerics.quad.neval": "wall_s, query_ms_p90 on bounds",
    "numerics.quad.err_ratio_max": "max_rel_err on bounds",
    "cli.main.self_s": "wall_s on preset-mc",
    "cli.write_s": "wall_s on preset-mc",
    "cli.artifact_bytes": "wall_s on preset-mc",
    "import.axialfisher_s": "setup_s on all workloads",
    "trace.overhead_ratio": "none: traced wall_s over untraced wall_s",
}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def bounds_queries(rng: random.Random, count: int, degenerate: int, focal: int) -> list[dict]:
    """Seeded beams and relays, with fixed shares of two special cases.

    * degenerate: f - z + z_R = 0 exactly, so the closed-form optimal
      planes are singular and ``optimal_planes_numeric`` runs.  Powers of
      two make the sum exact: wavelength pi * 2^-21 m (1.50 um), waist
      2^-b m, hence z_R = 2^(21 - 2b) m, and f a multiple of 2^-6 m;
    * focal: the object sits at the front focal plane (z = f), so there
      is no geometric image;
    * generic: 450-1100 nm, z_R 10 um-1 mm, f 25-250 mm, and the waist
      3-100 Rayleigh ranges from the focal plane on either side.

    Every query also ranges a point source through a Gaussian pupil of
    0.5-5 mm at a distance where the pupil's quadratic phase k w^2 / 2z
    spans 15-150 rad.
    """
    kinds = ["degenerate"] * degenerate + ["focal"] * focal
    kinds += ["generic"] * (count - len(kinds))
    queries = []
    for kind in kinds:
        if kind == "degenerate":
            b = rng.choice((16, 17, 18))
            wavelength, waist = math.pi * 2.0**-21, 2.0**-b
            rayleigh = 2.0 ** (21 - 2 * b)
            focal_length = rng.randint(2, 16) * 2.0**-6
            distance = focal_length + rayleigh
        else:
            wavelength = rng.uniform(450e-9, 1100e-9)
            rayleigh = log_uniform(rng, 1e-5, 1e-3)
            waist = math.sqrt(rayleigh * wavelength / math.pi)
            focal_length = log_uniform(rng, 0.025, 0.25)
            distance = focal_length
            if kind == "generic":
                offset = rayleigh * log_uniform(rng, 3.0, 100.0)
                if rng.random() < 0.5 and offset < 0.8 * focal_length:
                    offset = -offset
                distance = focal_length + offset
        pupil_width = log_uniform(rng, 5e-4, 5e-3)
        k = 2.0 * math.pi / wavelength
        phase = log_uniform(rng, 15.0, 150.0)
        queries.append({
            "kind": kind, "wavelength": wavelength, "waist": waist,
            "focal": focal_length, "object_distance": distance,
            "pupil_width": pupil_width, "source_distance": k * pupil_width**2 / (2.0 * phase),
        })
    return queries


def make_inputs(workload: str, seed: int) -> dict:
    params = dict(WORKLOADS[workload])
    rng = random.Random(seed)
    inputs = {"workload": workload, "seed": seed, **params}
    inputs["unit_seeds"] = [rng.getrandbits(32) for _ in range(4096)]
    if workload == "bounds":
        inputs["queries"] = bounds_queries(rng, params["queries"], params["degenerate"],
                                           params["focal"])
    return inputs


# ---------------------------------------------------------------------------
# Worker processes
# ---------------------------------------------------------------------------


class WorkerError(RuntimeError):
    pass


def run_worker(inputs: dict, path: Path, reference: ReferenceKernel) -> float:
    """Start ``worker.py`` on ``inputs``; return the seconds from the
    start of the interpreter to its READY line, at reference speed.
    Waits for the worker to exit."""
    path.write_text(json.dumps(inputs), encoding="utf-8")
    reference()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), "--inputs", str(path)],
        cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True,
    )
    ready = None
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            deadline = start + WORKER_TIMEOUT_S
            while ready is None:
                if not sel.select(timeout=max(0.0, deadline - time.perf_counter())):
                    raise WorkerError("worker timed out before READY")
                line = proc.stdout.readline()
                if not line:
                    break
                if line.strip() == b"READY":
                    ready = time.perf_counter() - start
        proc.wait(timeout=max(1.0, start + WORKER_TIMEOUT_S - time.perf_counter()))
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise WorkerError(f"{inputs['workload']}: {exc}") from None
    finally:
        proc.stdout.close()
    if proc.returncode != 0 or ready is None:
        raise WorkerError(f"{inputs['workload']}: worker exited with code {proc.returncode}")
    reference()
    return reference.scale([ready], reference.samples[-2:])[0]


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "axialfisher").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_digests(workload: str, digests: list) -> list[str]:
    """Compare this run's output digests with earlier runs of the same
    code on the same inputs, then record them."""
    log_path = OUT_DIR / "digests.json"
    log = json.loads(log_path.read_text(encoding="utf-8")) if log_path.exists() else {}
    code = source_hash()
    failures = []
    for key, value in digests:
        full_key = f"{code}|{workload}|{key}"
        if log.setdefault(full_key, value) != value:
            failures.append(f"output digest differs from an earlier run: {key[:60]}")
    tmp = log_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(log, indent=0, sort_keys=True), encoding="utf-8")
    os.replace(tmp, log_path)
    return failures


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    inputs = make_inputs(workload, seed)
    rundir = OUT_DIR / f"run-{os.getpid()}-{workload}"
    rundir.mkdir(parents=True, exist_ok=True)
    inputs.update(root=str(ROOT), outdir=str(rundir), seconds=seconds,
                  result=str(rundir / "result.json"))
    reference = ReferenceKernel()
    try:
        setups = []
        if not trace:
            for _ in range(SETUP_PROBES):
                setups.append(run_worker({**inputs, "mode": "probe"}, rundir / "inputs.json",
                                         reference))
        setups.append(run_worker({**inputs, "mode": "trace" if trace else "measure"},
                                 rundir / "inputs.json", reference))
        result = json.loads((rundir / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    failures = result["failures"] + check_digests(workload, result["digests"])
    failed = result["failed"] + (1 if len(failures) > len(result["failures"]) else 0)
    units = result["units"]
    # Times after set-up are at the reference speed (worker.ReferenceKernel).
    wall = [unit["wall_s"] for unit in units]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(wall), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    extra = {
        "wall_raw_s": (statistics.median(unit["s"] for unit in units), "s"),
        "fail_ratio": (failed / result["attempted"], "ratio"),
    }
    detections = sum(unit["detections"] for unit in units)
    if detections:
        extra["detections_per_s"] = (detections / math.fsum(wall), "1/s")
    query_ms = [1e3 * t for unit in units for t in unit["query_s"]]
    if query_ms:
        extra["query_ms_p50"] = (statistics.median(query_ms), "ms")
        extra["query_ms_p90"] = (statistics.quantiles(query_ms, n=10)[8], "ms")
        extra["max_rel_err"] = (result["max_rel_err"], "1")
    return {
        "workload": workload, "inputs": inputs, "setups": len(setups),
        "units": len(units), "queries": len(query_ms),
        "attempted": result["attempted"], "failed": failed, "failures": failures,
        "metrics": metrics, "extra": extra, "layers": result.get("layers", {}),
        "trace_missing": result.get("trace_missing", []),
    }


def describe_inputs(inputs: dict) -> str:
    if inputs["workload"] == "bounds":
        kinds = [q["kind"] for q in inputs["queries"]]
        n = len(kinds)
        return (f"{n} queries per unit: {kinds.count('degenerate') / n:.0%} degenerate "
                f"relays (f - z + z_R = 0, numeric planes), {kinds.count('focal') / n:.0%} "
                f"object at the focal plane (no geometric image), "
                f"{kinds.count('generic') / n:.0%} generic")
    if inputs["workload"] == "relay-mc":
        return (f"{inputs['trials']} trials x (mle, fraction-absolute) per unit, "
                f"Poisson totals of mean {inputs['n_per_trial']}, 20x relay")
    return (f"reproduce-experiment preset, {inputs['trials']} trials per displacement, "
            f"{inputs['workers']} worker(s), one seed per unit")


def report(run: dict, declared: dict) -> None:
    print(f"== {run['workload']}  seed={run['inputs']['seed']}  "
          f"{describe_inputs(run['inputs'])}")
    print(f"   {run['units']} timed units, {run['setups']} set-ups"
          + (f", {run['queries']} timed queries" if run["queries"] else ""))
    for name, (value, unit) in {**run["metrics"], **run["extra"]}.items():
        print(f"   {name:<22} {value:<14.6g} {unit}")
    for name, value in run["layers"].items():
        print(f"   {name:<56} {value:<12.6g} {declared.get(name, '')}"
              f"  -> {MOVES.get(name, '?')}")
    for name in run["trace_missing"]:
        print(f"   trace: binding {name} not found, not traced")
    print(f"   failed {run['failed']} of {run['attempted']} attempted")
    for failure in run["failures"]:
        print(f"   FAIL {failure}")


def main() -> int:
    parser = argparse.ArgumentParser(description="axialfisher benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "axialfisher" / "__init__.py").is_file():
        print(f"error: no axialfisher sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    declared = {m["name"]: m["unit"] for m in group}

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    runs = []
    for workload in workloads:
        try:
            run = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except WorkerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report(run, declared)
        runs.append(run)
        record = {"seed": args.seed, "trace": args.trace, "correct": run["failed"] == 0,
                  "metrics": {name: value for name, (value, _) in
                              {**run["metrics"], **run["extra"]}.items()},
                  "layers": run["layers"], "failures": run["failures"]}
        (OUT_DIR / f"last-{workload}.json").write_text(json.dumps(record), encoding="utf-8")

    metrics = {}
    for run in runs:
        values = {name: value for name, (value, _) in run["metrics"].items()}
        values.update(run["layers"])
        prefix = "" if len(runs) == 1 else f"{run['workload']}."
        for name, unit in declared.items():
            metrics[prefix + name] = {"value": values[name], "unit": unit}
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
