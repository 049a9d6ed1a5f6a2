"""Benchmark worker: set up one workload in a fresh interpreter and run it.

``run.py`` starts this script with ``--inputs PATH``, a JSON file holding
the generated inputs.  The worker imports ``axialfisher`` from the
checkout's ``src/``, performs the workload's set-up, prints ``READY`` and
then, unless the mode is ``probe``, runs units of work for the requested
number of seconds.  The result goes to the JSON file named in the inputs.

Modes:

* ``probe``   set-up only; ``run.py`` times several of these for ``setup_s``;
* ``measure`` untraced units, timed one by one;
* ``trace``   pairs of an untraced and a traced unit on the same inputs;
  the first ``traced_units`` traced units give the per-layer figures.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

from reference import ReferenceKernel

#: Tolerances of the acceptance gate (tests/test_acceptance.py).
FI_TOL = 1e-6          # numeric FI and FI/Q at the optimal planes, criteria 1-2
QFI_TOL = 1e-6         # pure-state route vs closed-form point source, criterion 6
OUTSIDE_TOL = 1e-9     # information fraction outside r_b vs 2/e, criterion 3
GENERATOR_TOL = 1e-8   # spectral-moment route vs 1/z_R^2, criterion 7
#: Relative tolerance of the preset's own std and bias checks (cli.py).
STD_TOL = 0.10
BIAS_TOL = 0.05
#: Pooled statistical gates use this many standard errors, so a chance
#: failure has probability below 1e-6 per gate.
SIGMAS = 5.0


def load_package(root: Path):
    sys.path.insert(0, str(root / "src"))
    start = time.perf_counter()
    import axialfisher
    from axialfisher import beam_optics, cli, estimators, fisher, numerics, photon_sim
    import_s = time.perf_counter() - start
    expected = (root / "src" / "axialfisher").resolve()
    if Path(axialfisher.__file__).resolve().parent != expected:
        raise SystemExit(f"imported axialfisher from {axialfisher.__file__}, not {expected}")
    modules = {
        "beam_optics": beam_optics, "cli": cli, "estimators": estimators,
        "fisher": fisher, "numerics": numerics, "photon_sim": photon_sim,
    }
    return modules, import_s


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


class Outcome:
    """Checked result of one unit of work."""

    def __init__(self, key: str):
        self.key = key
        self.attempted = 1
        self.failures: list[str] = []
        self.digest = ""
        self.detections = 0
        self.artifact_bytes = 0
        self.query_s: list[float] = []
        self.errors: list[float] = []

    @property
    def failed(self) -> int:
        return 1 if self.failures else 0


class QueryOutcome(Outcome):
    """Outcome of a unit made of many queries, each attempted on its own."""

    def __init__(self, key: str):
        super().__init__(key)
        self.failed_queries: set[int] = set()

    def fail(self, index: int, message: str) -> None:
        self.failed_queries.add(index)
        self.failures.append(f"query {index}: {message}")

    @property
    def failed(self) -> int:
        return len(self.failed_queries)


def pooled_std_gate(label, variances, dof_each, expected, failures):
    """Check a pooled sample std against its expected value.

    The tolerance is the preset's 10 % or ``SIGMAS`` standard errors of a
    std estimated with the pooled degrees of freedom, whichever is wider.
    """
    dof = dof_each * len(variances)
    pooled = math.sqrt(statistics.fmean(variances))
    tol = max(STD_TOL, SIGMAS / math.sqrt(2.0 * dof))
    err = abs(pooled - expected) / expected
    if not err <= tol:
        failures.append(f"{label}: pooled std {pooled!r} departs from {expected!r} "
                        f"by {err:.3f} > {tol:.3f} ({dof} dof)")


def pooled_mean_gate(label, means, per_unit_trials, std, expected, failures):
    stderr = std / math.sqrt(per_unit_trials * len(means))
    err = abs(statistics.fmean(means) - expected)
    if not err <= SIGMAS * stderr:
        failures.append(f"{label}: pooled mean is {err / stderr:.1f} standard errors "
                        f"from {expected!r}")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class PresetMC:
    """``reproduce-experiment`` through ``cli.main``, one seed per unit.

    ``--check`` is not passed: with trials cut to fit a run, its 10 % std
    gate fails by chance on most seeds.  The same std and bias checks are
    applied here to the trials pooled over every unit of the run.
    """

    def __init__(self, af, inputs, outdir: Path):
        self.cli = af["cli"]
        self.seeds = inputs["unit_seeds"]
        self.trials = inputs["trials"]
        self.workers = inputs["workers"]
        self.outdir = outdir
        self.summaries: dict[int, dict] = {}
        self.n_per_trial = 0

    def argv(self, i):
        return ["reproduce-experiment", "--seed", str(self.seeds[i]),
                "--trials", str(self.trials), "--workers", str(self.workers)]

    def run(self, i, tracer=None, pace=None):
        out = self.outdir / f"unit{i}.csv"
        argv = self.argv(i) + ["--out", str(out)]
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            if tracer is None:
                code = self.cli.main(argv)
            else:
                with tracer.span("cli.main"):
                    code = self.cli.main(argv)
        return code, captured.getvalue(), out

    def check(self, i, raw) -> Outcome:
        code, text, out = raw
        outcome = Outcome("preset|" + " ".join(self.argv(i)))
        if code != 0:
            outcome.failures.append(f"unit {i}: exit code {code}")
        if "CHECK FAILED" in text:
            outcome.failures.append(f"unit {i}: CHECK FAILED line")
        sidecar = out.with_suffix(".json")
        if not (out.exists() and sidecar.exists()):
            outcome.failures.append(f"unit {i}: artifacts missing")
            return outcome
        csv_bytes, json_bytes = out.read_bytes(), sidecar.read_bytes()
        out.unlink()
        sidecar.unlink()
        outcome.digest = digest(csv_bytes, json_bytes)
        outcome.artifact_bytes = len(csv_bytes) + len(json_bytes)
        payload = json.loads(json_bytes)
        self.n_per_trial = payload["config"]["n_per_trial"]
        rows = payload["per_delta"]
        outcome.detections = 2 * len(rows) * self.trials * self.n_per_trial
        for row in rows:
            delta = row["true_delta_m"]
            flagged = row["mle_flagged"] + row["fraction_flagged"]
            if flagged:
                outcome.failures.append(f"unit {i}: {flagged} flagged trials at delta={delta!r}")
            bias = abs(row["fraction_response_m"] - delta)
            if not bias <= BIAS_TOL * abs(delta):
                outcome.failures.append(f"unit {i}: fraction response bias {bias!r} m "
                                        f"at delta={delta!r}")
        self.summaries.setdefault(i, payload)
        return outcome

    def finish(self) -> list[str]:
        failures: list[str] = []
        if not self.summaries:
            return failures
        summaries = list(self.summaries.values())
        first = summaries[0]
        bounds = {"mle": first["quantum_bound_m"], "fraction": first["fraction_bound_m"]}
        for index, row in enumerate(first["per_delta"]):
            delta = row["true_delta_m"]
            rows = [s["per_delta"][index] for s in summaries]
            for name, bound in bounds.items():
                pooled_std_gate(f"{name} at delta={delta!r}",
                                [r[f"{name}_std_m"] ** 2 for r in rows],
                                self.trials - 1, bound, failures)
            pooled_mean_gate(f"mle mean at delta={delta!r}",
                             [r["mle_mean_m"] for r in rows], self.trials,
                             bounds["mle"], delta, failures)
            pooled_mean_gate(f"fraction mean at delta={delta!r}",
                             [r["fraction_mean_m"] for r in rows], self.trials,
                             bounds["fraction"], row["fraction_response_m"], failures)
        return failures

    def exposure(self, af):
        """(width_sq, n) of one exposure, for the sampler's memory figure."""
        beam = af["beam_optics"].BeamParams.from_rayleigh_range(632.8e-9, 18.9e-6)
        return af["beam_optics"].beam_width_sq(beam, -beam.rayleigh_range), self.n_per_trial


class RelayMC:
    """``run_trials`` behind the 20x relay of acceptance criterion 5, at
    the preferred plane: width MLE and absolute fraction on the same seed."""

    ESTIMATORS = ("mle", "fraction-absolute")

    def __init__(self, af, inputs, outdir: Path):
        self.af = af
        bo, fisher, est = af["beam_optics"], af["fisher"], af["estimators"]
        self.seeds = inputs["unit_seeds"]
        self.trials = inputs["trials"]
        self.n = inputs["n_per_trial"]
        self.beam = bo.BeamParams.from_rayleigh_range(632.8e-9, 18.9e-6)
        self.relay = bo.RelaySystem(0.1, 0.105)
        self.plane = fisher.preferred_detection_plane(self.beam, self.relay)
        est.calibrate(self.beam, self.plane, self.relay)
        self.stats: dict[int, dict] = {}

    def config(self, i, estimator):
        return self.af["estimators"].TrialConfig(
            beam=self.beam, detector_plane=self.plane, true_delta=0.0,
            n_per_trial=self.n, trials=self.trials, estimator=estimator,
            base_seed=self.seeds[i], relay=self.relay, poisson_total=True,
        )

    def run(self, i, tracer=None, pace=None):
        est = self.af["estimators"]
        return [est.run_trials(self.config(i, name)) for name in self.ESTIMATORS]

    def check(self, i, reports) -> Outcome:
        outcome = Outcome(f"relay|{self.config(i, 'mle')!r}")
        parts = []
        for report in reports:
            name = report.config.estimator
            if report.flagged_count:
                outcome.failures.append(f"unit {i}: {report.flagged_count} flagged {name} trials")
            outcome.detections += int(report.totals.sum())
            parts += [report.trial_seeds.tobytes(), report.totals.tobytes(),
                      report.counts_outside.tobytes(), report.estimates.tobytes(),
                      report.flagged.tobytes()]
            self.stats.setdefault(i, {})[name] = (report.empirical_std ** 2,
                                                  report.mean_estimate, report.quantum_crb_std)
        outcome.digest = digest(*parts)
        return outcome

    def finish(self) -> list[str]:
        failures: list[str] = []
        # Absolute fraction: k is Poisson(N f0) with f0 = 1/e, so its std is
        # sqrt(e) times the bound at a plane where F reaches Q.
        factors = {"mle": 1.0, "fraction-absolute": math.sqrt(math.e)}
        for name in self.ESTIMATORS:
            rows = [unit[name] for unit in self.stats.values()]
            if not rows:
                continue
            expected = rows[0][2] * factors[name]
            pooled_std_gate(name, [r[0] for r in rows], self.trials - 1, expected, failures)
            pooled_mean_gate(f"{name} mean", [r[1] for r in rows], self.trials,
                             expected, 0.0, failures)
        return failures

    def exposure(self, af):
        image = af["beam_optics"].relay_transform(self.beam, self.relay)
        return af["beam_optics"].image_beam_width_sq(image, self.plane), self.n


class Query(NamedTuple):
    beam: object
    relay: object
    planes: list
    k: float
    pupil_width: float
    source_distance: float
    qfi: float  # from the generator route, computed at set-up


class Bounds:
    """Deterministic questions over the seeded beams and relays, one query
    per geometry; every answer is checked against an independent route."""

    def __init__(self, af, inputs, outdir: Path):
        self.af = af
        bo, fisher = af["beam_optics"], af["fisher"]
        self.queries = []
        self.setup_failures: list[str] = []
        self.cold_s = 0.0
        self.key = "bounds|" + digest(inputs["queries"])
        for index, q in enumerate(inputs["queries"]):
            beam = bo.BeamParams(q["wavelength"], q["waist"])
            relay = bo.RelaySystem(q["focal"], q["object_distance"])
            image = bo.relay_transform(beam, relay)
            planes = [image.waist_position + image.rayleigh_range * (-4.0 + 8.0 * j / 999)
                      for j in range(1000)]
            k = 2.0 * math.pi / q["wavelength"]
            start = time.perf_counter()
            qfi = fisher.qfi_via_generator(beam)
            if index == 0:
                self.cold_s = time.perf_counter() - start
            err = abs(qfi - fisher.qfi_gaussian(beam)) / fisher.qfi_gaussian(beam)
            if not err <= GENERATOR_TOL:
                self.setup_failures.append(f"query {index}: generator QFI off by {err:.2e}")
            self.queries.append(Query(beam, relay, planes, k, q["pupil_width"],
                                      q["source_distance"], qfi))

    def query(self, beam, relay, planes, k, pupil_width, source_distance, qfi):
        bo, fisher = self.af["beam_optics"], self.af["fisher"]
        scan = fisher.scan_image_fi(beam, relay, planes)
        try:
            optimal = fisher.optimal_detection_planes(beam, relay)
        except fisher.DegenerateAlphaError:
            optimal = fisher.optimal_planes_numeric(beam, relay)
        plane = fisher.preferred_detection_plane(beam, relay)
        fi_plus = fisher.image_fi(beam, relay, optimal.plane_plus)
        fi_minus = fisher.image_fi(beam, relay, optimal.plane_minus)
        image = bo.relay_transform(beam, relay)
        w_sq = bo.image_beam_width_sq(image, plane)
        outside = fisher.info_fraction_outside(w_sq, fisher.info_boundary(w_sq))
        image_beam = bo.BeamParams(beam.wavelength, image.waist)
        local_z = plane - image.waist_position
        fi_numeric = fisher.beam_fi_numeric(image_beam, local_z)
        qfi_pupil = fisher.qfi_pure_state(bo.pupil_field_family(pupil_width, k), source_distance)
        return {
            "scan": scan.fi_values, "plane_plus": optimal.plane_plus,
            "plane_minus": optimal.plane_minus, "plane": plane, "fi_plus": fi_plus,
            "fi_minus": fi_minus, "outside": outside, "image_beam": image_beam,
            "local_z": local_z, "fi_numeric": fi_numeric, "qfi_pupil": qfi_pupil,
        }

    def run(self, i, tracer=None, pace=None):
        """Answer every query; ``pace``, when given, runs between queries."""
        answers = []
        clock = time.perf_counter
        for index, query in enumerate(self.queries):
            if pace is not None and index:
                pace()
            start = clock()
            try:
                answer = self.query(*query)
            except Exception as exc:  # a failed query is counted, not fatal
                answer = exc
            answers.append((answer, clock() - start))
        return answers

    def check(self, i, answers) -> Outcome:
        fisher = self.af["fisher"]
        outcome = QueryOutcome(self.key)
        outcome.attempted = len(answers)
        outcome.query_s = [elapsed for _, elapsed in answers]
        parts = []
        for index, ((answer, _), q) in enumerate(zip(answers, self.queries)):
            if isinstance(answer, Exception):
                outcome.fail(index, f"{type(answer).__name__}: {answer}")
                continue
            qfi = q.qfi
            image_beam, local_z = answer["image_beam"], answer["local_z"]
            analytic = fisher.classical_fi_analytic(image_beam, local_z)
            closed = fisher.qfi_point_source(q.k, q.pupil_width, q.source_distance)
            errors = {
                "FI/Q at the optimal planes": (max(abs(answer["fi_plus"] / qfi - 1.0),
                                                   abs(answer["fi_minus"] / qfi - 1.0)), FI_TOL),
                "numeric FI": (abs(answer["fi_numeric"] - analytic)
                               / (fisher.qfi_gaussian(image_beam) + analytic), FI_TOL),
                "pure-state QFI": (abs(answer["qfi_pupil"] - closed) / closed, QFI_TOL),
                "outside fraction": (abs(answer["outside"] - 2.0 / math.e), OUTSIDE_TOL),
            }
            for label, (err, tol) in errors.items():
                outcome.errors.append(err)
                if not err <= tol:
                    outcome.fail(index, f"{label} off by {err:.3e} > {tol:g}")
            if answer["plane"] not in (answer["plane_plus"], answer["plane_minus"]):
                outcome.fail(index, "preferred plane is not an optimal plane")
            parts += [answer["scan"].tobytes()] + [answer[key] for key in (
                "plane_plus", "plane_minus", "plane", "fi_plus", "fi_minus",
                "outside", "fi_numeric", "qfi_pupil")]
        outcome.digest = digest(*parts)
        return outcome

    def finish(self) -> list[str]:
        return self.setup_failures

    def exposure(self, af):
        return None


WORKLOADS = {"preset-mc": PresetMC, "preset-mc-par": PresetMC,
             "relay-mc": RelayMC, "bounds": Bounds}


# ---------------------------------------------------------------------------
# Per-layer figures from the traced units
# ---------------------------------------------------------------------------


def layer_metrics(units, outcomes):
    """Per-layer figures of the traced units, per unit of work."""
    from tracer import reduce_spans

    totals, notes, owned = reduce_spans(units)
    count = len(units)

    def per_unit(name, key="busy_s"):
        return totals[name][key] / count if name in totals else 0.0

    trials: dict = {}
    flagged = 0
    for estimator, runs, flags in notes.get("estimators.run_trials", []):
        trials[estimator] = trials.get(estimator, 0) + runs
        flagged += flags

    def per_trial(name, estimator):
        runs = trials.get(estimator, 0)
        return owned[name][estimator] / runs if runs else 0.0

    draws = notes.get("photon_sim.sample_radii", [])
    detections = sum(n for _, n, _ in draws)
    quads = notes.get("numerics.quad", [])
    m = {
        "photon_sim.sample_radii.busy_s": per_unit("photon_sim.sample_radii"),
        "photon_sim.sample_radii.calls": per_unit("photon_sim.sample_radii", "calls"),
        "photon_sim.sample_radii.ns_per_detection":
            per_unit("photon_sim.sample_radii") * count * 1e9 / detections
            if detections else 0.0,
        "photon_sim.sample_radii.unique_ratio": len(set(draws)) / len(draws) if draws else 0.0,
        "photon_sim.count_outside.busy_s": per_unit("photon_sim.count_outside"),
        "photon_sim.derive_trial_seed.busy_s": per_unit("photon_sim.derive_trial_seed"),
        "estimators.run_trials.busy_s": per_unit("estimators.run_trials"),
        "estimators.run_trials.self_s": per_unit("estimators.run_trials", "self_s"),
        "estimators.estimate_mle_width.busy_s": per_unit("estimators.estimate_mle_width"),
        "estimators.estimate_fraction.busy_s": per_unit("estimators.estimate_fraction"),
        "estimators.estimate_fraction_absolute.busy_s":
            per_unit("estimators.estimate_fraction_absolute"),
        "estimators.calibrate.busy_s": per_unit("estimators.calibrate"),
        "estimators.flagged_ratio": flagged / sum(trials.values()) if trials else 0.0,
        "beam_optics.relay_transform.calls": per_unit("beam_optics.relay_transform", "calls"),
        "beam_optics.image_beam_width_sq.busy_s": per_unit("beam_optics.image_beam_width_sq"),
        "fisher.scan_image_fi.busy_s": per_unit("fisher.scan_image_fi"),
        "fisher.image_fi.calls": per_unit("fisher.image_fi", "calls"),
        "fisher.optimal_planes_numeric.calls": per_unit("fisher.optimal_planes_numeric", "calls"),
        "fisher.optimal_planes_numeric.busy_s": per_unit("fisher.optimal_planes_numeric"),
        "fisher.qfi_pure_state.busy_s": per_unit("fisher.qfi_pure_state"),
        "fisher.beam_fi_numeric.busy_s": per_unit("fisher.beam_fi_numeric"),
        "fisher.info_fraction_outside.busy_s": per_unit("fisher.info_fraction_outside"),
        "numerics.integral_to_infinity.calls": per_unit("numerics.integral_to_infinity", "calls"),
        "numerics.integral_to_infinity.busy_s": per_unit("numerics.integral_to_infinity"),
        "numerics.finite_integral.calls": per_unit("numerics.finite_integral", "calls"),
        "numerics.finite_integral.busy_s": per_unit("numerics.finite_integral"),
        "numerics.quad.neval": sum(n for n, _ in quads) / count,
        "numerics.quad.err_ratio_max": max((r for _, r in quads), default=0.0),
        "cli.main.self_s": per_unit("cli.main", "self_s"),
        "cli.write_s": per_unit("cli.write_json") + per_unit("cli.write_csv"),
        "cli.artifact_bytes": sum(o.artifact_bytes for o in outcomes) / count,
    }
    for estimator in ("mle", "fraction", "fraction-absolute"):
        m[f"photon_sim.count_outside.calls_per_trial.{estimator}"] = per_trial(
            "photon_sim.count_outside", estimator)
    m["beam_optics.relay_transform.calls_per_trial.mle"] = per_trial(
        "beam_optics.relay_transform", "mle")
    return m


def sampler_bytes_per_detection(af, workload) -> float:
    """Peak bytes of numpy arrays held by one ``sample_radii`` call, per
    detection, as counted by tracemalloc from the allocation sizes."""
    import tracemalloc

    exposure = workload.exposure(af)
    if exposure is None:
        return 0.0
    width_sq, n = exposure
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sample = af["photon_sim"].sample_radii(width_sq, n, 1)
        peak = tracemalloc.get_traced_memory()[1]
        del sample
    finally:
        tracemalloc.stop()
    return (peak - base) / n


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True)
    args = parser.parse_args()
    inputs = json.loads(Path(args.inputs).read_text(encoding="utf-8"))
    mode = inputs["mode"]
    root = Path(inputs["root"])
    outdir = Path(inputs["outdir"])

    af, import_s = load_package(root)
    workload = WORKLOADS[inputs["workload"]](af, inputs, outdir)
    print("READY", flush=True)
    if mode == "probe":
        return 0

    tracer = None
    if mode == "trace":
        from tracer import Tracer, write_spans
        tracer = Tracer()
    reference = ReferenceKernel()
    clock = time.perf_counter

    # Warm-up on unit 0's inputs: fills caches and gives a repeat whose
    # digest must match the timed unit 0.
    outcomes = [workload.check(0, workload.run(0))]
    units = []
    overhead = []
    traced_units = []
    traced_outcomes = []

    deadline = clock() + inputs["seconds"]
    i = 0
    reference()
    while i < inputs["min_units"] or clock() < deadline:
        first_sample = len(reference.samples) - 1
        start = clock()
        raw = workload.run(i, pace=reference)
        samples = reference.samples[first_sample:]
        elapsed = clock() - start - math.fsum(samples[1:])
        reference()
        samples = reference.samples[first_sample:]
        outcome = workload.check(i, raw)
        outcomes.append(outcome)
        segments = outcome.query_s or [elapsed]
        scaled = reference.scale(segments, samples)
        units.append({"s": elapsed, "wall_s": elapsed * math.fsum(scaled) / math.fsum(segments),
                      "query_s": reference.scale(outcome.query_s, samples),
                      "detections": outcome.detections})
        if tracer is not None:
            tracer.install(af)
            start = clock()
            raw = workload.run(i, tracer)
            overhead.append((clock() - start) / elapsed)
            tracer.uninstall()
            spans = tracer.take()
            traced = workload.check(i, raw)
            outcomes.append(traced)
            if len(traced_units) < inputs["traced_units"]:
                traced_units.append(spans)
                traced_outcomes.append(traced)
                if i == 0:
                    write_spans(outdir.parent / f"spans-{inputs['workload']}.csv", spans)
            reference()
        i += 1

    # Run-level gates (pooled statistics, set-up checks, repeat digests)
    # count as one more attempted operation.
    run_failures = workload.finish()
    first: dict = {}
    for o in outcomes:
        if first.setdefault(o.key, o.digest) != o.digest:
            run_failures.append(f"artifact digest differs between repeats of {o.key[:60]}")
    result = {
        "units": units,
        "attempted": sum(o.attempted for o in outcomes) + 1,
        "failed": sum(o.failed for o in outcomes) + (1 if run_failures else 0),
        "failures": ([f for o in outcomes for f in o.failures] + run_failures)[:20],
        "digests": sorted(first.items()),
        "max_rel_err": max((e for o in outcomes for e in o.errors), default=0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        layers = layer_metrics(traced_units, traced_outcomes)
        layers["photon_sim.sample_radii.bytes_computed_per_detection"] = (
            sampler_bytes_per_detection(af, workload))
        layers["fisher.qfi_via_generator.cold_s"] = getattr(workload, "cold_s", 0.0)
        layers["import.axialfisher_s"] = import_s
        layers["trace.overhead_ratio"] = statistics.median(overhead)
        result["layers"] = layers
        result["trace_missing"] = tracer.missing
    Path(inputs["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except BaseException:
        traceback.print_exc()
        sys.exit(1)
