"""Span tracer for the traced benchmark run.

Timing wrappers are interposed on the names *as they are bound in the
calling module*: the package uses ``from .x import y`` imports, so
patching ``axialfisher.photon_sim.sample_radii`` alone would miss every
call that ``estimators`` makes through its own binding.  Each wrapper
records a span ``[name, start, end, parent, note]`` in memory; self time
and the per-layer figures are derived from the span list after the unit
of work, outside the timed region.

Spans are recorded in the process that installed the tracer only.  Pool
children forked by ``estimators.run_trials`` inherit the wrappers but
pass straight through, because their spans could not be shipped back.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

#: Names wrapped in each calling module.  The metric name of a span is
#: ``<defining module>.<function>``, so the two bindings of
#: ``relay_transform`` (in ``estimators`` and ``fisher``) land on one name.
BINDINGS = {
    "estimators": (
        "sample_radii", "count_outside", "derive_trial_seed",
        "relay_transform", "image_beam_width_sq", "beam_width_sq",
        "image_fi", "classical_fi_analytic", "qfi_gaussian",
        "calibrate", "estimate_mle_width", "estimate_fraction",
        "estimate_fraction_absolute", "run_trials", "expected_fraction_estimate",
    ),
    "fisher": (
        "relay_transform", "beam_width_sq", "integral_to_infinity",
        "finite_integral", "image_fi", "scan_image_fi",
        "optimal_detection_planes", "optimal_planes_numeric",
        "preferred_detection_plane", "geometric_image_plane",
        "info_fraction_outside", "beam_fi_numeric", "classical_fi_numeric",
        "qfi_pure_state", "qfi_via_generator", "qfi_point_source",
        "classical_fi_analytic", "qfi_gaussian",
    ),
    "cli": (
        "run_trials", "expected_fraction_estimate", "qfi_gaussian",
        "write_json", "write_csv",
    ),
}


def _note_sample(args, kwargs, result):
    # (seed, n, width_sq) identifies the photons a call draws.
    bound = dict(zip(("width_sq", "n", "seed"), args), **kwargs)
    return (bound["seed"], bound["n"], bound["width_sq"])


def _note_run_trials(args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    return (config.estimator, config.trials, int(result.flagged.sum()))


def _note_quad(args, kwargs, result):
    value, abserr = result[0], result[1]
    neval = result[2]["neval"] if kwargs.get("full_output") else 0
    requested = max(kwargs.get("epsabs", 1.49e-8), kwargs.get("epsrel", 1.49e-8) * abs(value))
    return (neval, abserr / requested if requested > 0.0 else 0.0)


NOTES = {
    "photon_sim.sample_radii": _note_sample,
    "estimators.run_trials": _note_run_trials,
}


class _IntegrateProxy:
    """Stands in for ``scipy.integrate`` inside ``axialfisher.numerics`` so
    that every ``quad`` call is a span carrying ``neval`` and the error
    estimate; every other attribute is the real module's."""

    def __init__(self, real, quad):
        self._real = real
        self.quad = quad

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active = True
        self.missing: list[str] = []
        self._saved: list[tuple] = []
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self):
        self.active = False

    def wrap(self, name, fn, note=None):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name):
        """Context manager for a span owned by the benchmark itself."""
        return _OwnSpan(self, name)

    def install(self, modules):
        """Patch the bindings in ``modules`` (name -> module object)."""
        for module_name, attrs in BINDINGS.items():
            module = modules[module_name]
            for attr in attrs:
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                name = f"{fn.__module__.rsplit('.', 1)[-1]}.{attr}"
                self._patch(module, attr, self.wrap(name, fn, NOTES.get(name)))
        numerics = modules["numerics"]
        real = numerics.integrate
        self._patch(numerics, "integrate",
                    _IntegrateProxy(real, self.wrap("numerics.quad", real.quad, _note_quad)))

    def _patch(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def take(self):
        """Hand over the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


class _OwnSpan:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tracer = self.tracer
        self.span = [self.name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, None]
        tracer.stack.append(len(tracer.spans))
        tracer.spans.append(self.span)
        self.span[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.span[2] = time.perf_counter()
        self.tracer.stack.pop()
        return False


def reduce_spans(units):
    """Per-name totals over the span lists of several units of work.

    Returns ``{name: {"calls", "busy_s", "self_s"}}``, the notes by name,
    and per name the number of spans under a ``run_trials`` call of each
    estimator.  ``busy_s`` counts a name once where it nests inside
    itself; ``self_s`` is a span's duration less the time its child spans
    cover.
    """
    totals = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    notes = defaultdict(list)
    per_estimator = defaultdict(lambda: defaultdict(int))
    for spans in units:
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        for index, (name, start, end, parent, note) in enumerate(spans):
            entry = totals[name]
            entry["calls"] += 1
            entry["self_s"] += end - start - child_time[index]
            owner = None
            nested = False
            up = parent
            while up >= 0:
                ancestor = spans[up]
                nested = nested or ancestor[0] == name
                if owner is None and ancestor[0] == "estimators.run_trials":
                    owner = ancestor[4][0]
                up = ancestor[3]
            if not nested:
                entry["busy_s"] += end - start
            if note is not None:
                notes[name].append(note)
            if owner is not None:
                per_estimator[name][owner] += 1
    return totals, notes, per_estimator


def write_spans(path, spans):
    """Write spans as CSV: index, name, start_s, end_s, parent."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("index,name,start_s,end_s,parent\n")
        origin = spans[0][1] if spans else 0.0
        for index, (name, start, end, parent, _note) in enumerate(spans):
            fh.write(f"{index},{name},{start - origin:.9f},{end - origin:.9f},{parent}\n")
