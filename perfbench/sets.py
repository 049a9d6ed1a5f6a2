"""Run the benchmark over a set of seeds and summarise each metric.

    python3 perfbench/sets.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                              [--seconds S] [--out FILE] [--environment]

For every workload and seed this runs ``run.py`` once, in seed-major
order so that slow drifts of the machine spread over all workloads.  It
prints, per workload and metric, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
``(q3 - q1) / median`` next to the metric's bound in ``BENCHMARK.json``;
the metrics printed but not declared are summarised too.  Per-layer
counts must repeat exactly between runs of the same seed (``--seeds
1,1,2,2``); the summary says where they do not.

``--out`` merges the summary into a JSON file under ``trace0`` or
``trace1``; ``--environment`` adds the machine and sizing record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from run import OUT_DIR, WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def environment() -> dict:
    """Machine, versions, and the photon arrays' size against the LLC."""
    import numpy
    import scipy

    def read(path):
        try:
            return Path(path).read_text(encoding="ascii").strip()
        except OSError:
            return None

    model = next((line.split(":", 1)[1].strip()
                  for line in (read("/proc/cpuinfo") or "").splitlines()
                  if line.startswith("model name")), platform.processor())
    l3 = read("/sys/devices/system/cpu/cpu0/cache/index3/size")
    l3_bytes = int(l3[:-1]) * 1024 if l3 and l3.endswith("K") else None
    sizing = {}
    for name, params in WORKLOADS.items():
        n = params.get("n_per_trial", 1_600_000 if name.startswith("preset") else 0)
        if n:
            sizing[name] = {"detections_per_exposure": n, "bytes_per_float64_array": 8 * n,
                            "share_of_llc": 8 * n / l3_bytes if l3_bytes else None}
    return {"nproc": os.cpu_count(), "cpu_model": model, "l3_bytes": l3_bytes,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "photon_arrays": sizing}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    last = OUT_DIR / f"last-{workload}.json"
    if proc.returncode != 0 or not last.exists():
        print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}",
              file=sys.stderr)
        return None
    record = json.loads(last.read_text(encoding="utf-8"))
    last.unlink()
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark over a set of seeds")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--environment", action="store_true")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    declared = {m["name"]: m for m in group}
    key = "layers" if args.trace else "metrics"

    seeds = parse_seeds(args.seeds)
    runs: dict = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            record = run_once(workload, seed, seconds, args.trace)
            runs[workload].append(record)
            if record:
                shown = {k: v for k, v in record[key].items() if k in declared}
                print(f"{workload:<14} seed {seed:<3} correct {record['correct']} "
                      + " ".join(f"{k}={v:.6g}" for k, v in shown.items()), flush=True)

    summary: dict = {}
    for workload, records in runs.items():
        ok = [r for r in records if r and r["correct"]]
        entry = summary[workload] = {"seconds": seconds, "seeds": seeds,
                                     "failed_runs": len(records) - len(ok), "metrics": {}}
        if len(ok) < 2:
            continue
        for name in ok[0][key]:
            values = [r[key][name] for r in ok]
            entry["metrics"][name] = summarise(values)
        by_seed: dict = {}
        for seed, record in zip(seeds, records):
            if record:
                by_seed.setdefault(seed, []).append(record[key])
        entry["counts_not_repeating"] = sorted({
            name for name, m in declared.items() if m["unit"] == "count"
            for same in by_seed.values() if len({r.get(name) for r in same}) > 1})

    for workload, entry in summary.items():
        print(f"== {workload}: {len(entry['seeds'])} runs, {entry['failed_runs']} failed or "
              "incorrect")
        for name, s in entry["metrics"].items():
            bound = declared.get(name, {}).get("bound")
            flag = "" if bound is None else f"bound {bound}" + (
                "  OVER" if s["spread"] > bound else "  over a third" if s["spread"] > bound / 3
                else "")
            print(f"   {name:<56} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} {flag}")
        if entry.get("counts_not_repeating"):
            print(f"   counts differing between runs of one seed: {entry['counts_not_repeating']}")
    if args.out:
        path = Path(args.out)
        record = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        record[f"trace{args.trace}"] = summary
        if args.environment:
            record["environment"] = environment()
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if all(e["failed_runs"] == 0 for e in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
