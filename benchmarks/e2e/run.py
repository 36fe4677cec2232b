#!/usr/bin/env python3
"""The repository's one end-to-end benchmark (see README.md beside this file).

    python3 benchmarks/e2e/run.py --seed 7
        every workload: the end-to-end pass, then the traced pass
    python3 benchmarks/e2e/run.py --workload point-hot --seed 7 --seconds 12 --trace 0
        one workload, one pass; the form BENCHMARK.json's driver uses
    python3 benchmarks/e2e/run.py --calibrate 10
        repeat the end-to-end pass and report each metric's spread

Each pass prints its metrics by name with their units and then, as its
last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. ``--trace 0`` gives the end-to-end metrics, measured against
the real server over HTTP with tracing off, times as on the reference
host (``reference.py``); ``--trace 1`` the per-layer metrics from the
separate in-process traced pass. Answers are checked
against an independent recompute before any number is printed, and a
mismatch makes the run exit non-zero.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
CALIBRATION = HERE / "calibration.json"

Metrics = Dict[str, Tuple[float, str]]


def _report(title: str, metrics: Metrics, wanted: List[dict], attempted: int,
            failed: int, failures: List[str], notes: Dict[str, object]) -> bool:
    """Print one pass; ``True`` when it is correct and complete."""
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    correct = failed == 0 and not missing
    print(f"== {title}")
    for spec in wanted:
        if spec["name"] in metrics:
            value, unit = metrics[spec["name"]]
            print(f"  {spec['name']:34s} {value:14.4f} {unit}")
    print(f"  {'ops_attempted':34s} {attempted:14d} count")
    print(f"  {'ops_failed':34s} {failed:14d} count")
    print(f"  {'failed_share':34s} {failed / max(attempted, 1):14.4f} ratio")
    for key, value in notes.items():
        print(f"  ({key}: {value})")
    for reason in failures[:5]:
        print(f"  FAILED: {reason[:300]}")
    if missing:
        print(f"  MISSING: {', '.join(missing)}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            spec["name"]: {"value": metrics[spec["name"]][0], "unit": spec["unit"]}
            for spec in wanted if spec["name"] in metrics
        },
    }))
    return correct


def end_to_end(spec: dict, name: str, seed: int, seconds: float):
    from workloads import run_end_to_end

    result = run_end_to_end(name, seed, seconds, ROOT, OUT)
    notes = {
        **{k: f"{v:.4f} {unit} (not gated)" for k, (v, unit) in result.informational.items()},
        "samples": result.counts,
        "phase seconds": {k: round(v, 1) for k, v in result.phase_seconds.items()},
    }
    ok = _report(f"{name}  end-to-end  seed={seed} seconds={seconds:g}",
                 result.metrics, spec["end_to_end"], result.attempted,
                 result.failed, result.failures, notes)
    return ok, result


def traced(spec: dict, name: str, seed: int):
    from layers import run_traced

    result = run_traced(name, seed, OUT)
    OUT.mkdir(parents=True, exist_ok=True)
    trace_path = OUT / "trace.json"
    trace_path.write_text(json.dumps(result.trace))
    notes = {
        "trace": f"{trace_path.relative_to(ROOT)} ({len(result.trace['spans'])} spans)",
        "self time by layer, ms": result.trace["self_time_ms_by_layer"],
    }
    ok = _report(f"{name}  traced  seed={seed}", result.metrics, spec["per_layer"],
                 result.attempted, result.failed, result.failures, notes)
    return ok, result


def _spread(values: List[float]) -> dict:
    """Median, quartiles and (q3 - q1) / median, as the driver computes them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def calibrate(spec: dict, runs: int, seed: int, seconds: float) -> bool:
    """``runs`` end-to-end passes per workload on consecutive seeds, plus one
    traced pass; fails when a spread exceeds its metric's bound.

    ``setup_s`` is reported but cannot fail the calibration, which is the
    driver's rule too: three boots are a small sample.
    """
    ok = True
    report = {"runs": runs, "first_seed": seed, "seconds": seconds, "workloads": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        values: Dict[str, List[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(runs):
            passed, result = end_to_end(spec, name, seed + i, seconds)
            ok &= passed
            for metric, (value, _) in result.metrics.items():
                values[metric].append(value)
        passed, layer_result = traced(spec, name, seed)
        ok &= passed
        entry = {"end_to_end": {}, "per_layer": {
            metric: value for metric, (value, _) in sorted(layer_result.metrics.items())}}
        print(f"== {name}  calibration over {runs} runs")
        for metric in spec["end_to_end"]:
            summary = _spread(values[metric["name"]])
            summary["bound"] = metric["bound"]
            within = summary["spread"] <= metric["bound"]
            summary["within_bound"] = within
            entry["end_to_end"][metric["name"]] = summary
            print(f"  {metric['name']:18s} median {summary['median']:12.4f} {metric['unit']:5s}"
                  f" q1 {summary['q1']:12.4f} q3 {summary['q3']:12.4f}"
                  f" spread {summary['spread']:.4f} bound {metric['bound']:.2f}"
                  f" {'ok' if within else 'OVER'}")
            if not within and metric["name"] != "setup_s":
                ok = False
        report["workloads"][name] = entry
    CALIBRATION.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {CALIBRATION.relative_to(ROOT)}")
    return ok


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end pass, 1: traced pass (default: both)")
    parser.add_argument("--calibrate", type=int, nargs="?", const=5, default=None,
                        metavar="N", help="N end-to-end runs per workload, spreads vs bounds")
    args = parser.parse_args(argv)
    # A terminated run must still stop its server: exit through ``finally``.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"{ROOT} holds no src/repro to benchmark", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = float(spec["run_seconds"]) if args.seconds is None else args.seconds
    if args.calibrate is not None:
        return 0 if calibrate(spec, args.calibrate, args.seed, seconds) else 1

    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; expected one of {names}")
        names = [args.workload]
    ok = True
    for name in names:
        if args.trace in (None, 0):
            ok &= end_to_end(spec, name, args.seed, seconds)[0]
        if args.trace in (None, 1):
            ok &= traced(spec, name, args.seed)[0]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
