"""Benchmark of the nnmdl solver.

Usage:
  python3 perfbench/run.py --workload {corpus,search,models,oracle}
      --seed N --seconds S --trace {0,1} [--tiny]

Builds the workload's call list from the seed, times the import of the
solver in fresh processes, then runs passes over the call list, each in a
fresh worker process, for S seconds after one warm-up pass.  Every answer
is checked (see worker.py).  The load is one closed-loop caller: calls run
one after another in one single-threaded process.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  The line before it stamps the run
(Python version, nproc, seed, sample counts) and adds the per-engine
latencies.  The exit code is 0 only when every check passed.  --tiny runs
the smoke-test sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from common import BENCH_DIR, CACHE_DIR, CALIBRATION_NOMINAL_S, ROOT, SRC, calibrate, solver_present

WORKLOADS = ("corpus", "search", "models", "oracle")
#: p99 is reported only with at least ten samples beyond it.
P99_MIN_SAMPLES = 1000

HOST_NOISE = (
    "2-vCPU reference host: slow phases of 0.5 s to over 12 s run a fixed loop "
    "30-60% slower, in CPU time as much as in wall time; over 5 runs of 7 "
    "passes the fastest pass stayed within 7%, the median pass varied up to "
    "40% and the per-call p50 up to 29%; over 6 runs of 12 s the IQR of the "
    "median pass was 20-55% of its median; counts repeat exactly"
)
STATISTIC = (
    "call times scaled by a calibration loop timed around every 0.2 s of "
    "calls; pass_s = sum over calls of each call's median over the timed "
    "passes, call_p50_ms = median of those medians, setup_s = median of one "
    "scaled fresh import per pass, peak_rss_mb = median over passes; "
    "per-layer figures = median over traced passes"
)

TIME_UNITS = {"_s": "s", "_ms": "ms"}


def unit_of(name: str) -> str:
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("us_per_step"):
        return "us"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_mb"):
        return "MB"
    for suffix, unit in TIME_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def scaled(name: str, value: float, factor: float) -> float:
    """A metric at the calibration's nominal host speed."""
    unit = unit_of(name)
    if unit in ("s", "ms", "us"):
        return value * factor
    if unit == "1/s":
        return value / factor
    return value


def import_seconds() -> float:
    """Time to import nnmdl in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import nnmdl; "
        "print(time.perf_counter() - t, nnmdl.__file__)"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.split()
    if not out[1].startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported nnmdl from {out[1]}, not {SRC}")
    return float(out[0])


def scaled_import_seconds() -> float:
    before = calibrate()
    import_s = import_seconds()
    after = calibrate()
    return import_s * 2 * CALIBRATION_NOMINAL_S / (before + after)


def run_pass(calls: list[dict], trace: bool, spans_out: str | None) -> dict:
    """One pass in a fresh worker, with an import timed before it."""
    import_s = scaled_import_seconds()
    request = json.dumps({"calls": calls, "trace": trace, "spans_out": spans_out})
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py")],
        input=request,
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: worker exited with {proc.returncode}")
    result = json.loads(proc.stdout)
    result["traced"] = trace
    result["import_s"] = import_s
    return result


def percentiles(samples: list[float], prefix: str) -> dict:
    """p50, and p99 when the sample allows it, in ms, with the count."""
    out = {f"{prefix}_p50_ms": statistics.median(samples) * 1e3, f"{prefix}_samples": len(samples)}
    if len(samples) >= P99_MIN_SAMPLES:
        out[f"{prefix}_p99_ms"] = statistics.quantiles(samples, n=100)[98] * 1e3
    return out


def measure(calls: list[dict], seconds: float, spans_out: str | None) -> tuple[dict, list[dict]]:
    """A warm-up pass, then timed passes until the time is up.  With
    tracing on, traced and untraced passes alternate, so the overhead
    is measured too."""
    trace = spans_out is not None
    calibrate()  # the first run of fresh bytecode is slower
    import_seconds()  # writes the bytecode cache
    warm_up = run_pass(calls, trace, spans_out)
    timed = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not timed:
        timed.append(run_pass(calls, trace, spans_out))
        if trace:
            timed.append(run_pass(calls, False, None))
    return warm_up, timed


def pass_time(p: dict) -> float:
    return sum(p["scaled"])


def pass_factor(p: dict) -> float:
    """The pass's scale factor, weighted by call time."""
    return pass_time(p) / sum(p["durations"])


def call_medians(timed: list[dict]) -> list[float]:
    """Each call's median scaled time over the timed passes."""
    return [statistics.median(samples) for samples in zip(*(p["scaled"] for p in timed))]


def end_to_end(calls: list[dict], everything: list[dict], timed: list[dict]) -> tuple[dict, dict]:
    medians = call_medians(timed)
    metrics = {
        "pass_s": sum(medians),
        "call_p50_ms": statistics.median(medians) * 1e3,
        "setup_s": statistics.median(p["import_s"] for p in everything),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in timed),
    }
    detail = {
        "timed_passes": len(timed),
        "setup_samples": len(everything),
        "pass_s_unscaled": statistics.median(sum(p["durations"]) for p in timed),
        "pass_s_median_pass": statistics.median(pass_time(p) for p in timed),
        "scale_factors": [min(map(pass_factor, timed)), max(map(pass_factor, timed))],
    }
    by_engine: dict[str, list[float]] = {}
    for p in timed:
        for call, t in zip(calls, p["scaled"]):
            by_engine.setdefault(call["engine"], []).append(t)
    for engine, engine_samples in sorted(by_engine.items()):
        detail.update(percentiles(engine_samples, engine))
    return metrics, detail


COUNTS = ("tableau.steps", "oracle.models_checked", "extraction.neighbourhood_sets", "fragment.alc_calls")


def per_layer(timed: list[dict]) -> tuple[dict, dict]:
    traced = [p for p in timed if p["traced"]]
    plain = [p for p in timed if not p["traced"]]
    names = traced[0]["layers"]
    metrics = {}
    for name in names:
        values = [scaled(name, p["layers"][name], pass_factor(p)) for p in traced]
        metrics[name] = statistics.median_low(values) if unit_of(name) == "count" else statistics.median(values)
    traced_pass = statistics.median(pass_time(p) for p in traced)
    metrics["trace.pass_s"] = traced_pass
    metrics["trace.overhead_s"] = traced_pass - statistics.median(pass_time(p) for p in plain)
    detail = {
        "traced_passes": len(traced),
        "untraced_passes": len(plain),
        "counts_repeat": all(len({p["layers"][c] for p in traced}) == 1 for c in COUNTS),
    }
    return metrics, detail


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    if not solver_present():
        print(f"perfbench: no solver sources under {SRC}", file=sys.stderr)
        return 2

    import workloads

    try:
        calls = workloads.build(args.workload, args.seed, "tiny" if args.tiny else "full")
    except workloads.ReferenceMismatch as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    spans_out = None
    if args.trace:
        os.makedirs(CACHE_DIR, exist_ok=True)
        spans_out = os.path.join(CACHE_DIR, f"spans-{args.workload}-{args.seed}.json")
    warm_up, timed = measure(calls, args.seconds, spans_out)
    everything = [warm_up] + timed
    if args.trace:
        metrics, detail = per_layer(timed)
    else:
        metrics, detail = end_to_end(calls, everything, timed)
    attempted = len(calls) * len(everything)
    failed = sum(len({f["call"] for f in p["failures"]}) for p in everything)
    detail["failed_share"] = failed / attempted
    detail["failures"] = [f for p in everything for f in p["failures"]][:20]
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "calls_per_pass": len(calls),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "host_noise": HOST_NOISE,
        "statistic": STATISTIC,
    }
    print(json.dumps({"stamp": stamp, "detail": detail}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
