"""Smoke test of the benchmark itself; runs in well under a minute.

Usage: python3 perfbench/smoke.py

Runs every workload at the tiny sizes, untraced and traced, and asserts
that each run exits 0, that its checks passed, that it printed every
metric BENCHMARK.json names with that metric's unit, and that its stamp
carries the Python version, nproc and seed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from common import BENCH_DIR, ROOT
from run import WORKLOADS


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, cwd=ROOT,
            )
            where = f"{workload} --trace {trace}"
            assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
            *_, stamp_line, result_line = proc.stdout.strip().splitlines()
            result = json.loads(result_line)
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], where
            assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, where
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == wanted[trace], f"{where}: {printed} != {wanted[trace]}"
            stamp = json.loads(stamp_line)["stamp"]
            assert stamp["seed"] == 1 and stamp["python"] and stamp["nproc"] >= 1, where
            print(f"ok {where}", flush=True)
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
