"""The oracle reference for the formula pools, stored in reference.json.

Usage: python3 perfbench/reference.py               (rewrites reference.json)
       python3 perfbench/reference.py INDEX COUNT   (one share, as JSON)

The brute-force oracle decides every pool formula under every class at
its default bounds: acceptance-shaped formulas under E, M, C and N with
varying domains, fragment formulas under C and N with constant domains.
Each answer is [verdict, models checked, seconds], the time scaled to the
calibration's nominal host speed (see common.py).  Each witness the
oracle returns is checked again with check_frame_class and satisfies, and
every oracle "sat" must also be "sat" from the tableau (varying domains)
or from the fragment procedure (constant domains); the file is written
only when every check passes.  Two processes share the work, which takes
a few minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from common import BENCH_DIR, ScaledClock, import_solver
from workloads import FRAGMENT_CLASSES, REFERENCE_FILE, VARYING_CLASSES, pools

SHARES = 2


class OracleCheckError(RuntimeError):
    """An oracle answer failed one of the benchmark's checks."""


def entries() -> list[tuple[str, int, str, str, str]]:
    """(pool, index, text, class, domain) of every reference answer."""
    formulas, g_formulas = pools()
    out = [
        ("formulas", i, text, cls, "varying")
        for i, text in enumerate(formulas)
        for cls in VARYING_CLASSES
    ]
    out += [
        ("g_formulas", i, text, cls, "constant")
        for i, text in enumerate(g_formulas)
        for cls in FRAGMENT_CLASSES
    ]
    return out


def decide(nnmdl, clock: ScaledClock, text: str, cls: str, domain: str) -> list:
    """[verdict, models checked]; raises when a check fails."""
    frame_class = nnmdl.FrameClass(cls)
    phi = nnmdl.parse_formula(text)
    bounds = nnmdl.OracleBounds(domain_mode=domain)
    result = clock.call(nnmdl.brute_force_sat, phi, frame_class, bounds)
    if result.verdict == "sat":
        witness = result.model
        if not (
            nnmdl.check_frame_class(witness, frame_class)
            and nnmdl.satisfies(witness, result.world, phi)
        ):
            raise OracleCheckError(f"oracle witness fails the semantic check: {cls} {text}")
        engine = nnmdl.solve_fragment if domain == "constant" else nnmdl.solve
        if engine(phi, frame_class).verdict != "sat":
            raise OracleCheckError(f"oracle sat, {engine.__name__} unsat: {cls} {text}")
    return [result.verdict, result.models_checked]


def write() -> None:
    procs = [
        subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "reference.py"), str(i), str(SHARES)],
            stdout=subprocess.PIPE,
            text=True,
        )
        for i in range(SHARES)
    ]
    shares = []
    for proc in procs:
        out, _ = proc.communicate()
        if proc.returncode != 0:
            raise SystemExit(f"reference share exited with {proc.returncode}")
        shares.append(json.loads(out))
    formulas, g_formulas = pools()
    reference = {
        "formulas": [[text, {}] for text in formulas],
        "g_formulas": [[text, {}] for text in g_formulas],
    }
    for i, share in enumerate(shares):
        for (pool, index, _, cls, _), answer in zip(entries()[i::SHARES], share):
            reference[pool][index][1][cls] = answer
    pools_text = [
        f'"{pool}": [\n' + ",\n".join(json.dumps(row, sort_keys=True) for row in rows) + "\n]"
        for pool, rows in reference.items()
    ]
    with open(REFERENCE_FILE, "w") as f:
        f.write("{" + ",\n".join(pools_text) + "}\n")


def main(argv: list[str]) -> int:
    if len(argv) == 1:
        write()
        return 0
    index, count = int(argv[1]), int(argv[2])
    nnmdl = import_solver()
    clock = ScaledClock()
    answers = [decide(nnmdl, clock, *entry[2:]) for entry in entries()[index::count]]
    for answer, seconds in zip(answers, clock.finish()):
        answer.append(round(seconds, 6))
    json.dump(answers, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
