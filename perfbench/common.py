"""Paths, the calibrated clock and the solver import, shared by the
benchmark's processes."""

from __future__ import annotations

import gc
import os
import random
import sys
import time

import gen

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CACHE_DIR = os.path.join(BENCH_DIR, ".cache")

#: Fixed pure-Python work of the benchmark's own (formula generation), timed
#: alongside the solver to follow the host's speed: on a shared host, slow
#: phases lasting from half a second to over ten seconds slow everything by
#: 30-60%.  A time measured next to a calibration that took c seconds is
#: reported as time * CALIBRATION_NOMINAL_S / c.
CALIBRATION_FORMULAS = 500
#: The calibration's time on the reference host (2 vCPUs, Python 3.11) in a
#: quiet phase.
CALIBRATION_NOMINAL_S = 0.022
#: Work between two calibrations; shorter than most slow phases.
CALIBRATION_INTERVAL_S = 0.2


def calibrate() -> float:
    """Time of the calibration loop.  The collector is off while it runs,
    so its time does not depend on how many objects the caller holds."""
    rng = random.Random(0)
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(CALIBRATION_FORMULAS):
            gen.serialize(gen.random_formula(rng))
        return time.perf_counter() - start
    finally:
        gc.enable()


class ScaledClock:
    """Times calls and scales each by the calibrations on either side of
    it: the loop runs before the first call, after every
    CALIBRATION_INTERVAL_S of calls and after the last (see finish)."""

    def __init__(self):
        calibrate()  # the first run of fresh bytecode is slower
        self.durations: list[float] = []
        self.factors: list[float] = []
        self._segment_start = calibrate()
        self._segment_work = 0.0

    def call(self, fn, *args):
        if self._segment_work >= CALIBRATION_INTERVAL_S:
            self._close_segment()
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.durations.append(time.perf_counter() - start)
            self._segment_work += self.durations[-1]

    def _close_segment(self) -> None:
        segment_end = calibrate()
        factor = 2 * CALIBRATION_NOMINAL_S / (self._segment_start + segment_end)
        self.factors.extend([factor] * (len(self.durations) - len(self.factors)))
        self._segment_start = segment_end
        self._segment_work = 0.0

    def finish(self) -> list[float]:
        """Scaled times of all calls so far."""
        self._close_segment()
        return [d * f for d, f in zip(self.durations, self.factors)]


def solver_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "nnmdl", "__init__.py"))


def import_solver():
    """The nnmdl package from this checkout's src/, never an installed one."""
    if not solver_present():
        raise SystemExit(f"perfbench: no solver sources under {SRC}")
    sys.path.insert(0, SRC)
    import nnmdl
    import nnmdl.extraction
    import nnmdl.fragment
    import nnmdl.oracle
    import nnmdl.tableau

    if not os.path.abspath(nnmdl.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported nnmdl from {nnmdl.__file__}, not {SRC}")
    return nnmdl
