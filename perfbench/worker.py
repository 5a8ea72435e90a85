"""One pass over a call list, in a fresh process.

Usage: python3 perfbench/worker.py < request.json

The request holds the calls, whether to trace, and where to write spans.
Each call is timed from its formula text to its verdict.  Every answer is
checked only after the timed loop, so checking neither counts in the
times nor warms the solver's caches for a later call.  Call times are
also given scaled to the calibration's nominal host speed (see common.py).
A fresh process per pass keeps one pass's terms out of the next pass's
caches.  The result
(call times, failures, peak memory and, when tracing, per-layer figures)
is printed as one JSON object.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from itertools import islice

from common import ScaledClock, import_solver
from tracer import Tracer


def _untraced(name, fn, *args):
    return fn(*args)


def run_call(nnmdl, call: dict, span, solve_options):
    phi = span("parse", nnmdl.parse_formula, call["text"])
    frame_class = nnmdl.FrameClass(call["cls"])
    engine = call["engine"]
    if engine == "solve":
        return nnmdl.tableau.solve(phi, frame_class, solve_options)
    if engine == "fragment":
        return span("solve_fragment", nnmdl.fragment.solve_fragment, phi, frame_class)
    bounds = nnmdl.OracleBounds(domain_mode=call["domain"])
    return span("brute_force_sat", nnmdl.oracle.brute_force_sat, phi, frame_class, bounds)


def check(nnmdl, call: dict, result) -> str | None:
    """Why the answer is wrong, or None.  Models are checked with the
    solver's semantics, called here and not by the engine under test."""
    frame_class = nnmdl.FrameClass(call["cls"])
    phi = nnmdl.parse_formula(call["text"])
    expect = call["expect"]
    if call["engine"] == "oracle":
        if result.verdict != expect["verdict"]:
            return f"oracle verdict {result.verdict}, reference {expect['verdict']}"
        if result.models_checked != expect["models_checked"]:
            return f"oracle checked {result.models_checked} models, reference {expect['models_checked']}"
        if result.verdict != "sat":
            if result.models_checked != expect["full"]:
                return f"unsat after {result.models_checked} of {expect['full']} models"
            return None
        model, world = result.model, result.world
    else:
        if result.verdict not in ("sat", "unsat"):
            return f"verdict {result.verdict!r}"
        if expect in ("sat", "unsat") and result.verdict != expect:
            return f"verdict {result.verdict}, expected {expect}"
        if call["engine"] == "fragment" or result.verdict == "unsat":
            return None
        model = result.model
        world = model.worlds[0]
    try:
        if not nnmdl.check_frame_class(model, frame_class):
            return "model frame outside the class"
        if not nnmdl.satisfies(model, world, phi):
            return "model does not satisfy the formula"
    except Exception as exc:  # a check that cannot run is a failed check
        return f"model check raised {exc!r}"
    return None


def layer_metrics(nnmdl, calls, results, tracer: Tracer) -> dict:
    """Per-layer figures of one traced pass."""
    self_s, total_s, n_calls, counts = tracer.self_s, tracer.total_s, tracer.calls, tracer.counts
    sat_steps = path_steps = 0
    initial = rounds = survivors = 0
    models_checked = full_sweeps = 0
    enumerate_s = 0.0
    for call, (result, _) in zip(calls, results):
        if result is None:
            continue
        if call["engine"] == "solve" and result.verdict == "sat":
            sat_steps += result.stats.steps
            path_steps += len(result.trace)
        elif call["engine"] == "fragment":
            initial += result.initial_valuations
            rounds += result.rounds
            survivors += len(result.support.members)
        elif call["engine"] == "oracle":
            models_checked += result.models_checked
            full_sweeps += result.verdict != "sat"
            phi = nnmdl.parse_formula(call["text"])
            models = nnmdl.enumerate_models(
                nnmdl.oracle.formula_signature(phi),
                nnmdl.OracleBounds(domain_mode=call["domain"]),
                nnmdl.FrameClass(call["cls"]),
            )
            start = time.perf_counter()
            for _ in islice(models, result.models_checked):
                pass
            enumerate_s += time.perf_counter() - start
    steps = counts["steps"]
    oracle_s = total_s["brute_force_sat"]
    return {
        "syntax.parse_s": self_s["parse"],
        "syntax.normalize_s": self_s["normalize"],
        "syntax.closure_s": self_s["closure"],
        "syntax.closure_terms": counts["closure_terms"],
        "tableau.find_applicable_s": self_s["find_applicable"],
        "tableau.is_clash_s": self_s["is_clash"],
        "tableau.apply_s": self_s["apply"],
        "tableau.find_applicable_calls": n_calls["find_applicable"],
        "tableau.search_s": self_s["solve"],
        "tableau.us_per_step": self_s["solve"] / steps * 1e6 if steps else 0.0,
        "tableau.steps": steps,
        "tableau.labels_created": counts["labels_created"],
        "tableau.variables_created": counts["variables_created"],
        "tableau.path_step_share": path_steps / sat_steps if sat_steps else 0.0,
        "extraction.extract_s": self_s["extract_model"],
        "extraction.extract_calls": n_calls["extract_model"],
        "extraction.neighbourhood_sets": counts["neighbourhood_sets"],
        "extraction.model_worlds": counts["model_worlds"],
        "semantics.check_frame_class_s": self_s["check_frame_class"],
        "semantics.satisfies_s": self_s["satisfies"],
        "fragment.self_s": self_s["solve_fragment"],
        "fragment.alc_calls": counts["alc_calls"],
        "fragment.alc_s": total_s["alc"],
        "fragment.initial_valuations": initial,
        "fragment.rounds": rounds,
        "fragment.survivor_share": survivors / initial if initial else 0.0,
        "oracle.models_checked": models_checked,
        "oracle.full_sweeps": full_sweeps,
        "oracle.models_per_s": models_checked / oracle_s if oracle_s else 0.0,
        "oracle.enumerate_s": enumerate_s,
        "oracle.evaluate_s": self_s["brute_force_sat"] - enumerate_s,
    }


def main() -> int:
    request = json.load(sys.stdin)
    calls = request["calls"]
    nnmdl = import_solver()
    tracer = None
    span = _untraced
    solve_options = None
    if request["trace"]:
        tracer = Tracer()
        tracer.install(nnmdl)
        span = tracer.span
        solve_options = nnmdl.SolveOptions(trace=True)
        tracer.enabled = True
    clock = ScaledClock()
    results = []
    for call in calls:
        try:
            results.append((clock.call(run_call, nnmdl, call, span, solve_options), None))
        except Exception as exc:  # a call that raises is a failed call
            results.append((None, f"raised {exc!r}"))
    out = {"durations": clock.durations, "scaled": clock.finish()}
    if tracer is not None:
        tracer.enabled = False
        out["layers"] = layer_metrics(nnmdl, calls, results, tracer)
        if request.get("spans_out"):
            with open(request["spans_out"], "w") as f:
                json.dump(tracer.spans, f)
    failures = []
    for index, (call, (result, error)) in enumerate(zip(calls, results)):
        reason = error or check(nnmdl, call, result)
        if reason:
            failures.append({"call": index, "engine": call["engine"], "cls": call["cls"], "reason": reason})
    out["failures"] = failures
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
