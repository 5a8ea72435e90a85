"""The four workloads: seeded call lists with known or oracle-given verdicts.

A call is a dict: engine ("solve", "fragment" or "oracle"), frame class,
domain mode, formula text and what the answer must be.  For "solve" and
"fragment", "expect" is "sat" or "unsat" when the verdict is known (by
construction, or because the oracle found a model) and "any" when the
oracle found none within its bounds; a sat answer from "solve" is always
checked semantically.  For "oracle", the call carries the reference
verdict and model count and the size of the full bounded space.

The random inputs come from two fixed pools of acceptance-shaped formulas,
whose oracle answers are stored in reference.json (see reference.py): the
oracle needs minutes for a few hundred formulas, far more than one run
has.  Each seed draws its own sample and order from the pools.  The corpus
sample leaves out only a twelfth of each pool: the solve times have a
heavy tail, and a sample of two thirds left pass_s 7.5% apart (quartile
distance over ten seeds).
"""

from __future__ import annotations

import json
import os
import random

import gen
from common import BENCH_DIR

SIZES = {
    "full": {
        "corpus_formulas": 1100,
        "corpus_g_formulas": 360,
        "or_chain": (50, 100),
        "c_boxes": (3,),
        "box_dia": 12,
        "oracle_seconds": 2.0,
    },
    # Smoke test: every code path, in seconds.
    "tiny": {
        "corpus_formulas": 6,
        "corpus_g_formulas": 3,
        "or_chain": (4,),
        "c_boxes": (2,),
        "box_dia": 3,
        "oracle_seconds": 0.05,
    },
}

POOL_FORMULAS = 1200
POOL_G_FORMULAS = 400
VARYING_CLASSES = ("E", "M", "C", "N")
FRAGMENT_CLASSES = ("C", "N")
MODEL_CLASSES = ("E", "M", "N")
REFERENCE_FILE = os.path.join(BENCH_DIR, "reference.json")


class ReferenceMismatch(RuntimeError):
    """reference.json does not describe the pools gen.py draws."""


def pools() -> tuple[list[str], list[str]]:
    """The pool texts: acceptance-shaped formulas and fragment formulas."""
    rng = random.Random("pool")
    formulas = [gen.serialize(gen.random_formula(rng)) for _ in range(POOL_FORMULAS)]
    g_formulas = [gen.serialize(gen.random_g_formula(rng)) for _ in range(POOL_G_FORMULAS)]
    return formulas, g_formulas


def load_reference() -> tuple[list, list]:
    """Pool entries [text, {class: [verdict, models checked, seconds]}],
    checked against the pools drawn now."""
    with open(REFERENCE_FILE) as f:
        reference = json.load(f)
    formulas, g_formulas = pools()
    if [t for t, _ in reference["formulas"]] != formulas or [
        t for t, _ in reference["g_formulas"]
    ] != g_formulas:
        raise ReferenceMismatch("reference.json is stale; run perfbench/reference.py")
    return reference["formulas"], reference["g_formulas"]


def build(workload: str, seed: int, size: str) -> list[dict]:
    sizes = SIZES[size]
    if workload == "corpus":
        return _corpus(random.Random(f"corpus:{seed}"), sizes)
    if workload == "search":
        return _search(random.Random(f"search:{seed}"), sizes)
    if workload == "models":
        return _models(random.Random(f"models:{seed}"), sizes)
    if workload == "oracle":
        return _oracle(random.Random(f"oracle:{seed}"), sizes)
    raise ValueError(f"unknown workload {workload!r}")


def _call(engine, cls, domain, text, expect):
    return {"engine": engine, "cls": cls, "domain": domain, "text": text, "expect": expect}


def _corpus(rng, sizes) -> list[dict]:
    formulas, g_formulas = load_reference()
    calls = []
    for text, answers in rng.sample(formulas, sizes["corpus_formulas"]):
        for cls in VARYING_CLASSES:
            expect = "sat" if answers[cls][0] == "sat" else "any"
            calls.append(_call("solve", cls, "varying", text, expect))
    for text, answers in rng.sample(g_formulas, sizes["corpus_g_formulas"]):
        for cls in FRAGMENT_CLASSES:
            expect = "sat" if answers[cls][0] == "sat" else "any"
            calls.append(_call("fragment", cls, "constant", text, expect))
    return calls


def _names(rng, count: int) -> list[str]:
    """Distinct fresh concept names, in increasing order and of one width.
    The tableau orders rule instances by the text of their terms, so names
    in another order can change the search: box_dia(12) under N then
    builds 14 worlds instead of 13."""
    return [f"C{n:04d}" for n in sorted(rng.sample(range(10_000), count))]


def _search(rng, sizes) -> list[dict]:
    calls = []
    for n in sizes["or_chain"]:
        phi = gen.or_chain(n, _names(rng, 2 * n))
        calls.append(_call("solve", "E", "varying", gen.serialize(phi), "sat"))
    for n in sizes["c_boxes"]:
        phi = gen.c_boxes(n, _names(rng, n))
        calls.append(_call("solve", "C", "varying", gen.serialize(phi), "unsat"))
    rng.shuffle(calls)
    return calls


def _models(rng, sizes) -> list[dict]:
    n = sizes["box_dia"]
    calls = [
        _call("solve", cls, "varying", gen.serialize(gen.box_dia(n, _names(rng, n + 1))), "sat")
        for cls in MODEL_CLASSES
    ]
    rng.shuffle(calls)
    return calls


def _oracle(rng, sizes) -> list[dict]:
    """Pool formulas under one class each, drawn until the oracle time
    stored for them in reference.json reaches a fixed total.  A draw is
    kept only when its time fits in what is left and is at most a
    twentieth of the total, so no single sweep dominates a pass."""
    formulas, g_formulas = load_reference()
    budget = sizes["oracle_seconds"]
    room = budget
    calls = []
    while room > budget / 100:
        if rng.random() < 0.25:
            text, answers = rng.choice(g_formulas)
            cls, domain = rng.choice(FRAGMENT_CLASSES), "constant"
        else:
            text, answers = rng.choice(formulas)
            cls, domain = rng.choice(VARYING_CLASSES), "varying"
        verdict, checked, seconds = answers[cls]
        if seconds > min(room, budget / 20):
            continue
        full = gen.text_space_size(text, domain == "constant", cls)
        expect = {"verdict": verdict, "models_checked": checked, "full": full}
        calls.append(_call("oracle", cls, domain, text, expect))
        room -= seconds
    return calls
