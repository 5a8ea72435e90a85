"""Pins the tableau search's observable behaviour to a fixed digest.

Verdicts, step counts, rule counts and full traces over a seeded corpus
and three scaling families are hashed together; any change to rule order,
branch order or bookkeeping changes the digest.  The constant was first
computed with the non-incremental engine (full rescans on every step),
recomputed when the search started to backjump: skipped
alternatives change step counts and traces, while the verdicts and the
traces of the final branch stayed those of the chronological search.  It
was recomputed again when disjunctions with a refuted alternative
stopped opening branch points: the refuted alternative's step and
backtrack are gone, which changes step counts and step numbers only.

A second digest hashes only what a change to the search's bookkeeping
must keep: each verdict and the final branch's trace entries without
their step numbers.  It was computed before the search learnt to decide
disjunctions by propagation, and holds every later search to the same
verdicts and final branches.
"""

import hashlib
import json
import random

from nnmdl.semantics import FrameClass
from nnmdl.tableau import SolveOptions, solve

from corpus import random_normalized_formula
from families import box_dia, c_boxes, or_chain

EXPECTED_DIGEST = "f1400b7b655b9c7be7ecfc663cd274c265b591ea3b6a55729a25af7818e9b97e"
EXPECTED_OUTCOME_DIGEST = "e2406ec88a4afa82b828b50381f6e59381e965c4a092ef1312702dc5578e839b"


def pinned_inputs():
    rng = random.Random(2024)
    for _ in range(200):
        phi = random_normalized_formula(rng)
        for fc in FrameClass:
            yield phi, fc
    yield or_chain(20), FrameClass.E
    yield c_boxes(3), FrameClass.C
    for fc in (FrameClass.E, FrameClass.M, FrameClass.N):
        yield box_dia(6), fc


def search_digest() -> str:
    digest = hashlib.sha256()
    for phi, fc in pinned_inputs():
        result = solve(phi, fc, SolveOptions(trace=True, extract=False))
        record = [result.verdict, result.stats.as_dict(), result.trace]
        digest.update(json.dumps(record, sort_keys=True).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def test_search_digest_is_pinned():
    assert search_digest() == EXPECTED_DIGEST


def outcome_digest() -> str:
    digest = hashlib.sha256()
    for phi, fc in pinned_inputs():
        result = solve(phi, fc, SolveOptions(trace=True, extract=False))
        path = result.trace
        if path is not None:
            path = [
                {key: value for key, value in entry.items() if key != "step"}
                for entry in path
            ]
        digest.update(json.dumps([result.verdict, path], sort_keys=True).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def test_verdicts_and_final_branches_are_pinned():
    assert outcome_digest() == EXPECTED_OUTCOME_DIGEST
