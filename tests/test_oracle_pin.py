"""Pins the brute-force oracle's observable behaviour to a fixed digest.

Verdicts, model counts, witness worlds and witness models over a seeded
corpus (every frame class, varying domains) and a seeded fragment corpus
(classes C and N, constant domains) are hashed together; any change to
the enumeration order, the frame-class filter or the evaluation changes
the digest.  The constant was computed with the evaluator that builds
every candidate model, so the test holds any faster evaluation to exactly
the same answers and first witnesses.
"""

import hashlib
import json
import random

from nnmdl.oracle import OracleBounds, brute_force_sat
from nnmdl.semantics import FrameClass

from corpus import random_g_formula, random_normalized_formula

EXPECTED_DIGEST = "dedf72005fccbfaba443ce01c289228c57acf834e31b1b0af135b05a9c189c88"

CORPUS_SIZE = 74
FRAGMENT_SIZE = 150


def pinned_calls():
    rng = random.Random(4711)
    for _ in range(CORPUS_SIZE):
        phi = random_normalized_formula(rng)
        for fc in FrameClass:
            yield phi, fc, OracleBounds()
    constant = OracleBounds(domain_mode="constant")
    rng = random.Random(4712)
    for _ in range(FRAGMENT_SIZE):
        phi = random_g_formula(rng)
        for fc in (FrameClass.C, FrameClass.N):
            yield phi, fc, constant


def oracle_digest() -> str:
    digest = hashlib.sha256()
    for phi, fc, bounds in pinned_calls():
        result = brute_force_sat(phi, fc, bounds)
        record = [
            result.verdict,
            result.models_checked,
            result.world,
            result.model.to_json() if result.model is not None else None,
        ]
        digest.update(json.dumps(record).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def test_oracle_digest_is_pinned():
    assert oracle_digest() == EXPECTED_DIGEST
