"""Pins the extracted countermodels to a fixed digest.

For every sat answer over a seeded corpus and one scaling family, the
model's JSON export and the size of each neighbourhood collection are
hashed together; any change to the worlds, interpretations or
collections that extraction builds changes the digest.  The constant was
computed with collections stored as explicit sets of world sets, so the
test holds any other representation to exactly the same models.
"""

import hashlib
import json
import random

from nnmdl.semantics import FrameClass
from nnmdl.tableau import solve

from corpus import random_normalized_formula
from test_search_pin import box_dia

EXPECTED_DIGEST = "b6f62ee922e74780ac05fcc96c0bde0362c64e8f092945644e08911fe39dc8f6"


def pinned_inputs():
    rng = random.Random(2025)
    for _ in range(200):
        phi = random_normalized_formula(rng)
        for fc in FrameClass:
            yield phi, fc
    for fc in FrameClass:
        yield box_dia(6), fc


def collection_sizes(model) -> list:
    return [
        [index, world, len(collection)]
        for index, per_world in sorted(model.neighbourhoods.items())
        for world, collection in sorted(per_world.items())
    ]


def model_digest() -> str:
    digest = hashlib.sha256()
    for phi, fc in pinned_inputs():
        result = solve(phi, fc)
        if result.verdict != "sat":
            continue
        digest.update(result.model.to_json().encode())
        digest.update(json.dumps(collection_sizes(result.model)).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def test_model_digest_is_pinned():
    assert model_digest() == EXPECTED_DIGEST
