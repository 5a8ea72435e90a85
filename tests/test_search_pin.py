"""Pins the tableau search's observable behaviour to a fixed digest.

Verdicts, step counts, rule counts and full traces over a seeded corpus
and three scaling families are hashed together; any change to rule order,
branch order or bookkeeping changes the digest.  The constant was first
computed with the non-incremental engine (full rescans on every step),
and recomputed once when the search started to backjump: skipped
alternatives change step counts and traces, while the verdicts and the
traces of the final branch stayed those of the chronological search.
"""

import hashlib
import json
import random

from nnmdl.semantics import FrameClass
from nnmdl.syntax import (
    And,
    AndF,
    AtomicConcept,
    Box,
    BoxF,
    CI,
    DiaF,
    Not,
    NotF,
    Or,
    TOP,
)
from nnmdl.tableau import SolveOptions, solve

from corpus import random_normalized_formula

EXPECTED_DIGEST = "bd18a18f78dbf6675b28f8df9e194c2d232530b7e4e3e984920f7d158a4302de"


def names(count: int) -> list[str]:
    """Distinct concept names of one width, in increasing order."""
    return [f"A{i:03d}" for i in range(count)]


def conj(formulas):
    out = formulas[0]
    for f in formulas[1:]:
        out = AndF(out, f)
    return out


def or_chain(n: int):
    """top <= Ai or Bi and top <= not Ai for i < n: sat, every disjunction
    first tries the refuted Ai and backtracks."""
    atoms = [AtomicConcept(x) for x in names(2 * n)]
    a, b = atoms[:n], atoms[n:]
    parts = [CI(TOP, Or(x, y)) for x, y in zip(a, b)]
    parts += [CI(TOP, Not(x)) for x in a]
    return conj(parts)


def c_boxes(n: int):
    """Boxes of A0..A(n-1) on every element plus a refuted box of A0 and
    A1: unsat over intersection-closed frames."""
    atoms = [AtomicConcept(x) for x in names(n)]
    parts = [CI(TOP, Box(1, x)) for x in atoms]
    parts.append(NotF(CI(TOP, Box(1, And(atoms[0], atoms[1])))))
    return conj(parts)


def box_dia(n: int):
    """n formula-level boxes plus one diamond: sat in every class."""
    atoms = [AtomicConcept(x) for x in names(n + 1)]
    parts = [BoxF(1, CI(TOP, x)) for x in atoms[:n]]
    parts.append(DiaF(1, CI(TOP, atoms[n])))
    return conj(parts)


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
