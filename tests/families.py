"""The named scaling families every test module builds its inputs from.

Wide labels, many variables per label: `mixed(k, m)` puts concept-level
boxes and a diamond next to k existential inclusions, so R_L ranges over
the many variables the existentials open; `tbox_chain(n)` is a chain of
inclusions with a concept name on the left, each opening one successor.
Both are sat in every frame class.  Each is a balanced conjunction of its
inclusions, split at the middle (`len // 2`), in the order the
docstrings list them.

One rule each, conjoined to the left (`conj`): `or_chain(n)` makes every
disjunction backtrack, `c_boxes(n)` makes R_L choose among n boxes under
C, `box_dia(n)` has n formula-level boxes and one diamond (its models
have n + 1 worlds), and `some_fan(n)` opens one successor per
existential, most of them blocked.  `nested(n)` is the
fragment procedure's depth-2 family, n + 1 inner boxes.
"""

from __future__ import annotations

from nnmdl.syntax import (
    TOP,
    And,
    AndF,
    AtomicConcept,
    Box,
    BoxF,
    CI,
    Dia,
    DiaF,
    Exists,
    Formula,
    Not,
    NotF,
    Or,
    Top,
)


def balanced_conjunction(parts: list[Formula]) -> Formula:
    """The conjunction of `parts`: the first `len(parts) // 2` conjoined on
    the left, the rest on the right."""
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return AndF(
        balanced_conjunction(parts[:mid]), balanced_conjunction(parts[mid:])
    )


def mixed(k: int, m: int) -> Formula:
    """(sub top (some r Bi)) for i < k, then (sub top (box 1 Pj)) for
    j < m, then (sub top (dia 1 Q)).  The first box's concept is P, the
    later ones' P1, P2, ..., so `mixed(9, 1)` is ROADMAP item 15's
    eleven-inclusion input."""
    parts = [CI(TOP, Exists("r", AtomicConcept(f"B{i}"))) for i in range(k)]
    parts += [CI(TOP, Box(1, AtomicConcept(f"P{j or ''}"))) for j in range(m)]
    parts.append(CI(TOP, Dia(1, AtomicConcept("Q"))))
    return balanced_conjunction(parts)


def tbox_chain(n: int) -> Formula:
    """(sub top A0), then (sub Ai (some r A(i+1))) for i < n."""
    names = [AtomicConcept(f"A{i}") for i in range(n + 1)]
    parts = [CI(TOP, names[0])]
    parts += [CI(names[i], Exists("r", names[i + 1])) for i in range(n)]
    return balanced_conjunction(parts)


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


def some_fan(n: int):
    """Every element has an r-successor in each of A0..A(n-1): sat in
    every class, with many variables per label, most of them blocked."""
    atoms = [AtomicConcept(x) for x in names(n)]
    body = Exists("r", atoms[0])
    for x in atoms[1:]:
        body = And(body, Exists("r", x))
    return CI(TOP, body)


def nested(n: int) -> Formula:
    """(box 1 (box 1 (sub top Ai))) for i < n and (dia 1 (dia 1 (sub top
    An))), conjoined: sat, with n + 1 inner boxes."""
    phi = DiaF(1, DiaF(1, CI(Top(), AtomicConcept(f"A{n}"))))
    for i in reversed(range(n)):
        phi = AndF(BoxF(1, BoxF(1, CI(Top(), AtomicConcept(f"A{i}")))), phi)
    return phi
