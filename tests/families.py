"""Scaling families whose labels grow wide: many variables per label.

`mixed(k, m)` puts concept-level boxes and a diamond next to k
existential inclusions, so R_L ranges over the many variables the
existentials open; `tbox_chain(n)` is a chain of inclusions with a
concept name on the left, each opening one successor.  Both are sat in
every frame class.  Each is a balanced conjunction of its inclusions,
split at the middle (`len // 2`), in the order the docstrings list them.
"""

from __future__ import annotations

from nnmdl.syntax import TOP, AndF, AtomicConcept, Box, CI, Dia, Exists, Formula


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
