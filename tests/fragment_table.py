"""The valuation table: a reference decision procedure for the fragment.

It builds every coherent valuation of the abstraction's subformula
closure whose letters are jointly ALC-consistent, then discards
valuations whose box patterns lack a witness among the survivors until
nothing changes (see the `nnmdl.fragment` module docstring for the
witness requirements of each frame class).  The formula is satisfiable
exactly when a survivor assigns 1 to the whole abstraction.

The table enumerates 2^(letters + boxes) valuations, so it refuses
abstractions with ATOM_CAP free atoms or more.  The tests hold it as an
independent reference for `solve_fragment`, which never enumerates
letters.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from nnmdl.fragment import (
    Abstraction,
    FragmentCapError,
    FragmentResult,
    SupportSet,
    _alc_sat,
    _conjunction,
)
from nnmdl.semantics import FrameClass
from nnmdl.syntax import (
    AndF,
    BoxF,
    DiaF,
    Formula,
    NotF,
    OrF,
    closure,
    neg_nnf,
    postorder,
    sort_key,
)
from nnmdl.tableau import _nonempty_subsets

#: At this many free atoms (letters and boxes of the abstraction) the 2^n
#: assignment enumeration is refused instead of attempted.
ATOM_CAP = 20


@dataclass(frozen=True)
class Valuation:
    """Coherent 0/1 assignment on a subformula closure, stored as the set
    of members assigned 1."""

    true_members: frozenset[Formula]

    def value(self, psi: Formula) -> int:
        return 1 if psi in self.true_members else 0


def alc_consistent(assignment: dict[str, int], abstraction: Abstraction) -> bool:
    """Joint ALC satisfiability of the inclusions asserted by a letter
    assignment and the negations of those refuted."""
    parts: list[Formula] = []
    for letter in abstraction.letters:
        ci = abstraction.ci_of(letter)
        parts.append(ci if assignment[letter] else NotF(ci))
    return _alc_sat(_conjunction(parts))


def _valuations(
    abstraction: Abstraction, sub: frozenset[Formula]
) -> list[Valuation]:
    """All coherent, per-world ALC-consistent assignments on the closure:
    one ALC query per letter bitmap, the box bitmaps inside it."""
    boxes = sorted((psi for psi in sub if isinstance(psi, BoxF)), key=sort_key)
    letters = abstraction.letters
    if len(letters) + len(boxes) >= ATOM_CAP:
        raise FragmentCapError(
            f"{len(letters) + len(boxes)} free atoms exceed the enumeration "
            f"cap of {ATOM_CAP}"
        )
    atoms = [abstraction.ci_of(letter) for letter in letters] + boxes
    compound = [
        psi
        for psi in postorder(abstraction.prop_formula)
        if isinstance(psi, (NotF, AndF, OrF, DiaF))
    ]
    negation = {psi: neg_nnf(psi) for psi in atoms + compound}
    out = []
    for letter_bits in product((0, 1), repeat=len(letters)):
        if not alc_consistent(dict(zip(letters, letter_bits)), abstraction):
            continue
        for box_bits in product((0, 1), repeat=len(boxes)):
            value = dict(zip(atoms, letter_bits + box_bits))
            for psi in compound:
                cls = type(psi)
                if cls is NotF:
                    value[psi] = 1 - value[psi.arg]
                elif cls is AndF:
                    value[psi] = value[psi.left] & value[psi.right]
                elif cls is OrF:
                    value[psi] = value[psi.left] | value[psi.right]
                else:
                    value[psi] = 1 - value[negation[psi]]
            true_members = frozenset(
                psi if bit else negation[psi] for psi, bit in value.items()
            )
            out.append(Valuation(true_members))
    return out


def _boxes_by_index(sub: frozenset[Formula]) -> dict[int, list[BoxF]]:
    grouped: dict[int, list[BoxF]] = {}
    for psi in sub:
        if isinstance(psi, BoxF):
            grouped.setdefault(psi.index, []).append(psi)
    for index in grouped:
        grouped[index].sort(key=sort_key)
    return grouped


def _requirements(
    valuation: Valuation,
    boxes: dict[int, list[BoxF]],
    frame_class: FrameClass,
):
    """Witness patterns this valuation's box values demand, as pairs
    (bodies, refuted): a survivor must give the conjunction of `bodies`
    (true when empty) a different value from `refuted`."""
    for index, group in sorted(boxes.items()):
        ones = [b for b in group if valuation.value(b) == 1]
        zeros = [b for b in group if valuation.value(b) == 0]
        if frame_class is FrameClass.N:
            for b in zeros:
                yield ((), b.arg)
            for b1 in ones:
                for b2 in zeros:
                    yield ((b1.arg,), b2.arg)
        else:  # intersection-closed
            for chosen in _nonempty_subsets(ones):
                for b2 in zeros:
                    yield (tuple(b.arg for b in chosen), b2.arg)


def _has_witness(
    requirement,
    survivors: list[Valuation],
    cache: dict,
) -> bool:
    hit = cache.get(requirement)
    if hit is not None:
        return hit
    bodies, refuted = requirement
    answer = any(
        all(v.value(body) for body in bodies) != v.value(refuted)
        for v in survivors
    )
    cache[requirement] = answer
    return answer


def _by_table(abstraction: Abstraction, frame_class: FrameClass) -> FragmentResult:
    """Valuation elimination to its greatest fixpoint; SAT exactly when a
    surviving valuation assigns 1 to the abstraction."""
    sub = closure(abstraction.prop_formula).for_neg
    survivors = _valuations(abstraction, sub)
    initial = len(survivors)
    boxes = _boxes_by_index(sub)
    rounds = 0
    while True:
        rounds += 1
        cache: dict = {}
        kept = [
            v
            for v in survivors
            if all(
                _has_witness(req, survivors, cache)
                for req in _requirements(v, boxes, frame_class)
            )
        ]
        if len(kept) == len(survivors):
            break
        survivors = kept
    verdict = (
        "sat"
        if any(v.value(abstraction.prop_formula) == 1 for v in survivors)
        else "unsat"
    )
    return FragmentResult(
        verdict,
        SupportSet(frozenset(survivors)),
        abstraction,
        rounds,
        initial,
        2 ** len(abstraction.letters),
    )
