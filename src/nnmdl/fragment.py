"""Constant-domain satisfiability for formulas without modalised concepts.

The decision procedure abstracts each concept inclusion to a propositional
letter and splits the work in two: per-world consistency of a letter
assignment is an ALC question (answered by the tableau engine on the
conjunction of asserted and refuted inclusions), while the modal structure
is handled on valuations of the abstraction's subformula closure.

A valuation assigns 0/1 to every member of the closure coherently with
negation and conjunction.  Starting from all ALC-consistent valuations,
valuations are discarded when one of their box patterns lacks a witness
among the survivors:

  intersection-closed frames: a non-empty selection of 1-valued boxes
  together with a 0-valued box (of the same modality) needs a surviving
  valuation separating the selection's conjunction from the 0-valued
  box's body;

  frames containing the unit: a 0-valued box needs a surviving valuation
  refuting its body, and a 1/0-valued pair needs a surviving valuation
  separating the two bodies.

The elimination shrinks monotonically, so it reaches its greatest fixpoint
in at most |V0| rounds; the formula is satisfiable exactly when a survivor
assigns 1 to the whole abstraction.  Survivor valuations need not satisfy
the abstraction themselves: only the final check imposes that, since
witnesses describe other worlds than the distinguished one.

Only the intersection-closed and unit classes are decided here; the
remaining classes are out of scope for this procedure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .semantics import FrameClass
from .syntax import (
    AndF,
    BoxF,
    CI,
    DiaF,
    Formula,
    NotF,
    OrF,
    Term,
    has_modalised_concept,
    normalize,
)
from .tableau import _nonempty_subsets

#: At this many free atoms (letters and boxes of the abstraction) the 2^n
#: assignment enumeration is refused instead of attempted.
LETTER_CAP = 20


class FragmentError(ValueError):
    """The formula contains a modalised concept."""


class FragmentCapError(ValueError):
    """The abstraction has too many free atoms to enumerate assignments."""


# ---------------------------------------------------------------------------
# Propositional shapes
# ---------------------------------------------------------------------------

class PFormula(Term):
    __slots__ = ()


class PVar(PFormula):
    __slots__ = _fields = ("name",)


class PNot(PFormula):
    __slots__ = _fields = ("arg",)


class PAnd(PFormula):
    __slots__ = _fields = ("left", "right")


class PBox(PFormula):
    __slots__ = _fields = ("index", "arg")


def pnot(psi: PFormula) -> PFormula:
    """Negation with double negations collapsed."""
    return psi.arg if isinstance(psi, PNot) else PNot(psi)


def serialize_prop(psi: PFormula) -> str:
    if isinstance(psi, PVar):
        return psi.name
    if isinstance(psi, PNot):
        return f"(not {serialize_prop(psi.arg)})"
    if isinstance(psi, PAnd):
        return f"(and {serialize_prop(psi.left)} {serialize_prop(psi.right)})"
    if isinstance(psi, PBox):
        return f"(box {psi.index} {serialize_prop(psi.arg)})"
    raise TypeError(f"not a propositional formula: {psi!r}")


def check_g_fragment(phi: Formula) -> bool:
    """True when no box or diamond occurs inside a concept."""
    return not has_modalised_concept(phi)


@dataclass(frozen=True)
class Abstraction:
    """Propositional skeleton of a formula, one letter per distinct
    inclusion (syntactic equality after normalization)."""

    prop_formula: PFormula
    letters: tuple[str, ...]
    letter_to_ci: dict[str, CI]

    def ci_of(self, letter: str) -> CI:
        return self.letter_to_ci[letter]


def prop_abstraction(phi: Formula) -> Abstraction:
    """Replace each inclusion by a letter; diamonds and disjunctions are
    expressed through negation and conjunction."""
    phi = normalize(phi)
    if not check_g_fragment(phi):
        raise FragmentError("modalised concepts are outside this fragment")
    letter_of: dict[CI, str] = {}
    letters: list[str] = []
    ci_of: dict[str, CI] = {}

    def convert(psi: Formula) -> PFormula:
        if isinstance(psi, CI):
            letter = letter_of.get(psi)
            if letter is None:
                letter = f"p{len(letters) + 1}"
                letter_of[psi] = letter
                ci_of[letter] = psi
                letters.append(letter)
            return PVar(letter)
        if isinstance(psi, NotF):
            return pnot(convert(psi.arg))
        if isinstance(psi, AndF):
            return PAnd(convert(psi.left), convert(psi.right))
        if isinstance(psi, OrF):
            return pnot(PAnd(pnot(convert(psi.left)), pnot(convert(psi.right))))
        if isinstance(psi, BoxF):
            return PBox(psi.index, convert(psi.arg))
        assert isinstance(psi, DiaF)
        return pnot(PBox(psi.index, pnot(convert(psi.arg))))

    prop = convert(phi)
    return Abstraction(prop, tuple(letters), ci_of)


def sub_closure(prop: PFormula) -> frozenset[PFormula]:
    """Subformulas closed under single negation."""
    base: set[PFormula] = set()

    def walk(psi: PFormula):
        base.add(psi)
        if isinstance(psi, PNot):
            walk(psi.arg)
        elif isinstance(psi, PAnd):
            walk(psi.left)
            walk(psi.right)
        elif isinstance(psi, PBox):
            walk(psi.arg)

    walk(prop)
    return frozenset(base | {pnot(psi) for psi in base})


# ---------------------------------------------------------------------------
# Valuations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Valuation:
    """Coherent 0/1 assignment on a subformula closure, stored as the set
    of members assigned 1."""

    true_members: frozenset[PFormula]

    def value(self, psi: PFormula) -> int:
        return 1 if psi in self.true_members else 0


@dataclass(frozen=True)
class SupportSet:
    """Valuations surviving the witness elimination."""

    members: frozenset[Valuation]


def _conjunction(formulas: list[Formula]) -> Formula:
    out = formulas[0]
    for f in formulas[1:]:
        out = AndF(out, f)
    return out


def alc_consistent(
    assignment: dict[str, int],
    abstraction: Abstraction,
    _memo: dict | None = None,
) -> bool:
    """Joint ALC satisfiability of the inclusions asserted by a letter
    assignment and the negations of those refuted.

    Decided by the tableau engine; the conjunction is modality-free, so
    only the in-label rules ever fire.  Results are memoized by the
    letter bitmap when a memo dict is supplied.
    """
    from .tableau import SolveOptions, solve

    bitmap = tuple(assignment[letter] for letter in abstraction.letters)
    if _memo is not None and bitmap in _memo:
        return _memo[bitmap]
    parts: list[Formula] = []
    for letter, bit in zip(abstraction.letters, bitmap):
        ci = abstraction.ci_of(letter)
        parts.append(ci if bit else NotF(ci))
    result = solve(
        _conjunction(parts),
        FrameClass.E,
        SolveOptions(extract=False, validate=False),
    )
    verdict = result.verdict == "sat"
    if _memo is not None:
        _memo[bitmap] = verdict
    return verdict


def _valuations(
    abstraction: Abstraction, sub: frozenset[PFormula], memo: dict
) -> list[Valuation]:
    """All coherent, per-world ALC-consistent assignments on the closure."""
    atoms = sorted(
        (psi for psi in sub if isinstance(psi, (PVar, PBox))),
        key=serialize_prop,
    )
    if len(atoms) >= LETTER_CAP:
        raise FragmentCapError(
            f"{len(atoms)} free atoms exceed the enumeration cap of {LETTER_CAP}"
        )

    def truth(psi: PFormula, chosen: dict[PFormula, int]) -> int:
        if psi in chosen:
            return chosen[psi]
        if isinstance(psi, PNot):
            return 1 - truth(psi.arg, chosen)
        if isinstance(psi, PAnd):
            return min(truth(psi.left, chosen), truth(psi.right, chosen))
        raise ValueError(f"unexpected member {serialize_prop(psi)}")

    out = []
    for bits in product((0, 1), repeat=len(atoms)):
        chosen = dict(zip(atoms, bits))
        letter_bits = {
            psi.name: bit
            for psi, bit in chosen.items()
            if isinstance(psi, PVar)
        }
        if not alc_consistent(letter_bits, abstraction, memo):
            continue
        true_members = frozenset(
            psi for psi in sub if truth(psi, chosen) == 1
        )
        out.append(Valuation(true_members))
    return out


# ---------------------------------------------------------------------------
# Witness elimination
# ---------------------------------------------------------------------------

def _boxes_by_index(sub: frozenset[PFormula]) -> dict[int, list[PBox]]:
    grouped: dict[int, list[PBox]] = {}
    for psi in sub:
        if isinstance(psi, PBox):
            grouped.setdefault(psi.index, []).append(psi)
    for index in grouped:
        grouped[index].sort(key=serialize_prop)
    return grouped


def _requirements(
    valuation: Valuation,
    boxes: dict[int, list[PBox]],
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


@dataclass
class FragmentResult:
    verdict: str  # "sat" | "unsat"
    support: SupportSet
    abstraction: Abstraction
    rounds: int
    initial_valuations: int


def solve_fragment(phi: Formula, frame_class: FrameClass) -> FragmentResult:
    """Constant-domain satisfiability through the abstraction.

    Valuation elimination runs to its greatest fixpoint; the verdict is
    SAT exactly when a surviving valuation assigns 1 to the abstraction
    (the top-level requirement is imposed only at this final step).
    """
    if frame_class not in (FrameClass.C, FrameClass.N):
        raise ValueError(
            f"fragment procedure decides classes C and N, not {frame_class.value}"
        )
    abstraction = prop_abstraction(phi)
    sub = sub_closure(abstraction.prop_formula)
    memo: dict = {}
    survivors = _valuations(abstraction, sub, memo)
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
    )
