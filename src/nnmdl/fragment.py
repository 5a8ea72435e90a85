"""Constant-domain satisfiability for formulas without modalised concepts.

The decision procedure abstracts each concept inclusion to a propositional
letter and splits the work in two: per-world consistency of a letter
assignment is an ALC question (answered by the tableau engine on a
modality-free formula over the inclusions), while the modal structure
is handled on valuations of the abstraction's subformula closure.

The abstraction is read off the normal form itself: each distinct
inclusion is a letter, named p1, p2, ... in order of first occurrence,
and each formula-level box is an atom.  A normal form has negation only
directly above inclusions, so a disjunction is the negated conjunction
of its arguments' negations, and a diamond (dia i psi) is the negated
box atom (box i psi'), where psi' is the NNF negation of psi.  The
closure is the formula's subformulas together with their NNF negations.

A valuation assigns 0/1 to every member of the closure coherently with
negation, conjunction and disjunction.  Starting from all ALC-consistent
valuations, valuations are discarded when one of their box patterns
lacks a witness among the survivors:

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

Two paths decide this.  The table path builds every valuation and runs
the elimination; it serves formulas of modal depth 2 or more and is the
tests' reference.  It refuses abstractions with LETTER_CAP free atoms
(letters and boxes) or more; the cap applies to the table only.

The query path serves modal depth at most 1, where no box body holds a
box.  A witness then depends on its letters only, and every
ALC-consistent letter assignment survives the first round once its boxes
ask nothing: all 0 under C, all 1 under N.  So the elimination stops
after one round, and a requirement is witnessed exactly when one
modality-free formula, the conjunction of its bodies xor the refuted
body, is ALC-satisfiable; a box body is such a formula already.  Under
C the 2^|ones| subset requirements of a 0-valued box z reduce to one
test, the maximal-subset argument of Lavendhomme & Lucas ("Sequent
calculi and decision procedures for weak modal systems", Studia Logica
66, 2000): some selection is equivalent to z's body exactly when
M = {1-valued s : z's body entails s's body} is non-empty and the
conjunction of M with the negation of z's body is unsatisfiable, which
takes |ones| + 1 queries.  The distinguished world's box values come
from a depth-first search that evaluates the abstraction three-valued
(letters unknown), drops a partial assignment once it is false, checks
each requirement once its boxes are fixed, and answers sat when the
abstraction with all box values fixed is ALC-satisfiable.  Each query is
one tableau call, memoized per formula within one `solve_fragment` call.

Only the intersection-closed and unit classes are decided here; the
remaining classes are out of scope for this procedure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import attrgetter

from . import tableau
from .semantics import FrameClass
from .syntax import (
    AndF,
    Box,
    BoxF,
    CI,
    Dia,
    DiaF,
    Formula,
    NotF,
    OrF,
    _subterms,
    closure,
    has_modalised_concept,
    neg_nnf,
    normalize,
    postorder,
    sort_key,
)
from .tableau import _nonempty_subsets

#: At this many free atoms (letters and boxes of the abstraction) the 2^n
#: assignment enumeration of the table path is refused instead of
#: attempted.
LETTER_CAP = 20


class FragmentError(ValueError):
    """The formula contains a modalised concept."""


class FragmentCapError(ValueError):
    """The abstraction has too many free atoms to enumerate assignments."""


# ---------------------------------------------------------------------------
# Abstraction
# ---------------------------------------------------------------------------

def check_g_fragment(phi: Formula) -> bool:
    """True when no box or diamond occurs inside a concept."""
    return not has_modalised_concept(phi)


@dataclass(frozen=True)
class Abstraction:
    """Propositional skeleton of a formula: its normal form, with one
    letter per distinct inclusion (syntactic equality after
    normalization)."""

    prop_formula: Formula
    letters: tuple[str, ...]
    letter_to_ci: dict[str, CI]

    def ci_of(self, letter: str) -> CI:
        return self.letter_to_ci[letter]


def prop_abstraction(phi: Formula) -> Abstraction:
    """Name each inclusion of the normal form by a letter, numbered in the
    order of first occurrence; the walk that finds them rejects a box or
    diamond inside a concept."""
    phi = normalize(phi)
    letters: list[str] = []
    ci_of: dict[str, CI] = {}
    for term in _subterms(phi):
        if isinstance(term, (Box, Dia)):
            raise FragmentError("modalised concepts are outside this fragment")
        if isinstance(term, CI):
            letter = f"p{len(letters) + 1}"
            ci_of[letter] = term
            letters.append(letter)
    return Abstraction(phi, tuple(letters), ci_of)


def serialize_prop(abstraction: Abstraction) -> str:
    """The abstraction as text over letters, `not`, `and` and `box`: a
    disjunction is printed as the negated conjunction of its arguments'
    negations, a diamond as the negated box of its negated body."""
    letter = {ci: name for name, ci in abstraction.letter_to_ci.items()}
    out: list[str] = []
    stack: list = [abstraction.prop_formula]
    while stack:
        top = stack.pop()
        if isinstance(top, str):
            out.append(top)
        elif isinstance(top, CI):
            out.append(letter[top])
        elif isinstance(top, NotF):
            out.append("(not ")
            stack += (")", top.arg)
        elif isinstance(top, AndF):
            out.append("(and ")
            stack += (")", top.right, " ", top.left)
        elif isinstance(top, OrF):
            out.append("(not (and ")
            stack += ("))", neg_nnf(top.right), " ", neg_nnf(top.left))
        elif isinstance(top, BoxF):
            out.append(f"(box {top.index} ")
            stack += (")", top.arg)
        else:
            out.append(f"(not (box {top.index} ")
            stack += ("))", neg_nnf(top.arg))
    return "".join(out)


def _children(psi: Formula) -> tuple:
    """Children outside box bodies: boxes and diamonds count as atoms."""
    if isinstance(psi, (AndF, OrF)):
        return (psi.left, psi.right)
    if isinstance(psi, NotF):
        return (psi.arg,)
    return ()


# ---------------------------------------------------------------------------
# Valuations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Valuation:
    """Coherent 0/1 assignment on a subformula closure, stored as the set
    of members assigned 1."""

    true_members: frozenset[Formula]

    def value(self, psi: Formula) -> int:
        return 1 if psi in self.true_members else 0


@dataclass(frozen=True)
class SupportSet:
    """Valuations surviving the witness elimination."""

    members: frozenset[Valuation]


def _alc_sat(chi: Formula) -> bool:
    """ALC satisfiability of a modality-free formula: only the tableau's
    in-label rules fire.  `tableau.solve` is looked up at each call, so a
    wrapper installed on it sees every query."""
    options = tableau.SolveOptions(extract=False)
    return tableau.solve(chi, FrameClass.E, options).verdict == "sat"


def _conjunction(formulas: list[Formula]) -> Formula:
    out = formulas[0]
    for f in formulas[1:]:
        out = AndF(out, f)
    return out


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
    if len(letters) + len(boxes) >= LETTER_CAP:
        raise FragmentCapError(
            f"{len(letters) + len(boxes)} free atoms exceed the enumeration "
            f"cap of {LETTER_CAP}"
        )
    atoms = [abstraction.ci_of(letter) for letter in letters] + boxes
    compound = [
        psi
        for psi in _subterms(abstraction.prop_formula)
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


# ---------------------------------------------------------------------------
# Witness elimination
# ---------------------------------------------------------------------------

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


@dataclass
class FragmentResult:
    verdict: str  # "sat" | "unsat"
    #: Surviving valuations; empty on the query path, which builds none.
    support: SupportSet
    abstraction: Abstraction
    rounds: int
    initial_valuations: int
    #: Tableau calls made, on either path.
    queries: int


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


def _rebuild(order: list, boxes: dict):
    """The formula whose root is `order[-1]` (a children-first list of
    skeleton nodes) with the box values of `boxes` folded in: True or
    False when those values decide it, None when it still depends on a box
    without a value, else a modality-free formula."""
    value: dict = {}
    for psi in order:
        cls = type(psi)
        if cls is BoxF:
            bit = boxes.get(psi)
            out = None if bit is None else bit == 1
        elif cls is DiaF:
            bit = boxes.get(neg_nnf(psi))
            out = None if bit is None else bit == 0
        elif cls is AndF or cls is OrF:
            # False decides a conjunction and True a disjunction; the
            # other constant drops out.
            decides = cls is OrF
            drops = not decides
            left, right = value[psi.left], value[psi.right]
            if left is decides or right is decides:
                out = decides
            elif left is drops:
                out = right
            elif right is drops:
                out = left
            elif left is None or right is None:
                out = None
            else:
                out = cls(left, right)
        else:  # an inclusion or a negated one
            out = psi
        value[psi] = out
    return value[order[-1]]


def _by_queries(
    abstraction: Abstraction,
    frame_class: FrameClass,
    skeleton: list,
    boxes: list,
) -> FragmentResult:
    """Modal depth at most 1: the box values of the distinguished world by
    depth-first search, every requirement and the final check by ALC
    queries on the box bodies (see the module docstring)."""
    memo: dict[Formula, bool] = {}

    def sat(chi: Formula) -> bool:
        verdict = memo.get(chi)
        if verdict is None:
            verdict = memo[chi] = _alc_sat(chi)
        return verdict

    boxes = sorted(boxes, key=attrgetter("index"))
    start = [0] * len(boxes)
    for i in range(1, len(boxes)):
        same = boxes[i - 1].index == boxes[i].index
        start[i] = start[i - 1] if same else i

    def witnessed(i: int, value: dict) -> bool:
        """The requirements that the value of box i completes."""
        b, bit = boxes[i], value[boxes[i]]
        group = boxes[start[i] : i + 1]
        if frame_class is FrameClass.N:
            z = b.arg
            if not bit and not sat(neg_nnf(z)):
                return False
            return all(
                value[s] == bit
                or sat(OrF(AndF(s.arg, neg_nnf(z)), AndF(neg_nnf(s.arg), z)))
                for s in group[:-1]
            )
        if i + 1 < len(boxes) and start[i + 1] == start[i]:
            return True
        ones = [s.arg for s in group if value[s]]
        for z in group:
            if value[z]:
                continue
            meets = [s for s in ones if not sat(AndF(z.arg, neg_nnf(s)))]
            if meets and not sat(AndF(_conjunction(meets), neg_nnf(z.arg))):
                return False
        return True

    asks_nothing = 1 if frame_class is FrameClass.N else 0
    verdict = "unsat"
    stack: list[dict] = [{}]
    while stack:
        value = stack.pop()
        folded = _rebuild(skeleton, value)
        if folded is False or (value and not witnessed(len(value) - 1, value)):
            continue
        if len(value) == len(boxes):
            if folded is True or sat(folded):
                verdict = "sat"
                break
            continue
        b = boxes[len(value)]
        stack.append({**value, b: 1 - asks_nothing})
        stack.append({**value, b: asks_nothing})
    return FragmentResult(
        verdict, SupportSet(frozenset()), abstraction, 1, 0, len(memo)
    )


def solve_fragment(phi: Formula, frame_class: FrameClass) -> FragmentResult:
    """Constant-domain satisfiability through the abstraction: by queries
    at modal depth at most 1, by the valuation table from depth 2 on."""
    if frame_class not in (FrameClass.C, FrameClass.N):
        raise ValueError(
            f"fragment procedure decides classes C and N, not {frame_class.value}"
        )
    abstraction = prop_abstraction(phi)
    skeleton = postorder(abstraction.prop_formula, _children)
    modal = [psi for psi in skeleton if isinstance(psi, (BoxF, DiaF))]
    if any(
        isinstance(t, (BoxF, DiaF))
        for psi in modal
        for t in postorder(psi.arg, _children)
    ):
        return _by_table(abstraction, frame_class)
    # A diamond's atom is the box of its negated body.
    boxes = dict.fromkeys(
        psi if isinstance(psi, BoxF) else neg_nnf(psi) for psi in modal
    )
    return _by_queries(abstraction, frame_class, skeleton, list(boxes))
