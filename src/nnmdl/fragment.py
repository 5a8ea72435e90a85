"""Constant-domain satisfiability for formulas without modalised concepts.

The decision procedure abstracts each concept inclusion to a propositional
letter and splits the work in two: per-world consistency of a letter
assignment is an ALC question (answered by the tableau engine on a
modality-free formula over the inclusions), while the modal structure
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
body, is ALC-satisfiable.  Under C the 2^|ones| subset requirements of a
0-valued box z reduce to one test, the maximal-subset argument of
Lavendhomme & Lucas ("Sequent calculi and decision procedures for weak
modal systems", Studia Logica 66, 2000): some selection is equivalent to
z's body exactly when M = {1-valued s : z's body entails s's body} is
non-empty and the conjunction of M with the negation of z's body is
unsatisfiable, which takes |ones| + 1 queries.  The distinguished
world's box values come from a depth-first search that evaluates the
abstraction three-valued (letters unknown), drops a partial assignment
once it is false, checks each requirement once its boxes are fixed, and
answers sat when the abstraction with all box values fixed is
ALC-satisfiable.  Each query is one tableau call, memoized per formula
within one `solve_fragment` call.

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
#: assignment enumeration of the table path is refused instead of
#: attempted.
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


def _postorder(root: Term, children) -> list:
    """Distinct nodes under `root`, each after its children and the
    leftmost first, walked on an explicit stack."""
    out: list = []
    seen: set = set()
    stack = [(root, False)]
    while stack:
        top, expanded = stack.pop()
        if expanded:
            out.append(top)
        elif top not in seen:
            seen.add(top)
            stack.append((top, True))
            stack.extend((c, False) for c in reversed(children(top)))
    return out


def _children(psi: PFormula) -> tuple:
    if isinstance(psi, PAnd):
        return (psi.left, psi.right)
    if isinstance(psi, (PNot, PBox)):
        return (psi.arg,)
    return ()


def _skeleton_children(psi: PFormula) -> tuple:
    """Children outside box bodies: boxes count as atoms."""
    return () if isinstance(psi, PBox) else _children(psi)


def serialize_prop(psi: PFormula) -> str:
    out: list[str] = []
    stack: list = [psi]
    while stack:
        top = stack.pop()
        if isinstance(top, str):
            out.append(top)
        elif isinstance(top, PVar):
            out.append(top.name)
        elif isinstance(top, PNot):
            out.append("(not ")
            stack += (")", top.arg)
        elif isinstance(top, PAnd):
            out.append("(and ")
            stack += (")", top.right, " ", top.left)
        elif isinstance(top, PBox):
            out.append(f"(box {top.index} ")
            stack += (")", top.arg)
        else:
            raise TypeError(f"not a propositional formula: {top!r}")
    return "".join(out)


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


def _formula_children(psi: Formula) -> tuple:
    if isinstance(psi, (AndF, OrF)):
        return (psi.left, psi.right)
    if isinstance(psi, (NotF, BoxF, DiaF)):
        return (psi.arg,)
    return ()


def prop_abstraction(phi: Formula) -> Abstraction:
    """Replace each inclusion by a letter, numbered in the order of first
    occurrence; diamonds and disjunctions are expressed through negation
    and conjunction."""
    phi = normalize(phi)
    if not check_g_fragment(phi):
        raise FragmentError("modalised concepts are outside this fragment")
    letters: list[str] = []
    ci_of: dict[str, CI] = {}
    prop: dict[Formula, PFormula] = {}
    for psi in _postorder(phi, _formula_children):
        if isinstance(psi, CI):
            letter = f"p{len(letters) + 1}"
            ci_of[letter] = psi
            letters.append(letter)
            prop[psi] = PVar(letter)
        elif isinstance(psi, NotF):
            prop[psi] = pnot(prop[psi.arg])
        elif isinstance(psi, AndF):
            prop[psi] = PAnd(prop[psi.left], prop[psi.right])
        elif isinstance(psi, OrF):
            prop[psi] = pnot(PAnd(pnot(prop[psi.left]), pnot(prop[psi.right])))
        elif isinstance(psi, BoxF):
            prop[psi] = PBox(psi.index, prop[psi.arg])
        else:
            prop[psi] = pnot(PBox(psi.index, pnot(prop[psi.arg])))
    return Abstraction(prop[phi], tuple(letters), ci_of)


def sub_closure(prop: PFormula) -> frozenset[PFormula]:
    """Subformulas closed under single negation."""
    base = _postorder(prop, _children)
    return frozenset(base).union(pnot(psi) for psi in base)


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


def _alc_sat(chi: Formula) -> bool:
    """ALC satisfiability of a modality-free formula: only the tableau's
    in-label rules fire.  `tableau.solve` is looked up at each call, so a
    wrapper installed on it sees every query."""
    options = tableau.SolveOptions(extract=False, validate=False)
    return tableau.solve(chi, FrameClass.E, options).verdict == "sat"


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

    Results are memoized by the letter bitmap when a memo dict is
    supplied.
    """
    bitmap = tuple(assignment[letter] for letter in abstraction.letters)
    if _memo is not None and bitmap in _memo:
        return _memo[bitmap]
    parts: list[Formula] = []
    for letter, bit in zip(abstraction.letters, bitmap):
        ci = abstraction.ci_of(letter)
        parts.append(ci if bit else NotF(ci))
    verdict = _alc_sat(_conjunction(parts))
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
    compound = [
        psi
        for psi in _postorder(abstraction.prop_formula, _children)
        if isinstance(psi, (PNot, PAnd))
    ]
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
        for psi in compound:
            if isinstance(psi, PNot):
                chosen[psi] = 1 - chosen[psi.arg]
            else:
                chosen[psi] = chosen[psi.left] & chosen[psi.right]
        true_members = frozenset(
            psi
            for psi in sub
            if (chosen[psi] if psi in chosen else 1 - chosen[psi.arg])
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
        len(memo),
    )


def _rebuild(order: list, ci_of: dict, boxes: dict):
    """The formula whose root is `order[-1]` (a children-first node list)
    over the inclusions, with the box values of `boxes` folded in: True or
    False when those values decide it, None when it still depends on a box
    without a value, else a modality-free formula."""
    value: dict = {}
    for psi in order:
        if isinstance(psi, PVar):
            out = ci_of[psi.name]
        elif isinstance(psi, PBox):
            bit = boxes.get(psi)
            out = None if bit is None else bit == 1
        elif isinstance(psi, PNot):
            arg = value[psi.arg]
            if arg is None:
                out = None
            else:
                out = not arg if isinstance(arg, bool) else NotF(arg)
        else:
            left, right = value[psi.left], value[psi.right]
            if left is False or right is False:
                out = False
            elif left is True or right is True:
                out = right if left is True else left
            elif left is None or right is None:
                out = None
            else:
                out = AndF(left, right)
        value[psi] = out
    return value[order[-1]]


def _by_queries(
    abstraction: Abstraction,
    frame_class: FrameClass,
    skeleton: list,
    bodies: dict,
) -> FragmentResult:
    """Modal depth at most 1: the box values of the distinguished world by
    depth-first search, every requirement and the final check by ALC
    queries (see the module docstring)."""
    memo: dict[Formula, bool] = {}

    def sat(chi: Formula) -> bool:
        verdict = memo.get(chi)
        if verdict is None:
            verdict = memo[chi] = _alc_sat(chi)
        return verdict

    ci_of = abstraction.letter_to_ci
    body = {b: _rebuild(order, ci_of, {}) for b, order in bodies.items()}
    boxes = sorted(body, key=attrgetter("index"))
    start = [0] * len(boxes)
    for i in range(1, len(boxes)):
        same = boxes[i - 1].index == boxes[i].index
        start[i] = start[i - 1] if same else i

    def witnessed(i: int, value: dict) -> bool:
        """The requirements that the value of box i completes."""
        b, bit = boxes[i], value[boxes[i]]
        group = boxes[start[i] : i + 1]
        if frame_class is FrameClass.N:
            z = body[b]
            if not bit and not sat(NotF(z)):
                return False
            return all(
                value[s] == bit
                or sat(OrF(AndF(body[s], NotF(z)), AndF(NotF(body[s]), z)))
                for s in group[:-1]
            )
        if i + 1 < len(boxes) and start[i + 1] == start[i]:
            return True
        ones = [body[s] for s in group if value[s]]
        for z in group:
            if value[z]:
                continue
            meets = [s for s in ones if not sat(AndF(body[z], NotF(s)))]
            if meets and not sat(AndF(_conjunction(meets), NotF(body[z]))):
                return False
        return True

    asks_nothing = 1 if frame_class is FrameClass.N else 0
    verdict = "unsat"
    stack: list[dict] = [{}]
    while stack:
        value = stack.pop()
        folded = _rebuild(skeleton, ci_of, value)
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
    skeleton = _postorder(abstraction.prop_formula, _skeleton_children)
    bodies = {
        psi: _postorder(psi.arg, _children)
        for psi in skeleton
        if isinstance(psi, PBox)
    }
    if any(isinstance(t, PBox) for order in bodies.values() for t in order):
        return _by_table(abstraction, frame_class)
    return _by_queries(abstraction, frame_class, skeleton, bodies)
