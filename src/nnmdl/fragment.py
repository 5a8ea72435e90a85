"""Constant-domain satisfiability for formulas without modalised concepts.

The decision procedure abstracts each concept inclusion to a propositional
letter and splits the work in two: per-world consistency of a letter
assignment is an ALC question (answered by the tableau engine on a
modality-free formula over the inclusions), while the modal structure
is handled on the box values of the abstraction.

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

The elimination shrinks monotonically, so it reaches its greatest
fixpoint; the formula is satisfiable exactly when a survivor assigns 1
to the whole abstraction.  Survivor valuations need not satisfy the
abstraction themselves: only the final check imposes that, since
witnesses describe other worlds than the distinguished one.

One procedure decides this at every modal depth without building a
valuation.  A requirement asks for a survivor that makes one formula
true: the conjunction of its bodies xor the refuted body, or the
negation of a body.  Such a formula mentions only the inner boxes, the
box atoms that occur inside some box body.  The survivors are the
ALC-consistent letter assignments paired with the surviving box vectors,
so they act only through P, the surviving vectors' values on the inner
boxes: a requirement is witnessed exactly when the formula, with the
values of some vector of P folded in, is true or ALC-satisfiable.  The
elimination therefore runs in rounds on P alone.  P starts as all 2^k
vectors over the k inner boxes; a round keeps a vector when some values
of the other boxes meet every requirement, read over the current P, and
the rounds stop once one keeps every vector.  Every requirement needs a
0-valued box, so the all-ones vector always stays.  Without inner boxes
(modal depth at most 1), P is the one empty vector, there is no round to
run, and a requirement is one ALC query.  The list of 2^k vectors is the
only one the procedure builds, so more than INNER_BOX_CAP inner boxes
are refused before it is built.

Under C the 2^|ones| subset requirements of a 0-valued box z reduce to
one test, the maximal-subset argument of Lavendhomme & Lucas ("Sequent
calculi and decision procedures for weak modal systems", Studia Logica
66, 2000), which is plain set reasoning over the survivors: some
selection is equivalent to z's body on every survivor exactly when
M = {1-valued s : z's body entails s's body on every survivor} is
non-empty and no survivor satisfies the conjunction of M with the
negation of z's body, which takes |ones| + 1 witness tests.  Box values
come from a depth-first search that checks each requirement once its
boxes are fixed.  A round's search fixes the inner boxes to the vector
it tests; the final search, for the distinguished world, evaluates the
abstraction three-valued (letters unknown), drops a partial assignment
once it is false, and answers sat when the abstraction with all box
values fixed is ALC-satisfiable.  Each query is one tableau call,
memoized per formula within one `solve_fragment` call.

Only the intersection-closed and unit classes are decided here; the
remaining classes are out of scope for this procedure.
"""

from __future__ import annotations

from operator import attrgetter
from typing import NamedTuple

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
    _intern,
    child_terms,
    neg_nnf,
    normalize,
    postorder,
)

#: More inner boxes than this are refused before any vector is built: the
#: elimination rounds keep a list of the 2^k value vectors of the k inner
#: boxes.
INNER_BOX_CAP = 15


class FragmentError(ValueError):
    """The formula contains a modalised concept."""


class FragmentCapError(ValueError):
    """The abstraction has too many inner boxes to enumerate their values."""


# ---------------------------------------------------------------------------
# Abstraction
# ---------------------------------------------------------------------------

class Abstraction(NamedTuple):
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
    for term in postorder(phi):
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


def _outside_boxes(psi: Formula) -> tuple:
    """Children outside box bodies and inclusions: boxes, diamonds and
    inclusions count as atoms."""
    return child_terms(psi) if type(psi) in (AndF, OrF, NotF) else ()


class SupportSet(NamedTuple):
    """Surviving valuations: always empty, since the procedure builds no
    valuation."""

    members: frozenset


def _alc_sat(chi: Formula) -> bool:
    """ALC satisfiability of a modality-free formula: only the tableau's
    in-label rules fire.  `tableau.solve` is looked up at each call, so a
    wrapper installed on it sees every query."""
    options = tableau.SolveOptions(extract=False)
    return tableau.solve(chi, FrameClass.E, options).verdict == "sat"


def _conjunction(formulas: list[Formula]) -> Formula:
    out = formulas[0]
    for f in formulas[1:]:
        out = _intern((AndF, out, f))
    return out


class FragmentResult(NamedTuple):
    verdict: str  # "sat" | "unsat"
    #: Surviving valuations; empty, as no valuation is built.
    support: SupportSet
    abstraction: Abstraction
    #: Elimination rounds over the inner-box vectors; 1 when none is
    #: eliminated.
    rounds: int
    #: Valuations built: always 0.
    initial_valuations: int
    #: Tableau calls made.
    queries: int


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
                out = _intern((cls, left, right))
        else:  # an inclusion or a negated one
            out = psi
        value[psi] = out
    return value[order[-1]]


def _atom(psi: Formula) -> BoxF:
    """The box atom of a modal node: a diamond's is the box of its negated
    body."""
    return psi if isinstance(psi, BoxF) else neg_nnf(psi)


def _inner_boxes(modal: list) -> list:
    """The box atoms inside the bodies of the modal nodes `modal`, and in
    turn inside the bodies of the modal nodes found there."""
    found: dict = {}
    stack = list(modal)
    while stack:
        for psi in postorder(stack.pop().arg, _outside_boxes):
            if isinstance(psi, (BoxF, DiaF)):
                atom = _atom(psi)
                if atom not in found:
                    found[atom] = None
                    stack.append(psi)
    return list(found)


def _by_queries(
    abstraction: Abstraction,
    frame_class: FrameClass,
    skeleton: list,
    boxes: list,
    inner: list,
) -> FragmentResult:
    """Elimination rounds over the inner-box vectors, then the box values
    of the distinguished world by depth-first search, every requirement
    read over the surviving vectors (see the module docstring)."""
    memo: dict[Formula, bool] = {}

    def alc(chi: Formula) -> bool:
        verdict = memo.get(chi)
        if verdict is None:
            verdict = memo[chi] = _alc_sat(chi)
        return verdict

    vectors: list[dict] = [{}]
    for b in inner:
        vectors = [{**v, b: bit} for v in vectors for bit in (0, 1)]
    witnessed_by: dict[Formula, bool] = {}

    def sat(chi: Formula) -> bool:
        """Some surviving vector, folded into chi, makes it True or
        ALC-satisfiable; without inner boxes it is one ALC query."""
        hit = witnessed_by.get(chi)
        if hit is None:
            order = postorder(chi, _outside_boxes)
            hit = witnessed_by[chi] = any(
                folded is True or (folded is not False and alc(folded))
                for folded in (_rebuild(order, v) for v in vectors)
            )
        return hit

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
            z, not_z = b.arg, neg_nnf(b.arg)
            if not bit and not sat(not_z):
                return False
            return all(
                value[s] == bit
                or sat(_intern((OrF, _intern((AndF, s.arg, not_z)),
                                _intern((AndF, neg_nnf(s.arg), z)))))
                for s in group[:-1]
            )
        if i + 1 < len(boxes) and start[i + 1] == start[i]:
            return True
        ones = [s.arg for s in group if value[s]]
        for z in group:
            if value[z]:
                continue
            meets = [s for s in ones if not sat(_intern((AndF, z.arg, neg_nnf(s))))]
            if meets and not sat(_conjunction([*meets, neg_nnf(z.arg)])):
                return False
        return True

    asks_nothing = 1 if frame_class is FrameClass.N else 0

    def search(forced: dict, fold: bool) -> bool:
        """Some box values that agree with `forced` meet every requirement
        and, with `fold`, make the abstraction ALC-satisfiable."""
        stack: list[dict] = [{}]
        while stack:
            value = stack.pop()
            if fold:
                folded = _rebuild(skeleton, value)
                if folded is False:
                    continue
            if value and not witnessed(len(value) - 1, value):
                continue
            if len(value) == len(boxes):
                if not fold or folded is True or alc(folded):
                    return True
                continue
            b = boxes[len(value)]
            if b in forced:
                stack.append({**value, b: forced[b]})
            else:
                stack.append({**value, b: 1 - asks_nothing})
                stack.append({**value, b: asks_nothing})
        return False

    # Every requirement needs a 0-valued box, so the all-ones vector
    # stays without a search; without inner boxes it is the only vector.
    rounds = 1
    while inner:
        kept = [v for v in vectors if all(v.values()) or search(v, False)]
        if len(kept) == len(vectors):
            break
        vectors = kept
        witnessed_by.clear()
        rounds += 1
    verdict = "sat" if search({}, True) else "unsat"
    return FragmentResult(
        verdict, SupportSet(frozenset()), abstraction, rounds, 0, len(memo)
    )


def solve_fragment(phi: Formula, frame_class: FrameClass) -> FragmentResult:
    """Constant-domain satisfiability through the abstraction."""
    if not isinstance(phi, Formula):
        raise TypeError(f"not a formula: {phi!r}")
    frame_class = FrameClass(frame_class)
    if frame_class not in (FrameClass.C, FrameClass.N):
        raise ValueError(
            f"fragment procedure decides classes C and N, not {frame_class.value}"
        )
    abstraction = prop_abstraction(phi)
    skeleton = postorder(abstraction.prop_formula, _outside_boxes)
    modal = [psi for psi in skeleton if isinstance(psi, (BoxF, DiaF))]
    inner = _inner_boxes(modal)
    if len(inner) > INNER_BOX_CAP:
        raise FragmentCapError(
            f"{len(inner)} inner boxes exceed the cap of {INNER_BOX_CAP}"
        )
    boxes = list(dict.fromkeys([*map(_atom, modal), *inner]))
    return _by_queries(abstraction, frame_class, skeleton, boxes, inner)
