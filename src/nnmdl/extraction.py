"""Countermodel construction from a saturated, clash-free completion set.

Worlds are the labels; each label's domain is its occurring variables.
A constraint asserted at a label fixes membership from below, while the
absence of its negation leaves room above: the floor/ceiling pair of a
term brackets every admissible truth set.  Each neighbourhood collection
is stored as a union of windows [floor, ceil] (a `Windows`), one per
frame-class rule:

  E  one window per asserted box body: its floor and ceiling;
  M  one window per asserted box body: its floor up to the full world
     set, so the collection is upward closed by shape;
  C  one window per non-empty selection of asserted box bodies (equal
     windows kept once): the intersected floors and intersected ceilings
     (the meets of two selections' members form the window of their
     union, so the collection is closed under binary intersection);
  N  as for E, plus the window [W, W] of the full world set.

Nothing is enumerated: a window of slack k stands for 2^k sets, which
are expanded only when the model is iterated, measured or exported.

Role edges at a label are the asserted ones, plus edges lent to a blocked
variable by each variable that blocks it.  The construction is a pure
function of the completion set and safe to run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

from .semantics import (
    FrameClass,
    NeighbourhoodModel,
    Windows,
    check_frame_class,
    satisfies,
)
from .syntax import (
    AtomicConcept,
    Box,
    BoxF,
    Concept,
    Formula,
    neg_nnf,
)
from .tableau import (
    CompletionSet,
    _modal_premises,
    blockers,
)


@dataclass(frozen=True)
class TruthApproximation:
    """Labels forced to carry a term (floor) and labels merely allowed
    to (ceiling).  floor <= ceiling whenever the source set is clash-free."""

    floor: frozenset[int]
    ceil: frozenset[int]


def floors_ceilings(
    tableau: CompletionSet,
    term: Concept | Formula,
    var: int | None = None,
) -> TruthApproximation:
    """Bracket of a term: floor collects labels asserting it (at the given
    variable for concepts), the ceiling drops labels asserting its negation.
    Both are read from the state's `holders` masks."""
    key, neg_key = term, neg_nnf(term)
    if isinstance(term, Concept):
        if var is None:
            raise ValueError("concept terms need a variable")
        key, neg_key = (key, var), (neg_key, var)
    holds = tableau.holders.get(key, 0)
    refuted = tableau.holders.get(neg_key, 0)
    labels = range(len(tableau.systems))
    return TruthApproximation(
        frozenset(n for n in labels if holds >> n & 1),
        frozenset(n for n in labels if not refuted >> n & 1),
    )


def extract_model(
    tableau: CompletionSet, frame_class: FrameClass
) -> NeighbourhoodModel:
    """Read a finite model off a saturated clash-free completion set.

    The result's frame lies in the requested class by construction, and
    the formula the completion set was built for holds at world "0".
    Raises ValueError when the state has a clash.  Saturation is not
    checked here: it is the caller's responsibility, and `validate` only
    tests the model this returns.
    """
    if tableau.clash:
        raise ValueError("completion set has a clash")
    world_ids = tuple(str(n) for n in range(len(tableau.systems)))
    full = frozenset(world_ids)
    modalities = sorted(
        {c.index for c in tableau.closure.con_neg if isinstance(c, Box)}
        | {f.index for f in tableau.closure.for_neg if isinstance(f, BoxF)}
    )

    domains = {}
    concept_ext: dict[str, dict[str, frozenset[str]]] = {}
    role_ext: dict[str, dict[str, frozenset[tuple[str, str]]]] = {}
    atom_names = sorted(
        {
            c.name
            for c in tableau.closure.con_neg
            if isinstance(c, AtomicConcept)
        }
    )
    role_names = sorted(tableau.closure.roles)
    for n, system in enumerate(tableau.systems):
        world = str(n)
        variables = sorted(system.variables)
        if not variables:
            raise ValueError(f"label {n} has no variables")
        domains[world] = frozenset(f"x{v}" for v in variables)
        members: dict[str, list[str]] = {a: [] for a in atom_names}
        for c, v in system.concepts:
            if isinstance(c, AtomicConcept):
                members[c.name].append(f"x{v}")
        concept_ext[world] = {a: frozenset(xs) for a, xs in members.items()}
        per_role: dict[str, set[tuple[str, str]]] = {r: set() for r in role_names}
        for role, x, y in system.roles:
            per_role[role].add((f"x{x}", f"x{y}"))
        for var in variables:
            for z in blockers(var, system):
                for role, x, y in system.roles:
                    if x == z:
                        per_role[role].add((f"x{var}", f"x{y}"))
        role_ext[world] = {r: frozenset(pairs) for r, pairs in per_role.items()}

    def bracket(item) -> tuple[frozenset[str], frozenset[str]]:
        """Floor and ceiling of a box body, as world ids, from its branch
        item (the formula, or the (concept, variable) pair)."""
        if isinstance(item, Formula):
            approx = floors_ceilings(tableau, item)
        else:
            approx = floors_ceilings(tableau, *item)
        return (
            frozenset(str(n) for n in approx.floor),
            frozenset(str(n) for n in approx.ceil),
        )

    neighbourhoods: dict[int, dict[str, Windows]] = {
        index: {} for index in modalities
    }
    for n, system in enumerate(tableau.systems):
        boxes, _ = _modal_premises(system)
        for index in modalities:
            items = boxes.get(index, ())
            if frame_class is FrameClass.C:
                # The windows of every non-empty selection, grown one body
                # at a time: the selections with the next body are the
                # earlier ones' windows met with its bracket, plus its own.
                windows = {}
                for item in items:
                    body_floor, body_ceil = bracket(item)
                    grown = {(body_floor, body_ceil): None}
                    for floor, ceil in windows:
                        grown[(floor & body_floor, ceil & body_ceil)] = None
                    windows.update(grown)
            elif frame_class is FrameClass.M:
                windows = [(bracket(item)[0], full) for item in items]
            else:  # E and N share the bracketed shape
                windows = [bracket(item) for item in items]
                if frame_class is FrameClass.N:
                    windows.append((full, full))
            neighbourhoods[index][str(n)] = Windows(windows)

    model = NeighbourhoodModel(
        worlds=world_ids,
        constant_domain=False,
        domains=domains,
        concepts=concept_ext,
        roles=role_ext,
        neighbourhoods=neighbourhoods,
    )
    model.check_invariants()
    return model


def validate(
    model: NeighbourhoodModel, phi: Formula, frame_class: FrameClass
) -> bool:
    """Semantic check of a model: its frame lies in the class and the
    formula holds at its first world (world "0" of an extracted model)."""
    return check_frame_class(model, frame_class) and satisfies(
        model, model.worlds[0], phi
    )
