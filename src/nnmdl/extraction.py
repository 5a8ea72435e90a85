"""Countermodel construction from a saturated, clash-free completion set.

Worlds are the labels; each label's domain is its occurring variables.
The concept names and modality indices the model interprets are the
closure's `atoms` and `modalities`.  A constraint asserted at a label
fixes membership from below, while the absence of its negation leaves
room above: the floor/ceiling pair of a term brackets every admissible
truth set.  Each neighbourhood collection is stored as a union of
windows [floor, ceil] (a `Windows`), one per frame-class rule:

  E  one window per asserted box body: its floor and ceiling;
  M  one window per asserted box body: its floor up to the full world
     set, so the collection is upward closed by shape;
  C  one window per non-empty selection of asserted box bodies (equal
     windows kept once): the intersected floors and intersected ceilings
     (the meets of two selections' members form the window of their
     union, so the collection is closed under binary intersection);
  N  as for E, plus the window [W, W] of the full world set.

Each bracket is read straight from the state's `holders` masks as world
ids.  Nothing is enumerated: a window of slack k stands for 2^k sets,
which are expanded only when the model is iterated, measured or exported.

Role edges at a label are the asserted ones, plus edges lent to a blocked
variable by each variable that blocks it; a label without role
constraints has none to lend.  Models are immutable, so they share their
sets: every empty extension is one object.  The construction is a pure
function of the completion set and safe to run concurrently.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .semantics import (
    EMPTY,
    FrameClass,
    NeighbourhoodModel,
    Windows,
    check_frame_class,
    mask_members,
    satisfies,
)
from .syntax import AtomicConcept, Concept, Formula, neg_nnf
from .tableau import CompletionSet, _modal_premises, blockers


@dataclass(frozen=True)
class TruthApproximation:
    """Labels forced to carry a term (floor) and labels merely allowed
    to (ceiling).  floor <= ceiling whenever the source set is clash-free."""

    floor: frozenset[int]
    ceil: frozenset[int]


def _bracket(
    holders: dict, item, names: Sequence, full: frozenset
) -> tuple[frozenset, frozenset]:
    """Floor and ceiling of a branch item (a formula, or a (concept,
    variable) pair) as the entries of `names` indexed by label: the labels
    whose `holders` mask holds the item, and all but those holding its
    negation.  `full` is the set of all of `names`."""
    if item.__class__ is tuple:
        term, var = item
        negated = (neg_nnf(term), var)
    else:
        negated = neg_nnf(item)
    refuted = holders.get(negated, 0)
    return (
        mask_members(holders.get(item, 0), names),
        mask_members(~refuted, names) if refuted else full,
    )


def floors_ceilings(
    tableau: CompletionSet,
    term: Concept | Formula,
    var: int | None = None,
) -> TruthApproximation:
    """Bracket of a term: floor collects labels asserting it (at the given
    variable for concepts), the ceiling drops labels asserting its negation.
    Both are read from the state's `holders` masks."""
    item = term
    if isinstance(term, Concept):
        if var is None:
            raise ValueError("concept terms need a variable")
        item = (term, var)
    labels = range(len(tableau.systems))
    return TruthApproximation(
        *_bracket(tableau.holders, item, labels, frozenset(labels))
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
    atoms = tableau.closure.atoms
    modalities = tableau.closure.modalities
    role_names = sorted(tableau.closure.roles)
    holders = tableau.holders

    domains = {}
    concept_ext: dict[str, dict[str, frozenset[str]]] = {}
    role_ext: dict[str, dict[str, frozenset[tuple[str, str]]]] = {}
    neighbourhoods: dict[int, dict[str, Windows]] = {
        index: {} for index in modalities
    }
    for world, system in zip(world_ids, tableau.systems):
        if not system.variables:
            raise ValueError(f"label {world} has no variables")
        names = {v: f"x{v}" for v in system.variables}
        domains[world] = frozenset(names.values())
        members: dict[str, list[str]] = {}
        for c, v in system.concepts:
            if c.__class__ is AtomicConcept:
                members.setdefault(c.name, []).append(names[v])
        concept_ext[world] = {
            a: frozenset(members[a]) if a in members else EMPTY for a in atoms
        }
        per_role: dict[str, set[tuple[str, str]]] = {}
        if system.roles:
            for role, x, y in system.roles:
                per_role.setdefault(role, set()).add((names[x], names[y]))
            # A blocked variable borrows the edges of each that blocks it.
            for var in system.variables:
                for z in blockers(var, system):
                    for role, x, y in system.roles:
                        if x == z:
                            per_role[role].add((names[var], names[y]))
        role_ext[world] = {
            r: frozenset(per_role[r]) if r in per_role else EMPTY
            for r in role_names
        }
        if not modalities:
            continue
        boxes, _ = _modal_premises(system)
        for index in modalities:
            brackets = [
                _bracket(holders, item, world_ids, full)
                for item in boxes.get(index, ())
            ]
            if frame_class is FrameClass.C:
                # The windows of every non-empty selection, grown one body
                # at a time: the selections with the next body are the
                # earlier ones' windows met with its bracket, plus its own.
                windows = {}
                for body_floor, body_ceil in brackets:
                    grown = {(body_floor, body_ceil): None}
                    for floor, ceil in windows:
                        grown[(floor & body_floor, ceil & body_ceil)] = None
                    windows.update(grown)
            elif frame_class is FrameClass.M:
                windows = [(floor, full) for floor, _ in brackets]
            else:  # E and N share the bracketed shape
                windows = brackets
                if frame_class is FrameClass.N:
                    windows.append((full, full))
            neighbourhoods[index][world] = Windows(windows)

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
