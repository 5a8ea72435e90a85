"""Labelled tableau decision procedure for the four frame classes.

The search state is a completion set: one constraint system per label,
holding formula constraints, concept constraints on variables, and role
constraints between variables.  Rules either decompose constraints inside
a label, generate fresh variables (existential restrictions and refuted
inclusions), branch (disjunctions), or open a fresh label from box/diamond
premises, with the branching shape determined by the frame class.

Deterministic rules are applied before generating ones, generating before
branching, and label-creating last; branch alternatives are explored
depth-first in their given order, so runs are reproducible.  On a clash
the search backjumps: every constraint is stored in its label with the
set of open branch points it depends on, and the search returns
straight to the newest branch point in the clash's set, skipping the
untried alternatives of later ones, none of which can avoid that clash.
What a step adds rests on the union of its premises' stored sets, which
is taken when its instance is pushed.  A disjunction (R_or, R_cup) one
of whose alternatives is already refuted in its label, by its NNF
negation or as a bottom concept, opens no branch point: the other
alternative is applied as a deterministic step (Boolean constraint
propagation), resting on what refuted the skipped one.  Rules only ever
add constraints, every payload stays inside the closure sets of the
input formula, and the label count is asserted against its theoretical
budget at every label creation.  A solve call owns its state
exclusively; distinct calls share nothing mutable.

A constraint is named by the formula psi, the pair (C, x) or the triple
(role, x, y).  Rule instances list what their branches add by that name,
and the `holders` index of `CompletionSet` and the agenda's keys use it,
so an instance is read against the index as it stands.  A label stores
its concept constraints nested by variable, each variable x mapped to
its concepts C: what blocking and the rules ask of one variable reads
that variable's entry alone.

The search is incremental.  A completion set is built for one frame
class, which fixes the shape of R_L for the whole run.  From its first
constraint on, every add pushes the rule instances it completes onto an
agenda, a heap ordered by the same canonical key that `find_applicable`
sorts by, each with the union of the stored sets of the premises that
completed it, and sets the state's clash flag when its NNF negation is
already present (or it is a bottom concept).  A new formula or (concept,
variable) pair takes one path there, `CompletionSet._put`, and the R_L
instances are built in one place, `_modal_added`, from one scan of the
label's boxes and diamonds with their stored sets; a new box enumerates
only the box choices holding it.  The next instance is the agenda's head
once stale heads have been dropped; an R_exists instance that is only
blocked is parked until its variable's concept set grows.
The search extends the state in place, copies it only at a branch point
(every alternative but the last works on a copy of the saved state) and
keeps its branch points on an explicit stack.  A copy shares each
label's system, its constraints together with their sets, until a state
first writes that label.  `find_applicable`, `is_clash` and `apply`
recompute from the whole state, for any class; they are the references
the agenda, the clash flag and the in-place extension are tested
against, and the tests build a chronological search from them to check
backjumping's verdicts.  `find_applicable` builds R_L
instances only when no in-label instance applies, since R_L comes last.
Whether an R_L instance is already realized is read from an index
mapping each constraint to the labels holding it, as an int with one bit
per label; `find_applicable` rescans the labels instead.
"""

from __future__ import annotations

import os
from heapq import heappop, heappush
from itertools import chain, combinations
from typing import Callable, Iterable, NamedTuple

from .semantics import FrameClass, NeighbourhoodModel
from .syntax import (
    And,
    AndF,
    BOT,
    Bot,
    Box,
    BoxF,
    CI,
    Concept,
    Dia,
    DiaF,
    Exists,
    Forall,
    Formula,
    NotF,
    Or,
    OrF,
    TOP,
    closure,
    Closure,
    neg_nnf,
    normalize,
    serialize,
    sort_key,
)

STEP_CAP_ENV = "NNMDL_CAP_STEPS"
DEFAULT_STEP_CAP = 200_000

R_AND = "R_and"
R_OR = "R_or"
R_SQCAP = "R_cap"
R_SQCUP = "R_cup"
R_EXISTS = "R_exists"
R_FORALL = "R_forall"
R_EQ = "R_eq"
R_NEQ = "R_neq"
R_L = "R_L"


class EngineError(RuntimeError):
    """Internal inconsistency: a bound or check the engine must uphold failed."""


class StepCapError(EngineError):
    """The search used up its step cap: a resource limit, not a defect.
    `setting` names where the cap was set, None for the default."""

    def __init__(self, cap: int, setting: str | None):
        self.cap = cap
        self.setting = setting
        where = "the default" if setting is None else f"set by {setting}"
        super().__init__(
            f"step cap {cap} ({where}) exceeded; raise "
            f"{setting or STEP_CAP_ENV} if the input is legitimately this large"
        )


class StaleInstanceError(ValueError):
    """The instance's application condition no longer holds."""


# ---------------------------------------------------------------------------
# Search state
# ---------------------------------------------------------------------------

class ConstraintSystem:
    """All constraints of one label.

    `formulas` maps each formula constraint and `roles` each (role, x, y)
    triple to the dependency set it was added with (see `CompletionSet`).
    `concepts` maps each variable occurring in the label to its concepts,
    each with its set; every entry holds top."""

    __slots__ = ("label", "formulas", "concepts", "roles")

    def __init__(self, label: int):
        self.label = label
        self.formulas: dict[Formula, int] = {}
        self.concepts: dict[int, dict[Concept, int]] = {}
        self.roles: dict[tuple[str, int, int], int] = {}

    def copy(self) -> "ConstraintSystem":
        """An independent copy, built without the constructor."""
        dup = object.__new__(ConstraintSystem)
        dup.label = self.label
        dup.formulas = dict(self.formulas)
        dup.concepts = {var: dict(held) for var, held in self.concepts.items()}
        dup.roles = dict(self.roles)
        return dup


class SolveStats:
    """Counts over a whole search.  `branch_points` counts the branching
    instances applied with a branch point, `forced` the disjunctions
    decided without one because an alternative was refuted, `backtracks`
    the alternatives tried after a clash and `backjumps` the branch
    points popped with alternatives untried; these four stay out of
    `as_dict`, so the CLI's output keeps its shape.  The search bumps
    the counters in place."""

    __slots__ = (
        "rule_applications",
        "labels_created",
        "variables_created",
        "steps",
        "branch_points",
        "forced",
        "backtracks",
        "backjumps",
    )

    def __init__(self):
        self.rule_applications: dict[str, int] = {}
        self.labels_created = 0
        self.variables_created = 0
        self.steps = 0
        self.branch_points = 0
        self.forced = 0
        self.backtracks = 0
        self.backjumps = 0

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"SolveStats({fields})"

    def count(self, rule: str):
        self.rule_applications[rule] = self.rule_applications.get(rule, 0) + 1
        self.steps += 1

    def as_dict(self) -> dict:
        return {
            "rule_applications": dict(sorted(self.rule_applications.items())),
            "labels_created": self.labels_created,
            "variables_created": self.variables_created,
            "steps": self.steps,
        }


class CompletionSet:
    """Union of labelled constraint systems plus allocation counters, for
    one frame class.

    Carries the normalized input formula and its closure so payload
    membership and label budgets can be checked.  Labels are allocated
    0, 1, 2, ... and never removed, so `systems` is indexed by label.
    Variables are ordered by their integer creation index (a global
    counter), which realizes the well-order used by freshness and
    blocking.

    Every add keeps the derived state below current.  `clash` is set
    once a label holds some constraint with its NNF negation, or a bottom
    concept; rules only add, so it stays set.  `holders` maps each formula
    and each (concept, variable) pair present anywhere to an int whose bit
    n is set when label n holds it; ints are immutable, so a copy of the
    dict is a copy of the index.  Every add stores its constraint in its
    label's system with `stamp`, which the search sets before each
    extension: a dependency set, an int with bit i set when the constraint
    rests on the choice made at branch point i of the search stack.
    `holders` keys a constraint by its formula or (concept, variable)
    pair, as a rule instance's branch items do; a label's system stores
    the pair under its variable, then its concept.
    `clash_deps` is the union of the sets of the first pair of clashing
    constraints (a bottom concept's own set).  `agenda` is a heap of
    (key, (instance, premise set)) entries holding every applicable rule
    instance of the state's frame class, possibly with stale ones in
    between: each add reaches it through `_put`, which stores, indexes and
    clash-checks the constraint and pushes what it completes, with R_L
    instances built by `_modal_added`.  An entry's premise set is the union
    of the stored sets of the premises whose group completed the instance;
    stored sets never change, so it stays the union for as long as the
    entry waits.  `parked` holds, per (label, variable), the R_exists
    instances found blocked.  `owned` has bit n set when this state may
    write label n's system in place: `copy` shares the systems, each
    label's constraints together with their sets, and clears both sides'
    bits, and `_own` copies a shared system before its first write.
    """

    __slots__ = (
        "systems",
        "owned",
        "next_var",
        "phi",
        "closure",
        "frame_class",
        "clash",
        "clash_deps",
        "holders",
        "stamp",
        "agenda",
        "parked",
    )

    def __init__(
        self, phi: Formula, phi_closure: Closure, frame_class: FrameClass
    ):
        self.systems: list[ConstraintSystem] = []
        self.owned = 0
        self.next_var = 0
        self.phi = phi
        self.closure = phi_closure
        self.frame_class = FrameClass(frame_class)
        self.clash = False
        self.clash_deps = 0
        self.holders: dict[Formula | tuple[Concept, int], int] = {}
        self.stamp = 0
        self.agenda: list[tuple] = []
        self.parked: dict[tuple[int, int], list[tuple]] = {}

    def copy(self) -> "CompletionSet":
        """An independent copy, built without the constructor's checks;
        see `owned` for what it shares."""
        dup = object.__new__(CompletionSet)
        dup.systems = list(self.systems)
        dup.owned = self.owned = 0
        dup.next_var = self.next_var
        dup.phi = self.phi
        dup.closure = self.closure
        dup.frame_class = self.frame_class
        dup.clash = self.clash
        dup.clash_deps = self.clash_deps
        dup.holders = dict(self.holders)
        dup.stamp = self.stamp
        dup.agenda = list(self.agenda)
        dup.parked = {k: list(v) for k, v in self.parked.items()}
        return dup

    # -- allocation ---------------------------------------------------------

    def new_label(self) -> ConstraintSystem:
        label = len(self.systems)
        bound = label_budget(self.closure.fg_size, self.frame_class)
        if label + 1 > bound:
            raise EngineError(f"label budget exceeded: {label + 1} > {bound}")
        system = ConstraintSystem(label)
        self.systems.append(system)
        self.owned |= 1 << label
        return system

    def new_variable(self) -> int:
        var = self.next_var
        self.next_var += 1
        return var

    # -- mutation -----------------------------------------------------------

    def _own(self, label: int) -> ConstraintSystem:
        """The label's system, copied first if this state shares it."""
        system = self.systems[label]
        if not self.owned >> label & 1:
            system = self.systems[label] = system.copy()
            self.owned |= 1 << label
        return system

    def add_formula(self, label: int, psi: Formula) -> None:
        if psi not in self.closure.for_neg:
            raise EngineError(f"formula outside closure: {serialize(psi)}")
        if psi in self.systems[label].formulas:
            return
        self._put(self._own(label), psi, psi, -1)

    def add_concept(self, label: int, concept: Concept, var: int) -> None:
        if concept not in self.closure.con_neg:
            raise EngineError(f"concept outside closure: {serialize(concept)}")
        if concept in self.systems[label].concepts.get(var, ()):
            return
        system = self._own(label)
        self._add_variable(system, var)
        if concept is not TOP:  # a new variable's entry holds top already
            self._put(system, (concept, var), concept, var)

    def add_role(self, label: int, role: str, x: int, y: int) -> None:
        if role not in self.closure.roles:
            raise EngineError(f"role outside closure: {role}")
        if (role, x, y) in self.systems[label].roles:
            return
        system, stamp = self._own(label), self.stamp
        system.roles[(role, x, y)] = stamp
        self._add_variable(system, x)
        self._add_variable(system, y)
        for concept, deps in system.concepts[x].items():
            if isinstance(concept, Forall) and concept.role == role:
                inst = _forall_instance(system.label, concept, y)
                self._push(inst, stamp | deps)

    def _add_variable(self, system: ConstraintSystem, var: int) -> None:
        """Make a variable occur in a system this state owns: open its
        entry and put top on it."""
        if var not in system.concepts:
            system.concepts[var] = {}
            self._put(system, (TOP, var), TOP, var)

    def _put(
        self, system: ConstraintSystem, item: BranchItem, term, var: int
    ) -> None:
        """Add a constraint absent from a system this state owns: the
        formula `term` (`var` -1) or the pair (`term`, `var`), whose
        variable's entry is open, named `item` as `holders` keys it.
        Store it with its dependency set `stamp` in `formulas` or in the
        variable's entry, flag a clash when it is bottom (its own partner)
        or its NNF negation is stored there, and push the instances whose
        last premise it is, each with the union of its premises' stored
        sets; a variable's top completes R_eq with each inclusion.  The
        variable's parked R_exists instances get another look: a variable
        can only become unblocked when its own concept set grows."""
        label, stamp = system.label, self.stamp
        store = system.formulas if var < 0 else system.concepts[var]
        store[term] = stamp
        self.holders[item] = self.holders.get(item, 0) | 1 << label
        other = term if term is BOT else neg_nnf(term)
        if not self.clash and other in store:
            self.clash = True
            self.clash_deps = stamp | store[other]
        inst = _premise_instance(label, term, var)
        if inst is not None:
            self._push(inst, stamp)
        elif term is TOP:
            for psi, deps in system.formulas.items():
                if isinstance(psi, CI):
                    self._push(_eq_instance(label, psi, var), stamp | deps)
        elif isinstance(term, CI):
            for v, held in system.concepts.items():
                self._push(_eq_instance(label, term, v), stamp | held[TOP])
        elif isinstance(term, Forall):
            for (role, x, y), deps in system.roles.items():
                if role == term.role and x == var:
                    self._push(_forall_instance(label, term, y), stamp | deps)
        elif isinstance(term, (BoxF, DiaF, Box, Dia)):
            box = isinstance(term, (BoxF, Box))
            body = term.arg if var < 0 else (term.arg, var)
            self._modal_added(system, term.index, body, box)
        if self.parked:
            for entry in self.parked.pop((label, var), ()):
                heappush(self.agenda, entry)

    # -- agenda -------------------------------------------------------------

    def _push(self, inst: "RuleInstance", deps: int) -> None:
        """Queue a candidate under its `find_applicable` sort key, with
        `deps`, the union of the stored sets of the premises that completed
        it.  Within one search the key determines the instance (rule, label
        and flattened items fix the branches), so entries that tie hold
        equal instances.  Adds push an instance when its last premise
        arrives, which is once except for R_L: equal bodies under two
        modality indices complete the same instance once per index, each
        time with that index's premises; `next_instance` merges the
        sets."""
        heappush(self.agenda, (_instance_key(inst), (inst, deps)))

    def _modal_added(
        self, system: ConstraintSystem, index: int, body: BranchItem, box: bool
    ) -> None:
        """Push the R_L instances a new box (or diamond) body completes,
        the only place they are built for the agenda: N's diamond-alone
        one, then each box choice holding the new box with each diamond of
        the index, or each choice with the new diamond.  Every premise's
        set, `stamp` for the new one, is read from `_modal_premises`."""
        label, frame_class = system.label, self.frame_class
        if not box and frame_class is FrameClass.N:
            self._push(_unit_instance(label, body), self.stamp)
        boxes, dias = _modal_premises(system)
        if index not in dias:
            return
        gammas, deltas = boxes.get(index, {}), dias[index]
        if not box:
            deltas = {body: deltas[body]}
        choices = _box_choices(gammas, frame_class, body if box else None)
        for gamma_items in choices:
            deps = 0
            for g in gamma_items:
                deps |= gammas[g]
            for delta, delta_deps in deltas.items():
                self._push(
                    _modal_instance(label, frame_class, gamma_items, delta),
                    deps | delta_deps,
                )


def label_budget(fg_size: int, frame_class: FrameClass) -> int:
    """Largest label count any run may create for this input size."""
    if frame_class is FrameClass.C:
        return (2**fg_size) * fg_size
    return fg_size * fg_size


def init(phi: Formula, frame_class: FrameClass) -> CompletionSet:
    """Initial completion set for a frame class: the normal form of the
    formula and one domain seed at label 0."""
    if not isinstance(phi, Formula):
        raise TypeError(f"not a formula: {phi!r}")
    frame_class = FrameClass(frame_class)
    phi = normalize(phi)
    tableau = CompletionSet(phi, closure(phi), frame_class)
    system = tableau.new_label()
    tableau.add_formula(system.label, phi)
    tableau._add_variable(system, tableau.new_variable())
    return tableau


# ---------------------------------------------------------------------------
# Clash and blocking
# ---------------------------------------------------------------------------

def is_clash(tableau: CompletionSet) -> bool:
    """A label holding some constraint together with its NNF negation,
    or a bottom concept on any variable.

    Reference implementation, rescanning the whole state: the search reads
    the `clash` flag that every add maintains, and the tests check that
    flag against this function at every step."""
    for system in tableau.systems:
        for psi in system.formulas:
            if neg_nnf(psi) in system.formulas:
                return True
        for held in system.concepts.values():
            for concept in held:
                if isinstance(concept, Bot) or neg_nnf(concept) in held:
                    return True
    return False


def _witnessed(
    system: ConstraintSystem, role: str, var: int, target: Concept
) -> bool:
    """Some role successor of the variable already carries the target."""
    return any(
        target in held and (role, var, z) in system.roles
        for z, held in system.concepts.items()
    )


def blockers(var: int, system: ConstraintSystem) -> list[int]:
    """Subset blocking: the older variables whose concept sets cover this
    one's, in ascending order.  The variable is blocked when the list is
    non-empty."""
    mine = system.concepts[var].keys()
    return [
        other
        for other, held in sorted(system.concepts.items())
        if other < var and mine <= held.keys()
    ]


# ---------------------------------------------------------------------------
# Rule instances
# ---------------------------------------------------------------------------

#: A branch item targets the instance's fresh label (rule R_L) or its own
#: label.  It is the constraint itself, as `holders` and the stores key it: a
#: formula psi, or a (concept, variable) pair, whose variable is -1 for the
#: witness R_neq allocates on application.  R_exists alone has the
#: descriptor ("exists", role, var, target-concept) instead, whose witness
#: is allocated on application.
BranchItem = Formula | tuple


class RuleInstance(NamedTuple):
    """A rule applicable in one label, with its alternatives; immutable,
    equal and hashed by its fields."""

    rule: str
    label: int
    #: For in-label rules each branch lists items added to `label`; for R_L
    #: every branch is added to a fresh label allocated at application time.
    #: R_exists and R_neq allocate one fresh variable per application.
    #: N's diamond-alone instance on a concept body ends with an empty
    #: branch: a label its body's variable is absent from.
    branches: tuple[tuple[BranchItem, ...], ...]

    @property
    def branch_count(self) -> int:
        return len(self.branches)


_PRIORITY = {
    R_AND: 0,
    R_SQCAP: 0,
    R_EQ: 0,
    R_FORALL: 0,
    R_EXISTS: 1,
    R_NEQ: 1,
    R_OR: 2,
    R_SQCUP: 2,
    R_L: 3,
}


def _item_key(item: BranchItem):
    if isinstance(item, Formula):
        return (0, sort_key(item), -1, "")
    if len(item) == 2:
        return (1, sort_key(item[0]), item[1], "")
    return (2, sort_key(item[3]), item[2], item[1])


def _instance_key(inst: RuleInstance):
    """Labels are allocated 0, 1, 2, ... and never removed, so a label is
    also its position in `systems`."""
    return (
        _PRIORITY[inst.rule],
        inst.label,
        inst.rule,
        tuple(_item_key(i) for b in inst.branches for i in b),
    )


def _neg_item(item: BranchItem) -> BranchItem:
    if item.__class__ is tuple:
        return (neg_nnf(item[0]), item[1])
    return neg_nnf(item)


def _stored(system: ConstraintSystem, item: BranchItem) -> int | None:
    """The dependency set the system stores with a formula or (concept,
    variable) pair, None when it does not hold it."""
    if item.__class__ is tuple:
        held = system.concepts.get(item[1])
        return None if held is None else held.get(item[0])
    return system.formulas.get(item)


def _holds_in(system: ConstraintSystem, item: BranchItem) -> bool:
    return _stored(system, item) is not None


def _some_branch_realized(
    tableau: CompletionSet, branches: tuple[tuple[BranchItem, ...], ...]
) -> bool:
    for system in tableau.systems:
        for branch in branches:
            if all(_holds_in(system, item) for item in branch):
                return True
    return False


def _premise_instance(
    label: int, term: Formula | Concept, var: int = -1
) -> RuleInstance | None:
    """The one in-label instance a premise creates on its own: R_and, R_or
    and R_neq for a formula; R_cap, R_cup and R_exists for a concept on
    `var`.  None for premises that pair with others or create nothing."""
    if isinstance(term, AndF):
        return RuleInstance(R_AND, label, ((term.left, term.right),))
    if isinstance(term, OrF):
        return RuleInstance(R_OR, label, ((term.left,), (term.right,)))
    if isinstance(term, NotF):
        return RuleInstance(R_NEQ, label, (((neg_nnf(term.arg.right), -1),),))
    if isinstance(term, And):
        return RuleInstance(
            R_SQCAP, label, (((term.left, var), (term.right, var)),)
        )
    if isinstance(term, Or):
        return RuleInstance(
            R_SQCUP, label, (((term.left, var),), ((term.right, var),))
        )
    if isinstance(term, Exists):
        return RuleInstance(
            R_EXISTS, label, ((("exists", term.role, var, term.arg),),)
        )
    return None


def _eq_instance(label: int, psi: CI, var: int) -> RuleInstance:
    return RuleInstance(R_EQ, label, (((psi.right, var),),))


def _forall_instance(label: int, concept: Forall, y: int) -> RuleInstance:
    return RuleInstance(R_FORALL, label, (((concept.arg, y),),))


def _modal_instance(
    label: int,
    frame_class: FrameClass,
    gamma_items: tuple[BranchItem, ...],
    delta_item: BranchItem,
) -> RuleInstance:
    """R_L for box bodies and a diamond body: one box under E, M and N, a
    non-empty box subset under C.  Beside the branch with every body, all
    classes but M offer one branch per box refuting that box and the
    diamond together."""
    branches = (gamma_items + (delta_item,),)
    if frame_class is not FrameClass.M:
        branches += tuple(
            (_neg_item(g), _neg_item(delta_item)) for g in gamma_items
        )
    return RuleInstance(R_L, label, branches)


def _unit_instance(label: int, delta_item: BranchItem) -> RuleInstance:
    """N's diamond-alone R_L: a label carrying the body.  For a concept
    body the demand is met just as well by a world its variable is absent
    from (varying domains), so such an instance offers an empty branch and
    is settled by any label lacking the variable."""
    if isinstance(delta_item, Formula):
        return RuleInstance(R_L, label, ((delta_item,),))
    return RuleInstance(R_L, label, ((delta_item,), ()))


def _box_choices(
    boxes: dict, frame_class: FrameClass, new: BranchItem | None = None
) -> Iterable[tuple]:
    """The box bodies one R_L instance takes, in the order of `boxes`: each
    non-empty subset under C, each single box otherwise.  Given a `new`
    body of `boxes`, only the choices holding it: under C, each subset of
    the bodies before it, then it, then each subset of those after it."""
    if frame_class is not FrameClass.C:
        return ((item,) for item in boxes) if new is None else ((new,),)
    if new is None:
        return _nonempty_subsets(boxes)
    items = list(boxes)
    at = items.index(new)
    lowers = ((), *_nonempty_subsets(items[:at]))
    uppers = ((), *_nonempty_subsets(items[at + 1 :]))
    return (lower + (new,) + upper for lower in lowers for upper in uppers)


def _settled_by_scan(tableau: CompletionSet, inst: RuleInstance) -> bool:
    """An R_L instance is settled by a label realizing one of its non-empty
    branches, or, with an empty branch, by any label lacking its body's
    variable.

    Reference for `_settled`, scanning every label."""
    filled = tuple(b for b in inst.branches if b)
    if _some_branch_realized(tableau, filled):
        return True
    if inst.branches[-1]:
        return False
    var = inst.branches[0][0][1]
    return any(var not in s.concepts for s in tableau.systems)


def _settled(tableau: CompletionSet, inst: RuleInstance) -> bool:
    """`_settled_by_scan` read from the `holders` index: a branch is
    realized when the masks of its items share a label.  Every label
    asserts top on each of its variables, so the labels lacking one are
    those missing from the mask of (top, variable)."""
    holders = tableau.holders
    for branch in inst.branches:
        if not branch:
            continue
        shared = -1
        for item in branch:
            shared &= holders.get(item, 0)
            if not shared:
                break
        else:
            return True
    if inst.branches[-1]:
        return False
    var = inst.branches[0][0][1]
    every_label = (1 << len(tableau.systems)) - 1
    return bool(every_label & ~holders.get((TOP, var), 0))


def _label_instances(
    tableau: CompletionSet, system: ConstraintSystem
) -> Iterable[RuleInstance]:
    label = system.label
    for psi in system.formulas:
        if isinstance(psi, AndF):
            if not (
                psi.left in system.formulas and psi.right in system.formulas
            ):
                yield _premise_instance(label, psi)
        elif isinstance(psi, OrF):
            if (
                psi.left not in system.formulas
                and psi.right not in system.formulas
            ):
                yield _premise_instance(label, psi)
        elif isinstance(psi, CI):
            for var, held in system.concepts.items():
                if psi.right not in held:
                    yield _eq_instance(label, psi, var)
        elif isinstance(psi, NotF):
            negated = neg_nnf(psi.arg.right)
            if not any(negated in held for held in system.concepts.values()):
                yield _premise_instance(label, psi)
    for var, held in system.concepts.items():
        for concept in held:
            if isinstance(concept, And):
                if not (concept.left in held and concept.right in held):
                    yield _premise_instance(label, concept, var)
            elif isinstance(concept, Or):
                if concept.left not in held and concept.right not in held:
                    yield _premise_instance(label, concept, var)
            elif isinstance(concept, Exists):
                has_witness = _witnessed(system, concept.role, var, concept.arg)
                if not has_witness and not blockers(var, system):
                    yield _premise_instance(label, concept, var)
            elif isinstance(concept, Forall):
                for role, x, y in system.roles:
                    if (
                        role == concept.role
                        and x == var
                        and concept.arg not in system.concepts[y]
                    ):
                        yield _forall_instance(label, concept, y)


def _modal_premises(system: ConstraintSystem):
    """Bodies of a system's box and diamond constraints as branch items,
    grouped by modality index: per index, each body mapped to the stored
    set of its constraint, in `_item_key` order."""
    boxes: dict[int, dict[BranchItem, int]] = {}
    dias: dict[int, dict[BranchItem, int]] = {}
    for psi, deps in system.formulas.items():
        if isinstance(psi, BoxF):
            boxes.setdefault(psi.index, {})[psi.arg] = deps
        elif isinstance(psi, DiaF):
            dias.setdefault(psi.index, {})[psi.arg] = deps
    for var, held in system.concepts.items():
        for concept, deps in held.items():
            if isinstance(concept, Box):
                boxes.setdefault(concept.index, {})[(concept.arg, var)] = deps
            elif isinstance(concept, Dia):
                dias.setdefault(concept.index, {})[(concept.arg, var)] = deps
    for grouped in (boxes, dias):
        for index, sets in grouped.items():
            if len(sets) > 1:
                order = sorted(sets, key=_item_key)
                grouped[index] = {b: sets[b] for b in order}
    return boxes, dias


def _nonempty_subsets(items: list) -> Iterable[tuple]:
    """Non-empty subsets of a list as tuples keeping the list's order:
    by size, and within one size in the lexicographic order of positions
    (the order of `itertools.combinations`)."""
    return chain.from_iterable(
        combinations(items, size) for size in range(1, len(items) + 1)
    )


def _modal_instances(
    tableau: CompletionSet, system: ConstraintSystem
) -> Iterable[RuleInstance]:
    boxes, dias = _modal_premises(system)
    label = system.label
    frame_class = tableau.frame_class
    for index, dia_list in sorted(dias.items()):
        box_list = boxes.get(index, [])
        for delta_item in dia_list:
            candidates = (
                _modal_instance(label, frame_class, gamma_items, delta_item)
                for gamma_items in _box_choices(box_list, frame_class)
            )
            if frame_class is FrameClass.N:
                candidates = chain((_unit_instance(label, delta_item),), candidates)
            for inst in candidates:
                if not _settled_by_scan(tableau, inst):
                    yield inst


def find_applicable(tableau: CompletionSet) -> list[RuleInstance]:
    """The rule instances whose premises and application condition hold,
    ordered by rule priority and a canonical key: every in-label instance
    or, when there is none, every R_L instance.  R_L has the lowest
    priority, so the head is the least instance of the whole state, and
    the list is empty exactly when the state is saturated.

    Reference implementation, regenerating the instances from the whole
    state: the search takes `next_instance` instead, and the tests check
    at every step that its choice is this list's head."""
    instances: list[RuleInstance] = []
    for system in tableau.systems:
        instances.extend(_label_instances(tableau, system))
    if not instances:
        for system in tableau.systems:
            instances.extend(_modal_instances(tableau, system))
    instances.sort(key=_instance_key)
    return instances


# ---------------------------------------------------------------------------
# Rule application
# ---------------------------------------------------------------------------

def _stale(tableau: CompletionSet, inst: RuleInstance) -> bool:
    """The instance's application condition no longer holds: an R_L
    instance is settled, an in-label rule's conclusions (any alternative,
    for a disjunction) are present, R_neq's witness exists, or R_exists's
    variable is witnessed or blocked."""
    rule = inst.rule
    if rule == R_L:
        return _settled(tableau, inst)
    system = tableau.systems[inst.label]
    if rule in (R_AND, R_SQCAP, R_EQ, R_FORALL):
        return all(_holds_in(system, item) for item in inst.branches[0])
    if rule in (R_OR, R_SQCUP):
        return any(
            _holds_in(system, item) for branch in inst.branches for item in branch
        )
    if rule == R_NEQ:
        negated = inst.branches[0][0][0]
        return any(negated in held for held in system.concepts.values())
    _, role, var, target = inst.branches[0][0]  # R_exists
    return bool(blockers(var, system)) or _witnessed(system, role, var, target)


def next_instance(
    tableau: CompletionSet,
) -> tuple[RuleInstance, int] | None:
    """Remove the least applicable rule instance from the agenda, in the
    order of `find_applicable`, and return it with its premise set, the
    pair its entry holds; None when the state is saturated.  The premise
    set is the union of the stored sets of every premise group that
    completed the instance: an R_L instance completed under two modality
    indices sits on the agenda once per index, and the tied entries are
    merged here.

    Stale heads are dropped for good: rules only add constraints, so an
    instance that has fired or been realized stays so.  The one condition
    that can lapse is blocking, so an R_exists head that is blocked but not
    witnessed is parked until its variable's concept set grows.  The
    returned instance is stale once any of its branches is added, so it
    leaves the agenda here.
    """
    agenda = tableau.agenda
    while agenda:
        entry = heappop(agenda)
        step = entry[1]
        inst = step[0]
        if not _stale(tableau, inst):
            if inst.rule is R_L:
                while agenda and agenda[0][1][0] == inst:
                    step = (inst, step[1] | heappop(agenda)[1][1])
            return step
        if inst.rule == R_EXISTS:
            _, role, var, target = inst.branches[0][0]
            system = tableau.systems[inst.label]
            if not _witnessed(system, role, var, target):
                tableau.parked.setdefault((inst.label, var), []).append(entry)
    return None


def _extend(tableau: CompletionSet, inst: RuleInstance, branch: int) -> None:
    """Add the chosen branch's constraints to the state in place.

    Fresh variables take the next global index (trivially the least fresh
    one for the target system); fresh labels take the next unused id and
    are seeded with a domain variable when the branch puts no variable in
    them.
    """
    rule, items = inst.rule, inst.branches[branch]
    if rule == R_EXISTS:
        _, role, var, target = items[0]
        fresh = tableau.new_variable()
        tableau.add_role(inst.label, role, var, fresh)
        tableau.add_concept(inst.label, target, fresh)
        return
    if rule == R_NEQ:
        tableau.add_concept(inst.label, items[0][0], tableau.new_variable())
        return
    label = tableau.new_label().label if rule == R_L else inst.label
    for item in items:
        if isinstance(item, Formula):
            tableau.add_formula(label, item)
        else:
            tableau.add_concept(label, *item)
    if not tableau.systems[label].concepts:
        # Domains are non-empty: a fresh label reached only through formula
        # constraints still describes a world with at least one element.
        tableau._add_variable(tableau._own(label), tableau.new_variable())


def apply(
    tableau: CompletionSet, inst: RuleInstance, branch: int
) -> CompletionSet:
    """New completion set with the chosen branch's constraints added; the
    input is left untouched, as the copy owns none of its systems.
    Reference for the search, which extends its state in place and copies
    only at branch points."""
    if not 0 <= branch < inst.branch_count:
        raise ValueError(f"branch {branch} out of range")
    if _stale(tableau, inst):
        raise StaleInstanceError(f"{inst.rule} instance no longer applicable")
    out = tableau.copy()
    _extend(out, inst, branch)
    return out


def _refuter(
    tableau: CompletionSet, label: int, item: BranchItem
) -> int | None:
    """The dependency set of what refutes a disjunct in its label: the
    stored set of its NNF negation, or 0 for a bottom concept, which
    clashes on its own.  None while adding it would not clash at once."""
    if isinstance(item, tuple) and isinstance(item[0], Bot):
        return 0
    return _stored(tableau.systems[label], _neg_item(item))


def _forced_branch(
    tableau: CompletionSet, inst: RuleInstance
) -> tuple[int, int] | None:
    """Boolean constraint propagation for an R_or or R_cup instance: the
    branch to apply without a branch point and the refuter set of the
    alternative it skips, or None while both alternatives are live.  With
    the first disjunct refuted the second is applied, even when it is
    refuted too and clashes at once; otherwise, with the second refuted,
    the first."""
    first, second = inst.branches
    refuted = _refuter(tableau, inst.label, first[0])
    if refuted is not None:
        return 1, refuted
    refuted = _refuter(tableau, inst.label, second[0])
    if refuted is not None:
        return 0, refuted
    return None


def applied_constraints(inst: RuleInstance, branch: int) -> list[str]:
    """Human/trace rendering of what a branch would add (without applying).
    Terms are rendered by their cached sort keys, which are their
    serialized text."""
    out = []
    for item in inst.branches[branch]:
        if isinstance(item, Formula):
            out.append(sort_key(item))
        elif len(item) == 2:
            out.append(f"{sort_key(item[0])}(x{item[1]})")
        else:
            out.append(f"{item[1]}(x{item[2]}, fresh)")
    return out


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------

class SolveOptions(NamedTuple):
    extract: bool = True
    validate: bool = True
    trace: bool = False
    step_cap: int | None = None
    on_step: Callable[[dict], None] | None = None


class SolveResult(NamedTuple):
    verdict: str  # "sat" | "unsat"
    completion: CompletionSet | None
    model: NeighbourhoodModel | None
    trace: list[dict] | None
    stats: SolveStats


def _step_cap(options: SolveOptions) -> tuple[int, str | None]:
    """The step cap and the setting it came from: `SolveOptions.step_cap`
    over the environment variable over the default (None).  A negative or
    non-integer cap is rejected with ValueError."""
    if options.step_cap is not None:
        cap, setting = options.step_cap, "SolveOptions.step_cap"
    else:
        env = os.environ.get(STEP_CAP_ENV)
        if not env:
            return DEFAULT_STEP_CAP, None
        try:
            cap, setting = int(env), STEP_CAP_ENV
        except ValueError:
            raise ValueError(
                f"{STEP_CAP_ENV} must be a non-negative integer, got {env!r}"
            ) from None
    if cap.__class__ is not int or cap < 0:
        raise ValueError(
            f"{setting} must be a non-negative integer, got {cap!r}"
        )
    return cap, setting


class _Search:
    def __init__(self, options: SolveOptions):
        self.options = options
        self.cap, self.cap_setting = _step_cap(options)
        self.stats = SolveStats()
        self.trace: list[dict] = []
        self.stack: list[list] = []

    def _step(
        self,
        tableau: CompletionSet,
        inst: RuleInstance,
        branch: int,
        stamp: int,
        path: list[dict],
    ) -> None:
        """Extend the state by one branch, stamping what it adds with the
        given dependency set, and count it; the trace entry is built,
        streamed and appended to the path only when someone listens."""
        if self.stats.steps >= self.cap:
            raise StepCapError(self.cap, self.cap_setting)
        labels, variables = len(tableau.systems), tableau.next_var
        tableau.stamp = stamp
        _extend(tableau, inst, branch)
        self.stats.count(inst.rule)
        self.stats.labels_created += len(tableau.systems) - labels
        self.stats.variables_created += tableau.next_var - variables
        on_step = self.options.on_step
        if self.options.trace or on_step is not None:
            entry = {
                "step": self.stats.steps,
                "rule": inst.rule,
                "label": inst.label,
                "branch": branch,
                "added": applied_constraints(inst, branch),
            }
            if on_step is not None:
                on_step(entry)
            if self.options.trace:
                path.append(entry)

    def run(self, tableau: CompletionSet) -> CompletionSet | None:
        """Depth-first search with dependency-directed backjumping from
        this state; the saturated clash-free state reached, or None when
        every branch clashes.

        Each step takes `next_instance` (checked against `find_applicable`
        by the tests) and reads the state's clash flag (checked against
        `is_clash`).  Deterministic steps extend the state in place.  A
        branch point is pushed on an explicit stack as [saved state,
        instance, next branch, trace length, premise set, failure set],
        and its first alternative runs on a copy.  Stack position i owns
        bit i of every dependency set: what a step adds is stamped with
        the premise set its agenda entry carries, the union of its
        premises' sets, plus the bit of the branch point it opens.  With
        no branch point open, every set is 0.

        On a clash, the branch points whose bit is not in the clash's set
        are popped untried: no choice of theirs can avoid it.  The newest
        one left adds the set, less its own bit, to its failure set, and
        its next alternative runs on another copy.  The last alternative
        runs on the saved state itself as the entry is popped, stamped
        with the premise set and the failure set instead of the bit, since
        every earlier alternative failed for the reasons recorded there.
        The trace path is cut back to the entry's length first.

        An R_or or R_cup instance with an alternative whose NNF negation
        the label holds (or that is a bottom concept) is decided before
        any branch point is opened: the other alternative, or the second
        when both are refuted, is applied in place, stamped with the
        premise set and the skipped alternative's refuter set.  Trying
        the refuted alternative would clash at once with exactly that set
        and leave the same stamp on the one that follows, so every later
        clash returns to the branch point it would have returned to
        through that failure; the step keeps its alternative's branch
        index in the trace.
        """
        stats, stack = self.stats, self.stack
        path: list[dict] = []
        while True:
            if tableau.clash:
                conflict = tableau.clash_deps
                while stack and not conflict >> (len(stack) - 1) & 1:
                    stack.pop()
                    stats.backjumps += 1
                if not stack:
                    return None
                frame = stack[-1]
                saved, inst, branch, depth, premises, failed = frame
                bit = 1 << (len(stack) - 1)
                failed |= conflict & ~bit
                del path[depth:]
                stats.backtracks += 1
                if branch + 1 < inst.branch_count:
                    frame[2] = branch + 1
                    frame[5] = failed
                    tableau = saved.copy()
                    stamp = premises | bit
                else:
                    stack.pop()
                    tableau = saved
                    stamp = premises | failed
                self._step(tableau, inst, branch, stamp, path)
                continue
            step = next_instance(tableau)
            if step is None:
                if self.options.trace:
                    self.trace = path
                return tableau
            inst, stamp = step
            branch = 0
            forced = (
                _forced_branch(tableau, inst)
                if inst.rule in (R_OR, R_SQCUP)
                else None
            )
            if forced is not None:
                stats.forced += 1
                branch, refuted = forced
                stamp |= refuted
            elif inst.branch_count > 1:
                stats.branch_points += 1
                stack.append([tableau, inst, 1, len(path), stamp, 0])
                tableau = tableau.copy()
                stamp |= 1 << (len(stack) - 1)
            self._step(tableau, inst, branch, stamp, path)


def solve(
    phi: Formula,
    frame_class: FrameClass,
    options: SolveOptions | None = None,
) -> SolveResult:
    """Decide satisfiability over varying-domain models of the class.

    SAT means some sequence of branch choices reaches a saturated
    clash-free completion set (found by depth-first search); UNSAT means
    every branch of the search tree ended in a clash.  On a clash the
    search jumps back to the newest branch point the clash depends on,
    skipping the alternatives of later ones, which would meet the same
    clash; it therefore reaches the same first saturated state as
    chronological backtracking, in fewer steps.  On SAT the
    result carries the final completion set and, when requested, the
    extracted countermodel (validated by default; validation failure is
    an engine bug, not an input error).  Result stats aggregate the whole
    search, including backtracked applications.
    """
    start = init(phi, frame_class)
    if options is None:
        options = SolveOptions()
    search = _Search(options)
    final = search.run(start)
    if final is None:
        return SolveResult("unsat", None, None, None, search.stats)
    model = None
    if options.extract:
        model = extraction.extract_model(final)
        if options.validate and not extraction.validate(
            model, start.phi, start.frame_class
        ):
            raise EngineError(
                "extracted model failed validation; "
                "the saturated state does not satisfy its own formula"
            )
    trace = search.trace if options.trace else None
    return SolveResult("sat", final, model, trace, search.stats)


# Bound last: `extraction` imports from this module, and it is looked up
# when `solve` runs.
from . import extraction  # noqa: E402
