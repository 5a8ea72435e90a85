"""Labelled tableau decision procedure for the four frame classes.

The search state is a completion set: one constraint system per label,
holding formula constraints, concept constraints on variables, and role
constraints between variables.  Rules either decompose constraints inside
a label, generate fresh variables (existential restrictions and refuted
inclusions), branch (disjunctions), or open a fresh label from box/diamond
premises, with the branching shape determined by the frame class.

Deterministic rules are applied before generating ones, generating before
branching, and label-creating last; branch alternatives are explored
depth-first in their given order, so runs are reproducible.  Rules only
ever add constraints, every payload stays inside the closure sets of the
input formula, and the label count is asserted against its theoretical
budget at every label creation.  A solve call owns its state exclusively;
distinct calls share nothing mutable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Callable, Iterable

from .semantics import FrameClass, NeighbourhoodModel
from .syntax import (
    And,
    AndF,
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
    Not,
    NotF,
    Or,
    OrF,
    Top,
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


class StaleInstanceError(ValueError):
    """The instance's application condition no longer holds."""


# ---------------------------------------------------------------------------
# Search state
# ---------------------------------------------------------------------------

class ConstraintSystem:
    """All constraints of one label, with its occurring variables."""

    __slots__ = ("label", "formulas", "concepts", "roles", "variables")

    def __init__(self, label: int):
        self.label = label
        self.formulas: set[Formula] = set()
        self.concepts: set[tuple[Concept, int]] = set()
        self.roles: set[tuple[str, int, int]] = set()
        self.variables: set[int] = set()

    def copy(self) -> "ConstraintSystem":
        dup = ConstraintSystem(self.label)
        dup.formulas = set(self.formulas)
        dup.concepts = set(self.concepts)
        dup.roles = set(self.roles)
        dup.variables = set(self.variables)
        return dup

    def concept_set(self, var: int) -> set[Concept]:
        return {c for c, v in self.concepts if v == var}

    def constraint_count(self) -> int:
        return len(self.formulas) + len(self.concepts) + len(self.roles)


@dataclass
class SolveStats:
    rule_applications: dict[str, int] = field(default_factory=dict)
    labels_created: int = 0
    variables_created: int = 0
    steps: int = 0

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
    """Union of labelled constraint systems plus allocation counters.

    Carries the normalized input formula and its closure so payload
    membership and label budgets can be checked.  Variables are ordered
    by their integer creation index (a global counter), which realizes
    the well-order used by freshness and blocking.
    """

    __slots__ = (
        "systems",
        "label_order",
        "next_label",
        "next_var",
        "phi",
        "closure",
    )

    def __init__(self, phi: Formula, phi_closure: Closure):
        self.systems: dict[int, ConstraintSystem] = {}
        self.label_order: list[int] = []
        self.next_label = 0
        self.next_var = 0
        self.phi = phi
        self.closure = phi_closure

    def copy(self) -> "CompletionSet":
        dup = CompletionSet(self.phi, self.closure)
        dup.systems = {n: s.copy() for n, s in self.systems.items()}
        dup.label_order = list(self.label_order)
        dup.next_label = self.next_label
        dup.next_var = self.next_var
        return dup

    # -- allocation ---------------------------------------------------------

    def new_label(self, frame_class: FrameClass) -> ConstraintSystem:
        bound = label_budget(self.closure.fg_size, frame_class)
        if len(self.label_order) + 1 > bound:
            raise EngineError(
                f"label budget exceeded: {len(self.label_order) + 1} > {bound}"
            )
        label = self.next_label
        self.next_label += 1
        system = ConstraintSystem(label)
        self.systems[label] = system
        self.label_order.append(label)
        return system

    def new_variable(self) -> int:
        var = self.next_var
        self.next_var += 1
        return var

    # -- mutation -----------------------------------------------------------

    def add_formula(self, label: int, psi: Formula) -> None:
        if psi not in self.closure.for_neg:
            raise EngineError(f"formula outside closure: {serialize(psi)}")
        self.systems[label].formulas.add(psi)

    def add_concept(self, label: int, concept: Concept, var: int) -> None:
        if concept not in self.closure.con_neg:
            raise EngineError(f"concept outside closure: {serialize(concept)}")
        system = self.systems[label]
        system.concepts.add((concept, var))
        if var not in system.variables:
            system.variables.add(var)
            system.concepts.add((TOP, var))

    def add_role(self, label: int, role: str, x: int, y: int) -> None:
        if role not in self.closure.roles:
            raise EngineError(f"role outside closure: {role}")
        system = self.systems[label]
        system.roles.add((role, x, y))
        for var in (x, y):
            if var not in system.variables:
                system.variables.add(var)
                system.concepts.add((TOP, var))


def label_budget(fg_size: int, frame_class: FrameClass) -> int:
    """Largest label count any run may create for this input size."""
    if frame_class is FrameClass.C:
        return (2**fg_size) * fg_size
    return fg_size * fg_size


def init(phi: Formula) -> CompletionSet:
    """Initial completion set: the formula and one domain seed at label 0."""
    tableau = CompletionSet(phi, closure(phi))
    system = tableau.new_label(FrameClass.E)
    var = tableau.new_variable()
    system.formulas.add(phi)
    system.variables.add(var)
    system.concepts.add((TOP, var))
    return tableau


# ---------------------------------------------------------------------------
# Clash and blocking
# ---------------------------------------------------------------------------

def is_clash(tableau: CompletionSet) -> bool:
    """A label holding some constraint together with its NNF negation,
    or a bottom concept on any variable."""
    for system in tableau.systems.values():
        for psi in system.formulas:
            if neg_nnf(psi) in system.formulas:
                return True
        for concept, var in system.concepts:
            if isinstance(concept, Bot):
                return True
            if (neg_nnf(concept), var) in system.concepts:
                return True
    return False


def blockers(var: int, system: ConstraintSystem) -> list[int]:
    """Subset blocking: the older variables whose concept sets cover this
    one's, in ascending order.  The variable is blocked when the list is
    non-empty."""
    mine = system.concept_set(var)
    return [
        other
        for other in sorted(system.variables)
        if other < var and mine <= system.concept_set(other)
    ]


# ---------------------------------------------------------------------------
# Rule instances
# ---------------------------------------------------------------------------

#: A branch item targets the instance's fresh label (rule R_L) or its own
#: label: ("formula", psi), ("concept", C, var), or the R_exists descriptor
#: ("exists", role, var, target-concept) whose witness is allocated on
#: application.
BranchItem = tuple


@dataclass(frozen=True)
class RuleInstance:
    rule: str
    label: int
    #: For in-label rules each branch lists items added to `label`; for R_L
    #: every branch is added to a fresh label allocated at application time.
    #: R_exists and R_neq allocate one fresh variable per application.
    branches: tuple[tuple[BranchItem, ...], ...]
    frame_class: FrameClass | None = None
    #: Unit-class diamond-alone instances on a concept carry the premise
    #: variable: an empty branch (a label the variable is absent from) is an
    #: alternative, and any existing label without the variable already
    #: settles the instance.
    absent_variable: int | None = None

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
    if item[0] == "formula":
        return (0, sort_key(item[1]), -1, "")
    if item[0] == "concept":
        return (1, sort_key(item[1]), item[2], "")
    return (2, sort_key(item[3]), item[2], item[1])


def _instance_key(inst: RuleInstance, label_pos: dict[int, int]):
    return (
        _PRIORITY[inst.rule],
        label_pos[inst.label],
        inst.rule,
        tuple(_item_key(i) for b in inst.branches for i in b),
    )


def _formula_item(psi: Formula) -> BranchItem:
    return ("formula", psi)


def _concept_item(concept: Concept, var: int) -> BranchItem:
    return ("concept", concept, var)


def _neg_item(item: BranchItem) -> BranchItem:
    if item[0] == "formula":
        return ("formula", neg_nnf(item[1]))
    return ("concept", neg_nnf(item[1]), item[2])


def _holds_in(system: ConstraintSystem, item: BranchItem) -> bool:
    if item[0] == "formula":
        return item[1] in system.formulas
    return (item[1], item[2]) in system.concepts


def _some_branch_realized(
    tableau: CompletionSet, branches: tuple[tuple[BranchItem, ...], ...]
) -> bool:
    for system in tableau.systems.values():
        for branch in branches:
            if all(_holds_in(system, item) for item in branch):
                return True
    return False


def _label_instances(
    tableau: CompletionSet, system: ConstraintSystem
) -> Iterable[RuleInstance]:
    label = system.label
    for psi in system.formulas:
        if isinstance(psi, AndF):
            if not (
                psi.left in system.formulas and psi.right in system.formulas
            ):
                yield RuleInstance(
                    R_AND,
                    label,
                    ((_formula_item(psi.left), _formula_item(psi.right)),),
                )
        elif isinstance(psi, OrF):
            if (
                psi.left not in system.formulas
                and psi.right not in system.formulas
            ):
                yield RuleInstance(
                    R_OR,
                    label,
                    (
                        (_formula_item(psi.left),),
                        (_formula_item(psi.right),),
                    ),
                )
        elif isinstance(psi, CI):
            for var in system.variables:
                if (psi.right, var) not in system.concepts:
                    yield RuleInstance(
                        R_EQ,
                        label,
                        ((_concept_item(psi.right, var),),),
                    )
        elif isinstance(psi, NotF):
            negated = neg_nnf(psi.arg.right)
            if not any(c == negated for c, _ in system.concepts):
                yield RuleInstance(
                    R_NEQ,
                    label,
                    ((_concept_item(negated, -1),),),
                )
    for concept, var in system.concepts:
        if isinstance(concept, And):
            if not (
                (concept.left, var) in system.concepts
                and (concept.right, var) in system.concepts
            ):
                yield RuleInstance(
                    R_SQCAP,
                    label,
                    (
                        (
                            _concept_item(concept.left, var),
                            _concept_item(concept.right, var),
                        ),
                    ),
                )
        elif isinstance(concept, Or):
            if (concept.left, var) not in system.concepts and (
                concept.right,
                var,
            ) not in system.concepts:
                yield RuleInstance(
                    R_SQCUP,
                    label,
                    (
                        (_concept_item(concept.left, var),),
                        (_concept_item(concept.right, var),),
                    ),
                )
        elif isinstance(concept, Exists):
            has_witness = any(
                (concept.role, var, z) in system.roles
                and (concept.arg, z) in system.concepts
                for z in system.variables
            )
            if not has_witness and not blockers(var, system):
                yield RuleInstance(
                    R_EXISTS,
                    label,
                    ((("exists", concept.role, var, concept.arg),),),
                )
        elif isinstance(concept, Forall):
            for role, x, y in system.roles:
                if (
                    role == concept.role
                    and x == var
                    and (concept.arg, y) not in system.concepts
                ):
                    yield RuleInstance(
                        R_FORALL,
                        label,
                        ((_concept_item(concept.arg, y),),),
                    )


def _modal_premises(system: ConstraintSystem):
    """Bodies of a system's box and diamond constraints as branch items,
    grouped by modality index."""
    boxes: dict[int, list[BranchItem]] = {}
    dias: dict[int, list[BranchItem]] = {}
    for psi in system.formulas:
        if isinstance(psi, BoxF):
            boxes.setdefault(psi.index, []).append(_formula_item(psi.arg))
        elif isinstance(psi, DiaF):
            dias.setdefault(psi.index, []).append(_formula_item(psi.arg))
    for concept, var in system.concepts:
        if isinstance(concept, Box):
            boxes.setdefault(concept.index, []).append(
                _concept_item(concept.arg, var)
            )
        elif isinstance(concept, Dia):
            dias.setdefault(concept.index, []).append(
                _concept_item(concept.arg, var)
            )
    for items in (*boxes.values(), *dias.values()):
        items.sort(key=_item_key)
    return boxes, dias


def _nonempty_subsets(items: list) -> Iterable[tuple]:
    """Non-empty subsets of a list as tuples keeping the list's order:
    by size, and within one size in the lexicographic order of positions
    (the order of `itertools.combinations`)."""
    return chain.from_iterable(
        combinations(items, size) for size in range(1, len(items) + 1)
    )


def _modal_instances(
    tableau: CompletionSet,
    system: ConstraintSystem,
    frame_class: FrameClass,
) -> Iterable[RuleInstance]:
    boxes, dias = _modal_premises(system)
    label = system.label
    for index, dia_list in sorted(dias.items()):
        box_list = boxes.get(index, [])
        for delta_item in dia_list:
            if frame_class is FrameClass.N:
                # Unit shape: the diamond alone demands a label carrying its
                # body.  For a concept body the demand is met just as well by
                # a world its variable is absent from (varying domains), so
                # such an instance offers an empty branch and is settled by
                # any label lacking the variable.
                if delta_item[0] == "formula":
                    branches = ((delta_item,),)
                    if not _some_branch_realized(tableau, branches):
                        yield RuleInstance(
                            R_L, label, branches, frame_class=frame_class
                        )
                else:
                    var = delta_item[2]
                    settled = _some_branch_realized(
                        tableau, ((delta_item,),)
                    ) or any(
                        var not in s.variables
                        for s in tableau.systems.values()
                    )
                    if not settled:
                        yield RuleInstance(
                            R_L,
                            label,
                            ((delta_item,), ()),
                            frame_class=frame_class,
                            absent_variable=var,
                        )
            if frame_class is FrameClass.C:
                for gamma_items in _nonempty_subsets(box_list):
                    branches = (gamma_items + (delta_item,),) + tuple(
                        (_neg_item(g), _neg_item(delta_item))
                        for g in gamma_items
                    )
                    if not _some_branch_realized(tableau, branches):
                        yield RuleInstance(
                            R_L, label, branches, frame_class=frame_class
                        )
            else:
                for gamma_item in box_list:
                    if frame_class is FrameClass.M:
                        branches = ((gamma_item, delta_item),)
                    else:  # E and the paired shape of N
                        branches = (
                            (gamma_item, delta_item),
                            (_neg_item(gamma_item), _neg_item(delta_item)),
                        )
                    if not _some_branch_realized(tableau, branches):
                        yield RuleInstance(
                            R_L, label, branches, frame_class=frame_class
                        )


def find_applicable(
    tableau: CompletionSet, frame_class: FrameClass
) -> list[RuleInstance]:
    """All rule instances whose premises and application condition hold,
    ordered by rule priority and a canonical key."""
    label_pos = {n: i for i, n in enumerate(tableau.label_order)}
    instances: list[RuleInstance] = []
    for label in tableau.label_order:
        system = tableau.systems[label]
        instances.extend(_label_instances(tableau, system))
        instances.extend(_modal_instances(tableau, system, frame_class))
    instances.sort(key=lambda inst: _instance_key(inst, label_pos))
    return instances


def is_complete(tableau: CompletionSet, frame_class: FrameClass) -> bool:
    return not find_applicable(tableau, frame_class)


# ---------------------------------------------------------------------------
# Rule application
# ---------------------------------------------------------------------------

def _check_not_stale(tableau: CompletionSet, inst: RuleInstance) -> None:
    if inst.rule == R_L:
        filled = tuple(b for b in inst.branches if b)
        settled = _some_branch_realized(tableau, filled)
        if inst.absent_variable is not None:
            settled = settled or any(
                inst.absent_variable not in s.variables
                for s in tableau.systems.values()
            )
        if settled:
            raise StaleInstanceError(f"{inst.rule} already realized by a label")
        return
    system = tableau.systems[inst.label]
    if inst.rule in (R_AND, R_SQCAP, R_EQ, R_FORALL):
        branch = inst.branches[0]
        if all(_holds_in(system, item) for item in branch):
            raise StaleInstanceError(f"{inst.rule} conclusions already present")
    elif inst.rule in (R_OR, R_SQCUP):
        if any(
            _holds_in(system, item) for branch in inst.branches for item in branch
        ):
            raise StaleInstanceError(f"{inst.rule} some alternative present")
    elif inst.rule == R_NEQ:
        negated = inst.branches[0][0][1]
        if any(c == negated for c, _ in system.concepts):
            raise StaleInstanceError("R_neq witness already present")
    elif inst.rule == R_EXISTS:
        _, role, var, target = inst.branches[0][0]
        if blockers(var, system) or any(
            (role, var, z) in system.roles and (target, z) in system.concepts
            for z in system.variables
        ):
            raise StaleInstanceError("R_exists witness present or variable blocked")


def apply(
    tableau: CompletionSet, inst: RuleInstance, branch: int
) -> CompletionSet:
    """New completion set with the chosen branch's constraints added.

    Fresh variables take the next global index (trivially the least fresh
    one for the target system); fresh labels take the next unused id and
    are seeded with a domain variable when the branch puts no variable in
    them.
    """
    if not 0 <= branch < inst.branch_count:
        raise ValueError(f"branch {branch} out of range")
    _check_not_stale(tableau, inst)
    out = tableau.copy()
    if inst.rule == R_L:
        system = out.new_label(inst.frame_class or FrameClass.E)
        for item in inst.branches[branch]:
            if item[0] == "formula":
                out.add_formula(system.label, item[1])
            else:
                out.add_concept(system.label, item[1], item[2])
        if not system.variables:
            # Domains are non-empty: labels reached only through formula
            # constraints still describe a world with at least one element.
            seed = out.new_variable()
            system.variables.add(seed)
            system.concepts.add((TOP, seed))
        return out
    label = inst.label
    for item in inst.branches[branch]:
        if item[0] == "formula":
            out.add_formula(label, item[1])
        elif item[0] == "concept":
            var = item[2]
            if var == -1:  # R_neq allocates its witness here
                var = out.new_variable()
            out.add_concept(label, item[1], var)
        else:  # ("exists", role, var, target)
            _, role, var, target = item
            fresh = out.new_variable()
            out.add_role(label, role, var, fresh)
            out.add_concept(label, target, fresh)
    return out


def applied_constraints(
    tableau: CompletionSet, inst: RuleInstance, branch: int
) -> list[str]:
    """Human/trace rendering of what a branch would add (without applying)."""
    out = []
    for item in inst.branches[branch]:
        if item[0] == "formula":
            out.append(f"{serialize(item[1])}")
        elif item[0] == "concept":
            out.append(f"{serialize(item[1])}(x{item[2]})")
        else:
            out.append(f"{item[1]}(x{item[2]}, fresh)")
    return out


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------

@dataclass
class SolveOptions:
    extract: bool = True
    validate: bool = True
    trace: bool = False
    step_cap: int | None = None
    on_step: Callable[[dict], None] | None = None


@dataclass
class SolveResult:
    verdict: str  # "sat" | "unsat"
    completion: CompletionSet | None
    model: NeighbourhoodModel | None
    trace: list[dict] | None
    stats: SolveStats


def _step_cap(options: SolveOptions) -> int:
    if options.step_cap is not None:
        return options.step_cap
    env = os.environ.get(STEP_CAP_ENV)
    if env:
        return int(env)
    return DEFAULT_STEP_CAP


class _Search:
    def __init__(self, frame_class: FrameClass, options: SolveOptions):
        self.frame_class = frame_class
        self.options = options
        self.cap = _step_cap(options)
        self.stats = SolveStats()
        self.trace: list[dict] = []

    def _step(
        self,
        tableau: CompletionSet,
        inst: RuleInstance,
        branch: int,
        path: list[dict],
    ) -> CompletionSet:
        """Apply one branch and count it; the trace entry is built, streamed
        and appended to the path only when someone listens."""
        if self.stats.steps >= self.cap:
            raise EngineError(
                f"step cap {self.cap} exceeded; raise {STEP_CAP_ENV} "
                "if the input is legitimately this large"
            )
        nxt = apply(tableau, inst, branch)
        self.stats.count(inst.rule)
        self.stats.labels_created += len(nxt.label_order) - len(tableau.label_order)
        self.stats.variables_created += nxt.next_var - tableau.next_var
        on_step = self.options.on_step
        if self.options.trace or on_step is not None:
            entry = {
                "step": self.stats.steps,
                "rule": inst.rule,
                "label": inst.label,
                "branch": branch,
                "added": applied_constraints(tableau, inst, branch),
            }
            if on_step is not None:
                on_step(entry)
            if self.options.trace:
                path.append(entry)
        return nxt

    def run(self, tableau: CompletionSet, path: list[dict]) -> CompletionSet | None:
        """Depth-first search from this state.  `path` holds the trace of
        the current branch; a failed alternative is cut back off it."""
        while True:
            if is_clash(tableau):
                return None
            instances = find_applicable(tableau, self.frame_class)
            if not instances:
                if self.options.trace:
                    self.trace = path
                return tableau
            inst = instances[0]
            if inst.branch_count == 1:
                tableau = self._step(tableau, inst, 0, path)
                continue
            depth = len(path)
            for branch in range(inst.branch_count):
                nxt = self._step(tableau, inst, branch, path)
                result = self.run(nxt, path)
                if result is not None:
                    return result
                del path[depth:]
            return None


def solve(
    phi: Formula,
    frame_class: FrameClass,
    options: SolveOptions | None = None,
) -> SolveResult:
    """Decide satisfiability over varying-domain models of the class.

    SAT means some sequence of branch choices reaches a saturated
    clash-free completion set (found by depth-first backtracking); UNSAT
    means every branch of the search tree ended in a clash.  On SAT the
    result carries the final completion set and, when requested, the
    extracted countermodel (validated by default; validation failure is
    an engine bug, not an input error).  Result stats aggregate the whole
    search, including backtracked applications.
    """
    if options is None:
        options = SolveOptions()
    phi = normalize(phi)
    search = _Search(frame_class, options)
    final = search.run(init(phi), [])
    if final is None:
        return SolveResult("unsat", None, None, None, search.stats)
    model = None
    if options.extract:
        from .extraction import extract_model, validate

        model = extract_model(final, frame_class)
        if options.validate and not validate(model, phi, frame_class):
            raise EngineError(
                "extracted model failed validation; "
                "the saturated state does not satisfy its own formula"
            )
    trace = search.trace if options.trace else None
    return SolveResult("sat", final, model, trace, search.stats)
