"""The incremental search against the whole-state references.

The search picks each rule instance with `next_instance` and reads the
state's clash flag; `find_applicable` and `is_clash` recompute both from
the whole state.  These tests run the real search with checking wrappers
around the functions it looks up, so every state it visits is compared.
The same wrappers hold the `holders` index to the label sets it mirrors,
and its settledness answers to the label scan.  At every pop they check
the premise set the agenda entry carries against the stored sets of the
premises rebuilt here from the instance's branches, after every step each
label's stored dependency sets against the open branch points, and at
every clash the recorded set against the clashing constraints' stored
sets.
"""

import random
import time
from itertools import chain

import pytest

from nnmdl import tableau
from nnmdl.semantics import FrameClass
from nnmdl.syntax import (
    And,
    AndF,
    AtomicConcept,
    BOT,
    Box,
    BoxF,
    CI,
    Dia,
    DiaF,
    Exists,
    Forall,
    Formula,
    Not,
    NotF,
    Or,
    OrF,
    TOP,
    neg_nnf,
)
from nnmdl.tableau import (
    R_AND,
    R_EQ,
    R_EXISTS,
    R_FORALL,
    R_L,
    R_NEQ,
    R_OR,
    R_SQCAP,
    R_SQCUP,
    SolveOptions,
    blockers,
    find_applicable,
    init,
    is_clash,
    next_instance,
    solve,
)

from corpus import random_normalized_formula
from test_search_pin import box_dia, c_boxes, or_chain, some_fan


class CheckedSearch:
    """Wraps the search's instance choice and in-place extension with
    comparisons against the references, counting what it saw."""

    def __init__(self, monkeypatch):
        self.real_next = tableau.next_instance
        self.real_extend = tableau._extend
        self.real_settled = tableau._settled
        self.real_step = tableau._Search._step
        self.choices = 0
        self.parked: set = set()
        self.parked_then_chosen = 0
        self.clashes = 0
        self.settled_by_absence = 0
        self.saved: dict[int, tuple] = {}  # id(frame): (frame, snapshot)
        monkeypatch.setattr(tableau, "next_instance", self.next_instance)
        monkeypatch.setattr(tableau, "_extend", self.extend)
        monkeypatch.setattr(tableau, "_settled", self.settled)
        monkeypatch.setattr(tableau._Search, "_step", self.step_wrapper())

    def next_instance(self, state):
        assert not is_clash(state)
        expected = find_applicable(state)
        step = self.real_next(state)
        inst = step and step[0]
        assert inst == (expected[0] if expected else None)
        if step is not None:
            assert step[1] == premise_deps(state.systems[inst.label], inst)
        self.choices += 1
        self.parked_then_chosen += inst in self.parked
        self.check_agenda(state)
        return step

    def extend(self, state, inst, branch):
        self.real_extend(state, inst, branch)
        assert state.clash == is_clash(state)
        assert state.holders == holders_from_systems(state)
        if inst.rule not in (R_EXISTS, R_NEQ):
            # Branch items are the index keys of what they add: R_L's to
            # its fresh label, the others' to their own.
            label = len(state.systems) - 1 if inst.rule == R_L else inst.label
            for item in inst.branches[branch]:
                assert state.holders[item] >> label & 1
        self.clashes += state.clash

    def settled(self, state, inst):
        answer = self.real_settled(state, inst)
        assert answer == tableau._settled_by_scan(state, inst)
        filled = tuple(b for b in inst.branches if b)
        if answer and not tableau._some_branch_realized(state, filled):
            self.settled_by_absence += 1
        return answer

    def step_wrapper(self):
        checked = self

        def step(search, state, inst, branch, stamp, path):
            checked.snapshot_new_frames(search.stack)
            before = constraint_sets(state)
            checked.real_step(search, state, inst, branch, stamp, path)
            checked.check_saved_states(search.stack)
            for key, deps in constraint_sets(state).items():
                assert deps == before.get(key, stamp)
            open_bits = (1 << len(search.stack)) - 1
            for system in state.systems:
                for deps in stored_sets(system).values():
                    assert deps & ~open_bits == 0
            if state.clash:
                assert state.clash_deps & ~open_bits == 0
                assert state.clash_deps in clash_unions(state)

        return step

    def snapshot_new_frames(self, stack):
        """Record the saved state of each frame pushed since the last step,
        before any step has run on a copy of it."""
        saved = {}
        for frame in stack:
            entry = self.saved.get(id(frame))
            if entry is None or entry[0] is not frame:
                entry = (frame, label_contents(frame[0]))
            saved[id(frame)] = entry
        self.saved = saved

    def check_saved_states(self, stack):
        """Copies share label systems with the states they were copied
        from: a step on a copy must leave every saved state as it was."""
        for frame in stack:
            entry = self.saved.get(id(frame))
            if entry is not None and entry[0] is frame:
                assert label_contents(frame[0]) == entry[1]

    def check_agenda(self, state):
        """No candidate twice, and every parked one blocked, unwitnessed
        R_exists for the variable it is parked under."""
        entries = list(state.agenda)
        for (label, var), parked in state.parked.items():
            system = state.systems[label]
            assert blockers(var, system)
            for entry in parked:
                inst = entry[1][0]
                assert inst.rule == R_EXISTS and inst.label == label
                _, role, source, target = inst.branches[0][0]
                assert source == var
                assert not tableau._witnessed(system, role, var, target)
                self.parked.add(inst)
            entries.extend(parked)
        keys = [entry[0] for entry in entries]
        assert len(keys) == len(set(keys))


class CopyCount:
    """Counts label-system copies: a branch point shares its labels with
    the saved state, and a step copies only a shared label it writes."""

    def __init__(self, monkeypatch):
        self.copies = 0
        real_copy = tableau.ConstraintSystem.copy

        def copy(system):
            self.copies += 1
            return real_copy(system)

        monkeypatch.setattr(tableau.ConstraintSystem, "copy", copy)

    def solve(self, phi, frame_class):
        """Solve without extraction; the result and the copies it made."""
        self.copies = 0
        result = solve(phi, frame_class, SolveOptions(extract=False))
        return result, self.copies


def concept_pairs(system):
    """A label's concept constraints as (concept, variable) pairs, each
    with the dependency set it stores: the one reader of the concept
    store's layout in the tests."""
    return {
        (concept, var): deps
        for var, held in system.concepts.items()
        for concept, deps in held.items()
    }


def holders_from_systems(state):
    """The `holders` index recomputed from the label sets."""
    masks = {}
    for label, system in enumerate(state.systems):
        for key in chain(system.formulas, concept_pairs(system)):
            masks[key] = masks.get(key, 0) | 1 << label
    return masks


def label_contents(state):
    """Each label's constraints with their stored sets, as values; every
    variable of a label holds top, so its pairs name its variables."""
    return [
        (
            frozenset(s.formulas.items()),
            frozenset(concept_pairs(s).items()),
            frozenset(s.roles.items()),
        )
        for s in state.systems
    ]


def stored_sets(system):
    """A label's constraints, each with the dependency set it stores."""
    return {**system.formulas, **concept_pairs(system), **system.roles}


def modal_key(index, item, box):
    """The store key of the box (or diamond) of this index around a body."""
    if isinstance(item, Formula):
        return (BoxF if box else DiaF)(index, item)
    concept, var = item
    return ((Box if box else Dia)(index, concept), var)


def premise_keys(system, inst):
    """The store keys, within the instance's label, of the constraints that
    complete an instance, rebuilt from its branches.

    Normalized inclusions read top <= C, so R_eq and R_neq rebuild theirs
    from C; R_eq also rests on its variable occurring, which is the
    variable's top.  R_forall and R_L do not carry the role source or the
    modality index, so they take every premise group the label holds that
    completes them."""
    rule = inst.rule
    first = inst.branches[0]
    if rule == R_EQ:
        concept, var = first[0]
        return [CI(TOP, concept), (TOP, var)]
    if rule == R_AND:
        return [AndF(*first)]
    if rule == R_SQCAP:
        (left, var), (right, _) = first
        return [(And(left, right), var)]
    if rule == R_SQCUP:
        (left, var), (right, _) = first[0], inst.branches[1][0]
        return [(Or(left, right), var)]
    if rule == R_OR:
        return [OrF(first[0], inst.branches[1][0])]
    if rule == R_EXISTS:
        _, role, var, target = first[0]
        return [(Exists(role, target), var)]
    if rule == R_NEQ:
        return [NotF(CI(TOP, neg_nnf(first[0][0])))]
    held = stored_sets(system)
    keys = []
    if rule == R_FORALL:
        concept, y = first[0]
        for role, x, z in system.roles:
            if z == y and (Forall(role, concept), x) in held:
                keys += [(role, x, y), (Forall(role, concept), x)]
        return keys
    # R_L: the diamond is the first branch's last item, the boxes the rest.
    *gamma, delta = first
    indices = {
        term.index
        for term in chain(system.formulas, (c for c, _ in concept_pairs(system)))
        if isinstance(term, (BoxF, DiaF, Box, Dia))
    }
    for index in sorted(indices):
        group = [modal_key(index, g, True) for g in gamma]
        group.append(modal_key(index, delta, False))
        if all(key in held for key in group):
            keys += group
    return keys


def premise_deps(system, inst):
    """The union of the stored sets of an instance's rebuilt premises,
    each of which the label holds."""
    keys = premise_keys(system, inst)
    assert keys
    stored = stored_sets(system)
    deps = 0
    for key in keys:
        deps |= stored[key]
    return deps


def constraint_sets(state):
    """Every constraint of the state as (label, key), with its set."""
    return {
        (label, key): deps
        for label, system in enumerate(state.systems)
        for key, deps in stored_sets(system).items()
    }


def clash_unions(state):
    """The union of the stored dependency sets of each clashing pair (a
    bottom concept's own set)."""
    unions = set()
    for system in state.systems:
        formulas, concepts = system.formulas, concept_pairs(system)
        for psi, deps in formulas.items():
            if neg_nnf(psi) in formulas:
                unions.add(deps | formulas[neg_nnf(psi)])
        for (concept, var), deps in concepts.items():
            if concept == BOT:
                unions.add(deps)
            elif (neg_nnf(concept), var) in concepts:
                unions.add(deps | concepts[(neg_nnf(concept), var)])
    return unions


def test_agenda_matches_find_applicable_on_corpus(monkeypatch):
    checked = CheckedSearch(monkeypatch)
    rng = random.Random(4242)
    # 100 formulas miss some C subset and R_forall triggers; 300 reach them.
    formulas = [random_normalized_formula(rng) for _ in range(300)]
    for phi in formulas:
        for fc in FrameClass:
            solve(phi, fc, SolveOptions(extract=False))
    assert checked.choices > 1500
    assert checked.parked  # blocked R_exists instances were parked


def test_a_step_copies_at_most_one_label_system(monkeypatch):
    # Each step writes one label, so it copies at most one shared system.
    counted = CopyCount(monkeypatch)
    rng = random.Random(4242)
    formulas = [random_normalized_formula(rng) for _ in range(300)]
    for phi in formulas:
        for fc in FrameClass:
            result, copies = counted.solve(phi, fc)
            assert copies <= result.stats.steps


def test_box_dia_branch_points_copy_no_label_system(monkeypatch):
    # Every R_L alternative writes only the label it creates; copying each
    # label at each of the 12 branch points made 78 copies.
    counted = CopyCount(monkeypatch)
    for fc in (FrameClass.E, FrameClass.N):
        result, copies = counted.solve(box_dia(12), fc)
        assert result.verdict == "sat"
        assert result.stats.branch_points == 12
        assert copies == 0


def test_clash_flag_on_formula_and_concept_pairs(monkeypatch):
    checked = CheckedSearch(monkeypatch)
    P = CI(TOP, AtomicConcept("A"))
    Q = CI(TOP, AtomicConcept("B"))
    formulas = [
        AndF(P, NotF(P)),  # inclusion and its refutation
        AndF(BoxF(1, P), DiaF(1, neg_nnf(P))),  # box and its dual diamond
        OrF(AndF(P, NotF(P)), Q),  # a clash, then the second alternative
        DiaF(1, AndF(P, NotF(P))),  # the clash sits in a fresh label
        CI(TOP, BOT),  # a bottom concept
    ]
    for phi in formulas:
        for fc in FrameClass:
            solve(phi, fc, SolveOptions(extract=False))
    # One clash per solve, except that the lone diamond opens a label only
    # under N.
    assert checked.clashes == 4 * len(formulas) - 3


def test_unblocked_variable_gets_its_successor(monkeypatch):
    # x1, the successor of the root x0, starts as a copy of x0 and is
    # blocked.  A at x0 clashes whatever x1 chose, so the search jumps back
    # over x1's disjunction and gives x0 B; x1 then takes A, which x0 lacks:
    # x1 is unblocked, its parked R_exists fires, and the successor's bottom
    # refutes A at x1.
    checked = CheckedSearch(monkeypatch)
    A, B = AtomicConcept("A"), AtomicConcept("B")
    phi = AndF(
        AndF(CI(TOP, Exists("r", TOP)), CI(TOP, Or(A, B))),
        CI(TOP, Or(Not(A), Forall("r", BOT))),
    )
    result = solve(phi, FrameClass.E, SolveOptions(extract=False))
    assert result.verdict == "sat"
    assert result.stats.steps == 24
    assert checked.parked_then_chosen == 1


def test_agenda_matches_find_applicable_on_c_boxes(monkeypatch):
    checked = CheckedSearch(monkeypatch)
    result = solve(c_boxes(3), FrameClass.C, SolveOptions(extract=False))
    assert result.verdict == "unsat"
    assert checked.choices > result.stats.steps / 2


@pytest.mark.parametrize("n", [3, 4, 5])
def test_agenda_matches_find_applicable_on_some_fan(monkeypatch, n):
    # Many variables per label, most of them blocked by an older one.
    checked = CheckedSearch(monkeypatch)
    for fc in FrameClass:
        result = solve(some_fan(n), fc, SolveOptions(extract=False))
        assert result.verdict == "sat"
    assert checked.parked


@pytest.mark.parametrize("n, steps", [(8, 656), (10, 1220)])
def test_some_fan_step_counts(n, steps):
    # Blocking reads each variable's own concepts; scanning every pair of
    # the label once per older variable took 0.43 and 2.2 s on 2 vCPUs.
    started = time.perf_counter()
    result = solve(some_fan(n), FrameClass.E, SolveOptions(extract=False))
    elapsed = time.perf_counter() - started
    assert result.verdict == "sat"
    assert result.stats.steps == steps
    print(f"\nsome_fan({n}) under E: {steps} steps in {elapsed:.2f} s")


def test_some_fan_12_model_lends_role_edges_to_blocked_variables():
    # 157 variables in one label, 144 of them blocked: each borrows its
    # blocker's edges, and the model is validated.
    result = solve(some_fan(12), FrameClass.E)
    assert result.verdict == "sat"
    system = result.completion.systems[0]
    variables = {var for _, var in concept_pairs(system)}
    blocked = [var for var in variables if blockers(var, system)]
    assert (len(variables), len(blocked)) == (157, 144)
    assert len(result.model.roles["0"]["r"]) == len(variables) * 12


def test_a_push_joins_premises_of_different_branch_points(monkeypatch):
    # Branch point 0's first alternative adds one premise, and branch point
    # 1's first alternative, or a constraint resting on no branch point,
    # completes the instance: the role edge of 0 meets the inclusion and
    # the value restriction of 1 (R_eq and R_forall, pushed as the later
    # premise is stored), and under C the box of 0 meets the box of none
    # in one box subset.  The carried sets are checked at every pop.
    checked = CheckedSearch(monkeypatch)
    A, B, C = AtomicConcept("A"), AtomicConcept("B"), AtomicConcept("C")
    roles = AndF(
        OrF(CI(TOP, And(AtomicConcept("A0"), Exists("r", A))), CI(TOP, C)),
        OrF(CI(TOP, And(AtomicConcept("B0"), Forall("r", B))), CI(TOP, C)),
    )
    boxes = AndF(
        AndF(OrF(BoxF(1, CI(TOP, A)), CI(TOP, C)), BoxF(1, CI(TOP, B))),
        DiaF(1, CI(TOP, C)),
    )
    for phi, frame_class in ((roles, FrameClass.E), (boxes, FrameClass.C)):
        result = solve(phi, frame_class, SolveOptions(extract=False))
        assert result.verdict == "sat"
        assert result.stats.branch_points == 2
    assert checked.choices == 28


def test_c_boxes_4_step_and_label_counts():
    # Past the search pin's sizes.  Chronological backtracking needed
    # 17,624 steps and 7,827 labels here.
    started = time.perf_counter()
    result = solve(c_boxes(4), FrameClass.C, SolveOptions(extract=False))
    elapsed = time.perf_counter() - started
    assert result.verdict == "unsat"
    assert result.stats.steps == 61
    assert result.stats.labels_created == 24
    print(f"\nc_boxes(4) under C: 61 steps in {elapsed:.2f} s")


@pytest.mark.parametrize(
    "phi, frame_class, pushes",
    [
        (c_boxes(4), FrameClass.C, 292),
        (box_dia(6), FrameClass.E, 24),
        (box_dia(6), FrameClass.M, 24),
        (box_dia(6), FrameClass.C, 76),
        (box_dia(6), FrameClass.N, 25),
    ],
    ids=["c_boxes4-C", "box_dia6-E", "box_dia6-M", "box_dia6-C", "box_dia6-N"],
)
def test_agenda_push_counts_are_pinned(monkeypatch, phi, frame_class, pushes):
    # The agenda's heads are checked against `find_applicable`, its size
    # is not: an instance pushed twice, or an R_L instance built for a
    # box subset that does not hold the new box, leaves every head and
    # verdict as it was and changes these counts.
    calls = []
    real_push = tableau.CompletionSet._push

    def counting(state, inst, deps):
        calls.append(inst)
        real_push(state, inst, deps)

    monkeypatch.setattr(tableau.CompletionSet, "_push", counting)
    solve(phi, frame_class, SolveOptions(extract=False))
    assert len(calls) == pushes


@pytest.mark.parametrize(
    "phi, frame_class, choices, rebuilds",
    [
        (c_boxes(4), FrameClass.C, 255, 9),
        (box_dia(6), FrameClass.E, 6, 7),
        (box_dia(6), FrameClass.M, 6, 7),
        (box_dia(6), FrameClass.C, 63, 7),
        (box_dia(6), FrameClass.N, 6, 7),
    ],
    ids=["c_boxes4-C", "box_dia6-E", "box_dia6-M", "box_dia6-C", "box_dia6-N"],
)
def test_modal_enumeration_counts_are_pinned(
    monkeypatch, phi, frame_class, choices, rebuilds
):
    # Work that pushes nothing leaves the push counts as they were.  A box
    # added before any diamond of its index enumerates no box choice, and a
    # new box enumerates only the choices holding it (under C, 2**(n-1) of
    # 2**n - 1; enumerating them all and dropping the rest made 491, 21 and
    # 120 choices here).  Each choice builds an instance per diamond, one
    # in these inputs, so a choice enumerated and then dropped shows as
    # fewer builds.  A step's premise set comes with its agenda entry, so
    # no pop rebuilds its premises (rebuilding them for every R_L step
    # made 15 and 12 rebuilds on c_boxes4-C and box_dia6-E).
    counts = {"choices": 0, "builds": 0, "rebuilds": 0}
    real_choices = tableau._box_choices
    real_instance = tableau._modal_instance
    real_premises = tableau._modal_premises

    def box_choices(*args):
        for gamma_items in real_choices(*args):
            counts["choices"] += 1
            yield gamma_items

    def modal_instance(*args):
        counts["builds"] += 1
        return real_instance(*args)

    def modal_premises(system):
        counts["rebuilds"] += 1
        return real_premises(system)

    monkeypatch.setattr(tableau, "_box_choices", box_choices)
    monkeypatch.setattr(tableau, "_modal_instance", modal_instance)
    monkeypatch.setattr(tableau, "_modal_premises", modal_premises)
    solve(phi, frame_class, SolveOptions(extract=False))
    assert counts == {
        "choices": choices, "builds": choices, "rebuilds": rebuilds
    }


def test_c_boxes_5_unsat_within_the_default_step_cap(monkeypatch):
    # Chronological backtracking ran past the 200,000-step default here.
    monkeypatch.delenv(tableau.STEP_CAP_ENV, raising=False)
    started = time.perf_counter()
    result = solve(c_boxes(5), FrameClass.C, SolveOptions(extract=False))
    elapsed = time.perf_counter() - started
    assert result.verdict == "unsat"
    assert result.stats.steps == 80
    print(f"\nc_boxes(5) under C: 80 steps in {elapsed:.2f} s")


def test_unit_instance_settled_by_a_label_lacking_its_variable(monkeypatch):
    # Under N the formula diamond opens label 1 with its own variable x1.
    # The diamond-alone instance of (dia 1 A) at x0 then needs no label:
    # label 1 lacks x0, a world x0 is absent from, and no label holds A(x0).
    checked = CheckedSearch(monkeypatch)
    A, B = AtomicConcept("A"), AtomicConcept("B")
    phi = AndF(CI(TOP, Dia(1, A)), DiaF(1, CI(TOP, B)))
    result = solve(phi, FrameClass.N, SolveOptions(extract=False))
    assert result.verdict == "sat"
    assert result.stats.labels_created == 1
    assert checked.settled_by_absence >= 1


def test_agenda_seeded_from_a_hand_built_state():
    phi = AndF(CI(TOP, AtomicConcept("A")), CI(TOP, AtomicConcept("B")))
    state = init(phi, FrameClass.E)
    state.add_concept(0, AtomicConcept("A"), 0)
    expected = find_applicable(state)
    assert next_instance(state)[0] == expected[0]


def test_search_does_not_rescan_the_state(monkeypatch):
    def forbidden(*args):
        raise AssertionError("whole-state rescan on the search path")

    monkeypatch.setattr(tableau, "find_applicable", forbidden)
    monkeypatch.setattr(tableau, "is_clash", forbidden)
    result = solve(or_chain(30), FrameClass.E, SolveOptions(extract=False))
    assert result.verdict == "sat"
    assert result.stats.steps == 149


def balanced_conjunction(parts):
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return AndF(
        balanced_conjunction(parts[:mid]), balanced_conjunction(parts[mid:])
    )


def test_thousand_nested_branch_points_need_no_python_recursion():
    # Every disjunction's first alternative survives, so the search holds
    # 1,000 open branch points at once.
    parts = [
        CI(TOP, Or(AtomicConcept(f"A{i:04d}"), AtomicConcept(f"B{i:04d}")))
        for i in range(1000)
    ]
    phi = balanced_conjunction(parts)
    result = solve(phi, FrameClass.E, SolveOptions(extract=False))
    assert result.verdict == "sat"
    assert result.stats.steps == 2999  # 999 R_and, 1000 R_eq, 1000 R_cup
