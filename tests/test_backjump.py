"""Backjumping against chronological backtracking.

`chronological` is plain depth-first search with chronological
backtracking, built only from the whole-state references
`find_applicable`, `apply` and `is_clash`: it tries every alternative of
every branch point.  The search skips alternatives on the strength of the
dependency sets it keeps, so any set that is too small shows up here as a
verdict that differs.  The hand-built inputs make a backjump undo the two
non-monotone paths of the agenda: a blocked R_exists that is unparked and
fires, and N's unit instance with its empty branch.
"""

import random
from functools import reduce

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
    Not,
    NotF,
    Or,
    OrF,
    TOP,
    normalize,
    serialize,
)
from nnmdl.tableau import (
    R_EXISTS,
    R_L,
    SolveOptions,
    StepCapError,
    apply,
    find_applicable,
    init,
    is_clash,
    next_instance,
    solve,
)

from corpus import random_concept, random_normalized_formula
from test_acceptance import CORPUS_SEED, CORPUS_SIZE
from test_agenda import CheckedSearch, CopyCount
from test_search_pin import c_boxes, conj, or_chain

A, B, C = AtomicConcept("A"), AtomicConcept("B"), AtomicConcept("C")
D = AtomicConcept("D")


def chronological(phi, frame_class, cap=None) -> str | None:
    """Verdict of depth-first search trying every alternative in order,
    or None once it has popped more than `cap` states."""
    pending = [init(normalize(phi), frame_class)]
    popped = 0
    while pending:
        popped += 1
        if cap is not None and popped > cap:
            return None
        state = pending.pop()
        if is_clash(state):
            continue
        applicable = find_applicable(state)
        if not applicable:
            return "sat"
        inst = applicable[0]
        pending += [
            apply(state, inst, branch)
            for branch in reversed(range(inst.branch_count))
        ]
    return "unsat"


def verdict(phi, frame_class) -> str:
    return solve(phi, frame_class, SolveOptions(extract=False)).verdict


class JumpLog:
    """Runs the search under `CheckedSearch` and records what each
    backjump undid: the instances of the branch points it popped untried,
    and the steps taken while one of those was open."""

    def __init__(self, monkeypatch):
        self.checked = CheckedSearch(monkeypatch)
        real_step = tableau._Search._step
        self.jumps: list[tuple[list, list]] = []
        self.steps: list[tuple] = []  # (instance, unparked, open frames)
        self.seen_jumps = 0
        self.last_stack: list = []
        log = self

        def step(search, state, inst, branch, stamp, path):
            if search.stats.backjumps > log.seen_jumps:
                log.record_jump(search.stack, inst)
                log.seen_jumps = search.stats.backjumps
            unparked = inst.rule == R_EXISTS and inst in log.checked.parked
            log.steps.append((inst, unparked, list(search.stack)))
            real_step(search, state, inst, branch, stamp, path)
            log.last_stack = list(search.stack)

        monkeypatch.setattr(tableau._Search, "_step", step)

    def record_jump(self, stack, inst):
        # The frames popped since the last step; the one whose alternative
        # runs now (popped as its last one starts) was not skipped.
        popped = [
            frame
            for frame in self.last_stack
            if not any(frame is kept for kept in stack) and frame[1] is not inst
        ]
        undone = [
            step
            for step in self.steps
            if any(frame is open_ for frame in popped for open_ in step[2])
        ]
        self.jumps.append(([frame[1] for frame in popped], undone))


def corpus_cases():
    for seed in (CORPUS_SEED, 5):
        rng = random.Random(seed)
        for _ in range(CORPUS_SIZE):
            yield random_normalized_formula(rng)


def test_corpus_verdicts_match_chronological_search():
    compared = 0
    for phi in corpus_cases():
        for fc in FrameClass:
            assert verdict(phi, fc) == chronological(phi, fc)
            compared += 1
    assert compared == 2 * CORPUS_SIZE * 4


#: The inclusion differential: its seeds, formulas per seed, the
#: engine's step cap and the reference's cap on popped states.  An input
#: past either cap is counted, not compared.
MIX_SEEDS = (2, 3, 6)
MIX_SIZE = 400
MIX_STEP_CAP = 300
MIX_REFERENCE_CAP = 200


def inclusion_mix(rng: random.Random):
    """The conjunction (with probability 0.2, the disjunction) of 4-9
    inclusions top <= C, each negated with probability 0.2; each C is a
    concept of depth 3 over A-D and the role r."""
    join = OrF if rng.random() < 0.2 else AndF
    parts = []
    for _ in range(rng.randint(4, 9)):
        part = CI(TOP, random_concept(rng, 3, ("A", "B", "C", "D")))
        parts.append(NotF(part) if rng.random() < 0.2 else part)
    return reduce(join, parts)


@pytest.mark.slow
def test_inclusion_mix_verdicts_match_chronological_search():
    # Disjunctions under role restrictions, many of them decided without
    # a branch point, at every element and successor: a dependency set
    # that is too small lets a backjump skip a branch point it must retry,
    # which shows here as a verdict that differs.
    options = SolveOptions(extract=False, step_cap=MIX_STEP_CAP)
    compared = capped = 0
    for seed in MIX_SEEDS:
        rng = random.Random(seed)
        for _ in range(MIX_SIZE):
            phi = inclusion_mix(rng)
            try:
                found = solve(phi, FrameClass.E, options).verdict
            except StepCapError:
                capped += 1
                continue
            expected = chronological(phi, FrameClass.E, MIX_REFERENCE_CAP)
            if expected is None:
                capped += 1
                continue
            assert found == expected, serialize(phi)
            compared += 1
    print(f"inclusion mix: {compared} compared, {capped} capped")
    assert compared + capped == len(MIX_SEEDS) * MIX_SIZE
    assert capped <= compared // 20


def test_label_heavy_mix_input_copies_at_most_one_system_per_step(monkeypatch):
    # Formula 60 of seed 3: 644 labels and 1,624 branch points.  Copying
    # every label at each branch point made 524,216 system copies here.
    rng = random.Random(3)
    for _ in range(61):
        phi = inclusion_mix(rng)
    result, copies = CopyCount(monkeypatch).solve(phi, FrameClass.E)
    assert result.verdict == "sat"
    assert result.stats.steps == 2657
    assert copies <= result.stats.steps


def test_forced_step_rests_on_its_refuter():
    # Sat in 60 steps with 5 backjumps.  The successors' disjunctions
    # are mostly decided without a branch point: a bottom disjunct is
    # refuted on its own, and A by not A.  The answer needs each such
    # step's set to hold the set of what refuted the skipped disjunct;
    # without it, a backjump skips a branch point it must retry and the
    # search answers unsat.
    phi = conj([
        CI(TOP, Forall("r", D)),
        NotF(CI(TOP, Exists("r", BOT))),
        CI(TOP, Exists("r", Or(Not(A), BOT))),
        CI(TOP, Forall("r", Or(A, B))),
    ])
    result = solve(phi, FrameClass.E, SolveOptions(extract=False))
    assert result.verdict == chronological(phi, FrameClass.E) == "sat"
    assert result.stats.backjumps > 0


def test_a_new_variable_rests_on_an_earlier_inclusion(monkeypatch):
    # The first disjunction, branch point 0, puts A on every element.
    # The second is decided without a branch point, since its first
    # disjunct is refuted, and its refuted inclusion then makes x2 with
    # not A: x2 arrives after the inclusion, on no branch point, so only
    # the inclusion's own set takes the clash of A and not A at x2 back
    # to branch point 0, whose second alternative is sat.
    checked = CheckedSearch(monkeypatch)
    Z = AtomicConcept("Z")
    phi = conj([
        OrF(CI(TOP, A), CI(TOP, C)),
        NotF(CI(TOP, Z)),
        OrF(CI(TOP, Z), NotF(CI(TOP, Or(D, A)))),
    ])
    result = solve(phi, FrameClass.E, SolveOptions(extract=False))
    assert result.verdict == chronological(phi, FrameClass.E) == "sat"
    stats = result.stats
    assert (stats.branch_points, stats.forced, stats.backtracks) == (1, 2, 1)
    assert checked.choices == 17


@pytest.mark.parametrize("n", [2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_c_boxes_verdicts_match_chronological_search(n):
    # Chronological search takes 50, 593 and 17,624 steps here.
    assert verdict(c_boxes(n), FrameClass.C) == "unsat"
    assert chronological(c_boxes(n), FrameClass.C) == "unsat"


def test_backjump_undoes_an_unparked_r_exists(monkeypatch):
    # x1, the root's successor, is blocked and parked.  x0 and x1 each pick
    # A; A at x0 forces all r all r bot at x0 once not A clashes.  That puts
    # all r bot on x1, which x0 lacks: x1 is unblocked and its R_exists
    # fires while x1's own choice is open.  The successor's bottom rests on
    # x0's choice alone, so the search jumps back over x1's choice.
    log = JumpLog(monkeypatch)
    phi = conj([
        CI(TOP, Exists("r", C)),
        CI(TOP, Or(A, B)),
        CI(TOP, Or(Not(A), Forall("r", Forall("r", BOT)))),
    ])
    assert verdict(phi, FrameClass.E) == chronological(phi, FrameClass.E)
    assert any(
        skipped and any(unparked for _, unparked, _ in undone)
        for skipped, undone in log.jumps
    )


def test_backjump_skips_a_unit_instance_empty_branch(monkeypatch):
    # A at x0 forces box 1 C.  Under N the diamond's unit instance opens a
    # label first and keeps its empty branch for later; then the box and
    # the diamond of (not C and not C) fail in both alternatives, for
    # reasons resting on A alone.  The search jumps back to x0's choice
    # without trying the empty branch.
    log = JumpLog(monkeypatch)
    phi = conj([
        CI(TOP, Or(A, B)),
        CI(TOP, Or(Not(A), Box(1, C))),
        CI(TOP, Dia(1, And(Not(C), Not(C)))),
    ])
    assert verdict(phi, FrameClass.N) == chronological(phi, FrameClass.N)
    assert any(
        not inst.branches[-1]  # the unit instance's empty branch
        for skipped, _ in log.jumps
        for inst in skipped
    )


def test_equal_bodies_under_two_indices_tie_on_equal_instances():
    # Under E, box 1 and box 2 both have the body P, and dia 1 and dia 2
    # both Q: the R_L instance for (P, Q) is completed once per index, so
    # it sits on the agenda twice under one key.  A chronological search
    # over the incremental engine checks every state it visits: entries
    # with equal keys hold equal instances.
    P, Q = CI(TOP, A), CI(TOP, B)
    phi = AndF(AndF(BoxF(1, P), BoxF(2, P)), AndF(DiaF(1, Q), DiaF(2, Q)))
    ties, found = 0, "unsat"
    pending = [init(normalize(phi), FrameClass.E)]
    while pending:
        state = pending.pop()
        by_key = {}
        for key, (inst, _) in state.agenda:
            assert by_key.setdefault(key, inst) == inst
        ties += len(state.agenda) - len(by_key)
        if state.clash:
            continue
        step = next_instance(state)
        if step is None:
            found = "sat"
            break
        inst = step[0]
        for branch in reversed(range(inst.branch_count)):
            child = state.copy()
            tableau._extend(child, inst, branch)
            pending.append(child)
    assert ties
    assert found == chronological(phi, FrameClass.E) == "sat"


def test_a_tied_instance_rests_on_every_index_that_completed_it(monkeypatch):
    # As above, but box 1 enters as the first alternative of a
    # disjunction, branch point 0: index 1's group for (P, Q) rests on
    # bit 0 and index 2's on nothing.  Heap order puts the tied entry
    # with set 0 first, so the R_L step carries bit 0 only if the pop
    # merges the sets of both entries, as a rebuild of the premises
    # would.  The step opens branch point 1 and adds its bit.
    checked = CheckedSearch(monkeypatch)
    real_step = tableau._Search._step
    stamps = []

    def step(search, state, inst, branch, stamp, path):
        if inst.rule == R_L:
            stamps.append(stamp)
        real_step(search, state, inst, branch, stamp, path)

    monkeypatch.setattr(tableau._Search, "_step", step)
    P, Q = CI(TOP, A), CI(TOP, B)
    phi = AndF(
        AndF(OrF(BoxF(1, P), CI(TOP, C)), BoxF(2, P)),
        AndF(DiaF(1, Q), DiaF(2, Q)),
    )
    result = solve(phi, FrameClass.E, SolveOptions(extract=False))
    assert result.verdict == "sat"
    assert result.stats.branch_points == 2
    assert stamps == [0b11]
    assert checked.choices == result.stats.steps + 1


def test_a_c_box_choice_rests_on_its_first_box(monkeypatch):
    # Under C the boxes of P and Q put the meet P and Q in the
    # neighbourhood, which (dia 1 (not P or not Q)) refutes: every
    # alternative of the R_L instance taking both boxes clashes.  Box P
    # enters as the first alternative of a disjunction, branch point 0,
    # and is that box choice's first box, so only its stored set takes
    # the clash back to branch point 0, past the R_L instance of box P
    # alone; the disjunction's second alternative is sat.
    checked = CheckedSearch(monkeypatch)
    P, Q = CI(TOP, A), CI(TOP, B)
    phi = conj([
        OrF(BoxF(1, P), CI(TOP, C)),
        BoxF(1, Q),
        DiaF(1, OrF(NotF(P), NotF(Q))),
    ])
    result = solve(phi, FrameClass.C, SolveOptions(extract=False, trace=True))
    assert result.verdict == chronological(phi, FrameClass.C) == "sat"
    stats = result.stats
    assert (stats.branch_points, stats.backtracks, stats.backjumps) == (4, 3, 1)
    assert ["(sub top (atom C))"] in [entry["added"] for entry in result.trace]
    assert checked.choices == 21


def test_branch_label_keeps_its_base_set_across_copies():
    # The outer diamond's first R_L alternative opens a label whose
    # disjunction branches before its own box and diamond pair, which fails
    # in both alternatives.  Those premises rest on the outer choice only
    # through the label's base set, read after the disjunction's branch
    # point copied the state; the search must return to the outer R_L
    # alternative that refutes its bodies.
    E = AtomicConcept("E")
    inner = AndF(
        BoxF(1, CI(TOP, A)), DiaF(1, NotF(CI(TOP, And(A, A))))
    )
    body = AndF(OrF(CI(TOP, D), CI(TOP, E)), inner)
    phi = AndF(BoxF(1, CI(TOP, C)), DiaF(1, body))
    assert verdict(phi, FrameClass.E) == chronological(phi, FrameClass.E)
    assert verdict(phi, FrameClass.E) == "sat"


def test_search_shape_counters():
    # The first atom of each disjunction of or_chain is refuted when the
    # disjunction is applied, so each one takes its other side at once:
    # no branch point, no backtrack.
    stats = solve(or_chain(20), FrameClass.E, SolveOptions(extract=False)).stats
    assert (stats.branch_points, stats.backtracks, stats.backjumps) == (0, 0, 0)
    assert stats.forced == 20
    # Five disjunctions of c_boxes(3) have both sides refuted.
    stats = solve(c_boxes(3), FrameClass.C, SolveOptions(extract=False)).stats
    assert (stats.branch_points, stats.backtracks, stats.backjumps) == (5, 11, 3)
    assert stats.forced == 5
    # The counters stay out of the stats the CLI prints.
    assert set(stats.as_dict()) == {
        "rule_applications",
        "labels_created",
        "variables_created",
        "steps",
    }


def atom_pairs(count):
    """Disjunctions top <= Ai or Bi, which sort before every disjunction
    of negations or restrictions."""
    firsts = [AtomicConcept(f"A{i}") for i in range(count)]
    seconds = [AtomicConcept(f"B{i}") for i in range(count)]
    return firsts, [CI(TOP, Or(a, b)) for a, b in zip(firsts, seconds)]


def skipped_disjuncts(log: JumpLog) -> list:
    """Per backjump, the first disjunct of each branch point it popped
    untried."""
    return [[inst.branches[0][0][0] for inst in skipped] for skipped, _ in log.jumps]


def disjuncts_taken(result) -> list:
    """What the R_cup steps of the final branch added, in order."""
    return [entry["added"] for entry in result.trace if entry["rule"] == "R_cup"]


def test_both_disjuncts_refuted_on_different_branch_points(monkeypatch):
    # Three choices give x0 A0, A1 and A2; then (not A1 or not A0) has
    # both sides refuted, by A1 and by A0.  It opens no branch point, and
    # its clash rests on the first two choices only: the search skips the
    # third choice's alternative and gives x0 B1.  The newest choice in
    # the clash's set refutes the disjunct that was skipped, not the one
    # applied.
    log = JumpLog(monkeypatch)
    a, parts = atom_pairs(3)
    phi = conj(parts + [CI(TOP, Or(Not(a[1]), Not(a[0])))])
    result = solve(phi, FrameClass.E, SolveOptions(extract=False, trace=True))
    assert result.verdict == chronological(phi, FrameClass.E) == "sat"
    assert skipped_disjuncts(log) == [[a[2]]]
    assert (result.stats.branch_points, result.stats.forced) == (4, 2)
    assert disjuncts_taken(result) == [
        ["(atom A0)(x0)"],
        ["(atom B1)(x0)"],
        ["(atom A2)(x0)"],
        ["(not (atom A1))(x0)"],
    ]


def test_second_disjunct_refuted_then_a_later_clash(monkeypatch):
    # Two choices give x0 A0 and A1.  (some r bot or not A0) has its
    # second side refuted by A0, so x0 takes (some r bot) without a
    # branch point, resting on the first choice.  Its successor's bottom
    # clashes on that alone: the search jumps past the disjunction and
    # over the second choice, back to the first.
    log = JumpLog(monkeypatch)
    a, parts = atom_pairs(2)
    phi = conj(parts + [CI(TOP, Or(Exists("r", BOT), Not(a[0])))])
    result = solve(phi, FrameClass.E, SolveOptions(extract=False, trace=True))
    assert result.verdict == chronological(phi, FrameClass.E) == "sat"
    assert skipped_disjuncts(log) == [[a[1]]]
    assert result.stats.forced == 1
    assert disjuncts_taken(result) == [
        ["(atom B0)(x0)"],
        ["(atom A1)(x0)"],
        ["(not (atom A0))(x0)"],
    ]


def test_bottom_disjunct_is_refuted(monkeypatch):
    # A bottom disjunct is refuted on its own, on either side.  With A0
    # chosen, (A1 or bot) takes A1, and (bot or not A0) has both sides
    # refuted and clashes on that choice.  With B0, the first takes A1
    # again and the second takes not A0: four disjunctions decided
    # without a branch point.
    checked = CheckedSearch(monkeypatch)
    a, parts = atom_pairs(1)
    phi = conj(
        parts + [CI(TOP, Or(BOT, Not(a[0]))), CI(TOP, Or(AtomicConcept("A1"), BOT))]
    )
    result = solve(phi, FrameClass.E, SolveOptions(extract=False, trace=True))
    # Counted before `chronological`, whose steps pass the same checks.
    assert checked.clashes == 1
    assert result.verdict == chronological(phi, FrameClass.E) == "sat"
    assert (result.stats.branch_points, result.stats.backtracks) == (1, 1)
    assert result.stats.forced == 4
    assert disjuncts_taken(result) == [
        ["(atom B0)(x0)"],
        ["(atom A1)(x0)"],
        ["(not (atom A0))(x0)"],
    ]


@pytest.mark.parametrize("n", [1, 10, 100])
def test_or_chain_opens_no_branch_point(n):
    stats = solve(or_chain(n), FrameClass.E, SolveOptions(extract=False)).stats
    assert (stats.branch_points, stats.forced, stats.backtracks) == (0, n, 0)
