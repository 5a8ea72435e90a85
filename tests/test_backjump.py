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
)
from nnmdl.tableau import (
    R_EXISTS,
    SolveOptions,
    apply,
    find_applicable,
    init,
    is_clash,
    solve,
)

from corpus import random_normalized_formula
from test_acceptance import CORPUS_SEED, CORPUS_SIZE
from test_agenda import CheckedSearch
from test_search_pin import c_boxes, conj, or_chain

A, B, C = AtomicConcept("A"), AtomicConcept("B"), AtomicConcept("C")


def chronological(phi, frame_class) -> str:
    """Verdict of depth-first search trying every alternative in order."""
    pending = [init(normalize(phi))]
    while pending:
        state = pending.pop()
        if is_clash(state):
            continue
        applicable = find_applicable(state, frame_class)
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


@pytest.mark.parametrize("n", [2, 3, 4])
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
        inst.absent_variable is not None
        for skipped, _ in log.jumps
        for inst in skipped
    )


def test_branch_label_keeps_its_base_set_across_copies():
    # The outer diamond's first R_L alternative opens a label whose
    # disjunction branches before its own box and diamond pair, which fails
    # in both alternatives.  Those premises rest on the outer choice only
    # through the label's base set, read after the disjunction's branch
    # point copied the state; the search must return to the outer R_L
    # alternative that refutes its bodies.
    D, E = AtomicConcept("D"), AtomicConcept("E")
    inner = AndF(
        BoxF(1, CI(TOP, A)), DiaF(1, NotF(CI(TOP, And(A, A))))
    )
    body = AndF(OrF(CI(TOP, D), CI(TOP, E)), inner)
    phi = AndF(BoxF(1, CI(TOP, C)), DiaF(1, body))
    assert verdict(phi, FrameClass.E) == chronological(phi, FrameClass.E)
    assert verdict(phi, FrameClass.E) == "sat"


def test_search_shape_counters():
    # Each disjunction of or_chain first tries the refuted atom and falls
    # back to its other side: one backtrack per branch point, no jump.
    stats = solve(or_chain(20), FrameClass.E, SolveOptions(extract=False)).stats
    assert (stats.branch_points, stats.backtracks, stats.backjumps) == (20, 20, 0)
    stats = solve(c_boxes(3), FrameClass.C, SolveOptions(extract=False)).stats
    assert (stats.branch_points, stats.backtracks, stats.backjumps) == (10, 16, 3)
    # The counters stay out of the stats the CLI prints.
    assert set(stats.as_dict()) == {
        "rule_applications",
        "labels_created",
        "variables_created",
        "steps",
    }
