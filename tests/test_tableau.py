import random

import pytest

from nnmdl import syntax
from nnmdl.oracle import SAT, brute_force_sat
from nnmdl.semantics import FrameClass
from nnmdl.syntax import (
    And,
    AndF,
    AtomicConcept,
    BoxF,
    CI,
    DiaF,
    Exists,
    Not,
    NotF,
    Or,
    Top,
    TOP,
    closure,
    neg_nnf,
    normalize,
    serialize,
)
from nnmdl.tableau import (
    R_AND,
    R_EQ,
    R_EXISTS,
    R_L,
    R_NEQ,
    R_SQCAP,
    CompletionSet,
    ConstraintSystem,
    EngineError,
    STEP_CAP_ENV,
    SolveOptions,
    StaleInstanceError,
    StepCapError,
    _Search,
    apply,
    blockers,
    find_applicable,
    init,
    is_clash,
    label_budget,
    next_instance,
    solve,
)

from corpus import random_normalized_formula, random_raw_formula_any
from test_acceptance import constraint_count
from test_agenda import concept_pairs, label_contents
from test_search_pin import box_dia, c_boxes

A = AtomicConcept("A")
B = AtomicConcept("B")
P = CI(Top(), A)
Q = CI(Top(), B)


def test_init_holds_formula_and_domain_seed():
    phi = normalize(P)
    tableau = init(phi, FrameClass.E)
    assert len(tableau.systems) == 1
    system = tableau.systems[0]
    assert system.formulas == {phi: 0}
    assert concept_pairs(system) == {(TOP, 0): 0}


def test_clash_same_label():
    tableau = init(normalize(P), FrameClass.E)
    tableau.add_concept(0, A, 0)
    tableau.add_concept(0, Not(A), 0)
    assert is_clash(tableau)


def test_no_clash_across_labels():
    phi = normalize(AndF(BoxF(1, P), DiaF(1, P)))
    tableau = init(phi, FrameClass.E)
    system = tableau.new_label()
    tableau.add_concept(0, A, 0)
    var = tableau.new_variable()
    tableau.add_concept(system.label, Not(A), var)
    assert not is_clash(tableau)


def test_bottom_concept_is_a_clash():
    phi = normalize(CI(Top(), Bot_c := Not(Top())))
    tableau = init(phi, FrameClass.E)
    from nnmdl.syntax import BOT

    tableau.add_concept(0, BOT, 0)
    assert is_clash(tableau)


def test_blocking_subset_and_order():
    phi = normalize(CI(Top(), Exists("r", A)))
    tableau = init(phi, FrameClass.E)
    system = tableau.systems[0]
    tableau.add_concept(0, A, 0)
    var = tableau.new_variable()
    system.concepts[var] = {TOP: 0}
    assert blockers(var, system) == [0]  # {top} <= {top, A}
    assert blockers(0, system) == []


def test_find_applicable_single_conjunction():
    phi = normalize(AndF(P, Q))
    instances = find_applicable(init(phi, FrameClass.E))
    assert [inst.rule for inst in instances] == [R_AND]


def test_modal_rule_shapes_per_class():
    phi = normalize(AndF(BoxF(1, P), DiaF(1, Q)))

    def modal(frame_class):
        tableau = init(phi, frame_class)
        tableau.add_formula(0, BoxF(1, P))
        tableau.add_formula(0, DiaF(1, Q))
        return [i for i in find_applicable(tableau) if i.rule == R_L]

    modal_m = modal(FrameClass.M)
    assert len(modal_m) == 1
    assert modal_m[0].branch_count == 1
    modal_e = modal(FrameClass.E)
    assert len(modal_e) == 1
    assert modal_e[0].branch_count == 2
    modal_n = modal(FrameClass.N)
    # paired shape plus the diamond-only unit shape
    assert sorted(i.branch_count for i in modal_n) == [1, 2]


def test_intersection_class_enumerates_box_subsets():
    phi = normalize(AndF(AndF(BoxF(1, P), BoxF(1, Q)), DiaF(1, CI(Top(), Top()))))
    tableau = init(phi, FrameClass.C)
    # R_L instances are listed once no in-label instance applies.
    tableau.add_formula(0, AndF(BoxF(1, P), BoxF(1, Q)))
    tableau.add_formula(0, BoxF(1, P))
    tableau.add_formula(0, BoxF(1, Q))
    tableau.add_formula(0, DiaF(1, CI(Top(), Top())))
    modal = [i for i in find_applicable(tableau) if i.rule == R_L]
    assert len(modal) == 3  # {P}, {Q}, {P, Q} each with the diamond
    assert sorted(i.branch_count for i in modal) == [2, 2, 3]


def test_apply_conjunction_of_concepts():
    phi = normalize(CI(Top(), And(A, B)))
    tableau = init(phi, FrameClass.E)
    tableau.add_concept(0, And(A, B), 0)
    inst = next(
        i for i in find_applicable(tableau) if i.rule == R_SQCAP
    )
    out = apply(tableau, inst, 0)
    assert (A, 0) in concept_pairs(out.systems[0])
    assert (B, 0) in concept_pairs(out.systems[0])
    # application is pure: the input is untouched
    assert (A, 0) not in concept_pairs(tableau.systems[0])


def test_copy_shares_only_the_labels_neither_side_writes():
    # box_dia(2) under E ends with three labels; the input formula lies
    # in the closure and neither fresh label holds it.
    source = solve(box_dia(2), FrameClass.E, SolveOptions(extract=False)).completion
    assert len(source.systems) == 3
    dup = source.copy()
    before = label_contents(source)
    dup.add_formula(1, source.phi)
    assert label_contents(source) == before
    copied = label_contents(dup)
    source.add_formula(2, source.phi)
    assert label_contents(dup) == copied
    assert source.phi in dup.systems[1].formulas
    assert source.phi in source.systems[2].formulas
    assert dup.systems[0] is source.systems[0]
    assert dup.systems[1] is not source.systems[1]
    assert dup.systems[2] is not source.systems[2]


def mutable_containers(value, found):
    """Map the id of every list, dict and set reachable from a value
    through builtin containers to the container, stopping at label
    systems."""
    if isinstance(value, (list, dict, set)):
        found[id(value)] = value
    if isinstance(value, dict):
        value = [*value.keys(), *value.values()]
    if isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            mutable_containers(item, found)
    return found


def test_copy_sets_every_slot_and_shares_only_label_systems():
    # `copy` builds the duplicate without the constructor: a slot it
    # forgets is unset, and a container it forgets to duplicate is shared.
    phi = normalize(AndF(CI(TOP, Exists("r", A)), CI(TOP, Or(A, B))))
    state = init(phi, FrameClass.E)
    while not (state.agenda and state.parked):
        state = apply(state, next_instance(state)[0], 0)
    dup = state.copy()
    for slot in CompletionSet.__slots__:
        assert getattr(dup, slot) == getattr(state, slot), slot
    mine, theirs = (
        mutable_containers([getattr(s, slot) for slot in CompletionSet.__slots__], {})
        for s in (state, dup)
    )
    assert mine.keys().isdisjoint(theirs.keys())


def test_system_copy_sets_every_slot_and_shares_no_container():
    # `ConstraintSystem.copy` builds the duplicate without the constructor:
    # a slot it forgets is unset, and a container it forgets to duplicate
    # is shared.
    phi = normalize(AndF(CI(TOP, Exists("r", A)), CI(TOP, Or(A, B))))
    state = init(phi, FrameClass.E)
    while not state.systems[0].roles:
        state = apply(state, next_instance(state)[0], 0)
    system = state.systems[0]
    assert system.formulas and system.concepts and system.roles
    dup = system.copy()
    for slot in ConstraintSystem.__slots__:
        assert getattr(dup, slot) == getattr(system, slot), slot
    mine, theirs = (
        mutable_containers([getattr(s, slot) for slot in ConstraintSystem.__slots__], {})
        for s in (system, dup)
    )
    assert mine.keys().isdisjoint(theirs.keys())


def test_apply_existential_leaves_its_input_untouched():
    # R_exists adds a role before anything else: the copy must not write
    # the label it shares with the input.
    state = init(normalize(CI(Top(), Exists("r", A))), FrameClass.E)
    inst = find_applicable(state)[0]
    while inst.rule != R_EXISTS:
        state = apply(state, inst, 0)
        inst = find_applicable(state)[0]
    before = label_contents(state)
    out = apply(state, inst, 0)
    assert label_contents(state) == before
    assert out.systems[0].roles == {("r", 0, 1): 0}


def test_apply_refuted_inclusion_allocates_fresh_variable():
    phi = normalize(NotF(P))
    tableau = init(phi, FrameClass.E)
    inst = next(
        i for i in find_applicable(tableau) if i.rule == R_NEQ
    )
    out = apply(tableau, inst, 0)
    assert (Not(A), 1) in concept_pairs(out.systems[0])
    assert (TOP, 1) in concept_pairs(out.systems[0])
    assert out.next_var == 2


def test_apply_modal_rule_negated_branch():
    phi = normalize(AndF(BoxF(1, P), DiaF(1, Q)))
    tableau = init(phi, FrameClass.E)
    tableau.add_formula(0, BoxF(1, P))
    tableau.add_formula(0, DiaF(1, Q))
    inst = next(
        i for i in find_applicable(tableau) if i.rule == R_L
    )
    out = apply(tableau, inst, 1)
    fresh = len(out.systems) - 1
    assert fresh == 1
    assert neg_nnf(P) in out.systems[fresh].formulas
    assert neg_nnf(Q) in out.systems[fresh].formulas
    # formula-only label still gets a domain seed
    assert concept_pairs(out.systems[fresh])


def test_apply_stale_instance_rejected():
    phi = normalize(AndF(P, Q))
    tableau = init(phi, FrameClass.E)
    inst = find_applicable(tableau)[0]
    out = apply(tableau, inst, 0)
    with pytest.raises(StaleInstanceError):
        apply(out, inst, 0)


def test_apply_branch_out_of_range():
    phi = normalize(AndF(P, Q))
    tableau = init(phi, FrameClass.E)
    inst = find_applicable(tableau)[0]
    with pytest.raises(ValueError, match="out of range"):
        apply(tableau, inst, 5)


def test_completeness_checks():
    phi = normalize(CI(Top(), A))
    tableau = init(phi, FrameClass.E)
    assert find_applicable(tableau)  # R_eq pending
    inst = find_applicable(tableau)[0]
    assert inst.rule == R_EQ
    out = apply(tableau, inst, 0)
    assert not find_applicable(out)


def test_trivial_inclusion_complete_immediately():
    # top(x) is already present, so the inclusion's conclusion needs nothing
    phi = normalize(CI(Top(), Top()))
    assert not find_applicable(init(phi, FrameClass.E))


def test_pending_conjunction_not_complete():
    phi = normalize(AndF(P, Q))
    assert find_applicable(init(phi, FrameClass.E))


def test_diamond_without_boxes_complete_under_e():
    phi = normalize(DiaF(1, NotF(CI(Top(), Top()))))
    result = solve(phi, FrameClass.E)
    assert result.verdict == "sat"
    assert not find_applicable(result.completion)
    assert len(result.completion.systems) == 1


# -- solve ---------------------------------------------------------------------

def test_box_diamond_contradiction_unsat_everywhere():
    phi = AndF(BoxF(1, P), DiaF(1, neg_nnf(P)))
    for fc in FrameClass:
        assert solve(phi, fc).verdict == "unsat"


def test_two_boxes_refuted_conjunction():
    phi = AndF(AndF(BoxF(1, P), BoxF(1, Q)), NotF(BoxF(1, AndF(P, Q))))
    expected = {
        FrameClass.E: "sat",
        FrameClass.M: "sat",
        FrameClass.C: "unsat",
        FrameClass.N: "sat",
    }
    for fc, verdict in expected.items():
        assert solve(phi, fc).verdict == verdict, fc


def test_boxed_conjunction_refuted_conjunct():
    phi = AndF(BoxF(1, normalize(AndF(P, Q))), DiaF(1, neg_nnf(normalize(P))))
    expected = {
        FrameClass.E: "sat",
        FrameClass.M: "unsat",
        FrameClass.C: "sat",
        FrameClass.N: "sat",
    }
    for fc, verdict in expected.items():
        assert solve(phi, fc).verdict == verdict, fc


def test_refuted_valid_inclusion_under_unit_class():
    phi = DiaF(1, NotF(CI(Top(), Top())))
    assert solve(phi, FrameClass.N).verdict == "unsat"
    assert solve(phi, FrameClass.E).verdict == "sat"


def test_existential_with_blocking_terminates():
    phi = CI(Top(), Exists("r", A))
    result = solve(phi, FrameClass.E)
    assert result.verdict == "sat"
    system = result.completion.systems[0]
    variables = {var for _, var in concept_pairs(system)}
    assert len(variables) == 3  # root, witness, blocked witness
    assert result.model is not None


def test_solve_normalizes_input():
    assert solve(NotF(NotF(P)), FrameClass.E).verdict == "sat"


@pytest.mark.parametrize("frame_class", list(FrameClass), ids=lambda fc: fc.value)
def test_init_normalizes_its_formula(frame_class):
    # Taken as given, the first formula queued an R_neq instance over
    # `NotF(CI(TOP, B))`, outside the normal form's closure, and the
    # search from that state raised an engine error.
    def verdict(state) -> str:
        final = _Search(SolveOptions(extract=False)).run(state)
        return "unsat" if final is None else "sat"

    rng = random.Random(31)
    raw = [NotF(AndF(P, Q)), NotF(CI(A, Or(A, B)))]
    raw += [random_raw_formula_any(rng) for _ in range(20)]
    for phi in raw:
        state, normal = init(phi, frame_class), init(normalize(phi), frame_class)
        assert state.phi is normal.phi is normalize(phi)
        assert find_applicable(state) == find_applicable(normal)
        expected = solve(phi, frame_class).verdict
        assert verdict(state) == verdict(normal) == expected
    with pytest.raises(TypeError, match="^not a formula: "):
        init(A, frame_class)


def test_solve_trace_records_path():
    phi = normalize(AndF(P, Q))
    result = solve(phi, FrameClass.E, SolveOptions(trace=True))
    assert result.trace
    assert result.trace[0]["rule"] == R_AND
    assert all({"step", "rule", "label", "branch", "added"} <= e.keys() for e in result.trace)


def _serialized_rendering(inst, branch):
    out = []
    for item in inst.branches[branch]:
        if not isinstance(item, tuple):  # a formula
            out.append(serialize(item))
        elif len(item) == 2:  # a (concept, variable) pair
            out.append(f"{serialize(item[0])}(x{item[1]})")
        else:
            out.append(f"{item[1]}(x{item[2]}, fresh)")
    return out


def test_traces_render_as_serialized_text(monkeypatch):
    # Trace entries read each term's cached sort key; on the acceptance
    # corpus that text equals a fresh `serialize` of the term.
    import nnmdl.tableau as engine

    rendered = engine.applied_constraints
    checked = []

    def compared(inst, branch):
        out = rendered(inst, branch)
        assert out == _serialized_rendering(inst, branch)
        checked.append(out)
        return out

    monkeypatch.setattr(engine, "applied_constraints", compared)
    rng = random.Random(74453)
    for _ in range(500):
        phi = random_normalized_formula(rng)
        for fc in FrameClass:
            result = solve(phi, fc, SolveOptions(trace=True, extract=False))
            if result.trace:
                assert result.trace[-1]["added"] in checked
    assert len(checked) > 3000


def test_modal_negation_pair_is_an_immediate_clash():
    # The diamond of the negated body is itself the box's NNF negation.
    phi = normalize(AndF(BoxF(1, P), DiaF(1, neg_nnf(P))))
    tableau = init(phi, FrameClass.E)
    out = apply(tableau, find_applicable(tableau)[0], 0)
    assert is_clash(out)


def test_streaming_callback_sees_backtracked_steps():
    seen = []
    phi = AndF(BoxF(1, normalize(AndF(P, Q))), DiaF(1, neg_nnf(normalize(P))))
    result = solve(phi, FrameClass.E, SolveOptions(on_step=seen.append))
    assert result.verdict == "sat"
    assert any(e["rule"] == R_L for e in seen)
    # branch 0 of the modal rule clashes and is backtracked before branch 1
    branches = [e["branch"] for e in seen if e["rule"] == R_L]
    assert branches == [0, 1]


def test_step_cap_raises_engine_error():
    phi = normalize(CI(Top(), Exists("r", A)))
    with pytest.raises(EngineError, match="step cap"):
        solve(phi, FrameClass.E, SolveOptions(step_cap=1))


def test_step_cap_names_its_setting(monkeypatch):
    # The option overrides the environment, so the advice names the option.
    phi = normalize(CI(Top(), Exists("r", A)))
    monkeypatch.setenv(STEP_CAP_ENV, "100")
    with pytest.raises(StepCapError, match=r"set by SolveOptions\.step_cap"):
        solve(phi, FrameClass.E, SolveOptions(step_cap=1))


def test_negative_step_cap_rejected():
    # A cap that is not exactly an int is refused too: 2.5 was taken as a
    # cap, True capped at one step and "3" raised a bare TypeError.
    phi = normalize(CI(Top(), Exists("r", A)))
    for cap in (-1, 2.5, True, "3"):
        with pytest.raises(
            ValueError, match=r"SolveOptions\.step_cap must be a non-negative"
        ):
            solve(phi, FrameClass.E, SolveOptions(step_cap=cap))


def test_a_solve_builds_no_term_through_a_constructor(monkeypatch):
    # The constructors check every field; the engine builds what it needs
    # through the unchecked build paths and rebuilds nothing to look it
    # up.  R_L pushes once rebuilt box and diamond nodes to find their
    # stored sets, and validation built Not/NotF around diamond bodies:
    # 30 calls on c_boxes(4), 7 per class on box_dia(6) (22 under C) and
    # 794 on the sample.
    rng = random.Random(2024)
    sample = [random_normalized_formula(rng) for _ in range(300)]
    inputs = [(c_boxes(4), FrameClass.C)]
    inputs += [(phi, fc) for phi in (box_dia(6), *sample) for fc in FrameClass]
    calls = []
    for cls in syntax._CLASSES:

        def counting(kind, *fields, real=cls.__new__):
            calls.append(kind.__name__)
            return real(kind, *fields)

        monkeypatch.setattr(cls, "__new__", counting)
    for phi, frame_class in inputs:
        solve(phi, frame_class)
    assert calls == []


def test_label_budget_values():
    assert label_budget(6, FrameClass.E) == 36
    assert label_budget(6, FrameClass.C) == 2**6 * 6


# -- invariants over the corpus ---------------------------------------------------

def test_monotone_growth_and_closure_membership():
    rng = random.Random(55)
    for _ in range(30):
        phi = random_normalized_formula(rng)
        clo = closure(phi)
        for fc in FrameClass:
            state = init(phi, fc)
            for _ in range(60):
                if is_clash(state):
                    break
                instances = find_applicable(state)
                if not instances:
                    break
                before = {
                    n: constraint_count(state.systems[n])
                    for n in range(len(state.systems))
                }
                state = apply(state, instances[0], 0)
                for n, count in before.items():
                    assert constraint_count(state.systems[n]) >= count
                for system in state.systems:
                    for psi in system.formulas:
                        assert psi in clo.for_neg
                    for concept, _ in concept_pairs(system):
                        assert concept in clo.con_neg
                    for role, _, _ in system.roles:
                        assert role in clo.roles


def test_verdict_class_containment_on_corpus():
    rng = random.Random(77)
    for _ in range(40):
        phi = random_normalized_formula(rng)
        base = solve(phi, FrameClass.E, SolveOptions(extract=False)).verdict
        for fc in (FrameClass.M, FrameClass.C, FrameClass.N):
            if solve(phi, fc, SolveOptions(extract=False)).verdict == "sat":
                assert base == "sat"


def test_stats_do_not_depend_on_tracing():
    rng = random.Random(31)
    for _ in range(60):
        phi = random_normalized_formula(rng)
        for fc in FrameClass:
            plain = solve(phi, fc, SolveOptions(extract=False))
            traced = solve(phi, fc, SolveOptions(extract=False, trace=True))
            assert plain.verdict == traced.verdict
            assert plain.stats.as_dict() == traced.stats.as_dict()
            assert plain.trace is None


def test_differential_agreement_sample():
    rng = random.Random(88)
    for _ in range(25):
        phi = random_normalized_formula(rng)
        for fc in FrameClass:
            tableau_verdict = solve(phi, fc).verdict
            oracle = brute_force_sat(phi, fc)
            if oracle.verdict == SAT:
                assert tableau_verdict == "sat", serialize(phi)
