import random
import time

import pytest

from nnmdl.fragment import (
    INNER_BOX_CAP,
    FragmentCapError,
    FragmentError,
    prop_abstraction,
    serialize_prop,
    solve_fragment,
)
from nnmdl.oracle import SAT, OracleBounds, brute_force_sat
from nnmdl.semantics import FrameClass
from nnmdl import tableau
from nnmdl.syntax import (
    AndF,
    AtomicConcept,
    Box,
    BoxF,
    CI,
    Dia,
    DiaF,
    Formula,
    Not,
    NotF,
    OrF,
    Top,
    closure,
    neg_nnf,
)

from corpus import random_g_formula
from families import nested
from fragment_table import (
    Valuation,
    _by_table,
    _has_witness,
    _valuations,
    alc_consistent,
)

A = AtomicConcept("A")
B = AtomicConcept("B")
P = CI(Top(), A)
Q = CI(Top(), B)


# -- fragment membership -------------------------------------------------------

def test_formula_level_modalities_allowed():
    prop_abstraction(BoxF(1, P))


def test_concept_level_box_rejected():
    with pytest.raises(FragmentError):
        prop_abstraction(CI(Top(), Box(1, A)))


def test_nested_concept_diamond_rejected():
    with pytest.raises(FragmentError):
        prop_abstraction(BoxF(1, NotF(CI(A, Dia(2, B)))))


# -- abstraction -----------------------------------------------------------------

def test_identical_inclusions_share_a_letter():
    abstraction = prop_abstraction(AndF(P, BoxF(1, P)))
    assert abstraction.letters == ("p1",)
    assert abstraction.prop_formula == AndF(P, BoxF(1, P))
    assert serialize_prop(abstraction) == "(and p1 (box 1 p1))"


def test_negated_inclusion():
    abstraction = prop_abstraction(NotF(P))
    assert abstraction.prop_formula == NotF(P)
    assert serialize_prop(abstraction) == "(not p1)"
    assert abstraction.ci_of("p1") == P


def test_distinct_inclusions_get_distinct_letters():
    abstraction = prop_abstraction(AndF(P, Q))
    assert abstraction.letters == ("p1", "p2")
    assert abstraction.ci_of("p1") != abstraction.ci_of("p2")


def test_diamond_expressed_with_box_and_negation():
    abstraction = prop_abstraction(DiaF(1, P))
    assert abstraction.prop_formula == DiaF(1, P)
    assert serialize_prop(abstraction) == "(not (box 1 (not p1)))"


def test_abstraction_rejects_modalised_concepts():
    with pytest.raises(FragmentError):
        prop_abstraction(CI(Top(), Box(1, A)))


def test_sub_closure_closed_under_single_negation():
    abstraction = prop_abstraction(AndF(BoxF(1, P), Q))
    sub = closure(abstraction.prop_formula).for_neg
    for psi in sub:
        assert neg_nnf(psi) in sub
    assert BoxF(1, P) in sub


# -- per-world consistency ---------------------------------------------------------

def test_contradictory_inclusions_inconsistent():
    phi = AndF(P, CI(Top(), Not(A)))
    abstraction = prop_abstraction(phi)
    assert not alc_consistent({"p1": 1, "p2": 1}, abstraction)


def test_one_asserted_one_refuted_consistent():
    abstraction = prop_abstraction(AndF(P, Q))
    assert alc_consistent({"p1": 1, "p2": 0}, abstraction)


def test_all_refuted_consistent_for_independent_inclusions():
    abstraction = prop_abstraction(AndF(P, Q))
    assert alc_consistent({"p1": 0, "p2": 0}, abstraction)


def test_refuting_a_valid_inclusion_is_inconsistent():
    abstraction = prop_abstraction(CI(Top(), Top()))
    assert not alc_consistent({"p1": 0}, abstraction)
    assert alc_consistent({"p1": 1}, abstraction)


# -- boolean evaluation -------------------------------------------------------------

def _valuation(sub, true_atoms):
    def truth(psi):
        if isinstance(psi, (CI, BoxF)):
            return psi in true_atoms
        if isinstance(psi, NotF):
            return not truth(psi.arg)
        if isinstance(psi, AndF):
            return truth(psi.left) and truth(psi.right)
        if isinstance(psi, OrF):
            return truth(psi.left) or truth(psi.right)
        if isinstance(psi, DiaF):
            return not truth(neg_nnf(psi))
        raise AssertionError(psi)

    return Valuation(frozenset(psi for psi in sub if truth(psi)))


def _letter(abstraction, ci):
    (letter,) = [
        name for name in abstraction.letters if abstraction.ci_of(name) == ci
    ]
    return abstraction.ci_of(letter)


def test_eval_bool_negation_and_conjunction():
    abstraction = prop_abstraction(AndF(P, Q))
    sub = closure(abstraction.prop_formula).for_neg
    p, q = _letter(abstraction, P), _letter(abstraction, Q)
    (v,) = [
        v
        for v in _valuations(abstraction, sub)
        if v.value(p) == 1 and v.value(q) == 0
    ]
    assert v.value(NotF(p)) == 0
    assert v.value(NotF(q)) == 1
    assert v.value(AndF(p, q)) == 0
    assert v.value(neg_nnf(AndF(p, q))) == 1


def test_eval_bool_three_literal_witness_table():
    # (P and not Q) or R, abstracted to not(not(p and not q) and not r)
    R = CI(Top(), AtomicConcept("C"))
    abstraction = prop_abstraction(OrF(AndF(P, NotF(Q)), R))
    assert serialize_prop(abstraction) == (
        "(not (and (not (and p1 (not p2))) (not p3)))"
    )
    sub = closure(abstraction.prop_formula).for_neg
    p, q, r = (_letter(abstraction, ci) for ci in (P, Q, R))
    valuations = _valuations(abstraction, sub)
    assert len(valuations) == 8
    for v in valuations:
        expected = (v.value(p) and not v.value(q)) or v.value(r)
        assert v.value(abstraction.prop_formula) == int(bool(expected))


# Requirement (bodies, refuted) and the valuations of p1 p2 p3 (as bit
# strings) that witness it: the conjunction of the bodies, true when there
# are none, takes a different value from the refuted formula.
WITNESS_TABLE = [
    ((), "p1", {"000", "001", "010", "011"}),
    (("p1",), "p2", {"100", "101", "010", "011"}),
    (("p1", "p2"), "p3", {"110", "001", "011", "101"}),
]


def test_has_witness_table():
    abstraction = prop_abstraction(AndF(AndF(P, Q), CI(Top(), Not(A))))
    sub = closure(abstraction.prop_formula).for_neg
    ci_of = abstraction.ci_of
    valuations = {}
    for bits in range(8):
        name = f"{bits:03b}"
        atoms = {ci_of(f"p{i + 1}") for i, c in enumerate(name) if c == "1"}
        valuations[name] = _valuation(sub, atoms)
    for bodies, refuted, witnesses in WITNESS_TABLE:
        req = (tuple(ci_of(b) for b in bodies), ci_of(refuted))
        for name, v in valuations.items():
            assert _has_witness(req, [v], {}) == (name in witnesses), (req, name)
        assert not _has_witness(req, [], {})
        assert _has_witness(req, list(valuations.values()), {})


# -- the decision procedure -----------------------------------------------------------

def test_two_boxes_with_refuted_conjunction():
    phi = AndF(AndF(BoxF(1, P), BoxF(1, Q)), NotF(BoxF(1, AndF(P, Q))))
    assert solve_fragment(phi, FrameClass.C).verdict == "unsat"
    assert solve_fragment(phi, FrameClass.N).verdict == "sat"


def test_refuted_valid_inclusion():
    phi = DiaF(1, NotF(CI(Top(), Top())))
    assert solve_fragment(phi, FrameClass.N).verdict == "unsat"
    assert solve_fragment(phi, FrameClass.C).verdict == "sat"


def test_plain_box_sat_in_both_classes():
    for fc in (FrameClass.C, FrameClass.N):
        assert solve_fragment(BoxF(1, P), fc).verdict == "sat"


def test_unsupported_class_rejected():
    with pytest.raises(ValueError, match="C and N"):
        solve_fragment(BoxF(1, P), FrameClass.E)


def test_fragment_violation_rejected():
    with pytest.raises(FragmentError):
        solve_fragment(CI(Top(), Box(1, A)), FrameClass.C)


def _twenty_letters():
    parts = [
        CI(Top(), AtomicConcept(f"N{i}")) for i in range(20)
    ]
    phi = parts[0]
    for p in parts[1:]:
        phi = AndF(phi, p)
    return phi


def test_inner_box_cap():
    phi = nested(INNER_BOX_CAP)
    with pytest.raises(
        FragmentCapError,
        match=f"^{INNER_BOX_CAP + 1} inner boxes exceed the cap of {INNER_BOX_CAP}$",
    ):
        solve_fragment(phi, FrameClass.N)


@pytest.mark.parametrize("fc", [FrameClass.C, FrameClass.N])
def test_query_path_is_not_capped(fc):
    # Letters are never enumerated: 20 letters, alone and next to a
    # depth-2 box.
    for phi in (_twenty_letters(), AndF(_twenty_letters(), BoxF(1, BoxF(1, P)))):
        result = solve_fragment(phi, fc)
        assert result.verdict == tableau.solve(phi, fc).verdict == "sat"


def test_support_shrinks_monotonically():
    phi = AndF(AndF(BoxF(1, P), BoxF(1, Q)), NotF(BoxF(1, AndF(P, Q))))
    result = _by_table(prop_abstraction(phi), FrameClass.C)
    assert len(result.support.members) <= result.initial_valuations
    assert result.rounds <= result.initial_valuations + 1


def test_differential_against_constant_domain_oracle():
    rng = random.Random(31337)
    bounds = OracleBounds(domain_mode="constant")
    agree_varying = 0
    total = 0
    for _ in range(40):
        phi = random_g_formula(rng)
        for fc in (FrameClass.C, FrameClass.N):
            fragment_verdict = solve_fragment(phi, fc).verdict
            oracle = brute_force_sat(phi, fc, bounds)
            total += 1
            if oracle.verdict == SAT:
                assert fragment_verdict == "sat"
    assert total == 80


def test_varying_vs_constant_agreement_recorded():
    # Not a gate: domain regimes are compared and summarized only.
    from nnmdl.tableau import SolveOptions, solve

    rng = random.Random(414)
    agreements = disagreements = 0
    for _ in range(25):
        phi = random_g_formula(rng)
        for fc in (FrameClass.C, FrameClass.N):
            constant = solve_fragment(phi, fc).verdict
            varying = solve(phi, fc, SolveOptions(extract=False)).verdict
            if constant == varying:
                agreements += 1
            else:
                disagreements += 1
    print(
        f"\ndomain-regime comparison: {agreements} agree, "
        f"{disagreements} differ (recorded, not asserted)"
    )
    assert agreements + disagreements == 50


# -- the query path (modal depth at most 1) ---------------------------------------------

def _counting_solve(monkeypatch):
    calls = []
    inner = tableau.solve

    def counted(*args, **kwargs):
        calls.append(args[0])
        return inner(*args, **kwargs)

    monkeypatch.setattr(tableau, "solve", counted)
    return calls


def test_query_path_result_fields(monkeypatch):
    calls = _counting_solve(monkeypatch)
    result = solve_fragment(AndF(BoxF(1, P), DiaF(1, Q)), FrameClass.C)
    assert result.verdict == "sat"
    assert (result.rounds, result.initial_valuations) == (1, 0)
    assert result.support.members == frozenset()
    assert result.queries == len(calls) > 0


def test_table_path_counts_its_queries(monkeypatch):
    calls = _counting_solve(monkeypatch)
    result = solve_fragment(BoxF(1, BoxF(1, P)), FrameClass.N)
    assert result.queries == len(calls) == 2


R = CI(Top(), AtomicConcept("C"))

# Inputs whose C verdict turns on the maximal-subset test: the 0-valued
# box's body equals a meet of 1-valued bodies, implies only some of them,
# or implies one that is equivalent to it.
SUBSET_CASES = [
    AndF(AndF(AndF(BoxF(1, P), BoxF(1, Q)), BoxF(1, R)), NotF(BoxF(1, AndF(P, Q)))),
    AndF(BoxF(1, P), NotF(BoxF(1, AndF(P, Q)))),
    AndF(BoxF(1, AndF(P, Q)), NotF(BoxF(1, P))),
    AndF(BoxF(1, P), NotF(BoxF(1, AndF(P, P)))),
    AndF(AndF(BoxF(1, P), BoxF(2, Q)), NotF(BoxF(2, AndF(P, Q)))),
    OrF(AndF(BoxF(1, P), NotF(BoxF(1, P))), DiaF(1, NotF(CI(Top(), Top())))),
]


@pytest.mark.parametrize("fc", [FrameClass.C, FrameClass.N])
@pytest.mark.parametrize("index", range(len(SUBSET_CASES)))
def test_query_path_subset_cases_match_table(index, fc):
    phi = SUBSET_CASES[index]
    result = solve_fragment(phi, fc)
    assert result.initial_valuations == 0
    assert result.verdict == _by_table(prop_abstraction(phi), fc).verdict


def test_query_path_matches_table_on_fragment_corpora():
    compared = 0
    for seed in (99120, 61803, 7):
        rng = random.Random(seed)
        for _ in range(200):
            phi = random_g_formula(rng)
            for fc in (FrameClass.C, FrameClass.N):
                result = solve_fragment(phi, fc)
                reference = _by_table(prop_abstraction(phi), fc)
                assert result.verdict == reference.verdict, (seed, fc.value, phi)
                compared += 1
    assert compared == 1200


def test_deep_table_input_needs_no_recursion():
    # A 2,000-level conjunction chain next to a depth-2 box, which holds
    # one inner box.
    phi = P
    for _ in range(2000):
        phi = AndF(phi, P)
    phi = AndF(phi, BoxF(1, BoxF(1, Q)))
    assert solve_fragment(phi, FrameClass.C).verdict == "sat"
    text = serialize_prop(prop_abstraction(phi))
    assert text.startswith("(and (and ") and text.endswith("(box 1 (box 1 p2)))")


# -- every modal depth -------------------------------------------------------------------

def _dia_chain(k: int) -> Formula:
    phi = NotF(CI(Top(), Top()))
    for _ in range(k):
        phi = DiaF(1, phi)
    return phi


@pytest.mark.parametrize("k", range(1, 6))
def test_each_level_of_a_refutation_chain_takes_a_round(k):
    # Under N a 0-valued box needs a witness refuting its body.  Round j
    # eliminates the vectors in which the j-fold box of top is 0, so a
    # single round answers sat from k = 3.
    result = solve_fragment(_dia_chain(k), FrameClass.N)
    assert (result.verdict, result.rounds) == ("unsat", k)


@pytest.mark.parametrize("max_depth", [2, 3, 4])
def test_every_modal_depth_matches_table(max_depth):
    # random_g_formula nests up to max_depth + 1 modalities.
    rng = random.Random(2718 + max_depth)
    checks = 0
    for _ in range(400):
        phi = random_g_formula(rng, max_depth=max_depth)
        abstraction = prop_abstraction(phi)
        for fc in (FrameClass.C, FrameClass.N):
            reference = _by_table(abstraction, fc)
            result = solve_fragment(phi, fc)
            assert result.verdict == reference.verdict, (fc.value, phi)
            checks += 1
    assert checks == 800


@pytest.mark.parametrize("fc", [FrameClass.C, FrameClass.N])
@pytest.mark.parametrize("n", range(5, 9))
def test_nested_boxes_past_the_table(n, fc):
    # The valuation table holds 2^(3n + 3) valuations here and refuses
    # from n = 6.
    phi = nested(n)
    started = time.perf_counter()
    result = solve_fragment(phi, fc)
    elapsed = time.perf_counter() - started
    assert result.verdict == tableau.solve(phi, fc).verdict == "sat"
    assert elapsed < 1.0
