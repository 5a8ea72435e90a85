import random
from typing import NamedTuple

import pytest

from nnmdl.extraction import _bracket, extract_model, validate
from nnmdl.semantics import Evaluator, FrameClass, check_frame_class, satisfies
from nnmdl.syntax import (
    AndF,
    AtomicConcept,
    BoxF,
    CI,
    Concept,
    DiaF,
    Exists,
    NotF,
    Top,
    neg_nnf,
    normalize,
)
from nnmdl.tableau import SolveOptions, solve

from corpus import random_normalized_formula
from test_acceptance import CORPUS_SEED, CORPUS_SIZE
from test_agenda import concept_pairs

A = AtomicConcept("A")
B = AtomicConcept("B")
P = CI(Top(), A)
Q = CI(Top(), B)


def completed(phi, fc):
    result = solve(normalize(phi), fc, SolveOptions(extract=False))
    assert result.verdict == "sat"
    return result.completion


# -- floors and ceilings -------------------------------------------------------

class TruthApproximation(NamedTuple):
    """Labels forced to carry a term (floor) and labels merely allowed
    to (ceiling).  floor <= ceiling whenever the source set is clash-free."""

    floor: frozenset
    ceil: frozenset


def floors_ceilings(tableau, term, var=None) -> TruthApproximation:
    """Bracket of a term as `extraction._bracket` reads it from the state's
    `holders` masks, with labels as the names: floor collects labels
    asserting it (at the given variable for concepts), the ceiling drops
    labels asserting its negation."""
    item = term
    if isinstance(term, Concept):
        if var is None:
            raise ValueError("concept terms need a variable")
        item = (term, var)
    labels = range(len(tableau.systems))
    return TruthApproximation(
        *_bracket(tableau.holders, item, labels, frozenset(labels))
    )


def test_floor_equals_ceiling_when_everywhere_asserted():
    tableau = completed(P, FrameClass.E)
    approx = floors_ceilings(tableau, P)
    labels = frozenset(range(len(tableau.systems)))
    assert approx.floor == labels
    assert approx.ceil == labels


def test_unasserted_term_has_empty_floor_full_ceiling():
    tableau = completed(P, FrameClass.E)
    approx = floors_ceilings(tableau, Q)
    assert approx.floor == frozenset()
    assert approx.ceil == frozenset(range(len(tableau.systems)))


def test_two_label_floors_from_modal_run():
    phi = AndF(BoxF(1, P), DiaF(1, P))
    tableau = completed(phi, FrameClass.E)
    assert len(tableau.systems) == 2
    approx = floors_ceilings(tableau, P)
    assert approx.floor == frozenset({1})
    assert approx.ceil == frozenset({0, 1})


def test_concept_terms_need_a_variable():
    tableau = completed(P, FrameClass.E)
    with pytest.raises(ValueError, match="variable"):
        floors_ceilings(tableau, A)
    approx = floors_ceilings(tableau, A, 0)
    assert approx.floor == frozenset({0})


def test_floor_within_ceiling_on_corpus():
    rng = random.Random(9)
    for _ in range(20):
        phi = random_normalized_formula(rng)
        result = solve(phi, FrameClass.E, SolveOptions(extract=False))
        if result.verdict != "sat":
            continue
        tableau = result.completion
        for psi in tableau.closure.for_neg:
            approx = floors_ceilings(tableau, psi)
            assert approx.floor <= approx.ceil


def scanned_bracket(tableau, term, var=None):
    """`floors_ceilings` recomputed label by label from the label sets,
    independent of the `holders` index it reads."""
    labels = range(len(tableau.systems))
    negated = neg_nnf(term)
    if isinstance(term, Concept):
        floor = frozenset(
            n for n in labels if (term, var) in concept_pairs(tableau.systems[n])
        )
        ceil = frozenset(
            n
            for n in labels
            if (negated, var) not in concept_pairs(tableau.systems[n])
        )
    else:
        floor = frozenset(
            n for n in labels if term in tableau.systems[n].formulas
        )
        ceil = frozenset(
            n for n in labels if negated not in tableau.systems[n].formulas
        )
    return TruthApproximation(floor, ceil)


def test_floors_ceilings_match_a_label_scan_on_acceptance_corpus():
    rng = random.Random(CORPUS_SEED)
    states = 0
    for _ in range(CORPUS_SIZE):
        phi = random_normalized_formula(rng)
        for fc in FrameClass:
            result = solve(phi, fc, SolveOptions(extract=False))
            if result.verdict != "sat":
                continue
            tableau = result.completion
            states += 1
            for psi in tableau.closure.for_neg:
                assert floors_ceilings(tableau, psi) == scanned_bracket(
                    tableau, psi
                )
            for concept in tableau.closure.con_neg:
                for var in range(tableau.next_var):
                    assert floors_ceilings(
                        tableau, concept, var
                    ) == scanned_bracket(tableau, concept, var)
    assert states > CORPUS_SIZE


# -- extraction ------------------------------------------------------------------

def test_diamond_only_yields_empty_neighbourhoods():
    phi = DiaF(1, NotF(P))
    tableau = completed(phi, FrameClass.E)
    model = extract_model(tableau)
    assert model.worlds == ("0",)
    assert model.neighbourhoods[1]["0"] == frozenset()
    assert satisfies(model, "0", normalize(phi))


def test_blocked_variable_inherits_successor_edge():
    phi = CI(Top(), Exists("r", A))
    tableau = completed(phi, FrameClass.E)
    model = extract_model(tableau)
    assert model.worlds == ("0",)
    pairs = model.roles["0"]["r"]
    assert ("x0", "x1") in pairs
    assert ("x1", "x2") in pairs
    assert ("x2", "x2") in pairs  # blocked witness loops onto its blocker's edge
    assert satisfies(model, "0", normalize(phi))


def test_unit_class_extraction_includes_world_set():
    phi = AndF(BoxF(1, P), DiaF(1, P))
    tableau = completed(phi, FrameClass.N)
    model = extract_model(tableau)
    full = frozenset(model.worlds)
    for per_world in model.neighbourhoods.values():
        for collection in per_world.values():
            assert full in collection


def test_supplemented_extraction_is_upward_closed():
    phi = AndF(BoxF(1, P), DiaF(1, Q))
    tableau = completed(phi, FrameClass.M)
    model = extract_model(tableau)
    assert check_frame_class(model, FrameClass.M)


def test_intersection_extraction_is_meet_closed():
    phi = AndF(AndF(BoxF(1, P), BoxF(1, Q)), DiaF(1, P))
    tableau = completed(phi, FrameClass.C)
    model = extract_model(tableau)
    assert check_frame_class(model, FrameClass.C)


def test_extraction_refuses_clashed_state():
    from nnmdl.syntax import Not
    from nnmdl.tableau import init

    tableau = init(normalize(P), FrameClass.E)
    tableau.add_concept(0, A, 0)
    tableau.add_concept(0, Not(A), 0)
    with pytest.raises(ValueError, match="clash"):
        extract_model(tableau)


# -- validation --------------------------------------------------------------------

def test_validate_positive_on_corpus():
    rng = random.Random(12)
    checked = 0
    for _ in range(25):
        phi = random_normalized_formula(rng)
        for fc in FrameClass:
            result = solve(phi, fc, SolveOptions(extract=False))
            if result.verdict == "sat":
                checked += 1
                model = extract_model(result.completion)
                assert validate(model, phi, fc)
    assert checked > 20


def test_validate_negative_control():
    phi = AndF(BoxF(1, P), DiaF(1, Q))
    tableau = completed(phi, FrameClass.E)
    model = extract_model(tableau)
    assert satisfies(model, "0", normalize(phi))
    # removing the box body's truth set from world 0 falsifies the box there
    body_set = Evaluator(model).formula_truth_set(P)
    assert body_set in model.neighbourhoods[1]["0"]
    model.neighbourhoods[1]["0"] = model.neighbourhoods[1]["0"] - {body_set}
    assert not satisfies(model, "0", normalize(phi))


def test_sat_solve_extracts_once(monkeypatch):
    import nnmdl.extraction

    calls = []
    original = nnmdl.extraction.extract_model

    def counting(tableau):
        calls.append(tableau.frame_class)
        return original(tableau)

    monkeypatch.setattr(nnmdl.extraction, "extract_model", counting)
    result = solve(normalize(AndF(BoxF(1, P), DiaF(1, Q))), FrameClass.E)
    assert result.verdict == "sat"
    assert calls == [FrameClass.E]  # validation reuses the extracted model


def test_solve_validates_by_default():
    rng = random.Random(44)
    for _ in range(10):
        phi = random_normalized_formula(rng)
        result = solve(phi, FrameClass.C)
        if result.verdict == "sat":
            assert result.model is not None
            assert check_frame_class(result.model, FrameClass.C)
