"""End-to-end acceptance suite.

Each test covers one gate and prints a single PASS line on success (run
with -s to see them); any violation fails the corresponding assertion.
The randomized corpora are seeded, so every run exercises identical
inputs.
"""

import random
import time
from dataclasses import dataclass, field

import pytest

from nnmdl.extraction import validate
from nnmdl.fragment import solve_fragment
from nnmdl.oracle import (
    SAT,
    OracleBounds,
    brute_force_sat,
    count_models,
    formula_signature,
)
from nnmdl.semantics import FrameClass, check_frame_class
from nnmdl.syntax import (
    closure,
    neg_nnf,
    normalize,
    parse_formula,
    serialize,
    weight,
)
from nnmdl.tableau import label_budget, solve

from corpus import (
    random_g_formula,
    random_normalized_formula,
    random_raw_formula_any,
)
from test_agenda import concept_pairs
from test_semantics import add_unit, close_intersection, close_supplementation

CORPUS_SEED = 74453
CORPUS_SIZE = 500
FRAGMENT_SEED = 99120
FRAGMENT_SIZE = 200
#: A second fragment-corpus seed for the tableau differential, first run
#: once both engines under test were final.
FRAGMENT_TABLEAU_SEED = 61803
CLASSES = (FrameClass.E, FrameClass.M, FrameClass.C, FrameClass.N)
#: Three worlds with one element each, for every corpus answer whose
#: class-filtered space at these bounds has at most SLICE_BUDGET models
#: (a cap above count_candidates' raw count, which the filter keeps small).
SLICE_BOUNDS = OracleBounds(max_worlds=3, max_domain=1, candidate_cap=10**10)
SLICE_BUDGET = 600_000


def constraint_count(system) -> int:
    """The formulas, (concept, variable) pairs and roles asserted at one
    label."""
    pairs = concept_pairs(system)
    return len(system.formulas) + len(pairs) + len(system.roles)


@dataclass
class ClassOutcome:
    tableau_verdict: str
    oracle_verdict: str
    validated: bool | None
    labels: int
    max_label_constraints: int
    model_worlds: int | None
    model_max_domain: int | None


@dataclass
class CaseOutcome:
    text: str
    fg_size: int
    per_class: dict = field(default_factory=dict)


@pytest.fixture(scope="module")
def corpus_results():
    rng = random.Random(CORPUS_SEED)
    started = time.time()
    cases = []
    for _ in range(CORPUS_SIZE):
        phi = random_normalized_formula(rng)
        case = CaseOutcome(serialize(phi), closure(phi).fg_size)
        for fc in CLASSES:
            result = solve(phi, fc)
            oracle = brute_force_sat(phi, fc)
            if result.verdict == "sat":
                completion = result.completion
                labels = len(completion.systems)
                max_constraints = max(
                    constraint_count(s) for s in completion.systems
                )
                ok = validate(result.model, phi, fc)
                model = result.model
                outcome = ClassOutcome(
                    "sat",
                    oracle.verdict,
                    ok,
                    labels,
                    max_constraints,
                    len(model.worlds),
                    max(len(model.domains[w]) for w in model.worlds),
                )
            else:
                outcome = ClassOutcome(
                    "unsat", oracle.verdict, None, 0, 0, None, None
                )
            case.per_class[fc] = outcome
        cases.append(case)
    elapsed = time.time() - started
    return cases, elapsed


@pytest.fixture(scope="module")
def fragment_results():
    rng = random.Random(FRAGMENT_SEED)
    bounds = OracleBounds(domain_mode="constant")
    started = time.time()
    cases = []
    for _ in range(FRAGMENT_SIZE):
        phi = random_g_formula(rng)
        row = {"text": serialize(phi)}
        for fc in (FrameClass.C, FrameClass.N):
            row[fc] = (
                solve_fragment(phi, fc).verdict,
                brute_force_sat(phi, fc, bounds).verdict,
            )
        cases.append((phi, row))
    elapsed = time.time() - started
    return cases, elapsed


def test_differential_tableau_vs_oracle(corpus_results):
    cases, elapsed = corpus_results
    violations = []
    oracle_sat = 0
    for case in cases:
        for fc in CLASSES:
            outcome = case.per_class[fc]
            if outcome.oracle_verdict == SAT:
                oracle_sat += 1
                if outcome.tableau_verdict != "sat":
                    violations.append((fc.value, case.text))
    assert not violations, violations[:5]
    assert oracle_sat > CORPUS_SIZE  # the corpus is not degenerate
    print(
        f"\nPASS differential search-vs-enumeration: {CORPUS_SIZE} formulas x "
        f"{len(CLASSES)} classes, {oracle_sat} enumeration-sat cases all "
        f"confirmed, 0 contradictions ({elapsed:.0f}s)"
    )


def test_countermodel_validation(corpus_results):
    cases, _ = corpus_results
    checked = 0
    for case in cases:
        for fc in CLASSES:
            outcome = case.per_class[fc]
            if outcome.tableau_verdict == "sat":
                checked += 1
                assert outcome.validated, (fc.value, case.text)
    assert checked > CORPUS_SIZE
    print(f"\nPASS countermodel validation: {checked}/{checked} extracted "
          "models satisfy their formula in their frame class")


def test_termination_bounds(corpus_results):
    cases, _ = corpus_results
    for case in cases:
        constraint_cap = 2 ** (2 * case.fg_size)
        for fc in CLASSES:
            outcome = case.per_class[fc]
            if outcome.tableau_verdict != "sat":
                continue
            assert outcome.labels <= label_budget(case.fg_size, fc), case.text
            assert outcome.max_label_constraints <= constraint_cap, case.text
    print("\nPASS termination bounds: label and per-label constraint budgets "
          "respected across the corpus")


def test_three_world_slice(corpus_results):
    cases, _ = corpus_results
    started = time.time()
    checked = oracle_sat = became_sat = 0
    violations = []
    for case in cases:
        phi = parse_formula(case.text)
        signature = formula_signature(phi)
        for fc in CLASSES:
            if count_models(signature, SLICE_BOUNDS, fc) > SLICE_BUDGET:
                continue
            checked += 1
            if brute_force_sat(phi, fc, SLICE_BOUNDS).verdict != SAT:
                continue
            oracle_sat += 1
            outcome = case.per_class[fc]
            if outcome.tableau_verdict != "sat":
                violations.append((fc.value, case.text))
            if outcome.oracle_verdict != SAT:
                became_sat += 1
    assert not violations, violations[:5]
    assert checked > CORPUS_SIZE
    print(
        f"\nPASS three-world slice: {checked} corpus answers re-decided over "
        f"3 worlds x 1 element, {oracle_sat} enumeration-sat cases all "
        f"confirmed, {became_sat} of them unsat-within-bounds at 2 worlds "
        f"({time.time() - started:.0f}s)"
    )


SEPARATION_TABLE = [
    (
        "(and (box 1 (sub top (atom A))) (dia 1 (not (sub top (atom A)))))",
        {"E": "unsat", "M": "unsat", "C": "unsat", "N": "unsat"},
    ),
    (
        "(and (and (box 1 (sub top (atom A))) (box 1 (sub top (atom B))))"
        " (not (box 1 (and (sub top (atom A)) (sub top (atom B))))))",
        {"E": "sat", "M": "sat", "C": "unsat", "N": "sat"},
    ),
    (
        "(dia 1 (not (sub top top)))",
        {"E": "sat", "M": "sat", "C": "sat", "N": "unsat"},
    ),
    (
        "(and (box 1 (and (sub top (atom A)) (sub top (atom B))))"
        " (dia 1 (not (sub top (atom A)))))",
        {"E": "sat", "M": "unsat", "C": "sat", "N": "sat"},
    ),
]


def test_logic_separation_table():
    for text, expected in SEPARATION_TABLE:
        phi = parse_formula(text)
        for fc in CLASSES:
            tableau_verdict = solve(phi, fc).verdict
            oracle_verdict = brute_force_sat(phi, fc).verdict
            assert tableau_verdict == expected[fc.value], (text, fc.value)
            oracle_as_binary = "sat" if oracle_verdict == SAT else "unsat"
            assert oracle_as_binary == expected[fc.value], (text, fc.value)
    print("\nPASS logic separation: 16/16 verdicts match the frozen table "
          "and the enumeration on all four discriminating formulas")


def test_extracted_model_size_bounds(corpus_results):
    cases, _ = corpus_results
    for case in cases:
        domain_cap = 2 ** (2 * case.fg_size)
        for fc in CLASSES:
            outcome = case.per_class[fc]
            if outcome.model_worlds is None:
                continue
            assert outcome.model_worlds <= label_budget(case.fg_size, fc)
            assert outcome.model_max_domain <= domain_cap
    print("\nPASS bounded countermodels: world and domain counts stay inside "
          "the exponential budgets")


def test_fragment_differential(fragment_results):
    cases, elapsed = fragment_results
    oracle_sat = 0
    for phi, row in cases:
        for fc in (FrameClass.C, FrameClass.N):
            fragment_verdict, oracle_verdict = row[fc]
            if oracle_verdict == SAT:
                oracle_sat += 1
                assert fragment_verdict == "sat", (fc.value, row["text"])
    assert oracle_sat > FRAGMENT_SIZE // 2
    print(
        f"\nPASS fragment differential: {FRAGMENT_SIZE} formulas x 2 classes, "
        f"{oracle_sat} enumeration-sat cases all confirmed ({elapsed:.0f}s)"
    )


@pytest.mark.parametrize("seed", [FRAGMENT_SEED, FRAGMENT_TABLEAU_SEED])
def test_fragment_matches_tableau(seed):
    # Without modalised concepts, satisfiability over constant and over
    # varying domains coincide (worlds share no elements and cloning an
    # element is a bisimulation, so domains pad to one size).  The
    # tableau is then an unbounded reference sharing no code with the
    # fragment's elimination; where they disagree, the oracle names the
    # engine that is wrong.
    rng = random.Random(seed)
    bounds = OracleBounds(domain_mode="constant")
    started = time.time()
    disagreements = []
    for _ in range(FRAGMENT_SIZE):
        phi = random_g_formula(rng)
        for fc in (FrameClass.C, FrameClass.N):
            fragment_verdict = solve_fragment(phi, fc).verdict
            tableau_verdict = solve(phi, fc).verdict
            if fragment_verdict == tableau_verdict:
                continue
            oracle_verdict = brute_force_sat(phi, fc, bounds).verdict
            if oracle_verdict == SAT:
                wrong = "fragment" if fragment_verdict != "sat" else "tableau"
            else:
                wrong = f"undecided (oracle: {oracle_verdict})"
            disagreements.append(
                (fc.value, serialize(phi), fragment_verdict, tableau_verdict, wrong)
            )
    assert not disagreements, disagreements[:5]
    print(
        f"\nPASS fragment vs tableau at seed {seed}: {FRAGMENT_SIZE} formulas "
        f"x 2 classes agree ({time.time() - started:.1f}s)"
    )


def test_class_containment(corpus_results, fragment_results):
    cases, _ = corpus_results
    for case in cases:
        for fc in (FrameClass.M, FrameClass.C, FrameClass.N):
            outcome = case.per_class[fc]
            base = case.per_class[FrameClass.E]
            if outcome.tableau_verdict == "sat":
                assert base.tableau_verdict == "sat", (fc.value, case.text)
            if outcome.oracle_verdict == SAT:
                assert base.oracle_verdict == SAT, (fc.value, case.text)
    fragment_cases, _ = fragment_results
    bounds = OracleBounds(domain_mode="constant")
    for phi, row in fragment_cases:
        if any(row[fc][1] == SAT for fc in (FrameClass.C, FrameClass.N)):
            assert brute_force_sat(phi, FrameClass.E, bounds).verdict == SAT
    print("\nPASS class containment: every sat verdict under M, C, or N is "
          "sat under E, in both engines, on both corpora")


def test_unit_invariants():
    rng = random.Random(1312)
    for _ in range(1000):
        raw = random_raw_formula_any(rng)
        phi = normalize(raw)
        assert normalize(phi) == phi
        assert neg_nnf(neg_nnf(phi)) == phi
        assert weight(phi) == weight(neg_nnf(phi))
        assert parse_formula(serialize(raw)) == raw

    subsets = [
        frozenset(),
        frozenset({"w"}),
        frozenset({"v"}),
        frozenset({"w", "v"}),
    ]
    from nnmdl.semantics import NeighbourhoodModel

    ops = (close_supplementation, FrameClass.M), (
        close_intersection,
        FrameClass.C,
    ), (add_unit, FrameClass.N)
    for _ in range(1000):
        model = NeighbourhoodModel(
            worlds=("w", "v"),
            constant_domain=False,
            domains={"w": frozenset({"d"}), "v": frozenset({"d"})},
            concepts={},
            roles={},
            neighbourhoods={
                1: {
                    w: frozenset(rng.sample(subsets, rng.randint(0, 4)))
                    for w in ("w", "v")
                }
            },
        )
        for op, fc in ops:
            closed = op(model)
            assert check_frame_class(closed, fc)
            assert op(closed).neighbourhoods == closed.neighbourhoods
    print("\nPASS unit invariants: normalization idempotent, negation an "
          "involution, weight negation-invariant, parse/serialize inverse, "
          "frame closures idempotent and class-establishing (1000 cases each)")
