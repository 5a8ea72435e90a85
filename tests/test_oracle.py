import random
import threading
from itertools import islice

import pytest

from nnmdl import oracle
from nnmdl.oracle import (
    SAT,
    UNSAT_WITHIN_BOUNDS,
    BoundsTooLargeError,
    OracleBounds,
    Signature,
    brute_force_sat,
    count_candidates,
    count_models,
    enumerate_models,
    formula_signature,
)
from nnmdl.semantics import (
    FrameClass,
    NeighbourhoodModel,
    check_frame_class,
    satisfies,
)
from nnmdl.syntax import (
    AndF,
    AtomicConcept,
    BoxF,
    CI,
    DiaF,
    NotF,
    Top,
    neg_nnf,
    normalize,
    parse_formula,
)

from corpus import random_normalized_formula, random_raw_formula_any
from test_oracle_pin import pinned_calls

P = CI(Top(), AtomicConcept("A"))


def test_enumeration_count_single_world_all_frames():
    signature = Signature(("A",), (), 1)
    bounds = OracleBounds(max_worlds=1, max_domain=1)
    models = list(enumerate_models(signature, bounds, FrameClass.E))
    # 2 concept extensions x 4 neighbourhood collections over one world
    assert len(models) == 8


def test_enumeration_count_unit_frames():
    signature = Signature(("A",), (), 1)
    bounds = OracleBounds(max_worlds=1, max_domain=1)
    models = list(enumerate_models(signature, bounds, FrameClass.N))
    assert len(models) == 4


def test_enumeration_bounds_too_large():
    signature = Signature(("A", "B"), ("r",), 2)
    bounds = OracleBounds(max_worlds=3, max_domain=2)
    with pytest.raises(BoundsTooLargeError):
        next(enumerate_models(signature, bounds, FrameClass.E))


def test_count_models_matches_enumeration():
    signature = Signature(("A",), ("r",), 1)
    bounds = OracleBounds(max_worlds=2, max_domain=1)
    for fc in FrameClass:
        enumerated = sum(1 for _ in enumerate_models(signature, bounds, fc))
        assert count_models(signature, bounds, fc) == enumerated


def test_count_candidates_closed_form():
    signature = Signature(("A",), (), 1)
    bounds = OracleBounds(max_worlds=1, max_domain=1)
    # one world, one element: 2 extensions x 2^(2^1) raw collections
    assert count_candidates(signature, bounds) == 2 * 4


def test_bounds_validation():
    with pytest.raises(ValueError):
        OracleBounds(max_worlds=0)
    with pytest.raises(ValueError):
        OracleBounds(max_worlds=5)
    with pytest.raises(ValueError):
        OracleBounds(domain_mode="flexible")
    for field, value in [
        ("max_worlds", 2.5),
        ("max_worlds", True),
        ("max_worlds", "2"),
        ("max_domain", 1.0),
        ("candidate_cap", "9"),
        ("candidate_cap", -1),
    ]:
        with pytest.raises(ValueError, match=field):
            OracleBounds(**{field: value})
    # Positional construction, `_make` and `_replace` check the same fields.
    for field, build in [
        ("max_worlds", lambda: OracleBounds(0, 1)),
        ("max_domain", lambda: OracleBounds._make((1, 0, "varying", 1))),
        ("max_worlds", lambda: OracleBounds()._replace(max_worlds=0)),
    ]:
        with pytest.raises(ValueError, match=f"^{field} must be at least 1, got 0$"):
            build()
    for field, build in [
        ("max_worlds", lambda: OracleBounds(2.5, 1)),
        ("max_domain", lambda: OracleBounds()._replace(max_domain=5)),
        ("candidate_cap", lambda: OracleBounds()._replace(candidate_cap=-1)),
        ("domain mode", lambda: OracleBounds(1, 1, "flexible")),
    ]:
        with pytest.raises(ValueError, match=field):
            build()
    assert OracleBounds()._replace(max_worlds=1) == OracleBounds(max_worlds=1)


def test_signature_limits_enforced():
    signature = Signature(("A", "B", "C", "D"), (), 1)
    with pytest.raises(ValueError, match="too many concept names"):
        next(enumerate_models(signature, OracleBounds(), FrameClass.E))


def test_class_filter_matches_checker():
    signature = Signature(("A",), (), 1)
    bounds = OracleBounds(max_worlds=2, max_domain=1)
    unrestricted = list(enumerate_models(signature, bounds, FrameClass.E))
    for fc in (FrameClass.M, FrameClass.C, FrameClass.N):
        filtered = [
            m.to_json() for m in unrestricted if check_frame_class(m, fc)
        ]
        direct = [m.to_json() for m in enumerate_models(signature, bounds, fc)]
        assert filtered == direct


def test_enumerated_models_share_no_dict():
    signature = Signature(("A",), ("r",), 1)
    bounds = OracleBounds(max_worlds=1, max_domain=1)
    models = enumerate_models(signature, bounds, FrameClass.E)
    expected = [model.to_json() for model in islice(models, 2)]
    models = enumerate_models(signature, bounds, FrameClass.E)
    first = next(models)
    first.domains.clear()
    first.concepts["w0"].clear()
    first.roles["w0"].clear()
    first.neighbourhoods[1].clear()
    assert next(models).to_json() == expected[1]


def test_enumerated_models_satisfy_their_class():
    signature = Signature((), (), 1)
    bounds = OracleBounds(max_worlds=2, max_domain=1)
    for fc in FrameClass:
        for model in enumerate_models(signature, bounds, fc):
            assert check_frame_class(model, fc)
            model.check_invariants()


# -- verdicts -----------------------------------------------------------------

def test_trivially_valid_inclusion_sat_everywhere():
    phi = CI(Top(), Top())
    for fc in FrameClass:
        result = brute_force_sat(phi, fc)
        assert result.verdict == SAT
        assert satisfies(result.model, result.world, phi)


def test_box_diamond_contradiction_unsat():
    phi = AndF(BoxF(1, P), DiaF(1, neg_nnf(P)))
    assert brute_force_sat(phi, FrameClass.E).verdict == UNSAT_WITHIN_BOUNDS


def test_refuted_valid_inclusion_separates_unit_class():
    phi = DiaF(1, NotF(CI(Top(), Top())))
    assert brute_force_sat(phi, FrameClass.E).verdict == SAT
    assert brute_force_sat(phi, FrameClass.N).verdict == UNSAT_WITHIN_BOUNDS


def test_first_witness_is_deterministic():
    phi = parse_formula("(sub top (atom A))")
    first = brute_force_sat(phi, FrameClass.E)
    second = brute_force_sat(phi, FrameClass.E)
    assert first.model.to_json() == second.model.to_json()
    assert first.world == second.world
    assert first.models_checked == second.models_checked


def test_witness_model_satisfies_formula():
    rng = random.Random(71)
    for _ in range(30):
        phi = random_normalized_formula(rng)
        for fc in FrameClass:
            result = brute_force_sat(phi, fc)
            if result.verdict == SAT:
                assert check_frame_class(result.model, fc)
                assert satisfies(result.model, result.world, phi)


def test_verdict_invariant_under_normalization():
    rng = random.Random(201)
    count = 0
    while count < 25:
        raw = random_raw_formula_any(rng, depth=2)
        phi = normalize(raw)
        sig = formula_signature(phi)
        if count_candidates(sig, OracleBounds()) > 300_000:
            continue
        count += 1
        for fc in (FrameClass.E, FrameClass.N):
            assert (
                brute_force_sat(raw, fc).verdict
                == brute_force_sat(phi, fc).verdict
            )


def test_monotone_class_containment():
    rng = random.Random(303)
    for _ in range(40):
        phi = random_normalized_formula(rng)
        base = brute_force_sat(phi, FrameClass.E).verdict
        for fc in (FrameClass.M, FrameClass.C, FrameClass.N):
            if brute_force_sat(phi, fc).verdict == SAT:
                assert base == SAT


def test_constant_domain_mode_produces_equal_domains():
    signature = Signature(("A",), (), 0)
    bounds = OracleBounds(max_worlds=2, max_domain=2, domain_mode="constant")
    for model in enumerate_models(signature, bounds, FrameClass.E):
        assert model.constant_domain
        domains = {model.domains[w] for w in model.worlds}
        assert len(domains) == 1


# -- the mask evaluator against the reference evaluator -----------------------

#: Bounds of the differential below: three worlds with one element each in
#: both domain modes; two worlds with one element, where most modal
#: formulas fit the budget; one world with up to three elements, for role
#: pairs; and the default bounds, whose varying domains give elements that
#: some worlds lack.
REFERENCE_BOUNDS = (
    OracleBounds(max_worlds=3, max_domain=1, candidate_cap=10**10),
    OracleBounds(
        max_worlds=3, max_domain=1, domain_mode="constant", candidate_cap=10**10
    ),
    OracleBounds(max_worlds=2, max_domain=1),
    OracleBounds(max_worlds=1, max_domain=3),
    OracleBounds(),
)
#: Largest class-filtered space walked per (formula, class, bounds).
REFERENCE_BUDGET = 8_000
REFERENCE_DRAWS = 80


def reference_walk(phi, fc, bounds):
    """First model in enumeration order with a world where `satisfies`
    holds: (model, world, models walked), or (None, None, models walked)."""
    walked = 0
    for model in enumerate_models(formula_signature(phi), bounds, fc):
        walked += 1
        for world in model.worlds:
            if satisfies(model, world, phi):
                return model, world, walked
    return None, None, walked


#: Formulas whose first witness (or full sweep) depends on role pairs of
#: elements past d0, and on boxes at worlds that lack the element.
REFERENCE_FORMULAS = (
    "(not (sub (some r (atom A)) (atom A)))",
    "(not (sub (box 1 top) top))",
)


def reference_formulas():
    """The fixed formulas, then a seeded sample of normalized and raw
    formulas; raw ones add inclusions with a left side other than top and
    negations above compound concepts."""
    for text in REFERENCE_FORMULAS:
        yield parse_formula(text)
    rng = random.Random(907)
    for _ in range(REFERENCE_DRAWS):
        yield random_normalized_formula(rng)
        yield random_raw_formula_any(rng, 2)


def reference_cases():
    """(formula, class, bounds) triples whose class-filtered space fits the
    budget."""
    for phi in reference_formulas():
        signature = formula_signature(phi)
        for bounds in REFERENCE_BOUNDS:
            for fc in FrameClass:
                if count_models(signature, bounds, fc) <= REFERENCE_BUDGET:
                    yield phi, fc, bounds


def test_mask_evaluation_matches_reference_evaluator():
    cases = hits = 0
    for phi, fc, bounds in reference_cases():
        cases += 1
        model, world, walked = reference_walk(phi, fc, bounds)
        result = brute_force_sat(phi, fc, bounds)
        assert result.models_checked == walked, (phi, fc, bounds)
        if model is None:
            assert result.verdict == UNSAT_WITHIN_BOUNDS, (phi, fc, bounds)
            assert result.model is None and result.world is None
        else:
            hits += 1
            assert result.verdict == SAT, (phi, fc, bounds)
            assert result.world == world
            assert result.model == model
    assert 0 < hits < cases


# -- the witness decode against enumeration -----------------------------------

def witness_calls():
    """A seeded slice of the oracle pin's calls, which cover every class
    with varying domains and C and N with constant domains."""
    return random.Random(19).sample(list(pinned_calls()), 150)


def test_witness_is_the_enumerated_model_at_its_count():
    covered = set()
    for phi, fc, bounds in witness_calls():
        result = brute_force_sat(phi, fc, bounds)
        if result.verdict != SAT:
            continue
        covered.add((fc, bounds.domain_mode))
        models = enumerate_models(formula_signature(phi), bounds, fc)
        model = next(islice(models, result.models_checked - 1, None))
        assert result.model.to_json() == model.to_json(), (phi, fc, bounds)
        first = next(w for w in model.worlds if satisfies(model, w, phi))
        assert result.world == first, (phi, fc, bounds)
    assert covered == {(fc, "varying") for fc in FrameClass} | {
        (FrameClass.C, "constant"),
        (FrameClass.N, "constant"),
    }


@pytest.mark.parametrize(
    "text, verdict, checked",
    [
        ("(and (sub top (some r (atom A))) (not (sub top (atom A))))", SAT, 26),
        (
            "(and (box 1 (sub top (atom A))) (dia 1 (not (sub top (atom A)))))",
            UNSAT_WITHIN_BOUNDS,
            9240,
        ),
    ],
)
def test_only_the_witness_is_decoded(monkeypatch, text, verdict, checked):
    built = []

    def counting(**fields):
        built.append(fields)
        return NeighbourhoodModel(**fields)

    monkeypatch.setattr(oracle, "NeighbourhoodModel", counting)
    result = brute_force_sat(parse_formula(text), FrameClass.E)
    assert (result.verdict, result.models_checked) == (verdict, checked)
    assert len(built) == (1 if verdict == SAT else 0)


# -- the one-world rule -------------------------------------------------------

#: Modality-free formulas with a role: the first witness needs two
#: elements, or no model within bounds satisfies the formula.
ONE_WORLD_FORMULAS = (
    "(and (sub top (some r (atom A))) (not (sub top (atom A))))",
    "(and (sub top (some r top)) (sub top (all r bot)))",
    "(and (sub top (some r (atom A))) (sub top (all r (not (atom A)))))",
)
#: Largest space walked per (formula, bounds).
ONE_WORLD_BUDGET = 20_000


def modality_free_cases():
    """(formula, class, bounds): the fixed formulas, then seeded corpus
    formulas without a modal operator, at two worlds and two elements in
    both domain modes, where the space fits the budget.  Without a
    modality the class admits every model, so the classes take turns."""
    formulas = [parse_formula(text) for text in ONE_WORLD_FORMULAS]
    rng = random.Random(20)
    while len(formulas) < 40 + len(ONE_WORLD_FORMULAS):
        phi = random_normalized_formula(rng)
        if formula_signature(phi).modalities == 0:
            formulas.append(phi)
    classes = list(FrameClass)
    for n, phi in enumerate(formulas):
        for mode in ("varying", "constant"):
            bounds = OracleBounds(max_worlds=2, max_domain=2, domain_mode=mode)
            fc = classes[n % len(classes)]
            if count_models(formula_signature(phi), bounds, fc) <= ONE_WORLD_BUDGET:
                yield phi, fc, bounds


def test_one_world_rule_matches_the_reference_walk():
    with_roles = unsat = 0
    for phi, fc, bounds in modality_free_cases():
        model, world, walked = reference_walk(phi, fc, bounds)
        result = brute_force_sat(phi, fc, bounds)
        assert result.models_checked == walked, (phi, bounds)
        assert (result.model, result.world) == (model, world), (phi, bounds)
        # No model of two worlds satisfies a formula that no one-world
        # model satisfies: the walk covers them all before it gives up.
        assert model is None or len(model.worlds) == 1, (phi, bounds)
        if model is None:
            assert result.verdict == UNSAT_WITHIN_BOUNDS
            assert walked == count_models(formula_signature(phi), bounds, fc)
            unsat += 1
        with_roles += bool(formula_signature(phi).role_names)
    assert with_roles >= 10 and unsat >= 10


def test_modality_free_sweep_builds_one_world_programs_only(monkeypatch):
    built = []
    program = oracle._Program

    def counting(plan, shape):
        built.append(shape.wcount)
        return program(plan, shape)

    monkeypatch.setattr(oracle, "_Program", counting)
    phi = parse_formula(ONE_WORLD_FORMULAS[2])
    result = brute_force_sat(phi, FrameClass.E)
    assert result.verdict == UNSAT_WITHIN_BOUNDS
    signature = formula_signature(phi)
    assert result.models_checked == count_models(signature, OracleBounds(), FrameClass.E)
    # One program per one-world shape: one per domain size.
    assert built == [1, 1]


# -- the table of bounded spaces ----------------------------------------------

def test_space_table_grows_with_signature_sizes_not_names(monkeypatch):
    monkeypatch.setattr(oracle, "_SPACES", {})
    for i in range(50):
        text = f"(and (sub top (atom A{i})) (not (sub top (atom B{i}))))"
        assert brute_force_sat(parse_formula(text), FrameClass.E).verdict == SAT
    assert len(oracle._SPACES) == 1


def test_candidate_cap_holds_with_and_without_an_entry(monkeypatch):
    monkeypatch.setattr(oracle, "_SPACES", {})
    phi = parse_formula("(sub top (some r (atom A)))")
    candidates = count_candidates(formula_signature(phi), OracleBounds())
    tight = OracleBounds(candidate_cap=candidates - 1)
    with pytest.raises(BoundsTooLargeError):
        brute_force_sat(phi, FrameClass.E, tight)
    assert not oracle._SPACES  # a refused space gets no entry
    assert brute_force_sat(phi, FrameClass.E).verdict == SAT
    with pytest.raises(BoundsTooLargeError):
        brute_force_sat(phi, FrameClass.E, tight)
    exact = OracleBounds(candidate_cap=candidates)
    assert brute_force_sat(phi, FrameClass.E, exact).verdict == SAT


def test_threads_filling_one_entry_share_it(monkeypatch):
    monkeypatch.setattr(oracle, "_SPACES", {})
    both_missed = threading.Barrier(2, timeout=10)
    build = oracle._build_space

    def build_after_both_missed(*args):
        space = build(*args)
        both_missed.wait()
        return space

    monkeypatch.setattr(oracle, "_build_space", build_after_both_missed)
    signature = Signature(("A",), ("r",), 1)
    spaces = []

    def fill():
        spaces.append(oracle._mask_space(signature, OracleBounds(), FrameClass.C))

    threads = [threading.Thread(target=fill) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert len(spaces) == 2 and spaces[0] is spaces[1]
    (entry,) = oracle._SPACES.values()
    assert entry[1] is spaces[0]


# -- known defects --------------------------------------------------------------

@pytest.mark.xfail(strict=True, reason="ROADMAP item 7: prefix domains")
def test_an_element_may_miss_a_world():
    # Sat under N (`solve` finds a validated model), but every enumerated
    # varying domain is a prefix d0..d{s-1}, so d0 is in every world.
    phi = parse_formula("(sub top (dia 1 bot))")
    assert brute_force_sat(phi, FrameClass.N).verdict == SAT
