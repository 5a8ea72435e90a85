import json
import random

import pytest

from nnmdl import syntax
from nnmdl.semantics import (
    Evaluator,
    FrameClass,
    ModelTooLargeError,
    NeighbourhoodModel,
    check_frame_class,
    satisfies,
)
from nnmdl.syntax import (
    AtomicConcept,
    Bot,
    Box,
    BoxF,
    CI,
    Dia,
    DiaF,
    Exists,
    Not,
    NotF,
    Top,
    normalize,
    parse_formula,
)
from nnmdl.tableau import solve

from corpus import random_raw_formula_any

A = AtomicConcept("A")


def make_model(
    worlds,
    domains,
    concepts=None,
    roles=None,
    neighbourhoods=None,
    constant=False,
):
    return NeighbourhoodModel(
        worlds=tuple(worlds),
        constant_domain=constant,
        domains={w: frozenset(d) for w, d in domains.items()},
        concepts={
            w: {a: frozenset(m) for a, m in ext.items()}
            for w, ext in (concepts or {}).items()
        },
        roles={
            w: {r: frozenset(tuple(p) for p in pairs) for r, pairs in ext.items()}
            for w, ext in (roles or {}).items()
        },
        neighbourhoods={
            i: {w: frozenset(frozenset(s) for s in coll) for w, coll in per.items()}
            for i, per in (neighbourhoods or {}).items()
        },
    )


def single_world(neigh=None, a_ext=("d",)):
    return make_model(
        ["w"],
        {"w": {"d"}},
        concepts={"w": {"A": set(a_ext)}},
        neighbourhoods={1: {"w": neigh if neigh is not None else []}},
    )


# -- concept interpretation ---------------------------------------------------

def test_interpret_complement():
    model = single_world()
    assert Evaluator(model).concept_ext("w", Not(A)) == frozenset()


def test_interpret_box_via_truth_set():
    model = single_world(neigh=[{"w"}])
    assert Evaluator(model).concept_ext("w", Box(1, A)) == frozenset({"d"})


def test_interpret_box_missing_neighbourhood():
    model = single_world(neigh=[])
    assert Evaluator(model).concept_ext("w", Box(1, A)) == frozenset()


def test_interpret_unknown_world():
    with pytest.raises(ValueError, match="unknown world"):
        Evaluator(single_world()).concept_ext("v", A)


def test_interpret_modality_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        Evaluator(single_world()).concept_ext("w", Box(2, A))


#: Formulas whose other operand would decide them if index 2 were skipped.
MISSING_INDEX = [
    "(and (sub top bot) (box 2 (sub top top)))",
    "(or (sub top top) (box 2 (sub top top)))",
    "(and (sub top top) (box 2 (sub top top)))",
]


@pytest.mark.parametrize("text", MISSING_INDEX)
def test_a_missing_index_raises_whatever_the_other_operand(text):
    model = make_model(["w"], {"w": {"d"}}, neighbourhoods={1: {"w": [{"w"}]}})
    phi = parse_formula(text)
    interned = len(syntax._TERMS)
    with pytest.raises(ValueError, match="^modality index 2 out of range$"):
        satisfies(model, "w", phi)
    assert len(syntax._TERMS) == interned


def test_interpret_exists_two_world_table():
    model = make_model(
        ["u", "v"],
        {"u": {"d", "e"}, "v": {"d"}},
        concepts={"u": {"A": {"e"}}, "v": {"A": {"d"}}},
        roles={
            "u": {"r": [("d", "e"), ("e", "e")]},
            "v": {"r": [("d", "d")]},
        },
    )
    # Hand enumeration: at u, members with an r-successor in A = {d, e};
    # at v, d loops onto itself and d is in A.
    ext = Evaluator(model).concept_ext
    assert ext("u", Exists("r", A)) == frozenset({"d", "e"})
    assert ext("v", Exists("r", A)) == frozenset({"d"})
    assert ext("u", Exists("r", Not(A))) == frozenset()


# -- truth sets ---------------------------------------------------------------

def test_truth_set_top_is_domain_membership():
    model = make_model(
        ["u", "v"],
        {"u": {"d", "e"}, "v": {"d"}},
    )
    assert Evaluator(model).concept_truth_set("e", Top()) == frozenset({"u"})
    assert Evaluator(model).concept_truth_set("d", Top()) == frozenset({"u", "v"})


def test_truth_set_bot_empty():
    model = single_world()
    assert Evaluator(model).concept_truth_set("d", Bot()) == frozenset()


def test_truth_set_varying_domain_excludes_absent():
    model = make_model(
        ["u", "v"],
        {"u": {"d", "e"}, "v": {"d"}},
        concepts={"u": {"A": {"d", "e"}}, "v": {"A": {"d"}}},
    )
    assert Evaluator(model).concept_truth_set("e", A) == frozenset({"u"})
    assert Evaluator(model).concept_truth_set("e", Not(A)) == frozenset()


# -- formula satisfaction ------------------------------------------------------

def test_trivially_valid_inclusion():
    model = single_world()
    assert satisfies(model, "w", CI(Bot(), Top()))


def test_diamond_with_empty_neighbourhood():
    model = single_world(neigh=[])
    for text in ["(sub top (atom A))", "(not (sub top (atom A)))", "(sub top bot)"]:
        assert satisfies(model, "w", DiaF(1, parse_formula(text)))


def test_box_formula_single_world():
    psi = CI(Top(), A)
    model = single_world(neigh=[{"w"}])
    assert satisfies(model, "w", psi)
    assert satisfies(model, "w", BoxF(1, psi))
    model2 = single_world(neigh=[set()])
    assert not satisfies(model2, "w", BoxF(1, psi))


def test_satisfaction_invariant_under_normalization():
    rng = random.Random(13)
    model = make_model(
        ["u", "v"],
        {"u": {"d", "e"}, "v": {"d"}},
        concepts={"u": {"A": {"d"}, "B": {"e"}}, "v": {"A": {"d"}, "B": set()}},
        roles={"u": {"r": [("d", "e")]}, "v": {"r": []}},
        neighbourhoods={
            1: {"u": [{"u"}, {"u", "v"}], "v": [set()]},
            2: {"u": [], "v": [{"v"}]},
        },
    )
    for _ in range(300):
        phi = random_raw_formula_any(rng)
        for w in model.worlds:
            assert satisfies(model, w, phi) == satisfies(model, w, normalize(phi))


def test_formula_truth_set():
    model = make_model(
        ["u", "v"],
        {"u": {"d"}, "v": {"d"}},
        concepts={"u": {"A": {"d"}}, "v": {"A": set()}},
    )
    assert Evaluator(model).formula_truth_set(CI(Top(), A)) == frozenset({"u"})


def test_diamonds_evaluate_without_building_a_negation():
    # Not-C holds of d at v where v's domain holds d and C does not, so a
    # diamond reads its body's truth sets and interns no new term.  Varying
    # domains: e is absent from v, and the fresh atom holds of d at u only.
    fresh = AtomicConcept("NeverNegated")
    psi = CI(Top(), fresh)
    model = make_model(
        ["u", "v"],
        {"u": {"d", "e"}, "v": {"d"}},
        concepts={"u": {"NeverNegated": {"d"}}},
        neighbourhoods={1: {"u": [{"v"}], "v": [{"v"}, {"u", "v"}]}},
    )
    dia, dia_f = Dia(1, fresh), DiaF(1, psi)
    before = len(syntax._TERMS)
    evaluator = Evaluator(model)
    # Not-C holds of d at {v}, a neighbourhood of u and v, and of e at {u},
    # which is none.
    assert evaluator.concept_ext("u", dia) == frozenset({"e"})
    assert evaluator.concept_ext("v", dia) == frozenset()
    # psi holds nowhere, so its negation holds at {u, v}.
    assert evaluator.holds("u", dia_f)
    assert not evaluator.holds("v", dia_f)
    assert len(syntax._TERMS) == before
    assert (Not, fresh) not in syntax._TERMS
    assert (NotF, psi) not in syntax._TERMS


# -- frame classes --------------------------------------------------------------

def two_world_model(neigh_w):
    return make_model(
        ["w", "v"],
        {"w": {"d"}, "v": {"d"}},
        neighbourhoods={1: {"w": neigh_w, "v": []}},
    )


def test_supplemented_counterexample():
    model = two_world_model([{"w"}])
    assert not check_frame_class(model, FrameClass.M)


def test_full_powerset_in_every_class():
    model = two_world_model([set(), {"w"}, {"v"}, {"w", "v"}])
    model.neighbourhoods[1]["v"] = model.neighbourhoods[1]["w"]
    for fc in (FrameClass.E, FrameClass.M, FrameClass.C, FrameClass.N):
        assert check_frame_class(model, fc)


def test_intersection_counterexample():
    model = two_world_model([{"w"}, {"v"}])
    assert not check_frame_class(model, FrameClass.C)


def test_unit_check_covers_all_worlds():
    model = two_world_model([{"w", "v"}])
    assert not check_frame_class(model, FrameClass.N)  # v lacks the unit
    model.neighbourhoods[1]["v"] = frozenset({frozenset({"w", "v"})})
    assert check_frame_class(model, FrameClass.N)


def test_supplementation_check_size_guard():
    worlds = [f"w{i}" for i in range(17)]
    model = make_model(
        worlds,
        {w: {"d"} for w in worlds},
        neighbourhoods={1: {w: [] for w in worlds}},
    )
    with pytest.raises(ModelTooLargeError):
        check_frame_class(model, FrameClass.M)


# -- closure operations -----------------------------------------------------------
#
# Pointwise closures of a model's neighbourhood collections, used by these
# tests and the acceptance suite's unit invariants to build models of each
# frame class.


def _rebuild_neighbourhoods(model, transform) -> NeighbourhoodModel:
    return NeighbourhoodModel(
        worlds=model.worlds,
        constant_domain=model.constant_domain,
        domains=dict(model.domains),
        concepts={w: dict(ext) for w, ext in model.concepts.items()},
        roles={w: dict(ext) for w, ext in model.roles.items()},
        neighbourhoods={
            index: {
                world: transform(per_world.get(world, frozenset()))
                for world in model.worlds
            }
            for index, per_world in model.neighbourhoods.items()
        },
    )


def close_supplementation(model: NeighbourhoodModel) -> NeighbourhoodModel:
    """Smallest pointwise extension closed under supersets; idempotent."""
    ws = model.world_set()

    def up_close(collection):
        out = set(collection)
        frontier = list(collection)
        while frontier:
            alpha = frontier.pop()
            for w in ws - alpha:
                bigger = alpha | {w}
                if bigger not in out:
                    out.add(bigger)
                    frontier.append(bigger)
        return frozenset(out)

    return _rebuild_neighbourhoods(model, up_close)


def close_intersection(model: NeighbourhoodModel) -> NeighbourhoodModel:
    """Smallest pointwise extension closed under binary intersection."""

    def meet_close(collection):
        out = set(collection)
        changed = True
        while changed:
            changed = False
            for a in list(out):
                for b in list(out):
                    meet = a & b
                    if meet not in out:
                        out.add(meet)
                        changed = True
        return frozenset(out)

    return _rebuild_neighbourhoods(model, meet_close)


def add_unit(model: NeighbourhoodModel) -> NeighbourhoodModel:
    """Adds the full world set to every neighbourhood collection."""
    ws = model.world_set()
    return _rebuild_neighbourhoods(model, lambda collection: collection | {ws})


def test_close_intersection_example():
    model = two_world_model([{"w"}, {"v"}])
    closed = close_intersection(model)
    assert closed.neighbourhoods[1]["w"] == frozenset(
        {frozenset({"w"}), frozenset({"v"}), frozenset()}
    )


def test_close_supplementation_example():
    model = two_world_model([{"w"}])
    closed = close_supplementation(model)
    assert closed.neighbourhoods[1]["w"] == frozenset(
        {frozenset({"w"}), frozenset({"w", "v"})}
    )


def test_add_unit_example():
    model = two_world_model([])
    assert add_unit(model).neighbourhoods[1]["w"] == frozenset(
        {frozenset({"w", "v"})}
    )


def _random_two_world_models(rng, count):
    worlds = ("w", "v")
    subsets = [frozenset(), frozenset({"w"}), frozenset({"v"}), frozenset(worlds)]
    for _ in range(count):
        yield make_model(
            worlds,
            {"w": {"d"}, "v": {"d"}},
            neighbourhoods={
                1: {
                    w: rng.sample(subsets, rng.randint(0, 4))
                    for w in worlds
                }
            },
        )


def test_closures_establish_their_class_and_are_idempotent():
    rng = random.Random(3)
    ops = [
        (close_supplementation, FrameClass.M),
        (close_intersection, FrameClass.C),
        (add_unit, FrameClass.N),
    ]
    for model in _random_two_world_models(rng, 100):
        for op, fc in ops:
            closed = op(model)
            assert check_frame_class(closed, fc)
            again = op(closed)
            assert again.neighbourhoods == closed.neighbourhoods
            for i, per in model.neighbourhoods.items():
                for w, coll in per.items():
                    assert coll <= closed.neighbourhoods[i][w]


# -- JSON ------------------------------------------------------------------------

def test_json_round_trip_bit_exact():
    model = make_model(
        ["u", "v"],
        {"u": {"d", "e"}, "v": {"d"}},
        concepts={"u": {"A": {"d"}}, "v": {"A": set()}},
        roles={"u": {"r": [("d", "e")]}, "v": {"r": []}},
        neighbourhoods={1: {"u": [{"u"}, set()], "v": [{"u", "v"}]}},
    )
    text = model.to_json()
    back = NeighbourhoodModel.from_json(text)
    assert back.to_json() == text
    assert back.domains == model.domains
    assert back.neighbourhoods == model.neighbourhoods


@pytest.mark.parametrize("frame_class", list(FrameClass))
def test_extracted_model_equals_its_json_round_trip(frame_class):
    phi = parse_formula(
        "(and (box 1 (sub top (atom A))) "
        "(and (dia 1 (sub top (some r (atom B)))) (sub top (atom C))))"
    )
    model = solve(phi, frame_class).model
    back = NeighbourhoodModel.from_json(model.to_json())
    assert back == model
    extra = "w_extra"
    grown = NeighbourhoodModel(
        worlds=(*back.worlds, extra),
        constant_domain=back.constant_domain,
        domains={**back.domains, extra: back.domains[back.worlds[0]]},
        concepts=back.concepts,
        roles=back.roles,
        neighbourhoods=back.neighbourhoods,
    )
    assert grown != model and grown != back
    # `neighbourhoods` defaults to a fresh dict per model.
    bare = [
        NeighbourhoodModel(("w",), False, {"w": frozenset("d")}, {}, {})
        for _ in range(2)
    ]
    assert bare[0] == bare[1] and bare[0].neighbourhoods == {}
    assert bare[0].neighbourhoods is not bare[1].neighbourhoods


def test_invariant_rejects_bad_extension():
    model = make_model(["w"], {"w": {"d"}}, concepts={"w": {"A": {"zzz"}}})
    with pytest.raises(ValueError, match="exceeds the domain"):
        model.check_invariants()


#: A one-world model, and for each world-keyed field an entry to put under
#: a world the model does not have.
ONE_WORLD = {
    "worlds": ["w"],
    "domains": {"w": ["d"]},
    "concepts": {"w": {"A": ["d"]}},
    "roles": {"w": {"r": []}},
    "neighbourhoods": {"1": {"w": [["w"]]}},
}
STRAY_ENTRIES = {
    "domains": ["d"],
    "concepts": {"A": []},
    "roles": {"r": []},
    "neighbourhoods": [],
}


@pytest.mark.parametrize("field", sorted(STRAY_ENTRIES))
def test_from_json_rejects_entries_for_unknown_worlds(field):
    data = json.loads(json.dumps(ONE_WORLD))
    per_world = data[field]["1"] if field == "neighbourhoods" else data[field]
    per_world["w9"] = STRAY_ENTRIES[field]
    with pytest.raises(ValueError, match="unknown world 'w9'"):
        NeighbourhoodModel.from_json_dict(data)
