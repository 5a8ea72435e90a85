"""Window collections: extracted models read the same as their expansion.

Every collection of every extracted model in the model-pin sample, and
in a family of two boxes and two diamonds, is expanded to an explicit
frozenset; frame-class checks, truth at world "0"
and membership of each box body's truth set must not tell the two apart.
Hand-built collections exercise the member-by-member fallback of the
frame-class checks.
"""

from itertools import combinations

import pytest

from nnmdl.semantics import (
    MAX_WORLDS_FOR_SUPPLEMENTATION,
    Evaluator,
    FrameClass,
    ModelTooLargeError,
    NeighbourhoodModel,
    Windows,
    check_frame_class,
    satisfies,
)
from nnmdl.syntax import Box, BoxF, parse_formula
from nnmdl.tableau import solve

from test_model_pin import pinned_inputs
from families import box_dia


def fs(*worlds):
    return frozenset(worlds)


def expanded(model: NeighbourhoodModel) -> NeighbourhoodModel:
    return NeighbourhoodModel(
        worlds=model.worlds,
        constant_domain=model.constant_domain,
        domains=model.domains,
        concepts=model.concepts,
        roles=model.roles,
        neighbourhoods={
            index: {w: frozenset(c) for w, c in per_world.items()}
            for index, per_world in model.neighbourhoods.items()
        },
    )


def box_truth_sets(model, closure):
    """Truth sets of every box body in the closure, per modality index."""
    evaluator = Evaluator(model)
    elements = sorted({d for dom in model.domains.values() for d in dom})
    out = []
    for psi in closure.for_neg:
        if isinstance(psi, BoxF):
            out.append((psi.index, evaluator.formula_truth_set(psi.arg)))
    for concept in closure.con_neg:
        if isinstance(concept, Box):
            for d in elements:
                truth_set = evaluator.concept_truth_set(d, concept.arg)
                out.append((concept.index, truth_set))
    return out


def two_boxes_two_diamonds():
    """Formulas whose C models need the meets of two boxes' windows: the
    corpus almost never asserts two boxes with different floors."""
    bodies = [
        "(sub top (atom A))",
        "(sub top (atom B))",
        "(sub top (atom C))",
        "(not (sub top (atom A)))",
        "(not (sub top (atom B)))",
        "(sub top (and (atom A) (atom B)))",
    ]
    for b1, b2 in combinations(bodies, 2):
        for d1, d2 in combinations(bodies, 2):
            boxes = f"(and (box 1 {b1}) (box 1 {b2}))"
            phi = parse_formula(f"(and (and {boxes} (dia 1 {d1})) (dia 1 {d2}))")
            for fc in FrameClass:
                yield phi, fc


def all_subsets(worlds):
    for r in range(len(worlds) + 1):
        for chosen in combinations(worlds, r):
            yield frozenset(chosen)


def test_extracted_windows_agree_with_their_expansion():
    seen_windows = 0
    for phi, fc in [*pinned_inputs(), *two_boxes_two_diamonds()]:
        result = solve(phi, fc)
        if result.verdict != "sat":
            continue
        model = result.model
        flat = expanded(model)
        for index, per_world in model.neighbourhoods.items():
            for w, collection in per_world.items():
                assert isinstance(collection, Windows)
                assert collection == flat.neighbourhoods[index][w]
                assert len(collection) == len(flat.neighbourhoods[index][w])
                seen_windows += len(collection.windows)
        for other in FrameClass:
            assert check_frame_class(model, other) == check_frame_class(
                flat, other
            ), (phi, fc, other)
        assert check_frame_class(model, fc)
        assert satisfies(model, "0", phi) and satisfies(flat, "0", phi)
        truth_sets = box_truth_sets(flat, result.completion.closure)
        if len(model.worlds) <= 7:
            truth_sets += [
                (index, alpha)
                for index in model.neighbourhoods
                for alpha in all_subsets(model.worlds)
            ]
        for index, alpha in truth_sets:
            for w in model.worlds:
                assert (alpha in model.neighbourhoods[index][w]) == (
                    alpha in flat.neighbourhoods[index][w]
                )
    assert seen_windows > 0


def test_supplemented_extraction_past_sixteen_worlds():
    result = solve(box_dia(20), FrameClass.M)  # validates by default
    assert result.verdict == "sat"
    model = result.model
    assert len(model.worlds) > MAX_WORLDS_FOR_SUPPLEMENTATION
    assert check_frame_class(model, FrameClass.M)
    assert satisfies(model, "0", box_dia(20))
    everything = model.world_set()
    for per_world in model.neighbourhoods.values():
        for collection in per_world.values():
            assert all(ceil == everything for _, ceil in collection.windows)


# -- the collection type -------------------------------------------------------

def test_windows_is_a_read_only_set():
    a, b = "a", "b"
    coll = Windows([(fs(a), fs(a, b)), (fs(a), fs(a, b)), (fs(a, b), fs(a))])
    assert coll.windows == ((fs(a), fs(a, b)),)  # deduplicated, empty dropped
    assert fs(a) in coll and fs(a, b) in coll and fs(b) not in coll
    assert coll == frozenset({fs(a), fs(a, b)})
    assert frozenset({fs(a), fs(a, b)}) == coll
    assert len(coll) == 2 and sorted(map(sorted, coll)) == [[a], [a, b]]
    union = coll | {fs()}
    assert type(union) is frozenset and union == {fs(), fs(a), fs(a, b)}
    assert Windows() == frozenset() and len(Windows()) == 0


def two_world_model(collection):
    return NeighbourhoodModel(
        worlds=("a", "b"),
        constant_domain=False,
        domains={"a": fs("d"), "b": fs("d")},
        concepts={},
        roles={},
        neighbourhoods={1: {"a": collection, "b": Windows()}},
    )


def three_world_model(collection):
    model = two_world_model(collection)
    model.worlds = ("a", "b", "c")
    model.domains["c"] = fs("d")
    return model


def test_not_upward_closed_windows_rejected():
    model = two_world_model(Windows([(fs("a"), fs("a"))]))
    assert not check_frame_class(model, FrameClass.M)


def test_upward_closed_windows_off_shape_accepted():
    # [{b}, {b}] does not reach the full set, but {a, b} is in the other.
    coll = Windows([(fs("a"), fs("a", "b")), (fs("b"), fs("b"))])
    model = two_world_model(coll)
    assert check_frame_class(model, FrameClass.M)


def test_not_intersection_closed_windows_rejected():
    model = two_world_model(Windows([(fs("a"), fs("a")), (fs("b"), fs("b"))]))
    assert not check_frame_class(model, FrameClass.C)


def test_partly_covered_meet_window_rejected():
    # The meets of the first two windows span [{}, {b}]; {} has a window
    # below it, but {b} is in no window.
    coll = Windows(
        [(fs("a"), fs("a", "b")), (fs("c"), fs("b", "c")), (fs(), fs())]
    )
    model = three_world_model(coll)
    assert not check_frame_class(model, FrameClass.C)
    assert not check_frame_class(expanded(model), FrameClass.C)


def test_intersection_closed_windows_off_shape_accepted():
    # The meets of the first two windows span [{}, {b}], which no single
    # window holds, but {} and {b} are each in a window of their own.
    coll = Windows(
        [
            (fs("a"), fs("a", "b")),
            (fs("c"), fs("b", "c")),
            (fs(), fs()),
            (fs("b"), fs("b")),
        ]
    )
    model = three_world_model(coll)
    assert check_frame_class(model, FrameClass.C)
    assert check_frame_class(expanded(model), FrameClass.C)


def test_off_shape_windows_past_the_cap_raise():
    worlds = tuple(f"w{i}" for i in range(MAX_WORLDS_FOR_SUPPLEMENTATION + 1))
    everything = frozenset(worlds)
    by_shape = Windows([(fs("w0"), everything)])
    off_shape = Windows([(fs("w0"), fs("w0"))])

    def model_with(collection):
        return NeighbourhoodModel(
            worlds=worlds,
            constant_domain=False,
            domains={w: fs("d") for w in worlds},
            concepts={},
            roles={},
            neighbourhoods={1: {w: collection for w in worlds}},
        )

    assert check_frame_class(model_with(by_shape), FrameClass.M)
    with pytest.raises(ModelTooLargeError):
        check_frame_class(model_with(off_shape), FrameClass.M)
