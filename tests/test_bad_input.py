"""Bad input is never an internal error.

Model files exported by `solve` for seeded sat answers are damaged (a
field dropped, a field or one of its entries given another JSON type,
the text truncated) and run through `validate`; formula texts are
truncated or have one keyword swapped for another and run through
`solve` and `abstract`.  Every run must exit 0, 1 or 2, and none may
report an internal error, which the CLI keeps for engine defects.  The
library's entry points refuse a value that is not a formula with a
`TypeError`, not an engine error, and read a frame class given by name
as the class itself, refusing an unknown name with a `ValueError`.  The
term constructors refuse a name or modality index the parser would
refuse, before anything is interned.
"""

import inspect
import json
import random
import re

import pytest

import nnmdl
from nnmdl import syntax
from nnmdl.cli import EXIT_ERROR, EXIT_SAT, main
from nnmdl.extraction import validate
from nnmdl.fragment import solve_fragment
from nnmdl.oracle import OracleBounds, Signature, brute_force_sat, enumerate_models
from nnmdl.semantics import FrameClass, check_frame_class
from nnmdl.syntax import (
    CI,
    TOP,
    AtomicConcept,
    Box,
    BoxF,
    Dia,
    DiaF,
    Exists,
    Forall,
    ParseError,
    closure,
    parse_concept,
    parse_formula,
    serialize,
)
from nnmdl.tableau import CompletionSet, init, next_instance, solve

from corpus import random_normalized_formula

RETYPED = [None, 0, 2.5, True, "w0", [], {}, [None], {"w0": None}, [[0]]]
KEYWORDS = (
    "sub", "not", "and", "or", "box", "dia", "some", "all", "atom", "top", "bot"
)
TEXTS_PER_LOGIC = 3


def _run(capsys, argv: list) -> tuple[int, str]:
    code = main(argv)
    return code, capsys.readouterr().err


def _sat_texts() -> list[tuple[str, str]]:
    """(logic, text) for seeded formulas whose sat answers are exported."""
    out = []
    rng = random.Random(2024)
    for logic in ("E", "M", "C", "N"):
        for _ in range(TEXTS_PER_LOGIC):
            out.append((logic, serialize(random_normalized_formula(rng))))
    return out


def _damaged(document: dict):
    """Each field dropped, each field retyped, and each field's first
    entry retyped."""
    for field in document:
        yield {k: v for k, v in document.items() if k != field}
        for value in RETYPED:
            yield {**document, field: value}
        inner = document[field]
        if isinstance(inner, dict) and inner:
            key = next(iter(inner))
            for value in RETYPED:
                yield {**document, field: {**inner, key: value}}
        elif isinstance(inner, list) and inner:
            for value in RETYPED:
                yield {**document, field: [value, *inner[1:]]}


def _texts(text: str):
    """The text cut at eight places, and each keyword occurrence swapped
    for the next keyword."""
    for cut in range(1, len(text), max(1, len(text) // 8)):
        yield text[:cut]
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    for i, token in enumerate(tokens):
        if token in KEYWORDS:
            swapped = KEYWORDS[(KEYWORDS.index(token) + 1) % len(KEYWORDS)]
            yield " ".join([*tokens[:i], swapped, *tokens[i + 1 :]])


def test_damaged_input_is_never_an_internal_error(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("NNMDL_CAP_STEPS", raising=False)
    model_path = tmp_path / "model.json"
    damaged_path = tmp_path / "damaged.json"
    runs = exported = 0
    failures = []

    def check(argv):
        nonlocal runs
        code, err = _run(capsys, argv)
        runs += 1
        if code not in (0, 1, 2) or "internal error:" in err:
            failures.append((argv, code, err))

    for logic, text in _sat_texts():
        code, _ = _run(
            capsys,
            ["solve", "--logic", logic, "-e", text, "--model-out", str(model_path)],
        )
        if code == EXIT_SAT:
            exported += 1
            document = json.loads(model_path.read_text())
            raw = model_path.read_text()
            damaged = [json.dumps(d) for d in _damaged(document)]
            damaged += [raw[:cut] for cut in range(0, len(raw), max(1, len(raw) // 8))]
            for content in damaged:
                damaged_path.write_text(content)
                check(["validate", "--logic", logic, "--model", str(damaged_path), "-e", text])
        for broken in _texts(text):
            check(["solve", "--logic", logic, "--cap-steps", "200", "-e", broken])
            check(["abstract", "-e", broken])
    for argv in (
        ["validate", "-e", "(sub top top)", "--model", str(tmp_path)],
        ["solve", "--file", str(tmp_path)],
        ["abstract", "--file", str(tmp_path)],
    ):
        code, err = _run(capsys, argv)
        runs += 1
        assert code == EXIT_ERROR and err.startswith("error: "), (argv, err)
        assert "internal error:" not in err
    assert exported >= 6
    assert runs > 1000
    assert failures == []


@pytest.mark.parametrize("value", [AtomicConcept("A"), 42], ids=["concept", "int"])
@pytest.mark.parametrize(
    "entry, frame_class",
    [
        (solve, FrameClass.E),
        (solve_fragment, FrameClass.C),
        (brute_force_sat, FrameClass.E),
    ],
    ids=["solve", "solve_fragment", "brute_force_sat"],
)
def test_a_non_formula_is_a_type_error(entry, frame_class, value):
    interned = dict(syntax._TERMS)
    message = f"^{re.escape(f'not a formula: {value!r}')}$"
    with pytest.raises(TypeError, match=message):
        entry(value, frame_class)
    assert syntax._TERMS == interned


#: Term arguments for the constructor calls below.
PROBE = AtomicConcept("LeadProbe")
PROBE_INCLUSION = CI(TOP, PROBE)

#: Constructor calls with a lead the parser refuses, and the error each
#: raises: `ValueError` for a value of the right type, `TypeError` else.
BAD_LEADS = {
    "text-in-name": (lambda: AtomicConcept("B) (atom C"), ValueError),
    "empty-name": (lambda: AtomicConcept(""), ValueError),
    "digit-first": (lambda: AtomicConcept("1A"), ValueError),
    "underscore-first": (lambda: AtomicConcept("_A"), ValueError),
    "bytes-name": (lambda: AtomicConcept(b"A"), TypeError),
    "int-name": (lambda: AtomicConcept(5), TypeError),
    "spaced-role": (lambda: Exists("r s", PROBE), ValueError),
    "none-role": (lambda: Forall(None, PROBE), TypeError),
    "index-0": (lambda: Box(0, PROBE), ValueError),
    "negative-index": (lambda: Dia(-1, PROBE), ValueError),
    "formula-index-0": (lambda: DiaF(0, PROBE_INCLUSION), ValueError),
    "bool-index": (lambda: BoxF(True, PROBE_INCLUSION), TypeError),
    "float-index": (lambda: Box(1.0, PROBE), TypeError),
    "text-index": (lambda: Dia("1", PROBE), TypeError),
}


@pytest.mark.parametrize(
    "call, error", BAD_LEADS.values(), ids=list(BAD_LEADS)
)
def test_a_lead_the_parser_refuses_is_refused_by_the_constructor(call, error):
    # Such leads built terms that broke the engine: `(atom B) (atom C)`
    # as one name gave two distinct `Or` terms one sort key, which the
    # agenda heap then compared, and index 0 reached extraction.
    interned = dict(syntax._TERMS)
    with pytest.raises(error):
        call()
    assert syntax._TERMS == interned


class Name(str):
    """A str that is not a str to the constructors: the parser never
    gives one."""


@pytest.mark.parametrize(
    "call",
    [
        lambda x: Box(True, x),
        lambda x: Box(1.0, x),
        lambda x: AtomicConcept(Name("A")),
        lambda x: Exists(Name("r"), x),
    ],
    ids=["bool-index", "float-index", "str-subclass-name", "str-subclass-role"],
)
def test_a_lead_equal_to_an_interned_one_is_still_refused(call):
    # The intern table compares keys with `==`, and `True == 1.0 == 1`
    # and `Name("A") == "A"`: these calls would find the node below.
    x = AtomicConcept("A")
    Box(1, x)
    Exists("r", x)
    interned = dict(syntax._TERMS)
    with pytest.raises(TypeError):
        call(x)
    assert syntax._TERMS == interned


@pytest.mark.parametrize(
    "name", ["A", "a_1", "A_", "top", "\u00c4b", "1A", "A-B", "A B", "A)", ""]
)
def test_a_name_builds_exactly_when_the_parser_reads_it(name):
    try:
        parsed = parse_concept(f"(atom {name})")
    except ParseError:
        parsed = None
    try:
        built = AtomicConcept(name)
    except ValueError:
        built = None
    assert built is parsed


#: Unsat under C, sat under E, M and N.
C2 = parse_formula(
    "(and (and (sub top (box 1 (atom A))) (sub top (box 1 (atom B))))"
    " (not (sub top (box 1 (and (atom A) (atom B))))))"
)
#: Unsat under N, whose search starts from N's diamond-alone instance.
UNIT = parse_formula("(dia 1 (sub top bot))")
BOX_DIA = parse_formula(
    "(and (box 1 (sub top (atom A))) (dia 1 (sub top (atom B))))"
)


def _first_instance(frame_class):
    state = CompletionSet(UNIT, closure(UNIT), frame_class)
    state.add_formula(state.new_label().label, UNIT)
    return next_instance(state)


def _model():
    return solve(BOX_DIA, FrameClass.N).model


#: What each public entry point taking a frame class answers for one.
ANSWERS = {
    "CompletionSet": _first_instance,
    "brute_force_sat": lambda fc: brute_force_sat(UNIT, fc).verdict,
    "check_frame_class": lambda fc: check_frame_class(_model(), fc),
    "enumerate_models": lambda fc: sum(
        1 for _ in enumerate_models(Signature((), (), 1), OracleBounds(2, 1), fc)
    ),
    "init": lambda fc: next_instance(init(UNIT, fc)),
    "solve": lambda fc: solve(C2, fc).verdict,
    "solve_fragment": lambda fc: solve_fragment(UNIT, fc).verdict,
    "validate": lambda fc: validate(_model(), BOX_DIA, fc),
}


def test_every_entry_point_taking_a_frame_class_is_covered():
    taking = {
        name
        for name in nnmdl.__all__
        if callable(obj := getattr(nnmdl, name))
        and "frame_class" in inspect.signature(obj).parameters
    }
    assert taking == set(ANSWERS)


@pytest.mark.parametrize("name", sorted(ANSWERS))
@pytest.mark.parametrize("given", ["C", "N"])
def test_a_frame_class_given_by_name_is_the_class(name, given):
    answer = ANSWERS[name]
    assert answer(given) == answer(FrameClass(given))


@pytest.mark.parametrize("name", sorted(ANSWERS))
def test_an_unknown_frame_class_is_a_value_error(name):
    with pytest.raises(ValueError, match="'X' is not a valid FrameClass"):
        ANSWERS[name]("X")
