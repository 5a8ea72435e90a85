import json

import pytest

from nnmdl import cli, tableau
from nnmdl.cli import EXIT_ERROR, EXIT_SAT, EXIT_UNSAT, main
from nnmdl.syntax import serialize

from test_fragment import nested
from test_search_pin import c_boxes

UNSAT_E = "(and (box 1 (sub top (atom A))) (dia 1 (not (sub top (atom A)))))"
UNSAT_N = "(dia 1 (not (sub top top)))"
SAT_SIMPLE = "(sub top (atom A))"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_unsat_exit_code(capsys):
    code, out, _ = run_cli(capsys, "solve", "--logic", "E", "-e", UNSAT_E)
    assert code == EXIT_UNSAT
    payload = json.loads(out)
    assert payload["verdict"] == "unsat"
    assert payload["stats"]["logic"] == "E"


def test_solve_unit_class_unsat(capsys):
    code, out, _ = run_cli(capsys, "solve", "--logic", "N", "-e", UNSAT_N)
    assert code == EXIT_UNSAT
    assert json.loads(out)["verdict"] == "unsat"


def test_solve_sat_writes_validated_model(capsys, tmp_path):
    target = tmp_path / "model.json"
    code, out, _ = run_cli(
        capsys,
        "solve",
        "--logic",
        "M",
        "-e",
        SAT_SIMPLE,
        "--model-out",
        str(target),
    )
    assert code == EXIT_SAT
    payload = json.loads(out)
    assert payload["verdict"] == "sat"
    model = json.loads(target.read_text())
    assert model["worlds"] == ["0"]

    code, out, _ = run_cli(
        capsys,
        "validate",
        "--logic",
        "M",
        "--model",
        str(target),
        "-e",
        SAT_SIMPLE,
    )
    assert code == EXIT_SAT
    assert json.loads(out)["valid"] is True


def test_solve_validates_without_model_out(capsys, monkeypatch):
    import nnmdl.extraction

    checked = []

    def failing_validate(model, phi, frame_class):
        checked.append(model)
        return False

    monkeypatch.setattr(nnmdl.extraction, "validate", failing_validate)
    code, out, err = run_cli(capsys, "solve", "--logic", "M", "-e", SAT_SIMPLE)
    assert code == EXIT_ERROR
    assert out == ""
    assert "failed validation" in err
    assert len(checked) == 1 and checked[0].worlds == ("0",)

    code, out, _ = run_cli(
        capsys, "solve", "--logic", "M", "-e", SAT_SIMPLE, "--no-validate"
    )
    assert code == EXIT_SAT
    assert json.loads(out)["verdict"] == "sat"
    assert len(checked) == 1


def test_validate_rejects_unsupplemented_model(capsys, tmp_path):
    model = {
        "worlds": ["w", "v"],
        "constant_domain": False,
        "domains": {"w": ["d"], "v": ["d"]},
        "concepts": {"w": {"A": ["d"]}, "v": {"A": ["d"]}},
        "roles": {},
        "neighbourhoods": {"1": {"w": [["w"]], "v": []}},
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model))
    code, out, _ = run_cli(
        capsys,
        "validate",
        "--logic",
        "M",
        "--model",
        str(path),
        "-e",
        "(box 1 (sub top (atom A)))",
    )
    assert code == EXIT_UNSAT
    assert json.loads(out)["valid"] is False


@pytest.mark.parametrize(
    "logic, field, stray",
    [
        ("M", "concepts", {"w9": {"A": []}}),
        ("N", "neighbourhoods", {"1": {"w": [["w"]], "w9": [["w"]]}}),
    ],
)
def test_validate_rejects_entries_for_unknown_worlds(
    capsys, tmp_path, logic, field, stray
):
    # Neither is an engine defect, and a stray neighbourhood must not be
    # dropped into a verdict.
    model = {
        "worlds": ["w"],
        "domains": {"w": ["d"]},
        "concepts": {"w": {"A": ["d"]}},
        "roles": {},
        "neighbourhoods": {"1": {"w": [["w"]]}},
    }
    model[field].update(stray)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model))
    code, out, err = run_cli(
        capsys,
        "validate",
        "--logic",
        logic,
        "--model",
        str(path),
        "-e",
        "(box 1 (sub top (atom A)))",
    )
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith(f"error: {field}")
    assert err.endswith(" has an entry for unknown world 'w9'\n")


def test_oracle_reports_bounded_unsat(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--logic", "E", "-e", UNSAT_E)
    assert code == EXIT_UNSAT
    payload = json.loads(out)
    assert payload["verdict"] == "unsat-within-bounds"
    assert payload["model"] is None
    assert payload["stats"]["models_checked"] > 0


def test_oracle_emits_first_witness(capsys):
    code, out, _ = run_cli(capsys, "oracle", "-e", SAT_SIMPLE)
    assert code == EXIT_SAT
    payload = json.loads(out)
    assert payload["verdict"] == "sat"
    assert payload["model"]["worlds"] == ["w0"]
    assert payload["world"] == "w0"


def test_abstract_output(capsys):
    code, out, _ = run_cli(
        capsys,
        "abstract",
        "-e",
        "(and (sub top (atom A)) (box 1 (sub top (atom A))))",
    )
    assert code == EXIT_SAT
    payload = json.loads(out)
    assert payload["formula"] == "(and p1 (box 1 p1))"
    assert payload["letters"] == {"p1": "(sub top (atom A))"}


def test_fragment_solve_constant_domain(capsys):
    code, out, _ = run_cli(
        capsys,
        "solve",
        "--fragment",
        "--domain",
        "constant",
        "--logic",
        "C",
        "-e",
        UNSAT_N,
    )
    assert code == EXIT_SAT
    payload = json.loads(out)
    assert payload["verdict"] == "sat"
    assert payload["stats"]["fragment"] is True


FRAGMENT_PINS = [
    # Modal depth 1: decided by queries, which build no valuations.
    (
        "C",
        "(and (box 1 (sub top (atom A))) (dia 1 (not (sub top (atom B)))))",
        EXIT_SAT,
        '{"stats": {"domain": "constant", "fragment": true, '
        '"initial_valuations": 0, "letters": 2, "logic": "C", "rounds": 1, '
        '"surviving_valuations": 0}, "verdict": "sat"}\n',
    ),
    # Modal depth 2: one inner box, and a round that eliminates nothing.
    (
        "N",
        "(and (box 1 (box 1 (sub top (atom A)))) (dia 1 (not (sub top top))))",
        EXIT_UNSAT,
        '{"stats": {"domain": "constant", "fragment": true, '
        '"initial_valuations": 0, "letters": 2, "logic": "N", "rounds": 1, '
        '"surviving_valuations": 0}, "verdict": "unsat"}\n',
    ),
]


@pytest.mark.parametrize("logic, text, exit_code, expected", FRAGMENT_PINS)
def test_golden_fragment_output(capsys, logic, text, exit_code, expected):
    code, out, _ = run_cli(
        capsys, "solve", "--fragment", "--domain", "constant", "--logic", logic, "-e", text
    )
    assert code == exit_code
    assert out == expected


def test_constant_domain_without_fragment_rejected(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--domain", "constant", "--logic", "C", "-e", SAT_SIMPLE
    )
    assert code == EXIT_ERROR
    assert "--fragment" in err


def test_constant_domain_fragment_needs_c_or_n(capsys):
    code, _, err = run_cli(
        capsys,
        "solve",
        "--fragment",
        "--domain",
        "constant",
        "--logic",
        "E",
        "-e",
        SAT_SIMPLE,
    )
    assert code == EXIT_ERROR
    assert "C and N" in err


@pytest.mark.parametrize(
    "flags",
    [
        ["--model-out", "m.json"],
        ["--trace"],
        ["--cap-steps", "5"],
        ["--cap-steps", "0"],
        ["--no-validate"],
    ],
)
def test_fragment_rejects_flags_it_would_ignore(capsys, flags):
    code, out, err = run_cli(
        capsys,
        "solve",
        "--fragment",
        "--domain",
        "constant",
        "--logic",
        "C",
        "-e",
        SAT_SIMPLE,
        *flags,
    )
    assert code == EXIT_ERROR
    assert out == ""
    assert err == f"error: {flags[0]} has no effect with --fragment\n"


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "solve", "-e", "(and top top)")
    assert code == EXIT_ERROR
    assert "concept, not a formula" in err


def test_missing_formula_rejected(capsys):
    code, _, err = run_cli(capsys, "solve", "--logic", "E")
    assert code == EXIT_ERROR
    assert "-e or --file" in err


def test_trace_streams_json_lines(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--logic", "E", "--trace", "-e", SAT_SIMPLE
    )
    assert code == EXIT_SAT
    lines = [json.loads(line) for line in err.strip().splitlines()]
    assert lines
    assert {"step", "rule", "label", "branch", "added"} <= lines[0].keys()


def test_deterministic_output(capsys):
    args = ("solve", "--logic", "C", "-e", UNSAT_E)
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    assert first == second


def test_golden_solve_output(capsys):
    code, out, _ = run_cli(capsys, "solve", "--logic", "E", "-e", SAT_SIMPLE)
    assert code == EXIT_SAT
    assert json.loads(out) == {
        "verdict": "sat",
        "stats": {
            "logic": "E",
            "domain": "varying",
            "fragment": False,
            "rule_applications": {"R_eq": 1},
            "labels_created": 0,
            "variables_created": 0,
            "steps": 1,
        },
    }


def test_internal_error_is_not_a_verdict(capsys, monkeypatch):
    # An unexpected exception must exit 2, never 0 or 1 (sat or unsat).
    def broken(*args, **kwargs):
        raise RuntimeError("engine defect")

    monkeypatch.setattr(cli, "solve", broken)
    code, out, err = run_cli(capsys, "solve", "-e", SAT_SIMPLE)
    assert code == EXIT_ERROR
    assert out == ""
    assert err == "error: internal error: RuntimeError: engine defect\n"


def test_memory_error_is_a_resource_limit(capsys, monkeypatch):
    # Running out of memory is a limit of the process, not an engine defect.
    def exhausted(*args, **kwargs):
        raise MemoryError("no room for the labels")

    monkeypatch.setattr(cli, "solve", exhausted)
    code, out, err = run_cli(capsys, "solve", "-e", SAT_SIMPLE)
    assert code == EXIT_ERROR
    assert out == ""
    assert err == "error: resource limit: MemoryError: no room for the labels\n"


#: Sat in three steps: R_and, then R_eq for each inclusion.
THREE_STEPS = "(and (sub top (atom A)) (sub top (atom B)))"


def test_cap_steps_exceeded_names_the_flag(capsys, monkeypatch):
    # The flag overrides the environment, so the advice names the flag.
    monkeypatch.setenv("NNMDL_CAP_STEPS", "100")
    code, out, err = run_cli(
        capsys, "solve", "--cap-steps", "1", "-e", THREE_STEPS
    )
    assert code == EXIT_ERROR
    assert out == ""
    assert err == (
        "error: step cap 1 (set by --cap-steps) exceeded; raise --cap-steps "
        "if the input is legitimately this large\n"
    )


def test_env_step_cap_exceeded_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("NNMDL_CAP_STEPS", "1")
    code, out, err = run_cli(capsys, "solve", "-e", THREE_STEPS)
    assert code == EXIT_ERROR
    assert out == ""
    assert "step cap 1 (set by NNMDL_CAP_STEPS) exceeded" in err


def test_default_step_cap_exceeded_says_so(capsys, monkeypatch):
    monkeypatch.delenv("NNMDL_CAP_STEPS", raising=False)
    monkeypatch.setattr(tableau, "DEFAULT_STEP_CAP", 1)
    code, out, err = run_cli(capsys, "solve", "-e", THREE_STEPS)
    assert code == EXIT_ERROR
    assert out == ""
    assert "step cap 1 (the default) exceeded; raise NNMDL_CAP_STEPS" in err


def test_c_boxes_5_unsat_within_the_default_step_cap(capsys, monkeypatch):
    monkeypatch.delenv("NNMDL_CAP_STEPS", raising=False)
    text = serialize(c_boxes(5))
    code, out, _ = run_cli(capsys, "solve", "--logic", "C", "-e", text)
    assert code == EXIT_UNSAT
    assert json.loads(out)["verdict"] == "unsat"


def test_negative_cap_steps_rejected(capsys):
    code, out, err = run_cli(
        capsys, "solve", "--cap-steps", "-3", "-e", THREE_STEPS
    )
    assert code == EXIT_ERROR
    assert out == ""
    assert err == "error: --cap-steps must be a non-negative integer, got -3\n"


@pytest.mark.parametrize("value", ["abc", "-1", "2.5"])
def test_bad_env_step_cap_rejected(capsys, monkeypatch, value):
    monkeypatch.setenv("NNMDL_CAP_STEPS", value)
    code, out, err = run_cli(capsys, "solve", "-e", SAT_SIMPLE)
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith("error: NNMDL_CAP_STEPS must be a non-negative integer")


def _chain(depth: int, left: bool) -> str:
    text = "(sub top (atom A))"
    for _ in range(depth):
        if left:
            text = f"(and {text} (sub top (atom A)))"
        else:
            text = f"(and (sub top (atom A)) {text})"
    return text


@pytest.mark.parametrize("left", [True, False])
def test_deep_chain_solves(capsys, left):
    code, out, err = run_cli(capsys, "solve", "-e", _chain(520, left))
    assert code == EXIT_SAT
    assert json.loads(out)["verdict"] == "sat"
    assert err == ""


@pytest.mark.parametrize("logic", ["C", "N"])
def test_deep_chain_fragment_solves(capsys, logic):
    code, out, err = run_cli(
        capsys,
        "solve",
        "--fragment",
        "--domain",
        "constant",
        "--logic",
        logic,
        "-e",
        _chain(2000, True),
    )
    assert code == EXIT_SAT
    assert json.loads(out)["verdict"] == "sat"
    assert err == ""


def test_parser_overflow_is_not_a_verdict(capsys):
    # Parsing, normalization, closure and the search no longer recurse,
    # but validation's recursive evaluator (`Evaluator.holds` in `semantics`,
    # called through `extraction.validate`) still overflows far below this
    # depth.
    code, out, err = run_cli(capsys, "solve", "-e", _chain(3000, True))
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith("error: ")
    assert "internal error" not in err


def test_formula_from_file(capsys, tmp_path):
    path = tmp_path / "phi.sexp"
    path.write_text(UNSAT_E)
    code, out, _ = run_cli(capsys, "solve", "--file", str(path))
    assert code == EXIT_UNSAT


@pytest.mark.parametrize("left", [True, False])
def test_deep_chain_abstract(capsys, left):
    # `serialize` renders on an explicit stack, so the input echo of a
    # chain far past the recursion limit needs no Python frames per level.
    text = _chain(2000, left)
    code, out, err = run_cli(capsys, "abstract", "-e", text)
    assert code == EXIT_SAT
    assert json.loads(out)["input"] == text
    assert err == ""


@pytest.mark.parametrize(
    "document, message",
    [
        ([], "model file is not a JSON object"),
        ({"domains": {"w": ["d"]}}, "model has no 'worlds' field"),
        ({"worlds": ["w"]}, "model has no 'domains' field"),
        (
            {"worlds": ["w"], "domains": []},
            "model field 'domains' is not an object of lists of strings",
        ),
        (
            {"worlds": 5, "domains": {}},
            "model field 'worlds' is not a list of strings",
        ),
        (
            {"worlds": ["w"], "domains": {"w": ["d"]}, "neighbourhoods": 3},
            "model field 'neighbourhoods' is not an object of objects of "
            "lists of lists of strings",
        ),
        (
            {"worlds": ["w"], "domains": {"w": 7}},
            "model field 'domains' is not an object of lists of strings",
        ),
        (
            {"worlds": ["w", "w"], "domains": {"w": ["d"]}},
            "model field 'worlds' lists world 'w' twice",
        ),
        (
            {
                "worlds": ["w"],
                "domains": {"w": ["d"]},
                "neighbourhoods": {" 1": {"w": [["w"]]}, "1": {"w": []}},
            },
            "model field 'neighbourhoods' has modality indices ' 1' and '1', "
            "which are the same integer",
        ),
        (
            {
                "worlds": ["w", "v"],
                "domains": {"w": ["d"], "v": ["e"]},
                "constant_domain": "false",
            },
            "model field 'constant_domain' is not a boolean",
        ),
    ],
)
def test_validate_rejects_malformed_model_file(capsys, tmp_path, document, message):
    # Bad input, not an engine defect: the message names the problem.
    path = tmp_path / "m.json"
    path.write_text(json.dumps(document))
    code, out, err = run_cli(
        capsys, "validate", "--model", str(path), "-e", SAT_SIMPLE
    )
    assert code == EXIT_ERROR
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("text", ["", '{"worlds": ["w"], "domains": {'])
def test_validate_names_a_model_file_that_is_not_json(capsys, tmp_path, text):
    # An empty or truncated file: the message says what the file is not.
    path = tmp_path / "m.json"
    path.write_text(text)
    code, out, err = run_cli(
        capsys, "validate", "--model", str(path), "-e", SAT_SIMPLE
    )
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith("error: model file is not JSON: ")


def test_directory_as_formula_file_is_bad_input(capsys, tmp_path):
    code, out, err = run_cli(capsys, "solve", "--file", str(tmp_path))
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith("error: ") and "internal error" not in err


def test_directory_as_model_file_is_bad_input(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "validate", "-e", SAT_SIMPLE, "--model", str(tmp_path)
    )
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith("error: ") and "internal error" not in err


def test_inner_box_cap_is_bad_input(capsys, monkeypatch):
    # The cap is checked before the 2^k vectors would be built.
    from nnmdl import fragment

    def refuse(*args):
        raise AssertionError("the procedure ran past the cap")

    monkeypatch.setattr(fragment, "_by_queries", refuse)
    text = serialize(nested(15))
    code, out, err = run_cli(
        capsys, "solve", "--fragment", "--domain", "constant", "--logic", "C", "-e", text
    )
    assert code == EXIT_ERROR
    assert out == ""
    assert err == "error: 16 inner boxes exceed the cap of 15\n"
