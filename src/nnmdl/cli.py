"""Command-line front end.

Subcommands:

  solve      decide a formula (tableau over varying domains, or the
             abstraction procedure for the constant-domain fragment)
  oracle     brute-force the same question over bounded models
  validate   check a stored model against a formula and frame class
  abstract   print the propositional abstraction of a fragment formula

Verdicts go to stdout as one JSON object; --trace streams one JSON line
per rule application to stderr as the search runs.  Exit status is 0 for
sat/true, 1 for unsat/false, 2 for usage errors, bad input, exceeded
resource caps, or internal errors.  Identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .extraction import validate
from .fragment import prop_abstraction, serialize_prop, solve_fragment
from .oracle import SAT, OracleBounds, brute_force_sat
from .semantics import FrameClass, NeighbourhoodModel
from .syntax import normalize, parse_formula, serialize
from .tableau import EngineError, SolveOptions, StepCapError, solve

EXIT_SAT = 0
EXIT_UNSAT = 1
EXIT_ERROR = 2


@dataclass
class RunConfig:
    subcommand: str
    logic: FrameClass = FrameClass.E
    domain_mode: str = "varying"
    fragment: bool = False
    text: str | None = None
    path: str | None = None
    model_path: str | None = None
    model_out: str | None = None
    trace: bool = False
    validate_flag: bool = True
    max_worlds: int = 2
    max_domain: int = 2
    cap_steps: int | None = None

    def check(self) -> None:
        if self.domain_mode == "constant" and self.subcommand == "solve":
            if not self.fragment:
                raise UsageError(
                    "constant-domain solving is only decided for the fragment "
                    "without modalised concepts; pass --fragment"
                )
            if self.logic not in (FrameClass.C, FrameClass.N):
                raise UsageError(
                    "constant-domain fragment solving supports logics C and N"
                )
        if self.cap_steps is not None and self.cap_steps < 0:
            raise UsageError(
                f"--cap-steps must be a non-negative integer, got {self.cap_steps}"
            )
        if self.fragment and self.domain_mode != "constant":
            raise UsageError(
                "--fragment decides constant-domain satisfiability; "
                "pass --domain constant"
            )
        if self.fragment:
            # The fragment procedure writes no model, streams no trace and
            # takes no step cap or validation switch.
            for flag, given in (
                ("--model-out", self.model_out is not None),
                ("--trace", self.trace),
                ("--cap-steps", self.cap_steps is not None),
                ("--no-validate", not self.validate_flag),
            ):
                if given:
                    raise UsageError(f"{flag} has no effect with --fragment")


class UsageError(ValueError):
    pass


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _load_formula(config: RunConfig):
    if config.text is not None and config.path is not None:
        raise UsageError("pass either -e or --file, not both")
    if config.text is not None:
        return parse_formula(config.text)
    if config.path is not None:
        with open(config.path, "r", encoding="utf-8") as handle:
            return parse_formula(handle.read())
    raise UsageError("no formula given; pass -e or --file")


def _stats_payload(config: RunConfig, extra: dict) -> dict:
    payload = {
        "logic": config.logic.value,
        "domain": config.domain_mode,
    }
    payload.update(extra)
    return payload


def _run_solve(config: RunConfig) -> int:
    phi = _load_formula(config)
    if config.fragment:
        result = solve_fragment(phi, config.logic)
        _emit(
            {
                "verdict": result.verdict,
                "stats": _stats_payload(
                    config,
                    {
                        "fragment": True,
                        "letters": len(result.abstraction.letters),
                        "initial_valuations": result.initial_valuations,
                        "surviving_valuations": len(result.support.members),
                        "rounds": result.rounds,
                    },
                ),
            }
        )
        return EXIT_SAT if result.verdict == "sat" else EXIT_UNSAT

    def stream(entry: dict) -> None:
        sys.stderr.write(json.dumps(entry, sort_keys=True) + "\n")
        sys.stderr.flush()

    # Every sat answer is extracted and re-checked; --model-out only
    # decides whether the model is also written.
    options = SolveOptions(
        validate=config.validate_flag,
        step_cap=config.cap_steps,
        on_step=stream if config.trace else None,
    )
    try:
        result = solve(phi, config.logic, options)
    except StepCapError as exc:
        if config.cap_steps is None:
            raise
        raise StepCapError(exc.cap, "--cap-steps") from None
    stats = result.stats.as_dict()
    _emit(
        {
            "verdict": result.verdict,
            "stats": _stats_payload(config, {"fragment": False, **stats}),
        }
    )
    if result.verdict == "sat" and config.model_out:
        with open(config.model_out, "w", encoding="utf-8") as handle:
            handle.write(result.model.to_json() + "\n")
    return EXIT_SAT if result.verdict == "sat" else EXIT_UNSAT


def _run_oracle(config: RunConfig) -> int:
    phi = _load_formula(config)
    bounds = OracleBounds(
        max_worlds=config.max_worlds,
        max_domain=config.max_domain,
        domain_mode=config.domain_mode,
    )
    result = brute_force_sat(phi, config.logic, bounds)
    payload = {
        "verdict": result.verdict,
        "stats": _stats_payload(
            config,
            {
                "models_checked": result.models_checked,
                "max_worlds": config.max_worlds,
                "max_domain": config.max_domain,
            },
        ),
        "model": result.model.to_json_dict() if result.model else None,
        "world": result.world,
    }
    _emit(payload)
    if result.verdict == SAT and config.model_out and result.model:
        with open(config.model_out, "w", encoding="utf-8") as handle:
            handle.write(result.model.to_json() + "\n")
    return EXIT_SAT if result.verdict == SAT else EXIT_UNSAT


def _run_validate(config: RunConfig) -> int:
    phi = _load_formula(config)
    if not config.model_path:
        raise UsageError("validate needs --model <path>")
    with open(config.model_path, "r", encoding="utf-8") as handle:
        model = NeighbourhoodModel.from_json(handle.read())
    ok = validate(model, phi, config.logic)
    _emit({"valid": ok, "logic": config.logic.value})
    return EXIT_SAT if ok else EXIT_UNSAT


def _run_abstract(config: RunConfig) -> int:
    phi = _load_formula(config)
    abstraction = prop_abstraction(phi)
    _emit(
        {
            "formula": serialize_prop(abstraction),
            "letters": {
                letter: serialize(abstraction.ci_of(letter))
                for letter in abstraction.letters
            },
            "input": serialize(normalize(phi)),
        }
    )
    return EXIT_SAT


def run(config: RunConfig) -> int:
    """Execute one configuration; returns the process exit status."""
    config.check()
    if config.subcommand == "solve":
        return _run_solve(config)
    if config.subcommand == "oracle":
        return _run_oracle(config)
    if config.subcommand == "validate":
        return _run_validate(config)
    if config.subcommand == "abstract":
        return _run_abstract(config)
    raise UsageError(f"unknown subcommand {config.subcommand!r}")


def _add_formula_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-e", "--expr", help="formula text")
    parser.add_argument("--file", help="file containing the formula")


def _add_logic_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--logic",
        choices=[c.value for c in FrameClass],
        default="E",
        help="frame class (default E)",
    )


def _add_domain_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--domain",
        choices=["varying", "constant"],
        default="varying",
        help="domain regime (default varying)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nnmdl",
        description="satisfiability for non-normal modal description logics",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_solve = sub.add_parser("solve", help="decide satisfiability")
    _add_logic_arg(p_solve)
    _add_domain_arg(p_solve)
    _add_formula_args(p_solve)
    p_solve.add_argument("--fragment", action="store_true")
    p_solve.add_argument("--model-out", help="write the witness model here")
    p_solve.add_argument("--trace", action="store_true")
    p_solve.add_argument(
        "--no-validate",
        action="store_true",
        help="skip validating the extracted model",
    )
    p_solve.add_argument("--cap-steps", type=int, default=None)

    p_oracle = sub.add_parser("oracle", help="brute-force bounded models")
    _add_logic_arg(p_oracle)
    _add_domain_arg(p_oracle)
    _add_formula_args(p_oracle)
    p_oracle.add_argument("--max-worlds", type=int, default=2)
    p_oracle.add_argument("--max-domain", type=int, default=2)
    p_oracle.add_argument("--model-out", help="write the first witness here")

    p_validate = sub.add_parser("validate", help="check a stored model")
    _add_logic_arg(p_validate)
    _add_formula_args(p_validate)
    p_validate.add_argument("--model", required=True, help="model JSON path")

    p_abstract = sub.add_parser("abstract", help="propositional abstraction")
    _add_formula_args(p_abstract)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        subcommand=args.subcommand,
        logic=FrameClass(getattr(args, "logic", "E")),
        domain_mode=getattr(args, "domain", "varying"),
        fragment=getattr(args, "fragment", False),
        text=args.expr,
        path=args.file,
        model_path=getattr(args, "model", None),
        model_out=getattr(args, "model_out", None),
        trace=getattr(args, "trace", False),
        validate_flag=not getattr(args, "no_validate", False),
        max_worlds=getattr(args, "max_worlds", 2),
        max_domain=getattr(args, "max_domain", 2),
        cap_steps=getattr(args, "cap_steps", None),
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(config_from_args(args))
    except (ValueError, EngineError, FileNotFoundError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    except Exception as exc:
        # A defect must not exit 0 or 1, which would read as a verdict.
        sys.stderr.write(f"error: internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
