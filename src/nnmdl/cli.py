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
resource caps or limits, or internal errors.  Identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from .extraction import validate
from .fragment import prop_abstraction, serialize_prop, solve_fragment
from .oracle import (
    DEFAULT_MAX_DOMAIN,
    DEFAULT_MAX_WORLDS,
    SAT,
    OracleBounds,
    brute_force_sat,
)
from .semantics import FrameClass, NeighbourhoodModel
from .syntax import normalize, parse_formula, serialize
from .tableau import EngineError, SolveOptions, StepCapError, solve

EXIT_SAT = 0
EXIT_UNSAT = 1
EXIT_ERROR = 2


class UsageError(ValueError):
    pass


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _load_formula(args: argparse.Namespace):
    if args.expr is not None and args.file is not None:
        raise UsageError("pass either -e or --file, not both")
    if args.expr is not None:
        return parse_formula(args.expr)
    if args.file is not None:
        with open(args.file, "r", encoding="utf-8") as handle:
            return parse_formula(handle.read())
    raise UsageError("no formula given; pass -e or --file")


def _check_solve_usage(args: argparse.Namespace) -> None:
    """The flag combinations `solve` rejects, in the order they are
    reported; checked before the formula is read."""
    if args.domain == "constant":
        if not args.fragment:
            raise UsageError(
                "constant-domain solving is only decided for the fragment "
                "without modalised concepts; pass --fragment"
            )
        if args.logic not in ("C", "N"):
            raise UsageError(
                "constant-domain fragment solving supports logics C and N"
            )
    if args.cap_steps is not None and args.cap_steps < 0:
        raise UsageError(
            f"--cap-steps must be a non-negative integer, got {args.cap_steps}"
        )
    if args.fragment and args.domain != "constant":
        raise UsageError(
            "--fragment decides constant-domain satisfiability; "
            "pass --domain constant"
        )
    if args.fragment:
        # The fragment procedure writes no model, streams no trace and
        # takes no step cap or validation switch.
        for flag, given in (
            ("--model-out", args.model_out is not None),
            ("--trace", args.trace),
            ("--cap-steps", args.cap_steps is not None),
            ("--no-validate", args.no_validate),
        ):
            if given:
                raise UsageError(f"{flag} has no effect with --fragment")


def _run_solve(args: argparse.Namespace) -> int:
    _check_solve_usage(args)
    phi = _load_formula(args)
    logic = FrameClass(args.logic)
    if args.fragment:
        result = solve_fragment(phi, logic)
        _emit(
            {
                "verdict": result.verdict,
                "stats": {
                    "logic": args.logic,
                    "domain": args.domain,
                    "fragment": True,
                    "letters": len(result.abstraction.letters),
                    "initial_valuations": result.initial_valuations,
                    "surviving_valuations": len(result.support.members),
                    "rounds": result.rounds,
                },
            }
        )
        return EXIT_SAT if result.verdict == "sat" else EXIT_UNSAT

    def stream(entry: dict) -> None:
        sys.stderr.write(json.dumps(entry, sort_keys=True) + "\n")
        sys.stderr.flush()

    # Every sat answer is extracted and re-checked; --model-out only
    # decides whether the model is also written.
    options = SolveOptions(
        validate=not args.no_validate,
        step_cap=args.cap_steps,
        on_step=stream if args.trace else None,
    )
    try:
        result = solve(phi, logic, options)
    except StepCapError as exc:
        if args.cap_steps is None:
            raise
        raise StepCapError(exc.cap, "--cap-steps") from None
    _emit(
        {
            "verdict": result.verdict,
            "stats": {
                "logic": args.logic,
                "domain": args.domain,
                "fragment": False,
                **result.stats.as_dict(),
            },
        }
    )
    if result.verdict == "sat" and args.model_out:
        with open(args.model_out, "w", encoding="utf-8") as handle:
            handle.write(result.model.to_json() + "\n")
    return EXIT_SAT if result.verdict == "sat" else EXIT_UNSAT


def _run_oracle(args: argparse.Namespace) -> int:
    phi = _load_formula(args)
    bounds = OracleBounds(
        max_worlds=args.max_worlds,
        max_domain=args.max_domain,
        domain_mode=args.domain,
    )
    result = brute_force_sat(phi, FrameClass(args.logic), bounds)
    _emit(
        {
            "verdict": result.verdict,
            "stats": {
                "logic": args.logic,
                "domain": args.domain,
                "models_checked": result.models_checked,
                "max_worlds": args.max_worlds,
                "max_domain": args.max_domain,
            },
            "model": result.model.to_json_dict() if result.model else None,
            "world": result.world,
        }
    )
    if result.verdict == SAT and args.model_out and result.model:
        with open(args.model_out, "w", encoding="utf-8") as handle:
            handle.write(result.model.to_json() + "\n")
    return EXIT_SAT if result.verdict == SAT else EXIT_UNSAT


def _run_validate(args: argparse.Namespace) -> int:
    phi = _load_formula(args)
    with open(args.model, "r", encoding="utf-8") as handle:
        model = NeighbourhoodModel.from_json(handle.read())
    ok = validate(model, phi, FrameClass(args.logic))
    _emit({"valid": ok, "logic": args.logic})
    return EXIT_SAT if ok else EXIT_UNSAT


def _run_abstract(args: argparse.Namespace) -> int:
    phi = _load_formula(args)
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
    """The argument parser; each subcommand's namespace carries its
    handler as `handler`."""
    parser = argparse.ArgumentParser(
        prog="nnmdl",
        description="satisfiability for non-normal modal description logics",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_solve = sub.add_parser("solve", help="decide satisfiability")
    p_solve.set_defaults(handler=_run_solve)
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
    p_oracle.set_defaults(handler=_run_oracle)
    _add_logic_arg(p_oracle)
    _add_domain_arg(p_oracle)
    _add_formula_args(p_oracle)
    p_oracle.add_argument("--max-worlds", type=int, default=DEFAULT_MAX_WORLDS)
    p_oracle.add_argument("--max-domain", type=int, default=DEFAULT_MAX_DOMAIN)
    p_oracle.add_argument("--model-out", help="write the first witness here")

    p_validate = sub.add_parser("validate", help="check a stored model")
    p_validate.set_defaults(handler=_run_validate)
    _add_logic_arg(p_validate)
    _add_formula_args(p_validate)
    p_validate.add_argument("--model", required=True, help="model JSON path")

    p_abstract = sub.add_parser("abstract", help="propositional abstraction")
    p_abstract.set_defaults(handler=_run_abstract)
    _add_formula_args(p_abstract)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command line; returns the process exit status."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, EngineError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    except (MemoryError, RecursionError) as exc:
        # The input outgrew the process, which is not an engine defect.
        sys.stderr.write(
            f"error: resource limit: {type(exc).__name__}: {exc}\n"
        )
        return EXIT_ERROR
    except Exception as exc:
        # A defect must not exit 0 or 1, which would read as a verdict.
        sys.stderr.write(f"error: internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
