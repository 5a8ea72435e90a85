"""Pins the command line's observable behaviour to a fixed digest.

Each invocation of a fixed list contributes its argv, exit code, stdout,
stderr and the bytes of every model file it writes.  File arguments are
written as `{dir}/name` and filled in with a temporary directory at run
time, so the digest holds no path.  The list covers every subcommand,
every usage rule of `solve` (including the order in which they are
checked), the step cap set by flag and by the environment, bad input and
argparse's own help and error text.  argparse output is taken with
`COLUMNS=80` and changes with the Python version that formats it.
"""

import hashlib
import json

from nnmdl.cli import main

EXPECTED_DIGEST = "84b3e28dcd3dffd439b0785334cbd3575e6f67362609f731ec2af2805e394cb4"

UNSAT_E = "(and (box 1 (sub top (atom A))) (dia 1 (not (sub top (atom A)))))"
UNSAT_N = "(dia 1 (not (sub top top)))"
SAT_SIMPLE = "(sub top (atom A))"
SAT_BOXES = "(and (box 1 (sub top (atom A))) (dia 1 (sub top (atom B))))"
THREE_STEPS = "(and (sub top (atom A)) (sub top (atom B)))"
DEPTH_TWO = "(and (box 1 (box 1 (sub top (atom A)))) (dia 1 (not (sub top top))))"
BOX_A = "(box 1 (sub top (atom A)))"
FRAGMENT = ("solve", "--fragment", "--domain", "constant")

#: Input files, written under `{dir}` before the invocations run.
FILES = {
    "phi.sexp": UNSAT_E,
    "valid.json": json.dumps(
        {
            "worlds": ["w"],
            "domains": {"w": ["d"]},
            "concepts": {"w": {"A": ["d"]}},
            "roles": {},
            "neighbourhoods": {"1": {"w": [["w"]]}},
        }
    ),
    "unsupplemented.json": json.dumps(
        {
            "worlds": ["w", "v"],
            "constant_domain": False,
            "domains": {"w": ["d"], "v": ["d"]},
            "concepts": {"w": {"A": ["d"]}, "v": {"A": ["d"]}},
            "roles": {},
            "neighbourhoods": {"1": {"w": [["w"]], "v": []}},
        }
    ),
    "stray.json": json.dumps(
        {
            "worlds": ["w"],
            "domains": {"w": ["d"]},
            "concepts": {"w": {"A": ["d"]}, "w9": {"A": []}},
            "roles": {},
            "neighbourhoods": {"1": {"w": [["w"]]}},
        }
    ),
}

#: (environment value of NNMDL_CAP_STEPS or None, argv).  Output files
#: are named `out*.json`.
INVOCATIONS = [
    # solve on the tableau
    (None, ["solve", "--logic", "E", "-e", UNSAT_E]),
    (None, ["solve", "--logic", "N", "-e", UNSAT_N]),
    (None, ["solve", "--logic", "C", "-e", UNSAT_E]),
    (None, ["solve", "--logic", "M", "-e", SAT_SIMPLE, "--model-out", "{dir}/out1.json"]),
    (None, ["solve", "--logic", "N", "-e", SAT_BOXES, "--model-out", "{dir}/out2.json"]),
    (None, ["solve", "--logic", "E", "-e", UNSAT_E, "--model-out", "{dir}/out3.json"]),
    (None, ["solve", "--logic", "M", "-e", SAT_SIMPLE, "--no-validate"]),
    (None, ["solve", "--logic", "C", "--trace", "-e", SAT_BOXES]),
    (None, ["solve", "--logic", "E", "--trace", "-e", UNSAT_E]),
    (None, ["solve", "--file", "{dir}/phi.sexp"]),
    # step caps
    ("100", ["solve", "--cap-steps", "1", "-e", THREE_STEPS]),
    (None, ["solve", "--cap-steps", "3", "-e", THREE_STEPS]),
    ("1", ["solve", "-e", THREE_STEPS]),
    ("abc", ["solve", "-e", SAT_SIMPLE]),
    ("-1", ["solve", "-e", SAT_SIMPLE]),
    # the fragment
    (None, [*FRAGMENT, "--logic", "C", "-e", UNSAT_N]),
    (None, [*FRAGMENT, "--logic", "C", "-e", SAT_BOXES]),
    (None, [*FRAGMENT, "--logic", "N", "-e", DEPTH_TWO]),
    (None, [*FRAGMENT, "--logic", "N", "-e", UNSAT_N]),
    # usage rules of solve, alone and in combination
    (None, ["solve", "--domain", "constant", "--logic", "C", "-e", SAT_SIMPLE]),
    (None, [*FRAGMENT, "--logic", "E", "-e", SAT_SIMPLE]),
    (None, [*FRAGMENT, "--logic", "M", "-e", SAT_SIMPLE]),
    (None, ["solve", "--cap-steps", "-3", "-e", THREE_STEPS]),
    (None, ["solve", "--fragment", "--logic", "C", "-e", SAT_SIMPLE]),
    (None, [*FRAGMENT, "--logic", "C", "-e", SAT_SIMPLE, "--model-out", "{dir}/out4.json"]),
    (None, [*FRAGMENT, "--logic", "C", "-e", SAT_SIMPLE, "--trace"]),
    (None, [*FRAGMENT, "--logic", "C", "-e", SAT_SIMPLE, "--cap-steps", "5"]),
    (None, [*FRAGMENT, "--logic", "C", "-e", SAT_SIMPLE, "--cap-steps", "0"]),
    (None, [*FRAGMENT, "--logic", "C", "-e", SAT_SIMPLE, "--no-validate"]),
    (None, ["solve", "--domain", "constant", "--cap-steps", "-3", "-e", SAT_SIMPLE]),
    (None, ["solve", "--domain", "constant", "--logic", "E", "-e", SAT_SIMPLE]),
    (None, ["solve", "--fragment", "--cap-steps", "-3", "-e", SAT_SIMPLE]),
    (None, ["solve", "--fragment", "--trace", "-e", SAT_SIMPLE]),
    (None, [*FRAGMENT, "--logic", "C", "--cap-steps", "-3", "--trace", "-e", SAT_SIMPLE]),
    (None, [*FRAGMENT, "--logic", "C", "--trace", "--no-validate", "-e", SAT_SIMPLE]),
    (None, ["solve", "--domain", "constant"]),
    (None, ["solve", "--cap-steps", "-3"]),
    # bad formulas
    (None, ["solve", "-e", "(and top top)"]),
    (None, ["solve", "-e", "(sub top"]),
    (None, ["solve", "-e", SAT_SIMPLE, "--file", "{dir}/phi.sexp"]),
    (None, ["solve", "--logic", "E"]),
    (None, ["oracle"]),
    (None, ["abstract"]),
    (None, ["validate", "--model", "{dir}/valid.json"]),
    # oracle
    (None, ["oracle", "--logic", "E", "-e", UNSAT_E]),
    (None, ["oracle", "-e", SAT_SIMPLE, "--model-out", "{dir}/out5.json"]),
    (None, ["oracle", "--logic", "M", "-e", SAT_BOXES, "--model-out", "{dir}/out6.json"]),
    (None, ["oracle", "--logic", "N", "-e", UNSAT_N, "--model-out", "{dir}/out7.json"]),
    (None, ["oracle", "--domain", "constant", "--max-worlds", "3", "--max-domain", "1", "-e", SAT_BOXES]),
    (None, ["oracle", "--domain", "constant", "--max-worlds", "1", "--max-domain", "1", "-e", SAT_BOXES]),
    (None, ["oracle", "--max-worlds", "5", "-e", SAT_SIMPLE]),
    (None, ["oracle", "--max-domain", "0", "-e", SAT_SIMPLE]),
    (None, ["oracle", "-e", SAT_SIMPLE, "--file", "{dir}/phi.sexp"]),
    # validate
    (None, ["validate", "--logic", "N", "--model", "{dir}/valid.json", "-e", BOX_A]),
    (None, ["validate", "--logic", "M", "--model", "{dir}/unsupplemented.json", "-e", BOX_A]),
    (None, ["validate", "--logic", "M", "--model", "{dir}/stray.json", "-e", BOX_A]),
    (None, ["validate", "--model", "{dir}/valid.json", "--file", "{dir}/phi.sexp"]),
    # abstract
    (None, ["abstract", "-e", "(and (sub top (atom A)) (box 1 (sub top (atom A))))"]),
    (None, ["abstract", "-e", "(or (dia 1 (sub top (atom A))) (not (sub (atom B) bot)))"]),
    (None, ["abstract", "--file", "{dir}/phi.sexp"]),
    # argparse's own output
    (None, ["--help"]),
    (None, ["solve", "--help"]),
    (None, ["oracle", "--help"]),
    (None, ["validate", "--help"]),
    (None, ["abstract", "--help"]),
    (None, []),
    (None, ["solve", "--logic", "X", "-e", SAT_SIMPLE]),
    (None, ["oracle", "--domain", "fixed", "-e", SAT_SIMPLE]),
    (None, ["solve", "--cap-steps", "many", "-e", SAT_SIMPLE]),
    (None, ["validate", "-e", SAT_SIMPLE]),
    (None, ["abstract", "--logic", "E", "-e", SAT_SIMPLE]),
    (None, ["check", "-e", SAT_SIMPLE]),
]


def _run(argv: list) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def cli_digest(capsys, monkeypatch, directory) -> str:
    for name, text in FILES.items():
        (directory / name).write_text(text)
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    for env, template in INVOCATIONS:
        if env is None:
            monkeypatch.delenv("NNMDL_CAP_STEPS", raising=False)
        else:
            monkeypatch.setenv("NNMDL_CAP_STEPS", env)
        argv = [arg.replace("{dir}", str(directory)) for arg in template]
        code = _run(argv)
        captured = capsys.readouterr()
        written = sorted(directory.glob("out*.json"))
        record = [
            template,
            code,
            captured.out,
            captured.err,
            [[path.name, path.read_bytes().decode()] for path in written],
        ]
        for path in written:
            path.unlink()
        digest.update(json.dumps(record).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def test_cli_digest_is_pinned(capsys, monkeypatch, tmp_path):
    assert cli_digest(capsys, monkeypatch, tmp_path) == EXPECTED_DIGEST
