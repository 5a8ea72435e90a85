"""Pins the fragment procedure's observable behaviour to a fixed digest.

Over the fragment corpora at three seeds, each formula contributes its
`abstract` payload (the abstraction's text and letter map, as the CLI
prints them), and, under C and N, the verdict and CLI `--fragment`
statistics of `solve_fragment` and of the valuation table forced on the
same abstraction.  Tableau query counts are left out: a change to how
queries are built may merge queries that were distinct before without
changing any verdict.
"""

import hashlib
import json
import random

from nnmdl.cli import main
from nnmdl.fragment import _by_table, prop_abstraction
from nnmdl.semantics import FrameClass
from nnmdl.syntax import serialize

from corpus import random_g_formula

SEEDS = (99120, 61803, 7)
PER_SEED = 200

EXPECTED_DIGEST = "aff611d8ea0c4297a0e4201758ea11cb59c5b53a77e0c9c1c8f09bd039b2156a"


def _stats(result) -> list:
    return [
        result.verdict,
        len(result.abstraction.letters),
        result.initial_valuations,
        len(result.support.members),
        result.rounds,
    ]


def _cli(capsys, *argv) -> list:
    code = main(list(argv))
    out = capsys.readouterr().out
    return [code, json.loads(out)]


def fragment_digest(capsys) -> str:
    digest = hashlib.sha256()
    for seed in SEEDS:
        rng = random.Random(seed)
        for _ in range(PER_SEED):
            phi = random_g_formula(rng)
            text = serialize(phi)
            record = [_cli(capsys, "abstract", "-e", text)]
            for fc in (FrameClass.C, FrameClass.N):
                solved = _cli(
                    capsys,
                    "solve",
                    "--fragment",
                    "--domain",
                    "constant",
                    "--logic",
                    fc.value,
                    "-e",
                    text,
                )
                table = _stats(_by_table(prop_abstraction(phi), fc))
                record.append([fc.value, solved, table])
            digest.update(json.dumps(record, sort_keys=True).encode())
            digest.update(b"\n")
    return digest.hexdigest()


def test_fragment_digest_is_pinned(capsys):
    assert fragment_digest(capsys) == EXPECTED_DIGEST
