"""Pins the fragment procedure's observable behaviour to fixed digests.

Over the fragment corpora at three seeds, each formula contributes its
`abstract` payload (the abstraction's text and letter map, as the CLI
prints them), and, under C and N, the verdict and CLI `--fragment`
statistics of `solve_fragment` and of the valuation table run on the
same abstraction.  Tableau query counts are left out: a change to how
queries are built may merge queries that were distinct before without
changing any verdict.

The second digest leaves out the three CLI statistics that describe how
`solve_fragment` searched (`initial_valuations`, `surviving_valuations`
and `rounds`), so it holds every verdict, exit code and abstraction
while the search itself changes.
"""

import contextlib
import hashlib
import io
import json
import random

import pytest

from nnmdl.cli import main
from nnmdl.fragment import prop_abstraction
from nnmdl.semantics import FrameClass
from nnmdl.syntax import serialize

from corpus import random_g_formula
from fragment_table import _by_table

SEEDS = (99120, 61803, 7)
PER_SEED = 200

EXPECTED_DIGEST = "7516d936bef3d2d820941fb9f50af47e742e5294a8f73fa29e6b1517d11fd02f"
VERDICTS_DIGEST = "793316ede7ecc3cf7b0d947df1f3f4f68054436b1e6b0f34e843f511cfaa38f5"

SEARCH_STATS = ("initial_valuations", "surviving_valuations", "rounds")


def _stats(result) -> list:
    return [
        result.verdict,
        len(result.abstraction.letters),
        result.initial_valuations,
        len(result.support.members),
        result.rounds,
    ]


def _cli(*argv) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return [code, json.loads(out.getvalue())]


@pytest.fixture(scope="module")
def records() -> list:
    out = []
    for seed in SEEDS:
        rng = random.Random(seed)
        for _ in range(PER_SEED):
            phi = random_g_formula(rng)
            text = serialize(phi)
            record = [_cli("abstract", "-e", text)]
            for fc in (FrameClass.C, FrameClass.N):
                solved = _cli(
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
            out.append(record)
    return out


def _digest(records: list) -> str:
    digest = hashlib.sha256()
    for record in records:
        digest.update(json.dumps(record, sort_keys=True).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def test_fragment_digest_is_pinned(records):
    assert _digest(records) == EXPECTED_DIGEST


def test_fragment_verdicts_are_pinned(records):
    stripped = json.loads(json.dumps(records))
    for record in stripped:
        for _, (_, payload), _ in record[1:]:
            for field in SEARCH_STATS:
                del payload["stats"][field]
    assert _digest(stripped) == VERDICTS_DIGEST
