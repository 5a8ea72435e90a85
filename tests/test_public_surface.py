"""The package's public names are the ones its entry points run.

`nnmdl.__all__` is sorted and resolves, and each of its names is used by
some module of the package other than `__init__` and the module that
defines it, or is on `UNCALLED` with a one-line reason.  A helper only the
tests call belongs next to those tests, not in the library.  Every name a
module of the package or of the tests imports is used in that module.
Importing the package loads no stdlib module that only a rarely used
path needs, and neither the oracle nor the fragment procedure.  No entry
point builds a term through a checked node constructor: those are for
callers outside the package.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import nnmdl
from nnmdl import syntax
from nnmdl.fragment import solve_fragment
from nnmdl.oracle import brute_force_sat
from nnmdl.semantics import FrameClass
from nnmdl.tableau import solve

from families import nested
from test_fragment import SUBSET_CASES

PACKAGE = Path(nnmdl.__file__).parent
TESTS = Path(__file__).parent

#: Public names no other module of the package uses, each with its reason.
UNCALLED = {
    "Abstraction": "the result type of `prop_abstraction`",
    "FragmentResult": "the result type of `solve_fragment`",
    "OracleResult": "the result type of `brute_force_sat`",
    "Signature": "the signature `enumerate_models` ranges over",
    "SolveResult": "the result type of `solve`",
    "enumerate_models": "the oracle's model space, walked by perfbench and "
    "by the tests' reference evaluator",
    "find_applicable": "whole-state reference rule choice, bound by perfbench "
    "and checked against the search",
    "init": "the start state of `solve` and of the reference steps",
    "is_clash": "whole-state reference clash test, bound by perfbench",
    "parse_concept": "the parser's entry for the concept sort",
    "weight": "the structural weight measure, a termination ordering the "
    "tests check",
}


def _identifiers(module: Path, imports: bool = True) -> set:
    """Every name, attribute and, unless `imports` is false, imported name
    used in a module's code; comments and docstrings do not count."""
    found = set()
    for node in ast.walk(ast.parse(module.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif imports and isinstance(node, ast.alias):
            found.add(node.name)
    return found


def _imported(module: Path) -> set:
    """The names a module's imports bind, `from __future__` aside."""
    bound = set()
    for node in ast.walk(ast.parse(module.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(
                alias.asname or alias.name.partition(".")[0] for alias in node.names
            )
    return bound


#: Module name -> the identifiers its code uses, parsed once.
IDENTIFIERS = {
    module.stem: _identifiers(module) for module in sorted(PACKAGE.glob("*.py"))
}


def _users(name: str) -> list:
    """The modules of the package, other than `__init__` and the defining
    module, that use `name`."""
    home = getattr(nnmdl, name).__module__.rpartition(".")[2]
    return [
        module
        for module, used in IDENTIFIERS.items()
        if module not in ("__init__", home) and name in used
    ]


def test_all_is_sorted_without_duplicates():
    assert nnmdl.__all__ == sorted(set(nnmdl.__all__))


def test_every_public_name_resolves():
    missing = [name for name in nnmdl.__all__ if not hasattr(nnmdl, name)]
    assert missing == []


def test_every_public_name_has_a_caller_or_a_reason():
    uncalled = [
        name
        for name in nnmdl.__all__
        if name not in UNCALLED and not _users(name)
    ]
    assert uncalled == []


def test_every_allowlist_entry_is_public_uncalled_and_explained():
    for name, reason in UNCALLED.items():
        assert name in nnmdl.__all__, name
        assert _users(name) == [], name
        assert reason.strip() and "\n" not in reason, name


def test_every_import_is_used():
    unused = []
    for module in [*sorted(PACKAGE.glob("*.py")), *sorted(TESTS.glob("*.py"))]:
        used = _identifiers(module, imports=False)
        if module.stem == "__init__":
            used |= set(nnmdl.__all__)
        unused += [f"{module.name}: {n}" for n in sorted(_imported(module) - used)]
    assert unused == []


#: Stdlib modules `import nnmdl` must not load: the record machinery of
#: `dataclasses` with the modules it pulls in, and `json`, which only model
#: export and the CLI use.
UNLOADED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "json")


def test_import_loads_no_dataclasses_and_no_json():
    script = (
        "import sys; before = set(sys.modules); import nnmdl; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    added = out.split()
    assert "nnmdl.tableau" in added
    assert [name for name in UNLOADED if name in added] == []


def test_import_defers_the_oracle_and_the_fragment_procedure():
    script = """
import sys
import nnmdl

loaded = sorted(name for name in sys.modules if name.startswith("nnmdl."))
assert "nnmdl.oracle" not in loaded and "nnmdl.fragment" not in loaded, loaded
listed = set(dir(nnmdl))
for name in nnmdl.__all__:
    getattr(nnmdl, name)
assert set(nnmdl.__all__) <= listed, "dir() misses names not read yet"
assert nnmdl.oracle.brute_force_sat is nnmdl.brute_force_sat
try:
    nnmdl.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("nnmdl.no_such_name resolved")
"""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr


def test_no_entry_point_calls_a_node_constructor(monkeypatch):
    # The inputs are built first; from then on every constructor raises.
    # `nested(3)` has four inner boxes, and the subset case turns on C's
    # maximal-subset test with a meet of two bodies, so both reach the
    # fragment's requirement terms.  The oracle refuses more than three
    # concept names, so it takes `nested(2)` in place of `nested(3)`.
    deep, subset, oracle_deep = nested(3), SUBSET_CASES[0], nested(2)

    def refuse(kind, *fields):
        raise AssertionError(f"{kind.__name__} built through its constructor")

    for cls in syntax._CLASSES:
        monkeypatch.setattr(cls, "__new__", refuse)
    for frame_class in FrameClass:
        for phi in (deep, subset):
            solve(phi, frame_class)
        for phi in (oracle_deep, subset):
            brute_force_sat(phi, frame_class)
    for frame_class in (FrameClass.C, FrameClass.N):
        for phi in (deep, subset):
            solve_fragment(phi, frame_class)
