"""The package's public names are the ones its entry points run.

`nnmdl.__all__` is sorted and resolves, and each of its names is used by
some module of the package other than `__init__` and the module that
defines it, or is on `UNCALLED` with a one-line reason.  A helper only the
tests call belongs next to those tests, not in the library.  Every name a
module of the package or of the tests imports is used in that module.
Importing the package loads no stdlib module that only a rarely used
path needs.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import nnmdl

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
