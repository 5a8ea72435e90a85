"""The benchmark must keep running against the current solver: its tracer
wraps solver functions by name and its worker calls them by name, so a
refactor that drops one fails here, at once in
`test_every_traced_function_exists` and
`test_every_package_name_the_benchmark_reads_exists`, and in full in the
smoke run."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nnmdl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def traced_functions() -> tuple:
    """`WRAPPED` of perfbench/tracer.py, (span name, module, attribute)
    triples, read from its source: importing the module would write
    bytecode next to it."""
    tree = ast.parse(Path(ROOT, "perfbench", "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "WRAPPED"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py assigns no WRAPPED")


def test_every_traced_function_exists():
    wrapped = traced_functions()
    assert wrapped
    for _, module, attr in wrapped:
        # The tracer looks each one up the same way on the imported package.
        assert callable(getattr(getattr(nnmdl, module), attr)), (module, attr)


def package_chains() -> set:
    """Every `nnmdl.<name>[.<name>...]` attribute chain in perfbench/*.py,
    read with `ast`: each file names the imported package `nnmdl`."""
    chains = set()
    for path in Path(ROOT, "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            while isinstance(node, ast.Attribute):
                names.append(node.attr)
                node = node.value
            if names and isinstance(node, ast.Name) and node.id == "nnmdl":
                chains.add(tuple(reversed(names)))
    return chains


def test_every_package_name_the_benchmark_reads_exists():
    chains = package_chains()
    assert ("oracle", "formula_signature") in chains
    assert ("enumerate_models",) in chains
    for chain in chains:
        value = nnmdl
        for name in chain:
            assert hasattr(value, name), "nnmdl." + ".".join(chain)
            value = getattr(value, name)


@pytest.mark.slow
def test_perfbench_smoke():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "smoke.py")],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke ok" in proc.stdout
