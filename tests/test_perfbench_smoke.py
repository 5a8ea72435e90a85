"""The benchmark must keep running against the current solver: its tracer
wraps solver functions by name, so a refactor that drops one fails here,
at once in `test_every_traced_function_exists` and in full in the smoke
run."""

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
