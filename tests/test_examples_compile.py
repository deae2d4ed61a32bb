"""Smoke checks for the example scripts.

The test suite only verifies each script parses, imports everything it
references, and exposes a ``main`` entry point. Running all six trains
several models and takes about 20 s on a 2-vCPU machine, so CI runs
them in a step of its own after the suite (``.github/workflows/ci.yml``,
"Run the examples").
"""

import ast
import importlib.util
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_exist():
    names = {path.name for path in EXAMPLE_FILES}
    assert "quickstart.py" in names
    assert len(names) >= 3  # the deliverable minimum


@pytest.mark.parametrize(
    "path", EXAMPLE_FILES, ids=[p.stem for p in EXAMPLE_FILES]
)
class TestExampleScript:
    def test_parses(self, path):
        ast.parse(path.read_text())

    def test_has_main_and_guard(self, path):
        tree = ast.parse(path.read_text())
        functions = {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
        }
        assert "main" in functions
        assert '__main__' in path.read_text()

    def test_imports_resolve(self, path):
        """Loading the module executes its imports (but not main)."""
        spec = importlib.util.spec_from_file_location(path.stem, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert callable(module.main)

    def test_has_docstring(self, path):
        tree = ast.parse(path.read_text())
        assert ast.get_docstring(tree), f"{path.name} needs a docstring"
