"""The package runs on the standard library alone.

Every import in src/leibhom must name leibhom itself (relative imports
included) or a standard-library module, and pyproject.toml declares no
runtime dependencies.  The test extras (pytest, hypothesis) stay out of
src/.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "leibhom").glob("*.py"))


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "leibhom" if node.level else node.module


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_source_imports_only_stdlib_and_leibhom(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = sorted({name for name in _imported_modules(tree)
                      if name.split(".")[0] != "leibhom"
                      and name.split(".")[0] not in sys.stdlib_module_names})
    assert foreign == []


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "exactla.py", "homology.py", "cli.py"}


def test_pyproject_declares_no_runtime_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.findall(r"^dependencies\s*=.*$", text, re.M) == ["dependencies = []"]
