"""The package runs on the standard library alone.

Every import in src/leibhom must name leibhom itself (relative imports
included) or a standard-library module, and pyproject.toml declares no
runtime dependencies.  The test extras (pytest, hypothesis) stay out of
src/.  The one exception is the interpreter's builtin sha256, which
sys.stdlib_module_names lists as _sha256 up to Python 3.11 and as _sha2
from 3.12: either may be imported only as an arm of a try/except
ImportError chain whose last arm imports hashlib.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "leibhom").glob("*.py"))


# builtin modules that only some Python versions compile in
VERSIONED = {"_sha2", "_sha256"}


def _names(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    return ["leibhom" if node.level else node.module]


def _imported_modules(tree, skip=()):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in skip:
            yield from _names(node)


def _arm(node):
    """The module that node imports if it is an import of one module, else None."""
    if isinstance(node, (ast.Import, ast.ImportFrom)) and len(names := _names(node)) == 1:
        return names[0]
    return None


def _chain_end(node):
    """The module that the last arm of node imports if node is an import of
    one module or a try/except ImportError chain of them, else None."""
    if not isinstance(node, ast.Try):
        return _arm(node)
    if not (len(node.body) == len(node.handlers) == 1 and not node.orelse
            and not node.finalbody and _arm(node.body[0]) is not None):
        return None
    [handler] = node.handlers
    if not (isinstance(handler.type, ast.Name) and handler.type.id == "ImportError"
            and len(handler.body) == 1):
        return None
    return _chain_end(handler.body[0])


def _fallback_arms(tree):
    """The imports of a VERSIONED module that are arms of a chain ending in hashlib."""
    return {node.body[0] for node in ast.walk(tree)
            if isinstance(node, ast.Try) and _chain_end(node) == "hashlib"
            and _arm(node.body[0]) in VERSIONED}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_source_imports_only_stdlib_and_leibhom(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = sorted({name for name in _imported_modules(tree, skip=_fallback_arms(tree))
                      if name.split(".")[0] != "leibhom"
                      and name.split(".")[0] not in sys.stdlib_module_names})
    assert foreign == []


def test_cli_takes_the_builtin_sha256_before_hashlib():
    tree = ast.parse((ROOT / "src" / "leibhom" / "cli.py").read_text())
    assert sorted(_arm(node) for node in _fallback_arms(tree)) == ["_sha2", "_sha256"]


FALLBACK = """
try:
    from _sha2 import sha256
except ImportError:
    {}
"""


@pytest.mark.parametrize("source, arms", [
    (FALLBACK.format("from hashlib import sha256"), ["_sha2"]),
    (FALLBACK.format("import hashlib"), ["_sha2"]),
    # a chain that ends elsewhere, catches more than ImportError or imports a
    # second module does not count, nor does a foreign module in it
    (FALLBACK.format("sha256 = None"), []),
    (FALLBACK.format("from _sha256 import sha256"), []),
    (FALLBACK.replace("ImportError", "Exception").format("import hashlib"), []),
    (FALLBACK.replace("from _sha2 import sha256", "import _sha2, numpy")
     .format("import hashlib"), []),
    (FALLBACK.replace("_sha2", "numpy").format("import hashlib"), []),
    ("import _sha2\nimport hashlib\n", []),
], ids=["from-hashlib", "import-hashlib", "no-import", "ends-in-_sha256", "catches-exception",
        "two-modules", "foreign", "no-try"])
def test_only_a_chain_ending_in_hashlib_admits_a_versioned_module(source, arms):
    assert [_arm(node) for node in _fallback_arms(ast.parse(source))] == arms


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "exactla.py", "homology.py", "cli.py"}


def test_pyproject_declares_no_runtime_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.findall(r"^dependencies\s*=.*$", text, re.M) == ["dependencies = []"]
