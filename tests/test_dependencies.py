"""The package's runtime imports stay within what ``pyproject.toml`` declares.

numpy is the one runtime dependency; scipy, hypothesis and the rest are
test-only.  This module reads ``src/greedygraph/*.py`` with ``ast`` and fails
on any import, at module level or inside a function, of a package that is
neither in the standard library nor in ``[project] dependencies``.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "greedygraph").glob("*.py"))


def _declared() -> set[str]:
    """The names of the packages in ``[project] dependencies``, lower case."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower()
            for req in project.get("dependencies", [])}


def _imported(source: str) -> set[str]:
    """The top-level names of the absolute imports in ``source``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


DECLARED = _declared()
THIRD_PARTY = {path.name: _imported(path.read_text()) - set(sys.stdlib_module_names)
               - {"greedygraph", "__future__"} for path in SOURCES}


@pytest.mark.parametrize("module", sorted(THIRD_PARTY))
def test_imports_are_declared(module):
    undeclared = sorted(name for name in THIRD_PARTY[module] if name.lower() not in DECLARED)
    assert not undeclared, (f"src/greedygraph/{module} imports {', '.join(undeclared)}, "
                            f"not in pyproject.toml [project] dependencies")


def test_scan_finds_numpy():
    # the scan reads the sources: numpy, the declared dependency, is found
    assert "numpy" in DECLARED
    assert any("numpy" in names for names in THIRD_PARTY.values())
