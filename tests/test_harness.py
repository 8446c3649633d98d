"""One traced-peak harness: only ``reference.traced_peak`` starts ``tracemalloc``.

This module reads ``tests/*.py`` with ``ast`` and fails on a call to
``tracemalloc.start`` anywhere else, so that the start/try/finally block
around a traced peak is not copied into a test again.
"""

import ast
from pathlib import Path

import pytest


def _starts(node, where="<module>") -> list[tuple[int, str]]:
    """(line, enclosing function) of each ``tracemalloc.start`` call under ``node``."""
    if isinstance(node, ast.FunctionDef):
        where = node.name
    found = ([(node.lineno, where)] if isinstance(node, ast.Call)
             and ast.unparse(node.func) == "tracemalloc.start" else [])
    for child in ast.iter_child_nodes(node):
        found += _starts(child, where)
    return found


STARTS = {path.name: _starts(ast.parse(path.read_text()))
          for path in sorted(Path(__file__).resolve().parent.glob("*.py"))}


@pytest.mark.parametrize("module", sorted(STARTS))
def test_only_traced_peak_starts_tracemalloc(module):
    stray = [(line, where) for line, where in STARTS[module]
             if (module, where) != ("reference.py", "traced_peak")]
    assert not stray, f"tests/{module} starts tracemalloc at {stray}; call reference.traced_peak"


def test_scan_finds_traced_peak():
    # the scan reads the sources: the one start, in traced_peak, is found
    assert [where for _, where in STARTS["reference.py"]] == ["traced_peak"]
