"""Only ``graphcore`` reads or writes the byte layout of word rows.

``graphcore.bitset_words`` writes int rows as little-endian uint64 words,
and ``bitset_ints``, ``neighbours`` and ``unpack_rows`` read them back.  This
module reads ``src/greedygraph/*.py`` with ``ast`` and fails when any other
module calls ``unpackbits``, ``to_bytes``, ``from_bytes``, ``memoryview`` or
``.view(np.uint8)``: those are the byte code that the one writer and the
readers replace.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "greedygraph").glob("*.py"))
BYTE_CALLS = {"unpackbits", "to_bytes", "from_bytes", "memoryview"}


def _byte_calls(source: str) -> list[tuple[int, str]]:
    """(line, name) of each call in ``source`` that touches the byte layout."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in BYTE_CALLS:
            found.append((node.lineno, name))
        elif name == "view" and node.args and ast.unparse(node.args[0]) in (
                "np.uint8", "numpy.uint8", "'uint8'", "'u1'", "'B'"):
            found.append((node.lineno, f"view({ast.unparse(node.args[0])})"))
    return found


CALLS = {path.name: _byte_calls(path.read_text()) for path in SOURCES}


@pytest.mark.parametrize("module", sorted(set(CALLS) - {"graphcore.py"}))
def test_only_graphcore_touches_the_byte_layout(module):
    assert not CALLS[module], (f"src/greedygraph/{module} handles word-row bytes itself "
                               f"at {CALLS[module]}; call graphcore's writer or readers")


def test_scan_finds_graphcore_byte_code():
    # the scan reads the sources: graphcore's own byte code is found
    names = {name for _, name in CALLS["graphcore.py"]}
    assert {"to_bytes", "from_bytes", "memoryview", "unpackbits", "view(np.uint8)"} <= names
