"""Only ``graphcore`` reads or writes the byte layout of word rows.

``graphcore.bitset_words`` writes int rows as little-endian uint64 words,
and ``bitset_ints``, ``neighbours`` and ``unpack_rows`` read them back.  This
module reads ``src/greedygraph/*.py`` with ``ast`` and fails when any other
module calls ``unpackbits``, ``to_bytes``, ``from_bytes``, ``memoryview`` or
``.view(np.uint8)``: those are the byte code that the one writer and the
readers replace.  The graph is its word rows, so its hot paths also make
no int rows: the writer and the int-row reader may not run there at all.
"""

import ast
from pathlib import Path

import pytest

from greedygraph import graphcore, patterns, predictor, process, slots
from greedygraph.numerics import RoundContext
from greedygraph.patterns import CATALOG, count_copies
from greedygraph.process import ProcessParams, run_exact, run_rounds
from greedygraph.slots import check_trajectories

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


def test_hot_paths_make_no_int_rows(monkeypatch):
    # the graph is its word rows: a run with snapshots, its trajectory
    # check, a whole birth-order run in slices that sieve, an audit and
    # counts on a process host neither build nor read int rows
    patterns_used = [CATALOG[p] for p in ("P3", "C4", "C5")]
    ctx = RoundContext(300, 0.2)
    host = run_rounds(ProcessParams(ctx=ctx, seed=2)).graph
    expect = [count_copies(host, p) for p in patterns_used]  # each spasm built once

    def forbidden(*args, **kwargs):
        raise AssertionError("int rows were made")

    for module in (graphcore, patterns, predictor, process, slots):
        for name in ("bitset_ints", "bitset_words"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(graphcore, "_SLICE", 1000)
    trace = run_rounds(ProcessParams(ctx=ctx, seed=2, record_snapshots=True))
    report = check_trajectories(trace, ctx, sample_size=200, seed=1)
    assert len(report.rounds) == ctx.rounds_total + 1
    full = run_exact(ProcessParams(ctx=RoundContext(200, 0.2), seed=1, mode="exact"))
    assert full.graph.audit_triangle_free() and trace.graph.audit_triangle_free()
    assert [count_copies(trace.graph, p) for p in patterns_used] == expect
    with pytest.raises(AssertionError, match="int rows were made"):
        trace.graph.adj  # the forbidden calls are the ones the graph would make
