"""What the tests share: slow references and three pieces of harness.

The references apply the greedy rule on Python int rows; nothing here calls
the kernels in ``greedygraph.graphcore``, and a graph's row u is an int
whose bit v says that {u, v} is an edge.  The harness is ``traced_peak``,
the one place a test starts ``tracemalloc``; ``forbid_streams``, which
makes any keyed stream fail, so that a refusal is seen to come before the
first draw; and ``spy``, which records each call of a real function.
"""

import itertools
import tracemalloc

from greedygraph import rng
from greedygraph.graphcore import EvolvingGraph


def pairs(n: int) -> list[tuple[int, int]]:
    """The pairs of K_n in row-major order: the pair at index i has pair id i."""
    return list(itertools.combinations(range(n), 2))


def int_rows(n: int, edges) -> list[int]:
    """The int rows of the graph on n vertices with these edges."""
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def replay(n: int, order, rows=None) -> tuple[int, list[int]]:
    """Traverse the pairs of ``order`` one by one, from the empty graph or from
    ``rows``, adding each unless its ends share a neighbour: (added, rows)."""
    adj = [0] * n if rows is None else list(rows)
    added = 0
    for u, v in order:
        if not adj[u] & adj[v]:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            added += 1
    return added, adj


def graph(rows) -> EvolvingGraph:
    """The graph with these int rows, assigned to ``adj``; no pair is traversed."""
    g = EvolvingGraph(len(rows))
    g.adj = rows
    g.edge_count = sum(row.bit_count() for row in rows) // 2
    return g


def host(n: int, edges) -> EvolvingGraph:
    """The graph on n vertices with these edges, triangles allowed."""
    return graph(int_rows(n, edges))


def traced_peak(call, *args, **kwargs):
    """``call(*args, **kwargs)`` under ``tracemalloc``: (its result, the
    traced peak in bytes).  Warm any caches the call fills before this."""
    tracemalloc.start()
    try:
        result = call(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def forbid_streams(monkeypatch):
    """Make keying a stream by either route, fresh or re-keyed, fail."""
    def made(*args, **kwargs):
        raise AssertionError("made a stream before the memory check")

    monkeypatch.setattr(rng, "stream", made)
    monkeypatch.setattr(rng.Streams, "rekey", made)


def spy(monkeypatch, owner, name, note, log=None) -> list:
    """Make ``owner.name`` call the real function, then append
    ``note(result, *args, **kwargs)`` to ``log``: the list returned, a new
    one unless a list is given, which lets spies share one ordered log."""
    log = [] if log is None else log
    real = getattr(owner, name)

    def spied(*args, **kwargs):
        result = real(*args, **kwargs)
        log.append(note(result, *args, **kwargs))
        return result

    monkeypatch.setattr(owner, name, spied)
    return log
