"""Slow references for the tests: the greedy rule on Python int rows.

Nothing here calls the kernels in ``greedygraph.graphcore``; a graph's row u
is an int whose bit v says that {u, v} is an edge.
"""

import itertools

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
