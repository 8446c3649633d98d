"""Compact K_n subgraph representation with word-parallel triangle queries.

Vertices are dense integers 0..n-1.  Adjacency is one Python int bitmask
per vertex, so the innermost query, "do u and v share a neighbour", is a
single big-int AND that runs word-at-a-time in C and short-circuits on
the first nonzero word.  The traversed-pair ledger is kept the same way.
Unordered pairs {u, v} are indexed row-major: (0,1), (0,2), ..., (1,2), ...
"""

from __future__ import annotations

from typing import Iterator

import numpy as np


def num_pairs(n: int) -> int:
    return n * (n - 1) // 2


def edge_index(u: int, v: int, n: int) -> int:
    """Canonical index of the unordered pair {u, v} in 0..C(n,2)-1."""
    if u == v:
        raise ValueError(f"self-loop ({u}, {v})")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"vertex out of range for n={n}: ({u}, {v})")
    if u > v:
        u, v = v, u
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


def edge_endpoints(idx: int, n: int) -> tuple[int, int]:
    """Inverse of edge_index."""
    if not 0 <= idx < num_pairs(n):
        raise ValueError(f"edge index {idx} out of range for n={n}")
    b = 2 * n - 1
    u = int((b - (b * b - 8 * idx) ** 0.5) // 2)
    # float slop near row boundaries: settle with exact integer arithmetic
    while u * (2 * n - u - 1) // 2 > idx:
        u -= 1
    while (u + 1) * (2 * n - u - 2) // 2 <= idx:
        u += 1
    v = idx - u * (2 * n - u - 1) // 2 + u + 1
    return u, v


def decode_edge_ids(ids, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized edge_endpoints for an array of indices."""
    ids = np.asarray(ids, dtype=np.int64)
    b = 2 * n - 1
    u = ((b - np.sqrt(b * b - 8.0 * ids)) // 2).astype(np.int64)
    np.clip(u, 0, n - 2, out=u)
    row = u * (2 * n - u - 1) // 2
    # one exact correction pass in each direction
    over = row > ids
    if over.any():
        u[over] -= 1
        row = u * (2 * n - u - 1) // 2
    under = (u + 1) * (2 * n - u - 2) // 2 <= ids
    if under.any():
        u[under] += 1
        row = u * (2 * n - u - 1) // 2
    v = ids - row + u + 1
    return u, v


def iter_bits(x: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def bit_indices(x: int, n: int) -> np.ndarray:
    """Set-bit indices of an n-bit mask as an int64 array."""
    nbytes = (n + 7) // 8
    packed = np.frombuffer(x.to_bytes(nbytes, "little"), dtype=np.uint8)
    bits = np.unpackbits(packed, bitorder="little", count=n)
    return np.nonzero(bits)[0].astype(np.int64)


class EvolvingGraph:
    """Adjacency bitsets for the current graph plus the traversed-pair ledger.

    ``add_edge_if_open`` enforces the triangle-free insertion rule; the
    global invariant is re-checkable with ``audit_triangle_free`` (it is not
    re-verified per insert).  ``insert_edge`` bypasses the rule, so hosts
    that are allowed to contain triangles (uniform random graphs, injected
    counterexamples) use the same representation.
    """

    __slots__ = ("n", "adj", "birthed_adj", "edge_count", "birthed_count")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.n = n
        self.adj: list[int] = [0] * n
        self.birthed_adj: list[int] = [0] * n
        self.edge_count = 0
        self.birthed_count = 0

    def _check_pair(self, u: int, v: int) -> tuple[int, int]:
        # coerce numpy integers so bitmask shifts stay arbitrary-precision
        u = int(u)
        v = int(v)
        if u == v:
            raise ValueError(f"self-loop ({u}, {v})")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertex out of range for n={self.n}: ({u}, {v})")
        return u, v

    def has_edge(self, u: int, v: int) -> bool:
        u, v = self._check_pair(u, v)
        return bool((self.adj[u] >> v) & 1)

    def is_birthed(self, u: int, v: int) -> bool:
        u, v = self._check_pair(u, v)
        return bool((self.birthed_adj[u] >> v) & 1)

    def add_edge_if_open(self, u: int, v: int) -> bool:
        """Insert {u, v} unless it closes a triangle; returns whether added.

        A rejected edge leaves the adjacency bit-identical.  The ledger is
        not touched here; the process marks traversal separately.
        """
        u, v = self._check_pair(u, v)
        if (self.adj[u] >> v) & 1:
            raise ValueError(f"edge ({u}, {v}) already present")
        if self.adj[u] & self.adj[v]:
            return False
        self.adj[u] |= 1 << v
        self.adj[v] |= 1 << u
        self.edge_count += 1
        return True

    def insert_edge(self, u: int, v: int) -> None:
        """Unconditional insert (host construction; no triangle rule)."""
        u, v = self._check_pair(u, v)
        if (self.adj[u] >> v) & 1:
            raise ValueError(f"edge ({u}, {v}) already present")
        self.adj[u] |= 1 << v
        self.adj[v] |= 1 << u
        self.edge_count += 1

    def mark_birthed(self, u: int, v: int) -> None:
        u, v = self._check_pair(u, v)
        if (self.birthed_adj[u] >> v) & 1:
            raise ValueError(f"pair ({u}, {v}) already traversed")
        self.birthed_adj[u] |= 1 << v
        self.birthed_adj[v] |= 1 << u
        self.birthed_count += 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as sorted (u, v) pairs with u < v, lexicographic."""
        for u in range(self.n):
            high = self.adj[u] >> (u + 1)
            for off in iter_bits(high):
                yield u, u + 1 + off

    def audit_triangle_free(self) -> bool:
        """True iff no triangle exists; O(sum_u deg(u) * n / wordsize)."""
        adj = self.adj
        for u in range(self.n):
            au = adj[u]
            high = au >> (u + 1)
            for off in iter_bits(high):
                if au & adj[u + 1 + off]:
                    return False
        return True

    def copy(self) -> "EvolvingGraph":
        """Cheap frozen-state copy: bitmask ints are immutable and shared."""
        g = EvolvingGraph.__new__(EvolvingGraph)
        g.n = self.n
        g.adj = list(self.adj)
        g.birthed_adj = list(self.birthed_adj)
        g.edge_count = self.edge_count
        g.birthed_count = self.birthed_count
        return g

    def export_edges(self, fileobj) -> None:
        """Snapshot export: one sorted 'u v' pair per line."""
        for u, v in self.edges():
            fileobj.write(f"{u} {v}\n")

    @classmethod
    def from_edges(cls, n: int, edges, birthed: bool = True) -> "EvolvingGraph":
        g = cls(n)
        for u, v in edges:
            g.insert_edge(u, v)
            if birthed:
                g.mark_birthed(u, v)
        return g

    def __repr__(self):
        return (f"EvolvingGraph(n={self.n}, edges={self.edge_count}, "
                f"birthed={self.birthed_count})")


def greedy_insert(g: EvolvingGraph, us, vs) -> int:
    """Traverse the pairs (us[j], vs[j]) in order; returns how many were added.

    Each pair is recorded in the ledger and added unless its endpoints
    already share a neighbour.  This is the process's inner loop, so the
    pairs are not checked: they must be distinct, in range and not yet
    traversed (``add_edge_if_open`` with ``mark_birthed`` is the checked
    per-pair equivalent).
    """
    adj = g.adj
    birthed = g.birthed_adj
    added = 0
    for u, v in zip(np.asarray(us).tolist(), np.asarray(vs).tolist()):
        bu = 1 << u
        bv = 1 << v
        birthed[u] |= bv
        birthed[v] |= bu
        if adj[u] & adj[v]:
            continue
        adj[u] |= bv
        adj[v] |= bu
        added += 1
    g.edge_count += added
    g.birthed_count += len(us)
    return added
