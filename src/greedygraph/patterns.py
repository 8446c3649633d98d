"""Fixed-pattern machinery: automorphisms, balancedness, copy counting.

Patterns are small graphs (up to 8 vertices) given by edge lists.  One
backtracking search, ``isomorphisms``, decides graph identity everywhere:
it counts a pattern's automorphisms, merges isomorphic spasm components
and names the outcome classes of final graphs.  Copy counts in a host
are unlabelled subgraph counts: injective embeddings that map pattern
edges onto host edges (host may have extra edges), divided by the
pattern's automorphism count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, product
from math import factorial, prod
from typing import NamedTuple

import numpy as np

from .graphcore import (EvolvingGraph, check_memory, iter_bits, neighbours, row_bit_counts,
                        unpack_rows)

MAX_PATTERN_VERTICES = 8


def _normalize_edges(edges) -> tuple[tuple[int, int], ...]:
    verts = sorted({w for e in edges for w in e})
    relabel = {w: i for i, w in enumerate(verts)}
    out = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"pattern self-loop ({u}, {v})")
        a, b = relabel[u], relabel[v]
        if a > b:
            a, b = b, a
        if (a, b) in out:
            raise ValueError(f"duplicate pattern edge ({u}, {v})")
        out.add((a, b))
    return tuple(sorted(out))


def _masks(v: int, edges) -> list[int]:
    """Int adjacency masks on v vertices of edges checked by ``_normalize_edges``."""
    adj = [0] * v
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def _induced_sizes(v: int, edges):
    """(v_H, e_H) of the subgraph induced on each non-empty vertex subset."""
    for smask in range(1, 1 << v):
        yield smask.bit_count(), sum(1 for a, b in edges if (smask >> a) & 1 and (smask >> b) & 1)


def induced(adj: list[int], keep: int) -> list[int]:
    """Adjacency masks of the subgraph induced on the vertex mask keep, its
    vertices renumbered in increasing order."""
    verts = list(iter_bits(keep))
    pos = {w: i for i, w in enumerate(verts)}
    return [sum(1 << pos[x] for x in iter_bits(adj[w] & keep)) for w in verts]


def isomorphisms(a: list[int], b: list[int], first: bool = False) -> int:
    """Isomorphisms between two small graphs given as adjacency bitmasks, or
    with ``first`` 1 at the first one found (0 if none): a vertex-by-vertex
    search that only maps equal-degree vertices and keeps adjacency to the
    vertices already mapped."""
    v = len(a)
    da = [m.bit_count() for m in a]
    db = [m.bit_count() for m in b]
    if v != len(b) or sorted(da) != sorted(db):
        return 0
    image = [0] * v

    def extend(i: int, used: int) -> int:
        if i == v:
            return 1
        found = 0
        for w in range(v):
            if (used >> w) & 1 or db[w] != da[i]:
                continue
            if all((a[i] >> j) & 1 == (b[w] >> image[j]) & 1 for j in range(i)):
                image[i] = w
                found += extend(i + 1, used | (1 << w))
                if found and first:
                    break
        return found

    return extend(0, 0)


@dataclass(frozen=True)
class PatternGraph:
    """A fixed pattern with its canonical edge list and derived metadata."""

    name: str
    v: int
    e: int
    edges: tuple[tuple[int, int], ...]
    aut: int
    density: float
    balanced: bool
    triangle_free: bool

    @classmethod
    def from_edges(cls, edges, name: str | None = None) -> "PatternGraph":
        canon = _normalize_edges(edges)
        if not canon:
            raise ValueError("pattern must have at least one edge")
        v = max(b for _, b in canon) + 1
        if v > MAX_PATTERN_VERTICES:
            raise ValueError(f"pattern too large: {v} vertices, supported up to {MAX_PATTERN_VERTICES}")
        e = len(canon)
        adj = _masks(v, canon)
        dens = Fraction(e, v)
        balanced = all(Fraction(eh, vh) <= dens for vh, eh in _induced_sizes(v, canon) if eh)
        return cls(name=name or f"v{v}e{e}", v=v, e=e, edges=canon,
                   aut=isomorphisms(adj, adj), density=float(dens), balanced=balanced,
                   triangle_free=not any(adj[a] & adj[b] for a, b in canon))

    def adjacency(self) -> list[int]:
        return _masks(self.v, self.edges)


# ---------------------------------------------------------------------------
# copy counting
#
# Copies are injective homomorphisms over |Aut|, and injective
# homomorphisms are a signed sum of homomorphism counts (Curticapean, Dell &
# Marx, "Homomorphisms are a good basis for counting small subgraphs",
# STOC 2017):
#
#     inj(F, G) = sum over set partitions pi of V(F) with no pattern edge
#                 inside a block of mu(pi) * hom(F/pi, G),
#     mu(pi)    = prod over blocks B of (-1)**(|B| - 1) * (|B| - 1)!
#
# The quotients F/pi form the spasm.  hom is multiplicative over connected
# components, so a spasm is kept as its distinct connected components plus
# integer terms over them.  hom(Q, G) of a connected Q is a contraction of
# the host adjacency A, walk algebra in the manner of Alon, Yuster & Zwick,
# "Finding and counting given length cycles" (1997): the images of a
# smallest vertex set R whose removal leaves Q a forest stay free, and each
# tree is summed from its leaves to its root with one product by A per
# tree edge, on the host's CSR where the message allows it.
# Triangle-containing quotients are kept, so counts stay exact on hosts
# with triangles.

# Entries of one row-blocked array: 8 MB in int64.  It also bounds
# n**|R|, the size of a one-row block.
_BLOCK_CELLS = 1 << 20
# (x, a, b) triples in one run of the CSR scatter
_TRIPLES = 1 << 16


class _Msg(NamedTuple):
    """A subtree of a forest component hanging from its vertex u.  As an
    array, entry (x_R, x_u) counts the maps of the subtree's other vertices
    that keep its edges, and its edges to R, on host edges.  Equal
    messages share one array within a quotient and across the quotients
    of a spasm."""

    axes: tuple[int, ...]          # positions in R of u's neighbours
    children: tuple["_Msg", ...]   # subtrees hanging from u's children
    deps: tuple[int, ...]          # positions in R the message varies with
    size: int                      # vertices of the subtree


def _msg(axes, children) -> _Msg:
    children = tuple(sorted(children))
    deps = set(axes).union(*(c.deps for c in children))
    return _Msg(tuple(axes), children, tuple(sorted(deps)),
                1 + sum(c.size for c in children))


@dataclass(frozen=True)
class _Component:
    """A connected quotient Q with its contraction plan:
    hom(Q, G) = sum over x_R of prod over trees T of (sum over the image of
    T's top vertex of T's message) * prod over (i, j) in root_edges of
    A[x_Ri, x_Rj]."""

    v: int
    roots: int                                  # |R|
    trees: tuple[_Msg, ...]
    root_edges: tuple[tuple[int, int], ...]     # positions in R


@dataclass(frozen=True)
class _Spasm:
    components: tuple[_Component, ...]
    # (sum of mu over the quotients with these components, component indices)
    terms: tuple[tuple[int, tuple[int, ...]], ...]


def _parts(adj: list[int], keep: int) -> list[int]:
    """Vertex masks of the connected parts of the subgraph induced on keep."""
    parts = []
    while keep:
        part = frontier = keep & -keep
        while frontier:
            reach = 0
            for u in iter_bits(frontier):
                reach |= adj[u]
            frontier = reach & keep & ~part
            part |= frontier
        parts.append(part)
        keep &= ~part
    return parts


def _subtree(adj: list[int], roots: tuple[int, ...], u: int, keep: int) -> _Msg:
    keep &= ~(1 << u)
    return _msg([i for i, r in enumerate(roots) if (adj[u] >> r) & 1],
                [_subtree(adj, roots, c, keep) for c in iter_bits(adj[u] & keep)])


def _pushed(trees) -> set[_Msg]:
    """The distinct messages pushed along a tree edge in the given trees."""
    return {m for t in trees for c in t.children for m in (c, *_pushed([c]))}


def _push_cost(trees: tuple[_Msg, ...], k: int) -> tuple[int, ...]:
    """Distinct matrix products, the widest (most free R axes) first."""
    pushed = _pushed(trees)
    return tuple(sum(len(m.deps) == d for m in pushed) for d in range(k, -1, -1))


def _plan(adj: list[int]) -> _Component:
    """Smallest R leaving a forest, then the R and the tree tops that need
    the fewest wide products."""
    v = len(adj)
    everything = (1 << v) - 1
    for k in range(v):
        best = None
        for roots in combinations(range(v), k):
            keep = everything & ~sum(1 << r for r in roots)
            trees = _parts(adj, keep)
            edges = sum((adj[u] & keep).bit_count() for u in iter_bits(keep)) // 2
            if edges != keep.bit_count() - len(trees):
                continue
            for tops in product(*(list(iter_bits(t)) for t in trees)):
                msgs = tuple(sorted(_subtree(adj, roots, top, tree)
                                    for top, tree in zip(tops, trees)))
                cand = (_push_cost(msgs, k), msgs, roots)
                if best is None or cand < best:
                    best = cand
        if best is not None:
            _, msgs, roots = best
            edges = tuple((i, j) for i, j in combinations(range(k), 2)
                          if (adj[roots[i]] >> roots[j]) & 1)
            return _Component(v, k, msgs, edges)
    raise AssertionError("a single vertex always leaves a forest")


def _independent_partitions(adj: list[int]):
    """Block label of each vertex, for every set partition of the vertices
    with no edge inside a block."""
    v = len(adj)
    labels = [0] * v
    blocks: list[int] = []

    def place(i: int):
        if i == v:
            yield tuple(labels)
            return
        for b, mask in enumerate(blocks):
            if not mask & adj[i]:
                blocks[b] = mask | (1 << i)
                labels[i] = b
                yield from place(i + 1)
                blocks[b] = mask
        blocks.append(1 << i)
        labels[i] = len(blocks) - 1
        yield from place(i + 1)
        blocks.pop()

    return place(0)


@lru_cache(maxsize=64)
def _spasm(edges: tuple[tuple[int, int], ...]) -> _Spasm:
    """The pattern's spasm with isomorphic quotient components merged;
    built on a pattern's first count, not at import."""
    adj = _masks(max(b for _, b in edges) + 1, edges)
    comps: list[_Component] = []
    seen: list[list[int]] = []                  # adjacency of comps[i]
    terms: dict[tuple[int, ...], int] = {}
    for labels in _independent_partitions(adj):
        mu = prod((-1) ** (s - 1) * factorial(s - 1) for s in Counter(labels).values())
        qadj = _masks(max(labels) + 1, [(labels[a], labels[b]) for a, b in edges])
        ids = []
        for part in _parts(qadj, (1 << len(qadj)) - 1):
            cadj = induced(qadj, part)
            for idx, other in enumerate(seen):
                if isomorphisms(cadj, other, first=True):
                    break
            else:
                idx = len(comps)
                comps.append(_plan(cadj))
                seen.append(cadj)
            ids.append(idx)
        key = tuple(sorted(ids))
        terms[key] = terms.get(key, 0) + mu
    return _Spasm(tuple(comps), tuple((mu, ids) for ids, mu in terms.items() if mu))


def _scattered(m: _Msg) -> bool:
    """Whether m is the row block A[rows] alone, pushed by the CSR scatter."""
    return m.axes == (0,) and not m.children


class _Walks:
    """Contractions of one host adjacency, with the image of the first of k
    free vertices R restricted to a block of rows.  Arrays have k + 1 axes
    (the images of R, then the image of a subtree's top vertex); an axis an
    array does not vary with has length 1.  Arrays that do not vary with the
    first axis are kept in ``shared``, which outlives the block.  The host
    comes as its bit words, its CSR (row x is indices[indptr[x]:indptr[x+1]])
    and the dense 0/1 and float adjacency, None unless the plan needs them.
    Messages hold exact counts in int64, or uint8 for products of adjacency."""

    def __init__(self, host: tuple, k: int, rows: slice, shared: dict):
        self.words, self.indptr, self.indices, self.bits, self.a = host
        self.n, self.k, self.rows, self.shared = len(self.indptr) - 1, k, rows, shared
        self.local: dict = {}

    def _adjacency(self, i: int, j: int, ndim: int) -> np.ndarray:
        """A[x_i, x_j] for axes i < j, broadcast to ndim axes."""
        src = unpack_rows(self.words[self.rows], self.n) if i == 0 else self.bits
        shape = [1] * ndim
        shape[i], shape[j] = src.shape
        return src.reshape(shape)

    def _cached(self, kind: str, m: _Msg, compute):
        cache = self.local if 0 in m.deps else self.shared
        key = (kind, m)
        if key not in cache:
            cache[key] = compute(m)
        return cache[key]

    def _factors(self, m: _Msg) -> list[np.ndarray]:
        factors = [self._adjacency(i, self.k, self.k + 1) for i in m.axes]
        factors += [self._cached("push", c, self._push) for c in m.children]
        return factors or [np.ones((1,) * self.k + (self.n,), dtype=np.int64)]

    def _message(self, m: _Msg) -> np.ndarray:
        return reduce(np.multiply, self._factors(m))

    def _push(self, m: _Msg) -> np.ndarray:
        """message(m) @ A in int64.  A message that varies with no free
        vertex is a vector, summed over each host row's CSR entries; the row
        block A[rows] is scattered over the CSR; anything else is a float
        product with the dense adjacency."""
        if not m.deps:
            sums = np.zeros(len(self.indices) + 1, dtype=np.int64)
            np.cumsum(self._message(m).reshape(-1)[self.indices], out=sums[1:])
            return np.diff(sums[self.indptr]).reshape((1,) * self.k + (self.n,))
        if _scattered(m):
            return self._scatter()
        return (self._message(m).astype(self.a.dtype) @ self.a).astype(np.int64)

    def _scatter(self) -> np.ndarray:
        """A[rows] @ A: host row a is added to row x for each CSR entry
        (x, a) of the block, by one unweighted bincount per run of entries
        that holds at most _TRIPLES (x, a, b) triples, or one entry."""
        n = self.n
        ptr = self.indptr[self.rows.start:self.rows.stop + 1]
        x = np.repeat(np.arange(len(ptr) - 1) * n, np.diff(ptr))   # offset of x's row
        a = self.indices[ptr[0]:ptr[-1]]
        triples = self.indptr[a + 1] - self.indptr[a]
        ends = np.cumsum(triples)
        shift = self.indptr[a] - ends + triples     # from a triple's rank to row a's entry
        out = np.zeros((len(ptr) - 1) * n, dtype=np.int64)
        i = 0
        while i < len(a):
            first = ends[i] - triples[i]
            j = max(i + 1, int(np.searchsorted(ends, first + _TRIPLES, side="right")))
            pos = np.repeat(shift[i:j] + first, triples[i:j])
            pos += np.arange(ends[j - 1] - first)
            keys = self.indices[pos]
            del pos
            keys += np.repeat(x[i:j] - x[i], triples[i:j])
            span = x[j - 1] + n - x[i]
            out[x[i]:x[i] + span] += np.bincount(keys, minlength=span)
            i = j
        return out.reshape((len(ptr) - 1,) + (1,) * (self.k - 1) + (n,))

    def _sum(self, m: _Msg) -> np.ndarray:
        """message(m) summed over its last axis; the last product is fused
        into the sum, so the message is never held whole."""
        *rest, last = self._factors(m)
        if not rest:
            return last.sum(axis=-1, dtype=np.int64)
        return np.einsum("...i,...i->...", reduce(np.multiply, rest), last, dtype=np.int64)

    def hom(self, c: _Component) -> int:
        parts = [self._cached("sum", t, self._sum) for t in c.trees]
        parts += [self._adjacency(i, j, self.k).astype(np.int64) for i, j in c.root_edges]
        return int(reduce(np.multiply, parts).sum())


def _hom_counts(spasm: _Spasm, host: EvolvingGraph) -> list[int]:
    """hom(Q, host) for each component Q of the spasm, on the host's CSR,
    built by ``neighbours`` ``_BLOCK_CELLS // n`` rows at a time."""
    n = host.n
    comps = spasm.components
    degrees = row_bit_counts(host.words).tolist()
    delta = max(degrees)
    # Every int64 partial sum is at most hom(Q) <= n * delta**(v_Q - 1).  A
    # float entry of a dense push of m is at most delta**size(m); with
    # size(m) <= v_Q - 2 and n > delta that bound keeps it under 2**48.
    # Checked before any work.
    for c in comps:
        if n * delta ** (c.v - 1) >= 2 ** 63:
            raise ValueError(f"exact-count bound: n * (max degree)**{c.v - 1} = "
                             f"{n} * {delta}**{c.v - 1} reaches 2**63")
        if n ** c.roots > _BLOCK_CELLS:
            raise ValueError(f"memory bound: a quotient needs {c.roots} free vertices; "
                             f"n**{c.roots} = {n ** c.roots} entries per row block "
                             f"exceeds {_BLOCK_CELLS}")
    wide = [m for m in _pushed(t for c in comps for t in c.trees) if m.deps]
    dense = [m.size for m in wide if not _scattered(m)]
    scattered = len(dense) < len(wide)
    dtype = np.dtype(np.float32 if delta ** max(dense, default=0) < 2 ** 24 else np.float64)
    built = dense or max(c.roots for c in comps) >= 2
    cells = 0
    for k in {c.roots for c in comps}:
        block = min(n, _BLOCK_CELLS // n ** k)
        trees = [t for c in comps if c.roots == k for t in c.trees]
        # a tree's sum multiplies its factors but the last in turn: from
        # four factors on, the running product and the next are alive at once
        wide = any(len(t.axes) + len(t.children) >= 4 for t in trees)
        cells = max(cells, (1 + wide) * block * n ** k + sum(
            (block if 0 in m.deps else n) * n ** len(m.deps)
            for m in _pushed(trees) if m.deps))
    # What a count holds at once (it reads the host's word rows in place):
    # the dense adjacency when built (n**2 bytes, and n**2 floats for a
    # dense push); the CSR and its copy while joined, one row block unpacked;
    # the CSR build's 32 bytes per entry of its widest row step, or with a
    # scattered push the scatter's 40 per entry of a block's rows and 16 per
    # triple of one run; and int64 arrays for the quotients with k free
    # vertices, for the k that needs most (each k runs in turn): their pushes
    # that vary with a free vertex, each at its shape, and one or two row
    # blocks for the product.
    step = max(1, _BLOCK_CELLS // n)
    build = 32 * max(sum(degrees[s:s + step]) for s in range(0, n, step))
    check_memory(bool(built) * n * n * (1 + dtype.itemsize * bool(dense))
                 + 8 * (n + 1) + 16 * sum(degrees) + min(n * n, max(n, _BLOCK_CELLS))
                 + max(build, scattered * 40 * min(n, step) * delta)
                 + scattered * 16 * min(_TRIPLES, sum(d * d for d in degrees))
                 + 8 * cells, f"a count at n={n}")
    words = host.words
    indptr = np.concatenate([[0], np.cumsum(degrees)])
    indices = np.concatenate([neighbours(words[s:s + step])[1] for s in range(0, n, step)])
    bits = unpack_rows(words, n) if built else None
    host_arrays = (words, indptr, indices, bits, bits.astype(dtype) if dense else None)
    counts = [0] * len(comps)
    for k in sorted({c.roots for c in comps}):
        group = [i for i, c in enumerate(comps) if c.roots == k]
        rows = _BLOCK_CELLS // n ** k if k else n
        shared: dict = {}
        for start in range(0, n, rows):
            walks = _Walks(host_arrays, k, slice(start, start + rows), shared)
            for i in group:
                counts[i] += walks.hom(comps[i])
    return counts


def count_copies(host: EvolvingGraph, pattern: PatternGraph) -> int:
    """Unlabelled copies of the pattern in the host (exact), with or
    without triangles in either.

    One route for every pattern: injective maps are the signed sum of
    homomorphism counts over the pattern's spasm (built on the pattern's
    first count and cached), each a row-blocked contraction of the host
    adjacency in int64 on the host's CSR; only a push of a message with
    children builds the dense adjacency, and runs in float32, or float64
    when the maximum degree could push an entry past 2**24.  Copies are
    injective maps over |Aut|.  Raises ValueError, before any work, when
    the maximum degree puts an exact count out of int64 range, a quotient's
    block would not fit the memory bound, or the count (its CSR, its dense
    adjacency when built and its row blocks) would not fit in memory
    (``check_memory``).
    """
    spasm = _spasm(pattern.edges)
    homs = _hom_counts(spasm, host)
    inj = sum(mu * prod(homs[i] for i in ids) for mu, ids in spasm.terms)
    copies, rest = divmod(inj, pattern.aut)
    if rest or copies < 0:
        raise AssertionError(f"injective count {inj} is not a non-negative "
                             f"multiple of aut={pattern.aut}")
    return copies


def _search_order(pattern: PatternGraph) -> list[int]:
    """Connectivity-first, high-degree-first placement order."""
    adj = pattern.adjacency()
    deg = [m.bit_count() for m in adj]
    remaining = set(range(pattern.v))
    order: list[int] = []
    placed_mask = 0
    while remaining:
        anchored = [w for w in remaining if adj[w] & placed_mask]
        pool = anchored if anchored else list(remaining)
        nxt = max(pool, key=lambda w: (deg[w], -w))
        order.append(nxt)
        remaining.remove(nxt)
        placed_mask |= 1 << nxt
    return order


def count_embeddings(host: EvolvingGraph, pattern: PatternGraph) -> int:
    """Injective homomorphisms pattern -> host (labelled embeddings), by
    pruned backtracking: the reference count_copies is tested against."""
    order = _search_order(pattern)
    padj = pattern.adjacency()
    hadj = host.adj
    n = host.n
    all_mask = (1 << n) - 1
    pos = {pv: i for i, pv in enumerate(order)}
    # for each placement step, the pattern neighbours already placed
    back = [[q for q in iter_bits(padj[pv]) if pos[q] < i] for i, pv in enumerate(order)]
    placed = [0] * pattern.v

    def rec(i: int, used: int) -> int:
        if i == len(order):
            return 1
        anchors = back[i]
        if anchors:
            cand = hadj[placed[anchors[0]]]
            for q in anchors[1:]:
                cand &= hadj[placed[q]]
            cand &= ~used
        else:
            cand = all_mask & ~used
        total = 0
        pv = order[i]
        for hv in iter_bits(cand):
            placed[pv] = hv
            total += rec(i + 1, used | (1 << hv))
        return total

    return rec(0, 0)


# ---------------------------------------------------------------------------
# second-moment exponent certificate


@dataclass(frozen=True)
class MarginReport:
    """min over subgraphs H (>= 1 edge) of v_H - (1/2 - eps) e_H, and the
    densest subgraph ratio max e_H / v_H.  A positive margin certifies that
    every covariance class is negligible against the squared mean at
    exponent level."""

    margin: float
    max_density: float


def variance_margin(pattern: PatternGraph, eps: float) -> MarginReport:
    """Exponent margin over all subgraphs of the pattern.

    Enumerates vertex subsets; for a fixed vertex set the extreme of both
    statistics is attained at the full induced edge set (the coefficient
    1/2 - eps is positive), so proper edge subsets need no separate pass.
    """
    if not pattern.triangle_free:
        raise ValueError("margin certificate applies to triangle-free patterns")
    c = 0.5 - eps
    sizes = [(vh, eh) for vh, eh in _induced_sizes(pattern.v, pattern.edges) if eh]
    return MarginReport(margin=min(vh - c * eh for vh, eh in sizes),
                        max_density=max(eh / vh for vh, eh in sizes))


# ---------------------------------------------------------------------------
# catalog and parsing


def path_graph(v: int) -> PatternGraph:
    return PatternGraph.from_edges([(i, i + 1) for i in range(v - 1)], name=f"P{v}")


def cycle_graph(v: int) -> PatternGraph:
    return PatternGraph.from_edges([(i, (i + 1) % v) for i in range(v)], name=f"C{v}")


def star_graph(k: int) -> PatternGraph:
    """K_{1,k}: one centre with k leaves."""
    return PatternGraph.from_edges([(0, i) for i in range(1, k + 1)], name=f"S{k}")


def complete_bipartite(a: int, b: int) -> PatternGraph:
    return PatternGraph.from_edges([(i, a + j) for i in range(a) for j in range(b)],
                                   name=f"K{a}{b}")


CATALOG: dict[str, PatternGraph] = {
    "K2": PatternGraph.from_edges([(0, 1)], name="K2"),
    "P3": path_graph(3),
    "P4": path_graph(4),
    "C4": cycle_graph(4),
    "C5": cycle_graph(5),
    "C6": cycle_graph(6),
    "K13": star_graph(3),
    "K22": complete_bipartite(2, 2),
}


def parse_pattern_text(text: str, name: str | None = None) -> PatternGraph:
    """Edge-list text, one 'u v' pair per line; blank lines and # comments ok."""
    edges = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad pattern line: {line!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return PatternGraph.from_edges(edges, name=name)


def load_pattern(ref: str) -> PatternGraph:
    """Catalog name ('C4'), star shorthand ('S5'), or an edge-list file path."""
    key = ref.strip()
    up = key.upper()
    if up in CATALOG:
        return CATALOG[up]
    if up.startswith("S") and up[1:].isdigit():
        return star_graph(int(up[1:]))
    try:
        with open(key, "r", encoding="utf-8") as fh:
            return parse_pattern_text(fh.read(), name=key)
    except OSError as exc:
        raise ValueError(f"unknown pattern {ref!r}: not a catalog name, "
                         f"star shorthand, or readable file") from exc
