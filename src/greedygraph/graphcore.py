"""Compact K_n subgraph representation with word-parallel triangle queries.

Vertices are dense integers 0..n-1.  Adjacency is one row of ceil(n/64)
uint64 words per vertex (``bitset_words``), where "do u and v share a
neighbour" is one AND of two rows, asked for many pairs in one numpy call,
or bit v of u's reach row (the OR of its neighbours' rows) once those are
built; references read the rows as int bitmasks (``adj``).  The traversed
pairs are kept as their pair ids.
Unordered pairs {u, v} are indexed row-major: (0,1), (0,2), ..., (1,2), ...
"""

from __future__ import annotations

import functools
import os
import resource
from typing import Iterator

import numpy as np


def num_pairs(n: int) -> int:
    return n * (n - 1) // 2


def physical_memory() -> int | None:
    """Bytes of physical memory, or None where the system does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _mapped_bytes() -> int:
    """Bytes of address space the process has mapped already (the first
    field of /proc/self/statm), or 0 where the system does not say."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return 0


def check_memory(need: int, what: str) -> None:
    """Raise ValueError when ``need`` bytes exceed physical memory or the
    address space left under the soft limit (RLIMIT_AS, less what the
    process has mapped already), whichever is smaller; callers estimate
    ``need`` before they allocate anything."""
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    limits = [(physical_memory(), "of physical memory")]
    if soft != resource.RLIM_INFINITY:
        limits.append((max(0, soft - _mapped_bytes()),
                       f"left of the {soft / 2 ** 20:,.0f} MiB address-space limit (RLIMIT_AS)"))
    known = [lim for lim in limits if lim[0] is not None]
    if known and need > min(known)[0]:
        limit, name = min(known)
        raise ValueError(f"memory bound: {what} needs about {need / 2 ** 20:,.0f} MiB, "
                         f"more than the {limit / 2 ** 20:,.0f} MiB {name}")


def choice_bytes(total: int, m: int) -> int:
    """Peak bytes of numpy's ``gen.choice(total, size=m, replace=False)``
    (numpy 2.4): it tail-shuffles an arange of all ``total`` ids when there
    are over 10,000 and m exceeds a fiftieth of them, else runs Floyd's
    algorithm with a hash set of the next power of two above 1.2 m slots;
    either keeps 8 bytes per slot, beside the m ids drawn."""
    if total > 10_000 and m > total // 50:
        return 8 * total + 8 * m
    return 8 * m + 8 * (1 << int(1.2 * m).bit_length())


def edge_index(u: int, v: int, n: int) -> int:
    """Canonical index of the unordered pair {u, v} in 0..C(n,2)-1."""
    if u == v:
        raise ValueError(f"self-loop ({u}, {v})")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"vertex out of range for n={n}: ({u}, {v})")
    if u > v:
        u, v = v, u
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


def decode_edge_ids(ids, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (u, v), u < v, with these ``edge_index`` ids, as two arrays."""
    ids = np.asarray(ids, dtype=np.int64)
    b = 2 * n - 1
    # the root is at most b, so truncation floors; exact at a row's first id and about 2/(b - 2u)
    # inside the row at its last, it puts no id past a row end; u * (b - u) is twice row u's start
    u = ((b - np.sqrt(b * b - 8.0 * ids)) * 0.5).astype(np.int64)
    np.clip(u, 0, n - 2, out=u)
    return u, ids - (u * (b - u) >> 1) + u + 1


def iter_bits(x: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def bitset_words(rows, n: int) -> np.ndarray:
    """n-bit masks as a writable (len(rows), ceil(n/64)) array of little-endian
    uint64 words, bit v of row r in bit v % 64 of word v // 64, written in place."""
    words = np.empty((len(rows), (n + 63) // 64), dtype="<u8")
    width = 8 * words.shape[1]
    buf = memoryview(words.reshape(-1).view(np.uint8))
    for i, r in enumerate(rows):
        buf[i * width:(i + 1) * width] = r.to_bytes(width, "little")
    return words


def bitset_ints(words: np.ndarray) -> Iterator[int]:
    """Inverse of ``bitset_words``: each row of a word array as an int mask,
    read in place, one row at a time."""
    width = 8 * words.shape[1]
    buf = memoryview(np.ascontiguousarray(words, dtype="<u8")).cast("B")
    for i in range(0, len(buf), width):
        yield int.from_bytes(buf[i:i + width], "little")


def bit_slots(rows: np.ndarray, cols: np.ndarray, words: int):
    """Where bit cols[j] of row rows[j] lies in a ``bitset_words`` array of
    ``words`` words per row: the flat word index and the bit within it."""
    return rows * words + (cols >> 6), np.uint64(1) << (cols & 63).astype(np.uint64)


def row_bit_counts(words: np.ndarray) -> np.ndarray:
    """Set bits of each row of a ``bitset_words`` array."""
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)


def neighbours(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The set bits of each row of a C-contiguous ``bitset_words`` array as a
    CSR, row r's ascending in indices[indptr[r]:indptr[r + 1]], unpacking only
    the nonzero bytes: the build holds 32 bytes a set bit and 1 a word byte."""
    octets = words.reshape(-1).view(np.uint8)
    at = np.flatnonzero(octets != 0)
    hit = np.flatnonzero(np.unpackbits(octets[at], bitorder="little").view(bool))
    # bit hit & 7 of flat byte at[hit >> 3], placed within its row of bytes
    indices = at[hit >> 3] % (8 * words.shape[1]) << 3
    indices |= hit & 7
    return np.concatenate([[0], np.cumsum(row_bit_counts(words))]), indices


def unpack_rows(words: np.ndarray, n: int) -> np.ndarray:
    """Rows of a ``bitset_words`` array as 0/1 bytes, n to a row."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=n, bitorder="little")


def bit_indices(x: int, n: int) -> np.ndarray:
    """Set-bit indices of an n-bit mask as an int64 array."""
    return neighbours(bitset_words([x], n))[1]


class EvolvingGraph:
    """The current graph as word rows (``words``) plus the traversed pairs' ids
    (``traversed``).

    ``greedy_insert`` applies the triangle-free insertion rule; hosts that may
    hold triangles (uniform random graphs) assign their rows to ``words`` or,
    as int rows, to ``adj``.  Those are the only writers, and the invariant is
    re-checkable with ``audit_triangle_free``.  ``copy`` shares both arrays,
    so writers replace them.
    """

    __slots__ = ("n", "words", "edge_count", "traversed", "_ledger", "_rows")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.n = n
        self.words = np.zeros((n, (n + 63) // 64), dtype="<u8")
        self.edge_count = 0
        self.traversed = np.empty(0, dtype=np.int64)
        self._ledger = None
        self._rows = None

    @property
    def birthed_count(self) -> int:
        return len(self.traversed)

    @property
    def birthed_adj(self) -> list[int]:
        """``traversed`` as int rows (``pair_rows``), built on first read and
        kept until ``traversed`` is replaced; only references read them."""
        if self._ledger is None or self._ledger[0] is not self.traversed:
            rows = pair_rows(self.traversed, self.n)
            self._ledger = (self.traversed, list(bitset_ints(rows)))
        return self._ledger[1]

    @property
    def adj(self) -> list[int]:
        """``words`` as int masks, built on first read and kept until ``words``
        is replaced; only references read them.  Assigning int rows sets ``words``."""
        if self._rows is None or self._rows[0] is not self.words:
            self._rows = (self.words, list(bitset_ints(self.words)))
        return self._rows[1]

    @adj.setter
    def adj(self, rows) -> None:
        self.words = bitset_words(rows, self.n)

    def _edge_blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Edges (u, v), u < v, lexicographic, as arrays, ``_GATHER`` bytes of rows
        and ``_GATHER`` / 8 set bits at most at a time."""
        words = self.words
        step = max(1, _GATHER // (8 * int(row_bit_counts(words).max(initial=words.shape[1]))))
        for s in range(0, self.n, step):
            indptr, vs = neighbours(words[s:s + step])
            us = np.repeat(np.arange(s, s + len(indptr) - 1), np.diff(indptr))
            yield us[vs > us], vs[vs > us]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as sorted (u, v) pairs with u < v, lexicographic."""
        for us, vs in self._edge_blocks():
            yield from zip(us.tolist(), vs.tolist())

    def audit_triangle_free(self) -> bool:
        """True iff no edge's ends share a neighbour (``_open``, ``_CHUNK`` edges at a time)."""
        return all(_open(self.words, np.stack((us[s:s + _CHUNK], vs[s:s + _CHUNK]), axis=1)).all()
                   for us, vs in self._edge_blocks() for s in range(0, len(us), _CHUNK))

    def copy(self) -> "EvolvingGraph":
        """Cheap frozen-state copy: every slot, ``words`` included, is shared."""
        g = EvolvingGraph.__new__(EvolvingGraph)
        for name in self.__slots__:
            setattr(g, name, getattr(self, name))
        return g

    def __repr__(self):
        return (f"EvolvingGraph(n={self.n}, edges={self.edge_count}, "
                f"birthed={self.birthed_count})")


# pairs greedy_insert filters, then decides in dependency rounds, at a time
_CHUNK = 1024
# pair ids greedy_insert and pair_rows decode at a time
_SLICE = 1 << 16
# slices greedy_insert decodes between two decisions whether to sieve
_SIEVE_SLICES = 4
# bytes of rows _open and reach_rows gather at a time, so that they stay in cache
_GATHER = 1 << 18
# widest rows _open ORs word by word, faster there than reduce on chunks of pairs
_OR_WORDS = 4


def pair_rows(ids, n: int, words=None) -> np.ndarray:
    """The ``bitset_words`` rows of the graph on n vertices whose edges are the
    pairs with these ``edge_index`` ids, set in ``words`` in place when given;
    the ids are decoded ``_SLICE`` at a time."""
    if words is None:
        words = np.zeros((n, (n + 63) // 64), dtype="<u8")
    for d in range(0, len(ids), _SLICE):
        us, vs = decode_edge_ids(ids[d:d + _SLICE], n)
        for a, b in ((us, vs), (vs, us)):
            np.bitwise_or.at(words.reshape(-1), *bit_slots(a, b, words.shape[1]))
    return words


def reach_rows(words: np.ndarray, ends=None) -> np.ndarray:
    """Row j ORs a graph's ``bitset_words`` rows at the neighbours of vertex
    ends[j] (every vertex when ``ends`` is None): bit w is set iff ends[j] and
    w share a neighbour.  A block of rows (``_GATHER`` bytes and ``_GATHER`` / 8
    set bits at most) is read at a time, its neighbours' rows gathered
    ``_GATHER`` bytes at a time and OR-ed by ``reduceat``."""
    ends = np.arange(len(words)) if ends is None else np.asarray(ends, dtype=np.int64)
    out = np.zeros((len(ends), words.shape[1]), dtype=words.dtype)
    step = max(1, _GATHER // (8 * words.shape[1]))
    span = max(1, min(step, _GATHER // (8 * int(row_bit_counts(words).max(initial=1)))))
    for b in range(0, len(ends), span):
        indptr, indices = neighbours(words[ends[b:b + span]])
        owner = np.repeat(np.arange(b, b + len(indptr) - 1), np.diff(indptr))
        for a in range(0, len(indices), step):
            rows = owner[a:a + step]
            cut = np.flatnonzero(np.diff(rows, prepend=-1))
            out[rows[cut]] |= np.bitwise_or.reduceat(words[indices[a:a + step]], cut, axis=0)
    return out


def _open(words: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Whether the ends of each (u, v) row of ``pairs`` share no neighbour: the one open test."""
    width = words.shape[1]
    step = max(1, _GATHER // (8 * width))
    keep = np.empty(len(pairs), dtype=bool)
    for b in range(0, len(pairs), step):
        common = words.take(pairs[b:b + step, 0], axis=0)
        common &= words.take(pairs[b:b + step, 1], axis=0)
        shared = (np.bitwise_or.reduce(common, axis=1) if width > _OR_WORDS
                  else functools.reduce(np.bitwise_or, common.T))
        np.equal(shared, 0, out=keep[b:b + step])
    return keep


def greedy_insert(g: EvolvingGraph, ids) -> int:
    """Traverse the pairs with these ``edge_index`` ids in order; returns how
    many were added.

    Each pair is added unless its endpoints already share a neighbour; the
    caller keeps the ids (``EvolvingGraph.traversed``).  This is the
    process's inner loop, so the ids are not checked: they must be distinct,
    in range and not yet traversed.

    The ids are decoded ``_SLICE`` at a time and decided ``_CHUNK`` at a time
    on the graph's rows, a copy of them per call, since snapshots share the
    rows (``EvolvingGraph.copy``).  A chunk drops its closed pairs (they stay
    closed) and decides the rest in dependency rounds, the random-order greedy scheme
    of Blelloch, Fineman and Shun (SPAA 2012): adding {a, b} changes only rows
    a and b, so each round adds every pending pair that is first at both its
    endpoints and, its rows ANDed again from the second round on, still open.

    The filter gathers two rows per closed pair, a sieve (``reach_rows``) two
    per edge and then one bit per pair.  So every ``_SIEVE_SLICES`` slices,
    where the share of pairs the filter dropped since, times the pairs left,
    exceeds the edges so far, the reach rows are rebuilt and drop the closed
    pairs of the rest of the call; a call of that many or fewer never sieves.
    Deciding every slice rebuilt them 10 times, not 4, at n = 5,000 uncut.
    """
    ids = np.asarray(ids, dtype=np.int64)
    g.words = words = g.words.copy()
    first = np.empty(g.n, dtype=np.int64)  # each vertex's first pending pair
    pair = np.arange(2 * _CHUNK) >> 1      # the pair of each of (u0, v0, u1, ...)
    added, closed, reach, period = 0, 0, None, _SIEVE_SLICES * _SLICE
    for d in range(0, len(ids), _SLICE):
        if d % period == 0:
            if closed * (len(ids) - d) > period * (g.edge_count + added):
                reach = None  # freed before the new rows are built
                reach = reach_rows(words).reshape(-1)
            closed = 0
        us, vs = decode_edge_ids(ids[d:d + _SLICE], g.n)
        if reach is not None:
            at, bits = bit_slots(us, vs, words.shape[1])
            keep = reach[at] & bits == 0
            us, vs = us[keep], vs[keep]
        for s in range(0, len(us), _CHUNK):
            chunk = np.stack((us[s:s + _CHUNK], vs[s:s + _CHUNK]), axis=1)
            keep = _open(words, chunk)
            closed += len(chunk) - np.count_nonzero(keep)
            pend = chunk[keep]
            recheck = False
            while len(pend):
                ends = pend.reshape(-1)
                first[ends] = len(pend)
                np.minimum.at(first, ends, pair[:len(ends)])
                hit = first[ends] == pair[:len(ends)]
                ready = hit[0::2] & hit[1::2]
                new = pend[ready]
                new = new[_open(words, new)] if recheck else new
                at, bits = bit_slots(new.reshape(-1), new[:, ::-1].reshape(-1), words.shape[1])
                words.reshape(-1)[at] |= bits
                added += len(new)
                pend, recheck = pend[~ready], True
    g.edge_count += added
    return added
