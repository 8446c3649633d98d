import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from greedygraph import graphcore, rng
from greedygraph.graphcore import (EvolvingGraph, bit_indices, bit_slots, bitset_ints,
                                   bitset_words, decode_edge_ids, edge_index, greedy_insert,
                                   iter_bits, neighbours, num_pairs, pair_rows, reach_rows,
                                   row_bit_counts, unpack_rows)
from reference import graph, host, int_rows, pairs, replay, traced_peak


class TestEdgeIndex:
    @pytest.mark.parametrize("n", [3, 4, 7, 50, 2000])
    def test_roundtrip_all(self, n):
        m = num_pairs(n)
        ids = np.arange(m)
        us, vs = decode_edge_ids(ids, n)
        # bijection and ordering
        assert np.all(us < vs)
        back = us * (2 * n - us - 1) // 2 + (vs - us - 1)
        assert np.array_equal(back, ids)

    def test_scalar_matches_vector(self):
        # the row-major enumeration of the pairs defines the index order
        n = 137
        us, vs = decode_edge_ids(np.arange(num_pairs(n)), n)
        assert list(zip(us.tolist(), vs.tolist())) == pairs(n)
        for idx, (u, v) in enumerate(pairs(n)):
            assert edge_index(u, v, n) == idx
            assert edge_index(v, u, n) == idx

    @given(st.integers(min_value=3, max_value=200_000))
    @settings(max_examples=60, deadline=None)
    def test_sampled_large_n(self, n):
        gen = np.random.default_rng(n)
        ids = gen.integers(0, num_pairs(n), size=32)
        us, vs = decode_edge_ids(ids, n)
        for idx, u, v in zip(ids.tolist(), us.tolist(), vs.tolist()):
            assert 0 <= u < v < n
            assert edge_index(u, v, n) == idx

    @pytest.mark.parametrize("n", [10 ** 4, 10 ** 5, 10 ** 6])
    def test_row_boundaries_at_large_n(self, n):
        # the first and last id of every row (of 200 sampled rows at 10^6),
        # where the float root is closest to an integer: row u runs from
        # (u, u + 1) to (u, n - 1), and about 200 of them also against the
        # scalar index
        us = np.arange(n - 1) if n <= 10 ** 5 else \
            np.random.default_rng(n).integers(0, n - 1, size=200)
        first = us * (2 * n - us - 1) // 2
        pick = slice(None, None, len(us) // 200)
        for ids, vs in ((first, us + 1), (first + (n - 2 - us), np.full_like(us, n - 1))):
            got_u, got_v = decode_edge_ids(ids, n)
            assert np.array_equal(got_u, us) and np.array_equal(got_v, vs)
            assert [edge_index(u, v, n) for u, v in zip(us[pick].tolist(), vs[pick].tolist())] \
                == ids[pick].tolist()

    def test_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            edge_index(3, 3, 10)
        with pytest.raises(ValueError):
            edge_index(0, 10, 10)


class TestBits:
    def test_iter_bits(self):
        assert list(iter_bits(0b101001)) == [0, 3, 5]
        assert list(iter_bits(0)) == []

    def test_bit_indices_matches(self):
        x = (1 << 0) | (1 << 17) | (1 << 63) | (1 << 64) | (1 << 99)
        assert bit_indices(x, 100).tolist() == [0, 17, 63, 64, 99]

    def test_bitset_words(self):
        rows = [(1 << 0) | (1 << 63) | (1 << 64) | (1 << 129), 0, 1 << 5]
        words = bitset_words(rows, 130)
        assert words.shape == (3, 3)
        assert words.tolist() == [[1 | 1 << 63, 1, 2], [0, 0, 0], [32, 0, 0]]
        empty = bitset_words([], 10)
        assert empty.shape == (0, 1) and empty.flags.writeable

    def test_bitset_words_is_written_in_place(self):
        # a writable array, built with one row's bytes beyond it at a time
        n = 5000
        gen = rng.stream(7)
        rows = [int.from_bytes(gen.bytes(n // 8), "little") for _ in range(n)]
        words, peak = traced_peak(bitset_words, rows, n)
        assert words.flags.writeable
        assert peak <= 1.1 * words.nbytes
        assert list(bitset_ints(words)) == rows

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 200])
    def test_neighbours_match_iter_bits(self, n):
        # random rows of density 1/2 and 1/8, an empty row, a full row and
        # a row whose only bit is in the last word
        gen = rng.stream(n)

        def draw():
            return int.from_bytes(gen.bytes((n + 7) // 8), "little") & ((1 << n) - 1)

        rows = [draw() for _ in range(6)] + [draw() & draw() & draw() for _ in range(6)]
        rows += [0, 1 << (n - 1), (1 << n) - 1, 0]
        indptr, indices = neighbours(bitset_words(rows, n))
        assert indptr.dtype == indices.dtype == np.int64
        assert indptr[0] == 0 and len(indptr) == len(rows) + 1
        for r, row in enumerate(rows):
            assert indices[indptr[r]:indptr[r + 1]].tolist() == list(iter_bits(row))
        # the same bits from the dense 0/1 rows
        dense = unpack_rows(bitset_words(rows, n), n)
        assert dense.shape == (len(rows), n)
        assert [np.flatnonzero(d).tolist() for d in dense] == [list(iter_bits(r)) for r in rows]

    @pytest.mark.parametrize("words", [1, 3])
    def test_neighbours_of_no_rows(self, words):
        indptr, indices = neighbours(np.zeros((0, words), dtype=np.uint64))
        assert indptr.tolist() == [0] and indices.shape == (0,)

    def test_bitset_ints_and_bit_slots(self):
        rows = [(1 << 0) | (1 << 63) | (1 << 64) | (1 << 129), 0, 1 << 5]
        words = bitset_words(rows, 130)
        assert list(bitset_ints(words)) == rows
        assert row_bit_counts(words).tolist() == [4, 0, 1]
        flat = np.zeros(9, dtype=np.uint64)
        at, bit = bit_slots(np.array([0, 0, 0, 0, 2]), np.array([0, 63, 64, 129, 5]), 3)
        np.bitwise_or.at(flat, at, bit)
        assert flat.reshape(3, 3).tolist() == words.tolist()


def brute_common_neighbor(g: EvolvingGraph, u: int, v: int) -> bool:
    return any(g.adj[u] >> w & g.adj[v] >> w & 1 for w in range(g.n) if w not in (u, v))


def opens(g: EvolvingGraph, u: int, v: int) -> bool:
    """Whether the insertion rule adds {u, v} to g, asked of the int-row
    replay and of the kernel, on a copy."""
    by_replay = replay(g.n, [(u, v)], g.adj)[0] == 1
    by_kernel = greedy_insert(g.copy(), [edge_index(u, v, g.n)]) == 1
    assert by_replay == by_kernel
    return by_replay


class TestCheckMemory:
    @pytest.mark.parametrize("physical, soft, applies", [
        (1 << 30, 1 << 20, "address-space limit (RLIMIT_AS)"),
        (1 << 20, 1 << 30, "of physical memory"),
        (1 << 20, None, "of physical memory"),
        (None, 1 << 20, "address-space limit (RLIMIT_AS)"),
    ])
    def test_smaller_limit_applies(self, monkeypatch, physical, soft, applies):
        soft = graphcore.resource.RLIM_INFINITY if soft is None else soft
        monkeypatch.setattr(graphcore, "physical_memory", lambda: physical)
        monkeypatch.setattr(graphcore.resource, "getrlimit", lambda which: (soft, soft))
        monkeypatch.setattr(graphcore, "_mapped_bytes", lambda: 0)
        graphcore.check_memory(1 << 20, "a test array")
        with pytest.raises(ValueError,
                           match=rf"memory bound: a test array .* MiB {re.escape(applies)}"):
            graphcore.check_memory((1 << 20) + 1, "a test array")

    def test_mapped_address_space_is_not_free(self, monkeypatch):
        # of a 1 GiB soft limit the process has mapped 768 MiB already, so
        # 256 MiB are left, though 1 GiB is far below physical memory
        monkeypatch.setattr(graphcore, "physical_memory", lambda: 1 << 40)
        monkeypatch.setattr(graphcore.resource, "getrlimit", lambda which: (1 << 30,) * 2)
        monkeypatch.setattr(graphcore, "_mapped_bytes", lambda: 3 << 28)
        graphcore.check_memory(1 << 28, "a test array")
        with pytest.raises(ValueError, match=r"more than the 256 MiB left of the 1,024 MiB "
                                             r"address-space limit \(RLIMIT_AS\)"):
            graphcore.check_memory((1 << 28) + 1, "a test array")

    def test_mapped_bytes_reads_this_process(self):
        # where /proc/self/statm exists, the interpreter and numpy are mapped
        mapped = graphcore._mapped_bytes()
        assert mapped == 0 or mapped > 1 << 20

    def test_no_known_limit(self, monkeypatch):
        monkeypatch.setattr(graphcore, "physical_memory", lambda: None)
        monkeypatch.setattr(graphcore.resource, "getrlimit",
                            lambda which: (graphcore.resource.RLIM_INFINITY,) * 2)
        graphcore.check_memory(1 << 60, "a test array")


class TestEvolvingGraph:
    def test_empty_graph_never_closes(self):
        g = EvolvingGraph(8)
        for u in range(8):
            for v in range(u + 1, 8):
                assert opens(g, u, v)

    def test_path_closes(self):
        g = host(5, [(0, 1), (1, 2)])
        assert not opens(g, 0, 2)
        assert opens(g, 0, 3)

    def test_close_matches_brute_force(self):
        gen = rng.stream(99)
        edges = pairs(40)
        g = graph(replay(40, [e for e in edges if gen.random() < 0.08])[1])
        for u, v in edges[::7]:
            if not g.adj[u] >> v & 1:
                assert opens(g, u, v) != brute_common_neighbor(g, u, v)

    def test_third_triangle_edge_rejected(self):
        g = EvolvingGraph(4)
        assert greedy_insert(g, [edge_index(0, 1, 4), edge_index(1, 2, 4)]) == 2
        before = g.words.tobytes()
        assert greedy_insert(g, [edge_index(0, 2, 4)]) == 0
        assert g.words.tobytes() == before  # rejection leaves adjacency bit-identical
        assert g.edge_count == 2

    def test_replay_fixed_ordering(self):
        # hand simulation on n=6: greedy inserts in the listed order, one
        # call a pair and all in one call
        order = [(0, 1), (2, 3), (1, 2), (0, 2), (0, 3), (4, 5), (1, 4), (2, 4)]
        expect_added = [True, True, True, False, True, True, True, False]
        expect_edges = [(0, 1), (0, 3), (1, 2), (1, 4), (2, 3), (4, 5)]
        g = EvolvingGraph(6)
        got = [greedy_insert(g, [edge_index(u, v, 6)]) == 1 for u, v in order]
        assert got == expect_added
        assert list(g.edges()) == expect_edges
        whole = EvolvingGraph(6)
        assert greedy_insert(whole, [edge_index(u, v, 6) for u, v in order]) == 6
        assert list(whole.edges()) == expect_edges

    def test_audit(self):
        assert host(5, [(0, 1), (1, 2), (2, 3)]).audit_triangle_free()
        assert not host(5, [(0, 1), (1, 2), (2, 3), (0, 2)]).audit_triangle_free()

    def test_audit_gnm_density(self):
        # at n**1.5 edges a uniform graph almost surely has a triangle
        n = 200
        m = int(n ** 1.5)
        hits = 0
        for t in range(100):
            gen = rng.stream(7, t, purpose=rng.GNM)
            g = EvolvingGraph(n)
            g.words = pair_rows(gen.choice(num_pairs(n), size=m, replace=False), n)
            hits += 0 if g.audit_triangle_free() else 1
        assert hits >= 99

    def test_ledger_independent_of_adjacency(self):
        # the ledger rows follow the traversed ids, and are rebuilt when the
        # ids are replaced
        g = EvolvingGraph(4)
        g.traversed = np.array([edge_index(0, 1, 4)])
        assert g.birthed_adj == [0b10, 0b01, 0, 0] and g.birthed_count == 1
        assert g.adj == [0] * 4
        g.traversed = np.array([edge_index(3, 1, 4), edge_index(0, 2, 4)])
        assert g.birthed_adj == [0b100, 0b1000, 0b1, 0b10] and g.birthed_count == 2

    def test_copy_is_frozen_snapshot(self):
        g = host(5, [(0, 1)])
        snap = g.copy()
        greedy_insert(g, [edge_index(2, 3, 5)])
        assert snap.edge_count == 1
        assert snap.adj == int_rows(5, [(0, 1)])

    def test_export_sorted_pairs(self):
        # the --rounds-snapshots report writes edges() as 'u v' lines in this order
        g = host(5, [(3, 4), (0, 2), (0, 1)])
        assert list(g.edges()) == [(0, 1), (0, 2), (3, 4)]


def _random_rows(n: int, p: float, seed: int) -> list[int]:
    """Int rows of a uniform random graph on n vertices, each pair an edge
    with probability p."""
    gen = np.random.default_rng(seed)
    return int_rows(n, [(u, v) for u, v in pairs(n) if gen.random() < p])


def _int_row_audit(rows: list[int]) -> bool:
    """The audit on int rows, as it ran before the graph kept word rows."""
    for u, au in enumerate(rows):
        for off in iter_bits(au >> (u + 1)):
            if au & rows[u + 1 + off]:
                return False
    return True


class TestWordRows:
    """The graph is its ``words``; ``adj`` is built from them on demand."""

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
    def test_adj_round_trips_through_setter_and_getter(self, n):
        rows = _random_rows(n, 0.2, seed=n)
        g = EvolvingGraph(n)
        g.adj = rows
        assert np.array_equal(g.words, bitset_words(rows, n))
        assert g.adj == rows
        assert g.adj is g.adj  # built once, kept while the words are
        g.adj = list(g.adj)
        assert g.adj == rows

    def test_adj_follows_an_insert(self):
        # an insert replaces the words, so the next read builds new int rows
        g = host(70, [(0, 65)])
        before = g.adj
        greedy_insert(g, [edge_index(3, 69, 70)])
        assert g.adj[3] == 1 << 69 and g.adj[69] == 1 << 3 and g.adj[0] == 1 << 65
        assert before[3] == 0

    def test_inserts_leave_copies_frozen(self):
        # each writer replaces the rows that the copy before it shares
        g = host(100, [(0, 1)])
        first = g.copy()
        greedy_insert(g, [edge_index(2, 99, 100)])
        second = g.copy()
        frozen = [first.words.tobytes(), second.words.tobytes()]
        greedy_insert(g, [edge_index(5, 80, 100)])
        assert [first.words.tobytes(), second.words.tobytes()] == frozen
        assert first.adj[2] == 0 and second.adj[2] == 1 << 99 and second.adj[5] == 0
        assert g.adj == int_rows(100, [(0, 1), (2, 99), (5, 80)])

    @pytest.mark.parametrize("n, p, seed, free", [
        (1, 0.5, 0, True), (5, 0.5, 1, False), (40, 0.05, 2, False), (64, 0.02, 3, False),
        (65, 0.1, 4, False), (130, 0.01, 5, True), (130, 0.03, 6, False),
        (200, 0.004, 7, True), (200, 0.02, 8, False)])
    def test_audit_matches_int_row_loop(self, n, p, seed, free):
        # random graphs with and without triangles, and their triangle-free
        # greedy subgraphs, in gathers of 256 KiB and of one row
        rows = _random_rows(n, p, seed)
        g = graph(rows)
        sub = EvolvingGraph(n)
        greedy_insert(sub, [edge_index(u, v, n) for u, v in g.edges()])
        assert _int_row_audit(rows) == free and _int_row_audit(sub.adj)
        for gather in (graphcore._GATHER, 8):
            with mock.patch.object(graphcore, "_GATHER", gather):
                assert g.audit_triangle_free() == free
                assert sub.audit_triangle_free()

    @pytest.mark.parametrize("n", [3, 64, 65, 200])
    def test_edges_match_int_rows(self, n):
        rows = _random_rows(n, 0.05, seed=n)
        g = graph(rows)
        expect = [(u, v) for u in range(n) for v in range(u + 1, n) if (rows[u] >> v) & 1]
        with mock.patch.object(graphcore, "_GATHER", 8):
            assert list(g.edges()) == expect
        assert list(g.edges()) == expect


@given(st.integers(min_value=1, max_value=12), st.data())
@settings(max_examples=150, deadline=None)
def test_greedy_insert_matches_checked_replay(n, data):
    # the kernel against the int-row replay, on a random prefix of a random
    # pair order, applied in two calls to a graph that is not empty
    order = data.draw(st.permutations(pairs(n)))
    cut = data.draw(st.integers(min_value=0, max_value=len(order)))
    split = data.draw(st.integers(min_value=0, max_value=cut))
    fast = EvolvingGraph(n)
    added = 0
    for chunk in (order[:split], order[split:cut]):
        added += greedy_insert(fast, [edge_index(u, v, n) for u, v in chunk])
    expect, rows = replay(n, order[:cut])
    assert added == expect == fast.edge_count
    assert fast.adj == rows


@pytest.mark.parametrize("chunk, slice_", [(1, 3), (4, 10)], ids=["1", "4"])
def test_bulk_path_matches_checked_replay(chunk, slice_):
    # the same property with decode blocks and chunks (each filtered, then
    # decided in dependency rounds) small enough that a call spans several of
    # each
    with mock.patch.object(graphcore, "_CHUNK", chunk), \
            mock.patch.object(graphcore, "_SLICE", slice_):
        test_greedy_insert_matches_checked_replay()


def test_bulk_path_matches_checked_replay_multiword():
    # rows of four 64-bit words, a batch split in three calls, decode
    # blocks of 1000 pairs and chunks of 100
    n = 200
    ids = np.random.default_rng(3).permutation(num_pairs(n))
    fast = EvolvingGraph(n)
    with mock.patch.object(graphcore, "_CHUNK", 100), \
            mock.patch.object(graphcore, "_SLICE", 1000):
        added = sum(greedy_insert(fast, part) for part in np.array_split(ids, 3))
    expect, rows = replay(n, map(pairs(n).__getitem__, ids.tolist()))
    assert added == expect == fast.edge_count
    assert fast.adj == rows


def test_short_batch_matches_checked_replay_multiword():
    # three pairs at n = 200 (rows of four words) into a graph with edges in
    # every word: one closed by a common neighbour in word 0, one by a
    # common neighbour in word 2, and one open
    n = 200
    edges = [(0, 1), (1, 2), (3, 130), (130, 140), (5, 70), (150, 199)]
    batch = [(0, 2), (3, 140), (5, 150)]
    fast = host(n, edges)
    added = greedy_insert(fast, [edge_index(u, v, n) for u, v in batch])
    expect, rows = replay(n, batch, int_rows(n, edges))
    assert added == expect == 1
    assert fast.adj == rows
    assert fast.edge_count == len(edges) + 1


def _matches_replay(n, batch):
    """One greedy_insert call on an empty graph at n against the int-row
    replay; returns how many pairs were added."""
    fast = EvolvingGraph(n)
    added = greedy_insert(fast, [edge_index(u, v, n) for u, v in batch])
    expect, rows = replay(n, batch)
    assert added == expect == fast.edge_count
    assert fast.adj == rows
    return added


class TestDependencyRounds:
    # one chunk each at n = 200, so rows span four words; every pair passes
    # the chunk's filter on the empty graph and is decided in rounds

    def test_pair_closed_by_two_earlier_survivors_of_its_chunk(self):
        # (3, 199) is open when the chunk starts and is closed only by
        # (3, 130) and (130, 199), added in the first and second rounds; the
        # closing neighbour 130 is in word 2, the endpoints in words 0 and 3
        assert _matches_replay(200, [(3, 130), (130, 199), (3, 199)]) == 2

    def test_star_chunk_is_added_whole(self):
        # every pair shares vertex 0, so each is decided in a round of its
        # own, and no two of them close a third
        order = np.random.default_rng(5).permutation(np.arange(1, 200))
        assert _matches_replay(200, [(0, int(v)) for v in order]) == 199

    def test_endpoint_disjoint_chunk_is_added_whole(self):
        # no two pairs share an endpoint, so one round decides them all
        assert _matches_replay(200, [(i, 199 - i) for i in range(100)]) == 100


@pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
def test_reach_rows_match_int_rows(n):
    # a random graph with isolated vertices, every row and a subset of rows,
    # in gathers of 256 KiB and of one row
    gen = np.random.default_rng(n)
    live = gen.permutation(n)[:max(1, 3 * n // 4)].tolist()
    adj = int_rows(n, [(u, v) for u in live for v in live if u < v and gen.random() < 0.1])
    words = bitset_words(adj, n)
    expect = [0] * n
    for x in range(n):
        for w in iter_bits(adj[x]):
            expect[x] |= adj[w]
    ends = gen.choice(n, size=(n + 1) // 2, replace=False)
    for gather in (graphcore._GATHER, 8):
        with mock.patch.object(graphcore, "_GATHER", gather):
            assert list(bitset_ints(reach_rows(words))) == expect
            assert list(bitset_ints(reach_rows(words, ends))) == [expect[x] for x in ends]
    assert 0 in adj and (n == 1 or any(expect))


def test_uncut_call_sieves_closed_pairs(monkeypatch):
    # every pair at n = 200 in one call, in slices of 1000 pairs (a sieve
    # decided every _SIEVE_SLICES of them): closed pairs soon dominate, so
    # the call sieves; the chunk filter sees no pair
    # that the last sieve before it marks closed, and fewer pairs in all than
    # the call traverses; the graph equals the int-row replay's
    n = 200
    ids = np.random.default_rng(11).permutation(num_pairs(n))
    log = []
    real_reach, real_open = graphcore.reach_rows, graphcore._open

    def reach_spy(words, ends=None):
        reach = real_reach(words, ends)
        log.append(("reach", list(bitset_ints(reach))))
        return reach

    def open_spy(words, pairs):
        log.append(("open", pairs.tolist()))
        return real_open(words, pairs)

    monkeypatch.setattr(graphcore, "reach_rows", reach_spy)
    monkeypatch.setattr(graphcore, "_open", open_spy)
    monkeypatch.setattr(graphcore, "_SLICE", 1000)
    fast = EvolvingGraph(n)
    added = greedy_insert(fast, ids)
    reach, seen = None, set()
    for kind, entry in log:
        if kind == "reach":
            reach = entry
            continue
        seen.update(map(tuple, entry))
        assert reach is None or not any((reach[u] >> v) & 1 for u, v in entry)
    assert sum(kind == "reach" for kind, _ in log) >= 1
    assert len(seen) < len(ids)
    expect, rows = replay(n, map(pairs(n).__getitem__, ids.tolist()))
    assert added == expect == fast.edge_count
    assert fast.adj == rows


@pytest.mark.parametrize("slice_, chunk", [(7, 7), (1000, 100)], ids=["7", "1000"])
def test_sieve_is_decided_once_a_period(monkeypatch, slice_, chunk):
    # every pair at n = 200 in one call, in slices of 7 or 1,000 ids: the
    # words equal the int-row replay's, and the reach rows are built as often
    # as in a call whose slice is one sieve period long and decides every
    # slice.  The chunks divide the slices, as _CHUNK divides _SLICE, so
    # both calls filter the same chunks until they sieve
    n = 200
    ids = np.random.default_rng(0).permutation(num_pairs(n))
    builds = []
    real_reach = graphcore.reach_rows

    def reach_spy(words, ends=None):
        builds.append(1)
        return real_reach(words, ends)

    def call(slice_, slices):
        monkeypatch.setattr(graphcore, "_SLICE", slice_)
        monkeypatch.setattr(graphcore, "_SIEVE_SLICES", slices)
        builds.clear()
        g = EvolvingGraph(n)
        greedy_insert(g, ids)
        return g, len(builds)

    assert graphcore._SLICE % graphcore._CHUNK == 0
    monkeypatch.setattr(graphcore, "reach_rows", reach_spy)
    monkeypatch.setattr(graphcore, "_CHUNK", chunk)
    fast, count = call(slice_, graphcore._SIEVE_SLICES)
    whole, expect = call(graphcore._SIEVE_SLICES * slice_, 1)
    rows = replay(n, map(pairs(n).__getitem__, ids.tolist()))[1]
    assert fast.adj == whole.adj == rows
    assert count == expect >= 1


class TestOpen:
    """``_open`` is the one vectorised open test: the chunk filter and
    rechecks of ``greedy_insert``, the audit and the campaign's steps ask it."""

    @pytest.mark.parametrize("n", [1, 64, 65, 128, 129, 256, 257, 320, 448])
    def test_matches_scalar_test(self, n):
        # 1 to 7 words a row, on both sides of _OR_WORDS; a uniform graph of
        # about sqrt(n) edges a vertex, so that both answers are common, and
        # random pairs, repeats and u == v among them; in one gather and in
        # gathers of 7 pairs
        gen = np.random.default_rng(n)
        m = min(num_pairs(n), int(n ** 1.5 / 2))
        words = pair_rows(gen.choice(num_pairs(n), size=m, replace=False), n)
        pairs = gen.integers(0, n, size=(600, 2))
        expect = [np.count_nonzero(words[u] & words[v]) == 0 for u, v in pairs.tolist()]
        for gather in (graphcore._GATHER, 8 * words.shape[1] * 7):
            with mock.patch.object(graphcore, "_GATHER", gather):
                assert graphcore._open(words, pairs).tolist() == expect
        assert n == 1 or 0 < sum(expect) < len(expect)

    def test_audit_stops_at_the_first_closed_chunk(self, monkeypatch):
        # n = 200 fits one block of rows; the first edge, (0, 1), closes the
        # triangle 0-1-2, and the other 1,480 edges are bipartite
        edges = [(0, 1), (0, 2), (1, 2)] + [(u, v) for u in range(3, 40) for v in range(100, 140)]
        calls = []
        real_open = graphcore._open

        def open_spy(words, pairs):
            calls.append(len(pairs))
            return real_open(words, pairs)

        monkeypatch.setattr(graphcore, "_open", open_spy)
        assert not host(200, edges).audit_triangle_free()
        assert calls == [graphcore._CHUNK]
        calls.clear()
        assert host(200, edges[1:]).audit_triangle_free()
        assert calls == [graphcore._CHUNK, len(edges) - 1 - graphcore._CHUNK]

