import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from greedygraph import graphcore, rng
from greedygraph.graphcore import (EvolvingGraph, bit_indices, bit_slots, bitset_ints,
                                   bitset_words, decode_edge_ids, edge_endpoints,
                                   edge_index, greedy_insert, iter_bits, neighbours,
                                   num_pairs, reach_rows, row_bit_counts, unpack_rows)


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
        n = 137
        for idx in range(0, num_pairs(n), 11):
            u, v = edge_endpoints(idx, n)
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
        # exact scalar decode
        us = np.arange(n - 1) if n <= 10 ** 5 else \
            np.random.default_rng(n).integers(0, n - 1, size=200)
        first = us * (2 * n - us - 1) // 2
        pick = slice(None, None, len(us) // 200)
        for ids, vs in ((first, us + 1), (first + (n - 2 - us), np.full_like(us, n - 1))):
            got_u, got_v = decode_edge_ids(ids, n)
            assert np.array_equal(got_u, us) and np.array_equal(got_v, vs)
            assert [edge_endpoints(idx, n) for idx in ids[pick].tolist()] == \
                list(zip(us[pick].tolist(), vs[pick].tolist()))

    def test_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            edge_index(3, 3, 10)
        with pytest.raises(ValueError):
            edge_index(0, 10, 10)
        with pytest.raises(ValueError):
            edge_endpoints(45, 10)


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
        tracemalloc.start()
        try:
            words = bitset_words(rows, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
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
    return any(g.has_edge(u, w) and g.has_edge(v, w)
               for w in range(g.n) if w not in (u, v))


def opens(g: EvolvingGraph, u: int, v: int) -> bool:
    """Whether the insertion rule adds {u, v} to g, tried on a copy by both
    the checked per-pair insert and the kernel."""
    by_insert = g.copy().add_edge_if_open(u, v)
    by_kernel = greedy_insert(g.copy(), [edge_index(u, v, g.n)]) == 1
    assert by_insert == by_kernel
    return by_insert


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
        g = EvolvingGraph.from_edges(5, [(0, 1), (1, 2)])
        assert not opens(g, 0, 2)
        assert opens(g, 0, 3)

    def test_close_matches_brute_force(self):
        gen = rng.stream(99)
        g = EvolvingGraph(40)
        edges = [(u, v) for u in range(40) for v in range(u + 1, 40)]
        for u, v in edges:
            if gen.random() < 0.08:
                if not g.has_edge(u, v):
                    g.add_edge_if_open(u, v)
        for u, v in edges[::7]:
            if not g.has_edge(u, v):
                assert opens(g, u, v) != brute_common_neighbor(g, u, v)

    def test_third_triangle_edge_rejected(self):
        g = EvolvingGraph(4)
        assert g.add_edge_if_open(0, 1)
        assert g.add_edge_if_open(1, 2)
        before = list(g.adj)
        assert not g.add_edge_if_open(0, 2)
        assert g.adj == before  # rejection leaves adjacency bit-identical
        assert g.edge_count == 2

    def test_add_raises_on_duplicate(self):
        g = EvolvingGraph(4)
        g.add_edge_if_open(0, 1)
        with pytest.raises(ValueError):
            g.add_edge_if_open(0, 1)
        with pytest.raises(ValueError):
            g.add_edge_if_open(2, 2)

    def test_replay_fixed_ordering(self):
        # hand simulation on n=6: greedy inserts in the listed order
        order = [(0, 1), (2, 3), (1, 2), (0, 2), (0, 3), (4, 5), (1, 4), (2, 4)]
        expect_added = [True, True, True, False, True, True, True, False]
        g = EvolvingGraph(6)
        got = [g.add_edge_if_open(u, v) for u, v in order]
        assert got == expect_added
        assert sorted(g.edges()) == [(0, 1), (0, 3), (1, 2), (1, 4), (2, 3), (4, 5)]

    def test_audit(self):
        g = EvolvingGraph.from_edges(5, [(0, 1), (1, 2), (2, 3)])
        assert g.audit_triangle_free()
        g.insert_edge(0, 2)  # inject a triangle directly
        assert not g.audit_triangle_free()

    def test_audit_gnm_density(self):
        # at n**1.5 edges a uniform graph almost surely has a triangle
        n = 200
        m = int(n ** 1.5)
        hits = 0
        for t in range(100):
            gen = rng.stream(7, t, purpose=rng.GNM)
            ids = gen.choice(num_pairs(n), size=m, replace=False)
            us, vs = decode_edge_ids(ids, n)
            g = EvolvingGraph(n)
            for u, v in zip(us.tolist(), vs.tolist()):
                g.insert_edge(u, v)
            hits += 0 if g.audit_triangle_free() else 1
        assert hits >= 99

    def test_ledger_independent_of_adjacency(self):
        # the ledger rows follow the traversed ids, and are rebuilt when the
        # ids are replaced
        g = EvolvingGraph(4)
        g.traversed = np.array([edge_index(0, 1, 4)])
        assert g.birthed_adj == [0b10, 0b01, 0, 0] and g.birthed_count == 1
        assert not g.has_edge(0, 1)
        g.traversed = np.array([edge_index(3, 1, 4), edge_index(0, 2, 4)])
        assert g.birthed_adj == [0b100, 0b1000, 0b1, 0b10] and g.birthed_count == 2

    def test_copy_is_frozen_snapshot(self):
        g = EvolvingGraph.from_edges(5, [(0, 1)])
        snap = g.copy()
        g.add_edge_if_open(2, 3)
        assert snap.edge_count == 1
        assert not snap.has_edge(2, 3)

    def test_export_sorted_pairs(self):
        # the --rounds-snapshots report writes edges() as 'u v' lines in this order
        g = EvolvingGraph.from_edges(5, [(3, 4), (0, 2), (0, 1)])
        assert list(g.edges()) == [(0, 1), (0, 2), (3, 4)]


@given(st.integers(min_value=1, max_value=12), st.data())
@settings(max_examples=150, deadline=None)
def test_greedy_insert_matches_checked_replay(n, data):
    # the kernel against the checked per-pair insert, on a random
    # prefix of a random pair order, applied in two calls to a graph that
    # is not empty
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    order = data.draw(st.permutations(pairs))
    cut = data.draw(st.integers(min_value=0, max_value=len(order)))
    split = data.draw(st.integers(min_value=0, max_value=cut))
    fast = EvolvingGraph(n)
    slow = EvolvingGraph(n)
    added = 0
    for chunk in (order[:split], order[split:cut]):
        added += greedy_insert(fast, [edge_index(u, v, n) for u, v in chunk])
    expect = 0
    for u, v in order[:cut]:
        expect += slow.add_edge_if_open(u, v)
    assert added == expect
    assert fast.adj == slow.adj
    assert fast.edge_count == slow.edge_count


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
    us, vs = decode_edge_ids(ids, n)
    fast = EvolvingGraph(n)
    with mock.patch.object(graphcore, "_CHUNK", 100), \
            mock.patch.object(graphcore, "_SLICE", 1000):
        added = sum(greedy_insert(fast, part) for part in np.array_split(ids, 3))
    slow = EvolvingGraph(n)
    for u, v in zip(us.tolist(), vs.tolist()):
        slow.add_edge_if_open(u, v)
    assert added == slow.edge_count
    assert fast.adj == slow.adj
    assert fast.edge_count == slow.edge_count


def test_short_batch_matches_checked_replay_multiword():
    # three pairs at n = 200 (rows of four words) into a graph with edges in
    # every word: one closed by a common neighbour in word 0, one by a
    # common neighbour in word 2, and one open
    n = 200
    edges = [(0, 1), (1, 2), (3, 130), (130, 140), (5, 70), (150, 199)]
    batch = [(0, 2), (3, 140), (5, 150)]
    fast = EvolvingGraph.from_edges(n, edges)
    added = greedy_insert(fast, [edge_index(u, v, n) for u, v in batch])
    slow = EvolvingGraph.from_edges(n, edges)
    expect = 0
    for u, v in batch:
        expect += slow.add_edge_if_open(u, v)
    assert added == expect == 1
    assert fast.adj == slow.adj
    assert fast.edge_count == slow.edge_count


def _matches_replay(n, batch):
    """One greedy_insert call on an empty graph at n against the checked
    per-pair insert; returns how many pairs were added."""
    fast = EvolvingGraph(n)
    added = greedy_insert(fast, [edge_index(u, v, n) for u, v in batch])
    slow = EvolvingGraph(n)
    expect = sum(slow.add_edge_if_open(u, v) for u, v in batch)
    assert added == expect
    assert fast.adj == slow.adj
    assert fast.edge_count == slow.edge_count
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
    g = EvolvingGraph(n)
    live = gen.permutation(n)[:max(1, 3 * n // 4)]
    for u in live.tolist():
        for v in live.tolist():
            if u < v and gen.random() < 0.1:
                g.insert_edge(u, v)
    words = bitset_words(g.adj, n)
    expect = [0] * n
    for x in range(n):
        for w in iter_bits(g.adj[x]):
            expect[x] |= g.adj[w]
    ends = gen.choice(n, size=(n + 1) // 2, replace=False)
    for gather in (graphcore._GATHER, 8):
        with mock.patch.object(graphcore, "_GATHER", gather):
            assert list(bitset_ints(reach_rows(words))) == expect
            assert list(bitset_ints(reach_rows(words, ends))) == [expect[x] for x in ends]
    assert 0 in g.adj and (n == 1 or any(expect))


def test_uncut_call_sieves_closed_pairs(monkeypatch):
    # every pair at n = 200 in one call, in slices of 1000 pairs: closed
    # pairs soon dominate, so the call sieves; the chunk filter sees no pair
    # that the last sieve before it marks closed, and fewer pairs in all than
    # the call traverses; the graph equals the checked replay's
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
    slow = EvolvingGraph(n)
    us, vs = decode_edge_ids(ids, n)
    for u, v in zip(us.tolist(), vs.tolist()):
        slow.add_edge_if_open(u, v)
    assert added == slow.edge_count == fast.edge_count
    assert fast.adj == slow.adj
