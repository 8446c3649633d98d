import hashlib
import io
import itertools
import json
import tracemalloc

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from greedygraph import graphcore, rng, slots
from greedygraph.graphcore import (EvolvingGraph, edge_endpoints, edge_index, num_pairs,
                                   pair_rows)
from greedygraph.numerics import RoundContext
from greedygraph.process import ProcessParams, run_rounds
from greedygraph.slots import (SlotCounts, _band_stats, check_trajectories,
                               classify_pair, classify_pairs, write_rows_csv)


def brute_classify(graph: EvolvingGraph, u: int, v: int) -> tuple[int, int, int, int]:
    """Independent per-vertex re-derivation; returns (closed, half, fully, none)."""
    traversed = set(graph.traversed.tolist())

    def addable(a, b):
        if edge_index(a, b, graph.n) in traversed:
            return False
        return not any(graph.has_edge(a, z) and graph.has_edge(b, z)
                       for z in range(graph.n) if z not in (a, b))

    closed = half = fully = none = 0
    for w in range(graph.n):
        if w in (u, v):
            continue
        e1, e2 = graph.has_edge(u, w), graph.has_edge(v, w)
        if e1 and e2:
            closed += 1
        elif e1 and addable(v, w):
            half += 1
        elif e2 and addable(u, w):
            half += 1
        elif not e1 and not e2 and addable(u, w) and addable(v, w):
            fully += 1
        else:
            none += 1
    return closed, half, fully, none


def random_snapshot(n: int, eps: float, seed: int, upto_round: int):
    ctx = RoundContext(n, eps)
    trace = run_rounds(ProcessParams(ctx=ctx, seed=seed, record_snapshots=True))
    return trace.snapshots[upto_round], ctx.with_round(upto_round)


class TestClassifyPair:
    def test_empty_round_zero(self):
        n = 12
        g = EvolvingGraph(n)
        ctx = RoundContext(n, 0.2)
        for u, v in itertools.combinations(range(n), 2):
            sc = classify_pair(g, u, v, ctx)
            assert (sc.closed, sc.half_open, sc.fully_open) == (0, 0, n - 2)
            assert sc.fully_open_center == pytest.approx(n)

    def test_hand_built_instance(self):
        # graph {01, 12} on 6 vertices, ledger equal; query pair (0, 2)
        g = EvolvingGraph.from_edges(6, [(0, 1), (1, 2)])
        ctx = RoundContext(6, 0.2, round=1)
        sc = classify_pair(g, 0, 2, ctx)
        # w=1 gives the closed triangle {01, 12}; w in {3,4,5}: both pairs
        # free and addable
        assert (sc.closed, sc.half_open, sc.fully_open) == (1, 0, 3)
        # and a half-open case: query (0, 3); w=1 has {0,1} present with
        # {3,1} free and addable; w=2 is a none ({0,2} would close 0-1-2)
        sc2 = classify_pair(g, 0, 3, ctx)
        assert (sc2.closed, sc2.half_open, sc2.fully_open) == (0, 1, 2)

    def test_matches_brute_force_on_random_snapshots(self):
        snap, ctx = random_snapshot(48, 0.25, seed=13, upto_round=2)
        pairs = list(itertools.combinations(range(48), 2))
        for u, v in pairs[::17]:
            sc = classify_pair(snap, u, v, ctx)
            bc = brute_classify(snap, u, v)
            assert (sc.closed, sc.half_open, sc.fully_open) == bc[:3]

    def test_partition_sums_to_all_third_vertices(self):
        snap, ctx = random_snapshot(30, 0.25, seed=4, upto_round=1)
        for u, v in itertools.combinations(range(30), 2):
            c, h, f, none = brute_classify(snap, u, v)
            sc = classify_pair(snap, u, v, ctx)
            assert (sc.closed, sc.half_open, sc.fully_open) == (c, h, f)
            assert c + h + f + none == 30 - 2

    def test_fully_open_membership_symmetry(self):
        # if {u,w} and {v,w} are both free+addable for pair (u,v), and (u,v)
        # itself is free+addable, then (v,w) plays the same role for (u,w)
        snap, ctx = random_snapshot(26, 0.25, seed=9, upto_round=1)
        traversed = set(snap.traversed.tolist())

        def addable(a, b):
            return edge_index(a, b, 26) not in traversed and \
                not (snap.adj[a] & snap.adj[b])

        checked = 0
        full_mask = (1 << snap.n) - 1
        for u, v in itertools.combinations(range(26), 2):
            if not addable(u, v):
                continue
            sc = classify_pair(snap, u, v, ctx)
            for w in range(26):
                if w in (u, v):
                    continue
                if not snap.has_edge(u, w) and not snap.has_edge(v, w) \
                        and addable(u, w) and addable(v, w):
                    other = classify_pair(snap, u, w, ctx)
                    # v must be in the fully open class of (u, w): re-derive
                    cb = brute_classify(snap, u, w)
                    assert other.fully_open == cb[2]
                    assert addable(u, v) and addable(v, w)
                    checked += 1
        assert checked > 0

    def test_pure_recomputation(self):
        snap, ctx = random_snapshot(30, 0.25, seed=2, upto_round=2)
        a = classify_pair(snap, 3, 17, ctx)
        b = classify_pair(snap, 3, 17, ctx)
        assert a == b


def _classify(g: EvolvingGraph, us, vs):
    """``classify_pairs`` with the traversed rows of ``g`` built from scratch."""
    return classify_pairs(g, pair_rows(g.traversed, g.n), us, vs)


class TestClassifyPairs:
    @given(n=st.integers(min_value=2, max_value=130),
           p_edge=st.sampled_from([0.0, 0.03, 0.15, 0.5]),
           p_ledger=st.sampled_from([0.0, 0.2, 0.7]),
           gather=st.integers(min_value=1, max_value=40),
           block=st.integers(min_value=1, max_value=50),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_classify_pair(self, n, p_edge, p_ledger, gather, block, seed):
        # random hosts (triangles allowed) with an independent random ledger;
        # n up to 130 covers one- and multi-word rows with n % 64 != 0, and
        # gathers of a few rows and small blocks cross every reach_rows block,
        # gather and counting block boundary
        gen = np.random.default_rng(seed)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges, ledger = [], []
        for (u, v), e, b in zip(pairs, gen.random(len(pairs)), gen.random(len(pairs))):
            if e < p_edge:
                edges.append((u, v))
            if b < p_ledger:
                ledger.append(edge_index(u, v, n))
        g = EvolvingGraph.from_edges(n, edges)
        g.traversed = gen.permutation(np.array(ledger, dtype=np.int64))
        ledger = set(ledger)
        picked = [pairs[j] for j in gen.choice(len(pairs), size=min(len(pairs), 150),
                                               replace=False)]
        # the edges and traversed pairs among them, and either orientation
        picked += list(g.edges())[:20] + [(v, u) for u, v in picked[:30]]
        us, vs = (list(ends) for ends in zip(*picked))
        ctx = RoundContext(max(n, 3), 0.2)
        with mock.patch.object(graphcore, "_GATHER", 8 * ((n + 63) // 64) * gather), \
                mock.patch.object(slots, "_BLOCK_BYTES", 64 * ((n + 63) // 64) * block):
            closed, half, fully, fresh = _classify(g, us, vs)
        for j, (u, v) in enumerate(picked):
            sc = classify_pair(g, u, v, ctx)
            assert (closed[j], half[j], fully[j]) == (sc.closed, sc.half_open, sc.fully_open)
            assert fresh[j] == (edge_index(u, v, n) not in ledger)

    def test_no_pairs(self):
        counts = _classify(EvolvingGraph(70), [], [])
        assert [c.tolist() for c in counts] == [[], [], [], []]

    def test_isolated_endpoints_and_round_zero(self):
        # in the empty graph every third vertex is fully open; beside a
        # single edge {0, 1}, an isolated pair's slots at 0 and 1 stay open
        n = 67
        assert [c.tolist() for c in _classify(EvolvingGraph(n), [0, 5], [66, 64])] == \
            [[0, 0], [0, 0], [n - 2, n - 2], [True, True]]
        g = EvolvingGraph.from_edges(n, [(0, 1)])
        closed, half, fully, fresh = _classify(g, [2, 0, 0], [3, 1, 2])
        assert fresh.tolist() == [True, False, True]
        assert closed.tolist() == [0, 0, 0]
        assert half.tolist() == [0, 0, 1]
        assert fully.tolist() == [n - 2, n - 2, n - 3]


def test_scale_for_95_is_the_smallest_covering_95_percent():
    # 20 deviations 0.01 ... 0.20: 0.19 already covers 19 of 20 pairs
    ratios = [1.0 + j / 100 for j in range(1, 21)]
    stats = _band_stats("half", ratios, 1.0)
    assert stats["half_scale_for_95"] == pytest.approx(0.19)
    # one pair needs the largest deviation; 21 need ceil(19.95) = 20 covered
    assert _band_stats("fully", [1.5], 0.5)["fully_scale_for_95"] == 1.0
    assert _band_stats("half", ratios + [1.3], 1.0)["half_scale_for_95"] == \
        pytest.approx(0.20)


class TestCheckTrajectories:
    def _trace(self, n=120, eps=0.25, seed=21):
        ctx = RoundContext(n, eps)
        trace = run_rounds(ProcessParams(ctx=ctx, seed=seed, record_snapshots=True))
        return trace, ctx

    def test_requires_snapshots(self):
        ctx = RoundContext(30, 0.25)
        trace = run_rounds(ProcessParams(ctx=ctx, seed=1))
        with pytest.raises(ValueError):
            check_trajectories(trace, ctx)

    def test_round_zero_ratios(self):
        trace, ctx = self._trace()
        rep = check_trajectories(trace, ctx, sample_size=50, seed=3)
        r0 = rep.rounds[0]
        assert r0.fully_ratio_mean == pytest.approx((ctx.n - 2) / ctx.n)
        assert r0.half_ratio_mean == 1.0  # zero-centre convention

    def test_report_shape_and_determinism(self):
        trace, ctx = self._trace()
        rep1 = check_trajectories(trace, ctx, sample_size=60, seed=5)
        rep2 = check_trajectories(trace, ctx, sample_size=60, seed=5)
        assert len(rep1.rounds) == ctx.rounds_total + 1
        assert rep1.to_json_dict() == rep2.to_json_dict()
        assert rep1.to_json_dict()["band_scales"] == [1, 5]
        for r in rep1.rounds:
            for c, frac in r.fully_within.items():
                assert 0.0 <= frac <= 1.0

    def test_birthed_pairs_excluded_from_windows(self):
        trace, ctx = self._trace(n=40, eps=0.3, seed=8)
        rep = check_trajectories(trace, ctx, sample_size=40 * 39 // 2, seed=1)
        for i, r in enumerate(rep.rounds):
            assert r.non_birthed == r.sampled - trace.snapshots[i].birthed_count

    def test_snapshot_ledgers_are_prefixes_of_the_draw(self, monkeypatch):
        # every snapshot's traversed ids are a prefix of the final graph's,
        # held in the same memory; its int ledger rows and the report's
        # non-traversed counts agree with plain set arithmetic over them,
        # and the report reads no snapshot's int ledger rows (it grows its
        # own word rows from the ids new at each snapshot)
        trace, ctx = self._trace(n=60, eps=0.25, seed=5)
        final = trace.graph.traversed
        size = 400
        with monkeypatch.context() as patch:
            patch.setattr(EvolvingGraph, "birthed_adj", property(
                lambda g: pytest.fail("the report read a full ledger")))
            rep = check_trajectories(trace, ctx, sample_size=size, seed=2)
        ends = np.cumsum([0] + [r.birthed for r in trace.per_round])
        for i, snap in enumerate(trace.snapshots):
            ids = snap.traversed
            assert len(ids) == ends[i] and np.array_equal(ids, final[:len(ids)])
            assert len(ids) == 0 or np.shares_memory(ids, final)
            rows = [0] * 60
            for u, v in (edge_endpoints(idx, 60) for idx in ids.tolist()):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            assert snap.birthed_adj == rows
            sample = rng.stream(2, 0, round_=i, purpose=rng.SAMPLE).choice(
                num_pairs(60), size=size, replace=False)
            traversed = set(ids.tolist())
            assert rep.rounds[i].non_birthed == sum(idx not in traversed
                                                    for idx in sample.tolist())
        assert len(final) == ends[-1] > 0

    def test_refused_before_any_draw(self, monkeypatch):
        trace, ctx = self._trace(n=60)
        monkeypatch.setattr(graphcore, "physical_memory", lambda: 1 << 16)

        def forbidden(*args, **kwargs):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(rng.Streams, "rekey", forbidden)
        with pytest.raises(ValueError, match="memory bound: the trajectory check at n=60 "
                                             "needs about 1 MiB"):
            check_trajectories(trace, ctx, sample_size=100)

    def test_memory_estimate_covers_the_traced_peak(self):
        # the ids decoded at a time are those new at one snapshot, not a
        # whole slice of the traversed ones: 3,653,072 and 16,529,504 bytes
        # were charged when a slice was
        for n, before in ((400, 3_653_072), (2000, 16_529_504)):
            trace, ctx = self._trace(n=n, eps=0.2, seed=3)
            need = slots._check_bytes(trace, 1500, 0)
            tracemalloc.start()
            try:
                check_trajectories(trace, ctx, sample_size=1500, seed=3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= need < before

    def test_csv_rows(self):
        trace, ctx = self._trace(n=30, eps=0.25)
        rep = check_trajectories(trace, ctx, sample_size=10, seed=2, keep_rows=True)
        buf = io.StringIO()
        write_rows_csv(rep, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0].startswith("round,u,v,closed")
        assert len(lines) == 1 + len(rep.rows)

    def test_rows_match_classify_pair(self):
        # the report computes each endpoint's blocked mask once per round;
        # classify_pair, which derives both per call, is the reference
        trace, ctx = self._trace(n=90, eps=0.25, seed=6)
        rep = check_trajectories(trace, ctx, sample_size=400, seed=4, keep_rows=True)
        assert len(rep.rows) == 400 * (ctx.rounds_total + 1)
        for sc in rep.rows:
            snap = trace.snapshots[sc.round]
            assert sc == classify_pair(snap, sc.u, sc.v, ctx.with_round(sc.round))

    def test_report_golden(self):
        # pinned report: the sampled pairs, their counts and every statistic
        trace, ctx = self._trace(n=200, eps=0.25, seed=7)
        rep = check_trajectories(trace, ctx, sample_size=300, seed=7)
        assert hashlib.sha256(json.dumps(rep.to_json_dict()).encode()).hexdigest() == \
            "21bd73cc0d687865d03e50256862cc97d2b7d45d8005b5b5ae9eb3e515dc559c"

    def test_report_golden_negative_seed(self):
        # pinned report over 17 sample rounds, keyed by a negative seed
        trace, ctx = self._trace(n=150, eps=0.3, seed=13)
        rep = check_trajectories(trace, ctx, sample_size=250, seed=-5)
        assert len(rep.rounds) == 17
        assert hashlib.sha256(json.dumps(rep.to_json_dict()).encode()).hexdigest() == \
            "928aed09fbeca876c69c9a79640f2e0f6e13c46ade705f113dbceb7999f36228"
