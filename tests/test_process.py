import hashlib
import itertools
import json
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import factorial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from greedygraph import graphcore, process, rng
from greedygraph.graphcore import EvolvingGraph, bitset_ints, num_pairs
from greedygraph.numerics import RoundContext
from greedygraph.process import (OracleDistribution, ProcessParams, RunTrace,
                                 _class_name, _final_blocks, aggregate_cutoff,
                                 exhaustive_oracle, final_distribution_sample,
                                 normalize_counter, predicted_final_edges, run,
                                 run_exact, run_rounds, tv_distance)


def literal_oracle_n4() -> dict[str, Fraction]:
    """Brute iteration over all 720 orderings of the 6 pairs of K_4."""
    pairs = list(itertools.combinations(range(4), 2))
    out: Counter = Counter()
    for order in itertools.permutations(range(6)):
        g = EvolvingGraph(4)
        for e in order:
            u, v = pairs[e]
            g.add_edge_if_open(u, v)
        out[_class_name(g.adj)] += 1
    return {k: Fraction(v, 720) for k, v in out.items()}


def test_class_names_from_labelled_edges_any_n():
    # a 5-cycle on scattered labels of 12 vertices, and K_{3,3}, which has
    # no named shape; isolated vertices are ignored
    c5 = EvolvingGraph.from_edges(12, [(11, 3), (3, 7), (7, 0), (0, 9), (9, 11)])
    assert _class_name(c5.adj) == "C5"
    k33 = EvolvingGraph.from_edges(10, [(u, v) for u in (1, 4, 8) for v in (0, 5, 9)])
    assert _class_name(k33.adj) == "v6e9"
    assert _class_name(EvolvingGraph(9).adj) == "empty"


class TestExhaustiveOracle:
    def test_n3(self):
        o = exhaustive_oracle(3)
        assert o.edge_count_probs == {2: Fraction(1)}
        assert o.total_orderings == 6

    def test_n4_exact_split(self):
        o = exhaustive_oracle(4)
        assert o.class_probs == {"C4": Fraction(11, 15), "K13": Fraction(4, 15)}
        assert o.edge_count_probs == {3: Fraction(4, 15), 4: Fraction(11, 15)}

    def test_n4_matches_literal_enumeration(self):
        assert exhaustive_oracle(4).class_probs == literal_oracle_n4()

    def test_n5_distribution(self):
        o = exhaustive_oracle(5)
        assert o.total_orderings == factorial(10)
        assert o.edge_count_probs == {4: Fraction(1, 21), 5: Fraction(124, 945),
                                      6: Fraction(776, 945)}
        assert o.class_probs == {"C5": Fraction(124, 945), "K14": Fraction(1, 21),
                                 "K23": Fraction(776, 945)}
        assert sum(o.class_probs.values()) == 1

    def test_refuses_large_n(self):
        with pytest.raises(ValueError):
            exhaustive_oracle(6)

    @pytest.mark.parametrize("n, digest", [
        (3, "4abd1b2192a5bd13f27bc699995630649384aeb2b743868246632933eebd6cde"),
        (4, "68d9457f6646d06a5386a90e36844c5d288f8880b1078959a6050c0efded2819"),
        (5, "e5b2533418a746fb3a84367f3328ccd81a5269d57b185947d6c1e5f09fa50355")])
    def test_report_bytes_pinned(self, n, digest):
        # the report bytes are pinned, whatever algorithm computes them
        blob = json.dumps(exhaustive_oracle(n).to_json_dict())
        assert hashlib.sha256(blob.encode()).hexdigest() == digest


class TestRunExact:
    def test_n3_always_two_edges(self):
        ctx = RoundContext(3, 0.1)
        for t in range(80):
            trace = run_exact(ProcessParams(ctx=ctx, seed=5, mode="exact"), trial=t)
            assert trace.final_edges == 2

    def test_deterministic(self):
        ctx = RoundContext(60, 0.2)
        p = ProcessParams(ctx=ctx, seed=123, mode="exact")
        a = run_exact(p, trial=4)
        b = run_exact(p, trial=4)
        assert a.graph.adj == b.graph.adj
        assert a.per_round == b.per_round
        c = run_exact(p, trial=5)
        assert c.graph.adj != a.graph.adj

    def test_triangle_free_and_maximal(self):
        ctx = RoundContext(40, 0.2)
        trace = run_exact(ProcessParams(ctx=ctx, seed=9, mode="exact"))
        g = trace.graph
        assert g.audit_triangle_free()
        # full exhaustion: every absent pair would close a triangle
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if not g.has_edge(u, v):
                    assert g.adj[u] & g.adj[v]
        assert g.birthed_count == g.n * (g.n - 1) // 2

    def test_cutoff_limits_traversal(self):
        ctx = RoundContext(40, 0.2)
        trace = run_exact(ProcessParams(ctx=ctx, seed=9, mode="exact", cutoff=0.05))
        assert trace.graph.birthed_count < 40 * 39 // 2
        assert trace.graph.audit_triangle_free()

    @pytest.mark.parametrize("cutoff", [None, 0.3])
    def test_snapshots(self, cutoff):
        # one round: the empty graph, then the final graph and ledger
        params = ProcessParams(ctx=RoundContext(60, 0.2), seed=4, mode="exact", cutoff=cutoff)
        trace = run_exact(replace(params, record_snapshots=True), trial=2)
        empty, final = trace.snapshots
        assert empty.edge_count == empty.birthed_count == 0
        assert _graph_state(final) == _graph_state(trace.graph)
        plain = run_exact(params, trial=2)
        assert plain.snapshots is None
        assert _graph_state(plain.graph) == _graph_state(trace.graph)

    def test_trace_json_schema(self):
        ctx = RoundContext(10, 0.2)
        d = run_exact(ProcessParams(ctx=ctx, seed=1, mode="exact")).to_json_dict()
        assert set(d) == {"params", "per_round", "final_edges"}
        assert set(d["per_round"][0]) == {"i", "birthed", "added", "total_edges"}


class TestRunRounds:
    def test_small_n_outcomes(self):
        ctx = RoundContext(4, 0.2)
        seen = set()
        for t in range(150):
            trace = run_rounds(ProcessParams(ctx=ctx, seed=2), trial=t)
            assert trace.graph.audit_triangle_free()
            seen.add(trace.final_edges)
        assert seen <= {0, 1, 2, 3, 4}

    def test_counts_monotone_and_consistent(self):
        ctx = RoundContext(150, 0.2)
        trace = run_rounds(ProcessParams(ctx=ctx, seed=11))
        totals = [r.total_edges for r in trace.per_round]
        assert totals == sorted(totals)
        assert trace.graph.birthed_count == sum(r.birthed for r in trace.per_round)
        assert trace.final_edges == totals[-1]
        assert trace.final_edges <= trace.graph.birthed_count

    def test_snapshots_progression(self):
        ctx = RoundContext(80, 0.2)
        trace = run_rounds(ProcessParams(ctx=ctx, seed=3, record_snapshots=True))
        assert len(trace.snapshots) == ctx.rounds_total + 1
        assert trace.snapshots[0].edge_count == 0
        for i, r in enumerate(trace.per_round, start=1):
            assert trace.snapshots[i].edge_count == r.total_edges
            assert trace.snapshots[i].audit_triangle_free()

    def test_birthed_population_mean(self):
        # total traversed ~ Binomial(C(n,2), 1-(1-q)^rounds); 3 sigma band
        ctx = RoundContext(60, 0.2)
        m = 60 * 59 // 2
        p = aggregate_cutoff(ctx)
        trials = 200
        total = sum(run_rounds(ProcessParams(ctx=ctx, seed=17), trial=t).graph.birthed_count
                    for t in range(trials))
        mean = total / trials
        sigma = (m * p * (1 - p) / trials) ** 0.5
        assert abs(mean - m * p) <= 3 * sigma

    def test_deterministic(self):
        ctx = RoundContext(100, 0.2)
        p = ProcessParams(ctx=ctx, seed=77)
        assert run_rounds(p, trial=1).graph.adj == run_rounds(p, trial=1).graph.adj


# Pairs the reference draw draws, filters and joins at a time
_DRAW_CHUNK = 1 << 16


def draw_round(gen, m, threshold, seen):
    """One round of the reference draw, which the aggregate draw
    (``process._draw``) replaced: a time in [0, 1) for every pair, drawn and
    filtered ``_DRAW_CHUNK`` pairs at a time (successive draws from a
    generator reproduce one long draw bit for bit); returns, in stable time
    order, the pairs not yet in ``seen`` whose time is below ``threshold``,
    and marks them in ``seen``."""
    ids, times = [], []
    for s in range(0, m, _DRAW_CHUNK):
        t = gen.random(min(_DRAW_CHUNK, m - s))
        part = seen[s:s + _DRAW_CHUNK]
        fresh = (t < threshold) & ~part
        part |= fresh
        kept = np.nonzero(fresh)[0]
        ids.append(kept + s)
        times.append(t[kept])
    ids, times = np.concatenate(ids), np.concatenate(times)
    return ids[np.argsort(times, kind="stable")]


def one_shot_draw(gen, m, threshold, seen):
    """The reference for ``draw_round``: every pair's time in one array,
    filtered with full-length masks."""
    t = gen.random(m)
    fresh = (t < threshold) & ~seen
    seen |= fresh
    ids = np.nonzero(fresh)[0]
    return ids[np.argsort(t[ids], kind="stable")]


def reference_draw(streams, params, trial, schedule, cap):
    """The reference route, in place of ``process._draw``: each round draws
    from its own cell (seed, trial, round, purpose), round 0 of the
    birth-order form below the cutoff (or 1), rounds 1..k**2 of the round
    form below the birth probability, over one ``seen`` mask; ``_draw``'s
    schedule and cap go unused.  Returns the rounds' ids joined, and where
    each round but the last ends."""
    ctx = params.ctx
    m = num_pairs(ctx.n)
    if params.mode == "exact":
        cells = [(params.seed, trial, 0, rng.EXACT)]
        threshold = 1.0 if params.cutoff is None else params.cutoff
    else:
        cells = [(params.seed, trial, i, rng.ROUNDS) for i in range(1, ctx.rounds_total + 1)]
        threshold = ctx.birth_prob
    seen = np.zeros(m, dtype=bool)
    rounds = [draw_round(streams.rekey(*cell), m, threshold, seen) for cell in cells]
    return np.concatenate(rounds), np.cumsum([len(r) for r in rounds[:-1]]).tolist()


class _TiedStream:
    """A stream whose times lie on {0, 1/3, 2/3}, drawn from uniform doubles,
    so successive draws still reproduce one long draw."""

    def __init__(self, gen):
        self.gen = gen

    def random(self, size):
        return np.floor(self.gen.random(size) * 3) / 3


class TestStreamedRound:
    """A round is drawn, decoded and inserted in fixed-size pieces and must
    give what one pass over all its pairs gives."""

    @pytest.mark.parametrize("m", [_DRAW_CHUNK - 1, _DRAW_CHUNK,
                                   3 * _DRAW_CHUNK, 3 * _DRAW_CHUNK + 77])
    @pytest.mark.parametrize("threshold", [1.0, 0.3, RoundContext(2000, 0.1).birth_prob])
    @pytest.mark.parametrize("ties", [False, True])
    def test_chunked_draw_matches_one_shot(self, m, threshold, ties):
        # the reference route: three rounds over one reused seen mask, as
        # its round form draws them
        wrap = _TiedStream if ties else (lambda gen: gen)
        seen = np.zeros(m, dtype=bool)
        ref_seen = np.zeros(m, dtype=bool)
        for i in range(1, 4):
            got = draw_round(wrap(rng.stream(4, 0, round_=i, purpose=rng.ROUNDS)),
                             m, threshold, seen)
            want = one_shot_draw(wrap(rng.stream(4, 0, round_=i, purpose=rng.ROUNDS)),
                                 m, threshold, ref_seen)
            assert np.array_equal(got, want)
            assert np.array_equal(seen, ref_seen)

    @pytest.mark.parametrize("mode, n", [("rounds", 100), ("exact", 1025)])
    def test_one_insert_call_per_round(self, monkeypatch, mode, n):
        # a round is one greedy_insert call, even an uncut birth-order
        # round of more than twice graphcore._SLICE pairs
        params = ProcessParams(ctx=RoundContext(n, 0.2), seed=3, mode=mode)
        calls = []

        def insert(g, ids):
            calls.append(len(ids))
            return graphcore.greedy_insert(g, ids)

        monkeypatch.setattr(process, "greedy_insert", insert)
        trace = run(params)
        assert len(calls) == len(trace.per_round) == (
            params.ctx.rounds_total if mode == "rounds" else 1)
        assert calls == [r.birthed for r in trace.per_round]
        if mode == "exact":
            assert calls[0] == num_pairs(n) > 2 * graphcore._SLICE

    @pytest.mark.parametrize("mode, cutoff, snapshots", [
        ("rounds", None, 0), ("exact", 0.3, 0), ("exact", 0.9, 0), ("exact", None, 0),
        # k = 2: the empty graph and one copy per round, 5 in all
        ("rounds", None, 5)],
        ids=["rounds-None", "exact-0.3", "exact-0.9", "exact-None", "rounds-None-snapshots"])
    def test_estimate_bounds_traced_peak(self, mode, cutoff, snapshots):
        n = 1500
        params = ProcessParams(ctx=RoundContext(n, 0.1), seed=2, mode=mode, cutoff=cutoff,
                               record_snapshots=bool(snapshots))
        run(ProcessParams(ctx=RoundContext(40, 0.1), seed=2))  # warm the caches first
        tracemalloc.start()
        try:
            run(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _estimate(params, snapshots)


def _estimate(params: ProcessParams, snapshots: int = 0) -> int:
    """``process._round_bytes`` for a run of these parameters."""
    _, share, _ = process._schedule(params)
    return process._round_bytes(params.ctx.n, share, snapshots)


def _forbid_streams(monkeypatch):
    """Make keying a stream by either route, fresh or re-keyed, fail."""
    def made(*args, **kwargs):
        raise AssertionError("made a stream before the memory check")

    monkeypatch.setattr(rng, "stream", made)
    monkeypatch.setattr(rng.Streams, "rekey", made)


class TestMemoryBound:
    """The traversal and the campaign path estimate their peak bytes from
    C(n,2) and refuse, before any draw, a run past physical memory."""

    @pytest.fixture
    def tiny_memory(self, monkeypatch):
        monkeypatch.setattr(graphcore, "physical_memory", lambda: 1 << 20)
        _forbid_streams(monkeypatch)

    @pytest.mark.parametrize("mode, n, mib", [pytest.param("exact", 300, 3, id="exact-300"),
                                              pytest.param("rounds", 600, 2, id="rounds-600")])
    def test_run_refused(self, tiny_memory, mode, n, mib):
        # an uncut birth-order run keeps every pair, about 73 bytes each at
        # n=300, where the whole round is one slice; a round-form run keeps
        # a share of about k/sqrt(n), about 10 bytes per pair of K_n at
        # n=600
        params = ProcessParams(ctx=RoundContext(n, 0.2), seed=1, mode=mode)
        with pytest.raises(ValueError,
                           match=fr"memory bound: a run at n={n} needs about {mib} MiB"):
            run(params)

    def test_rounds_run_below_full_draw_passes(self, monkeypatch):
        # a round-form run at n=300 keeps about 16% of the pairs: it fits
        # where keeping every pair would not, and an uncut birth-order run
        # is refused
        limit = 1 << 20
        params = ProcessParams(ctx=RoundContext(300, 0.2), seed=1)
        assert _estimate(params) < limit < _estimate(replace(params, mode="exact"))
        monkeypatch.setattr(graphcore, "physical_memory", lambda: limit)
        assert run_rounds(params).final_edges > 0
        with pytest.raises(ValueError, match="memory bound: a run at n=300"):
            run_exact(params)

    def test_snapshots_counted(self, monkeypatch):
        # 26 snapshots of the n=300 graph (k = 5) take the run past a limit
        # the run without them fits in
        params = ProcessParams(ctx=RoundContext(300, 0.3), seed=1)
        limit = _estimate(params) + 100_000
        assert limit < _estimate(params, params.ctx.rounds_total + 1)
        monkeypatch.setattr(graphcore, "physical_memory", lambda: limit)
        assert run_rounds(params).final_edges > 0
        _forbid_streams(monkeypatch)
        with pytest.raises(ValueError, match="memory bound: a run at n=300"):
            run_rounds(replace(params, record_snapshots=True))

    @pytest.mark.parametrize("mode", ["exact", "rounds"])
    def test_campaign_refused(self, tiny_memory, mode):
        with pytest.raises(ValueError, match="memory bound: a campaign at n=300"):
            final_distribution_sample(RoundContext(300, 0.2), 10, seed=1, mode=mode)

    def test_small_run_passes(self, monkeypatch):
        monkeypatch.setattr(graphcore, "physical_memory", lambda: 1 << 20)
        assert run(ProcessParams(ctx=RoundContext(100, 0.2), seed=1)).final_edges > 0
        edges, _ = final_distribution_sample(RoundContext(100, 0.2), 3, seed=1)
        assert sum(edges.values()) == 3


def test_classified_campaign_estimate_bounds_traced_peak(monkeypatch):
    # class names are memoized per block, at most process._NAMES of them: at
    # n = 30 the 3,000 trials are one block whose names seldom repeat, and a
    # memo of them all traced 5.42 MB against this 2.10 MB figure
    ctx = RoundContext(30, 0.2)
    needs = []
    monkeypatch.setattr(process, "check_memory", lambda need, what: needs.append(need))
    final_distribution_sample(ctx, 2, seed=1, mode="rounds", classify=True)  # warm the caches
    tracemalloc.start()
    try:
        _, classes = final_distribution_sample(ctx, 3000, seed=1, mode="rounds", classify=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(classes.values()) == 3000 and len(classes) > 1
    assert peak <= needs[-1]


def test_snapshots_keep_their_words(monkeypatch):
    # a snapshot shares the graph's word rows; each later round writes a
    # fresh copy, so every snapshot's bytes stay as they were when it was taken
    taken = []
    real_copy = EvolvingGraph.copy

    def spy(self):
        snap = real_copy(self)
        taken.append((snap, hashlib.sha256(snap.words.tobytes()).hexdigest()))
        return snap

    monkeypatch.setattr(EvolvingGraph, "copy", spy)
    trace = run_rounds(ProcessParams(ctx=RoundContext(300, 0.3), seed=4, record_snapshots=True))
    assert len(taken) == len(trace.snapshots) == trace.per_round[-1].i + 1
    assert all(snap is kept for (snap, _), kept in zip(taken, trace.snapshots))
    assert [hashlib.sha256(s.words.tobytes()).hexdigest() for s in trace.snapshots] \
        == [digest for _, digest in taken]
    assert len({digest for _, digest in taken}) == len(taken)  # every round adds edges
    assert not trace.snapshots[0].words.any()
    for snap in trace.snapshots:
        assert graphcore.row_bit_counts(snap.words).sum() == 2 * snap.edge_count


def test_campaign_keeps_no_class_names():
    # class names are memoized for one campaign only, never in the module
    def sizes():
        return {k: len(v) for k, v in vars(process).items()
                if isinstance(v, (dict, list, set))}

    before = sizes()
    _, classes = final_distribution_sample(RoundContext(30, 0.2), 200, 1, mode="rounds",
                                           classify=True)
    assert sum(classes.values()) == 200
    assert sizes() == before


class TestDistributionHelpers:
    def test_tv_distance(self):
        assert tv_distance({1: 0.5, 2: 0.5}, {1: 0.5, 2: 0.5}) == 0
        assert tv_distance({1: 1.0}, {2: 1.0}) == pytest.approx(1.0)
        assert tv_distance({1: Fraction(1, 2), 2: Fraction(1, 2)},
                           {1: 0.75, 2: 0.25}) == pytest.approx(0.25)

    def test_mc_matches_oracle_n4_loose(self):
        ctx = RoundContext(4, 0.2)
        _, classes = final_distribution_sample(ctx, 4000, seed=31, mode="exact",
                                               classify=True)
        emp = normalize_counter(classes)
        assert abs(emp["C4"] - 11 / 15) < 0.03

    def test_rounds_exact_equivalence_smoke(self):
        # identical final-graph law when the cutoff matches the aggregate
        # traversal probability; loose TV at small trial count
        ctx = RoundContext(12, 0.25)
        assert ctx.k == 1  # single-round regime
        cut = aggregate_cutoff(ctx)
        e1, _ = final_distribution_sample(ctx, 3000, seed=5, mode="exact", cutoff=cut)
        e2, _ = final_distribution_sample(ctx, 3000, seed=6, mode="rounds")
        assert tv_distance(normalize_counter(e1), normalize_counter(e2)) < 0.06

    def test_prediction_helper(self):
        ctx = RoundContext(2000, 0.1)
        expect = 1999000 * float(ctx.traj[4]) / 2000 ** 0.5
        assert predicted_final_edges(ctx) == pytest.approx(expect)


class _KeepAllStream:
    """A stream that keeps every pair (each gap 1), so a cut run keeps more
    pairs than its share; the shuffle and the round sizes come from the
    wrapped generator."""

    def __init__(self, gen):
        self.gen = gen

    def geometric(self, p, size):
        return np.ones(size, dtype=np.int64)

    def shuffle(self, x):
        self.gen.shuffle(x)

    def multinomial(self, n, pvals):
        return self.gen.multinomial(n, pvals)


def _check_batch_against_runs(params: ProcessParams, trials: int, budget: int,
                              classify: bool = False, keep_all: bool = False) -> None:
    """The campaign path, in blocks of at most ``budget`` bytes, against
    ``run`` trial by trial: adjacency rows, edge counter and class counter;
    with ``keep_all``, both draw from ``_KeepAllStream``s."""
    n = params.ctx.n
    real = rng.Streams.rekey
    cells = []

    def rekey(self, *args, **kwargs):
        cells.append(args)
        gen = real(self, *args, **kwargs)
        return _KeepAllStream(gen) if keep_all else gen

    with mock.patch.object(process, "_BLOCK_BYTES", budget), \
            mock.patch.object(rng.Streams, "rekey", rekey):
        rows = [mask for block in _final_blocks(params, trials)
                for mask in bitset_ints(block)]
        edges, classes = final_distribution_sample(
            params.ctx, trials, params.seed, mode=params.mode, cutoff=params.cutoff,
            classify=classify)
        graphs = [run(params, trial=t).graph for t in range(trials)]
    # all three passes drew each trial through the patched route, once
    assert len(cells) == 3 * trials
    assert rows == [mask for g in graphs for mask in g.adj]
    assert edges == Counter(g.edge_count for g in graphs)
    if classify:
        assert classes == Counter(_class_name(g.adj) for g in graphs)


@given(n=st.integers(min_value=3, max_value=12),
       eps=st.floats(min_value=0.05, max_value=0.49),
       mode=st.sampled_from(["exact", "rounds"]),
       cutoff=st.one_of(st.none(), st.floats(min_value=0.01, max_value=1.0)),
       trials=st.integers(min_value=1, max_value=40),
       budget=st.integers(min_value=0, max_value=20_000),
       seed=st.integers(min_value=0, max_value=2 ** 32),
       keep_all=st.booleans())
@settings(max_examples=120, deadline=None)
def test_campaign_path_matches_runs(n, eps, mode, cutoff, trials, budget, seed, keep_all):
    # blocks of any size from 1 trial up, so the trial count need not divide
    # it; with ``keep_all`` a cut run keeps every pair, past its column length
    params = ProcessParams(ctx=RoundContext(n, eps), seed=seed, mode=mode, cutoff=cutoff)
    _check_batch_against_runs(params, trials, budget, classify=n <= 6, keep_all=keep_all)


@pytest.mark.parametrize("budget", [0, 1 << 20, process._BLOCK_BYTES])
@pytest.mark.parametrize("mode, cutoff, keep_all", [
    ("exact", None, False), ("exact", 0.3, False), ("rounds", None, False),
    # every pair is kept, far past the expected share of 0.34: the
    # sequences outgrow the column length the block was sized for
    ("exact", 0.34, True),
])
def test_campaign_path_matches_runs_multiword(mode, cutoff, keep_all, budget):
    # rows of three 64-bit words, in blocks of one trial or one block of all
    params = ProcessParams(ctx=RoundContext(130, 0.2), seed=8, mode=mode, cutoff=cutoff)
    _check_batch_against_runs(params, 5, budget, keep_all=keep_all)


@pytest.mark.parametrize("mode", ["exact", "rounds"])
@pytest.mark.parametrize("n, dtype", [(256, np.int16), (257, np.int32)])
def test_campaign_path_matches_runs_at_the_dtype_boundary(monkeypatch, n, dtype, mode):
    # the padding id C(n,2) is 32,640 at n = 256, the last n whose pair
    # sequences fit int16, and 32,896 at n = 257
    ctx = RoundContext(n, 0.2)
    params = ProcessParams(ctx=ctx, seed=4, mode=mode,
                           cutoff=aggregate_cutoff(ctx) if mode == "exact" else None)
    dtypes = set()
    lockstep = process._lockstep

    def spy(n, table, seq):
        dtypes.add(seq.dtype)
        return lockstep(n, table, seq)

    monkeypatch.setattr(process, "_lockstep", spy)
    _check_batch_against_runs(params, 3, process._BLOCK_BYTES)
    assert dtypes == {np.dtype(dtype)}


def test_campaign_steps_decide_through_open(monkeypatch):
    # the campaign path has no open test of its own: each lockstep step asks
    # graphcore._open once, about one pair of every trial of its block
    ctx = RoundContext(40, 0.2)
    expect = final_distribution_sample(ctx, 30, 5, mode="rounds")
    shapes, calls = [], []
    real_lockstep, real_open = process._lockstep, graphcore._open

    def lockstep_spy(n, table, seq):
        shapes.append(seq.shape)
        return real_lockstep(n, table, seq)

    def open_spy(words, pairs):
        calls.append(len(pairs))
        return real_open(words, pairs)

    monkeypatch.setattr(process, "_lockstep", lockstep_spy)
    monkeypatch.setattr(graphcore, "_open", open_spy)
    assert final_distribution_sample(ctx, 30, 5, mode="rounds") == expect
    assert shapes and calls == [cols for steps, cols in shapes for _ in range(steps)]


@pytest.mark.parametrize("n, trials, mode, cutoff", [
    (100, 500, "exact", "aggregate"), (100, 500, "exact", None), (100, 500, "rounds", None),
    (256, 100, "rounds", None),
    # three blocks: one block's rows are freed before the next one's are made
    (100, 2500, "rounds", None)])
def test_campaign_estimate_bounds_traced_peak(monkeypatch, n, trials, mode, cutoff):
    # the figure charges a whole block: 500 trials at n = 100 are one block
    # of C4's setting, two uncut
    ctx = RoundContext(n, 0.2)
    cutoff = aggregate_cutoff(ctx) if cutoff else None
    needs = []
    monkeypatch.setattr(process, "check_memory", lambda need, what: needs.append(need))
    final_distribution_sample(ctx, 2, seed=1, mode=mode, cutoff=cutoff)  # warm the caches
    tracemalloc.start()
    try:
        final_distribution_sample(ctx, trials, seed=1, mode=mode, cutoff=cutoff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= needs[-1]


def _graph_state(g: EvolvingGraph) -> list:
    return [g.n, [hex(w) for w in g.adj], [hex(w) for w in g.birthed_adj],
            g.edge_count, g.birthed_count]


def _trace_digest(trace: RunTrace) -> str:
    state = {"graph": _graph_state(trace.graph), "report": trace.to_json_dict(),
             "snapshots": ([_graph_state(s) for s in trace.snapshots]
                           if trace.snapshots is not None else None)}
    return hashlib.sha256(json.dumps(state, sort_keys=True).encode()).hexdigest()


def _draw(streams, params: ProcessParams, trial: int):
    """``process._draw`` with the schedule and cap ``run`` passes it."""
    schedule = process._schedule(params)
    return process._draw(streams, params, trial, schedule,
                         process._cap(num_pairs(params.ctx.n), schedule[1]))


class TestAggregateDraw:
    """The law of the one draw per trial: each pair kept independently with
    the run's share, in uniform order, cut into rounds of multinomial
    sizes."""

    @pytest.mark.parametrize("n", [5, 100, 2000])
    def test_uncut_draw_is_the_cells_permutation(self, n):
        # an uncut run traverses its stream cell's permutation of C(n,2),
        # bit for bit
        params = ProcessParams(ctx=RoundContext(n, 0.2), seed=9, mode="exact")
        streams = rng.Streams()
        for t in range(3):
            ids, ends = _draw(streams, params, t)
            assert ends == []
            assert np.array_equal(ids, rng.stream(9, t, 0, rng.EXACT).permutation(num_pairs(n)))

    @pytest.mark.parametrize("mode, cutoff", [("rounds", None), ("exact", 0.3)])
    def test_kept_count_and_round_sizes(self, mode, cutoff):
        # k = 2 at n = 30: four rounds, birth probability q = 0.091; the
        # kept count is Binomial(C(n,2), share) and round i holds a share
        # (1 - q)**(i-1) q / share of the kept pairs, each within 3 sigma
        params = ProcessParams(ctx=RoundContext(30, 0.25), seed=21, mode=mode, cutoff=cutoff)
        _, share, bounds = process._schedule(params)
        q = params.ctx.birth_prob if mode == "rounds" else share
        m, trials = num_pairs(30), 2000
        streams = rng.Streams()
        sizes = np.zeros(len(bounds) + 1, dtype=np.int64)
        for t in range(trials):
            ids, ends = _draw(streams, params, t)
            assert len(np.unique(ids)) == len(ids) and 0 <= ids.min() and ids.max() < m
            sizes += np.diff([0, *ends, len(ids)])
        kept = int(sizes.sum())
        assert abs(kept - trials * m * share) <= 3 * np.sqrt(trials * m * share * (1 - share))
        for i, size in enumerate(sizes, start=1):
            f = (1 - q) ** (i - 1) * q / share
            assert abs(size - kept * f) <= 3 * np.sqrt(kept * f * (1 - f))

    def test_uncut_campaign_matches_oracle_n5(self):
        # a uniform permutation per trial: the edge-count law of n = 5
        oracle = exhaustive_oracle(5).edge_count_probs
        trials = 20_000
        counts, _ = final_distribution_sample(RoundContext(5, 0.2), trials, seed=13)
        assert set(counts) <= set(oracle)
        for edges, p in oracle.items():
            p = float(p)
            assert abs(counts[edges] / trials - p) <= 3 * np.sqrt(p * (1 - p) / trials)

    def test_round_form_campaign_matches_reference_route(self, monkeypatch):
        # C4's setting and tolerance (n = 100, k = 2, 100,000 trials, TV <=
        # 0.02), against the per-round draw it replaced
        ctx = RoundContext(100, 0.2)
        trials = 100_000
        edges, _ = final_distribution_sample(ctx, trials, seed=7, mode="rounds")
        monkeypatch.setattr(process, "_draw", reference_draw)
        ref, _ = final_distribution_sample(ctx, trials, seed=8, mode="rounds")
        assert tv_distance(normalize_counter(edges), normalize_counter(ref)) <= 0.02


def _golden_digest(case: str) -> str:
    """sha256 of one pinned output: a trace's graph, ledger, round records
    and snapshots, or a campaign's edge and class counters."""
    ctx = RoundContext(60, 0.3)  # k = 3, 9 rounds
    if case == "exact":
        return _trace_digest(run_exact(ProcessParams(ctx=ctx, seed=11, mode="exact"), trial=3))
    if case == "exact_cutoff":
        params = ProcessParams(ctx=ctx, seed=11, mode="exact", cutoff=aggregate_cutoff(ctx))
        return _trace_digest(run_exact(params, trial=3))
    if case == "rounds_snapshots":
        params = ProcessParams(ctx=ctx, seed=11, record_snapshots=True)
        return _trace_digest(run_rounds(params, trial=3))
    mode = case.removeprefix("campaign_")
    ctx = RoundContext(6, 0.25)
    cutoff = aggregate_cutoff(ctx) if mode == "exact" else None
    edges, classes = final_distribution_sample(ctx, 300, seed=5, mode=mode,
                                               cutoff=cutoff, classify=True)
    blob = json.dumps([sorted(edges.items()), sorted(classes.items())])
    return hashlib.sha256(blob.encode()).hexdigest()


class TestGolden:
    """Pinned outputs of the reference route: with it in place of the
    aggregate draw, the streams and the traversal must keep reproducing
    these exact graphs, ledgers, round records and snapshots."""

    @pytest.fixture(autouse=True)
    def reference_route(self, monkeypatch):
        monkeypatch.setattr(process, "_draw", reference_draw)

    def test_run_exact(self):
        assert _golden_digest("exact") == \
            "8c95df28b8df4b1a6775ab2a740f31c5f140ef746e124a316b5d0452871ca680"

    def test_run_exact_cutoff(self):
        assert _golden_digest("exact_cutoff") == \
            "125dd1e62bbc197da7e65d6a96caf07bdfc00a125055b918ca0826a6214c6bd5"

    def test_run_rounds_snapshots(self):
        assert _golden_digest("rounds_snapshots") == \
            "bfd18f013e81bacdb46a9177f16a40569a972eae18543e6cdcf3ae4617b9e773"

    @pytest.mark.parametrize("mode, digest", [
        ("exact", "be6ee7f1ce0509d9613e478fa4eda0f35e766f07d29fcdbf3b6db63b169978de"),
        ("rounds", "23a57942aae0008e2154b3731bb842bcebac2a2787632af73a59d93eca2c5247"),
    ])
    def test_final_distribution_sample(self, mode, digest):
        assert _golden_digest(f"campaign_{mode}") == digest


@pytest.mark.parametrize("case, digest", [
    ("exact", "71983c84d0d5e2d0e4aaf0f43a654134c9b3a5ccab4b5d5c2e0a36ae58708185"),
    ("exact_cutoff", "223f95646282090461264d3a932d91034c9552cc6ef56f8b3edb2116190ad55e"),
    ("rounds_snapshots", "c39ccee9ef3e32860dc692ccb60a3c26f4a534cdee788f7a308ce57e1127b338"),
    ("campaign_exact", "7c827123e7216e851f2312f5f0a362b8a54336bb380151c8f0a3605db98d20b3"),
    ("campaign_rounds", "3accb419dd8861147d29118664c4c6f0168fb7ddc4af0bc0beeeb47d13c21f05"),
])
def test_golden_aggregate_draw(case, digest):
    # the same outputs through the aggregate draw, one stream cell per trial
    assert _golden_digest(case) == digest
