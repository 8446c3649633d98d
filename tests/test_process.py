import hashlib
import itertools
import json
from collections import Counter
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from greedygraph.graphcore import EvolvingGraph
from greedygraph.numerics import RoundContext
from greedygraph.process import (OracleDistribution, ProcessParams, RunTrace,
                                 _birth_order, aggregate_cutoff, classify_final_graph,
                                 exhaustive_oracle, final_distribution_sample,
                                 normalize_counter, predicted_final_edges,
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
        out[classify_final_graph(g)] += 1
    return {k: Fraction(v, 720) for k, v in out.items()}


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

    @pytest.mark.parametrize("levels", [3, 2 ** 53])
    def test_birth_order_is_stable(self, levels):
        # times on a grid of `levels` values: exact ties everywhere (3), or
        # almost none, as with real 53-bit draws; tied pairs keep index order
        times = np.random.default_rng(0).integers(0, levels, size=5000) / levels
        expect = sorted(range(len(times)), key=lambda j: (times[j], j))
        assert _birth_order(times).tolist() == expect

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


def _graph_state(g: EvolvingGraph) -> list:
    return [g.n, [hex(w) for w in g.adj], [hex(w) for w in g.birthed_adj],
            g.edge_count, g.birthed_count]


def _trace_digest(trace: RunTrace) -> str:
    state = {"graph": _graph_state(trace.graph), "report": trace.to_json_dict(),
             "snapshots": ([_graph_state(s) for s in trace.snapshots]
                           if trace.snapshots is not None else None)}
    return hashlib.sha256(json.dumps(state, sort_keys=True).encode()).hexdigest()


class TestGolden:
    """Pinned outputs: the per-trial streams and the traversal must keep
    reproducing these exact graphs, ledgers, round records and snapshots."""

    CTX = RoundContext(60, 0.3)  # k = 3, 9 rounds

    def test_run_exact(self):
        trace = run_exact(ProcessParams(ctx=self.CTX, seed=11, mode="exact"), trial=3)
        assert _trace_digest(trace) == \
            "8c95df28b8df4b1a6775ab2a740f31c5f140ef746e124a316b5d0452871ca680"

    def test_run_exact_cutoff(self):
        params = ProcessParams(ctx=self.CTX, seed=11, mode="exact",
                               cutoff=aggregate_cutoff(self.CTX))
        assert _trace_digest(run_exact(params, trial=3)) == \
            "125dd1e62bbc197da7e65d6a96caf07bdfc00a125055b918ca0826a6214c6bd5"

    def test_run_rounds_snapshots(self):
        params = ProcessParams(ctx=self.CTX, seed=11, record_snapshots=True)
        assert _trace_digest(run_rounds(params, trial=3)) == \
            "bfd18f013e81bacdb46a9177f16a40569a972eae18543e6cdcf3ae4617b9e773"

    @pytest.mark.parametrize("mode, digest", [
        ("exact", "be6ee7f1ce0509d9613e478fa4eda0f35e766f07d29fcdbf3b6db63b169978de"),
        ("rounds", "23a57942aae0008e2154b3731bb842bcebac2a2787632af73a59d93eca2c5247"),
    ])
    def test_final_distribution_sample(self, mode, digest):
        ctx = RoundContext(6, 0.25)
        cutoff = aggregate_cutoff(ctx) if mode == "exact" else None
        edges, classes = final_distribution_sample(ctx, 300, seed=5, mode=mode,
                                                   cutoff=cutoff, classify=True)
        blob = json.dumps([sorted(edges.items()), sorted(classes.items())])
        assert hashlib.sha256(blob.encode()).hexdigest() == digest
