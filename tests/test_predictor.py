import concurrent.futures
import math
import os
from math import comb, sqrt

import pytest

from greedygraph import graphcore, predictor, rng
from greedygraph.graphcore import EvolvingGraph, num_pairs
from greedygraph.numerics import RoundContext
from greedygraph.patterns import CATALOG, PatternGraph
from greedygraph.predictor import (compare_with_gnm,
                                   gnm_edge_target, predict_copies,
                                   predict_copies_log_form,
                                   map_trials, run_prediction_campaign, sample_gnm)
from reference import forbid_streams, host, pairs, traced_peak


class TestPredictCopies:
    def test_single_edge_formula(self):
        ctx = RoundContext(2000, 0.1)
        expect = comb(2000, 2) * float(ctx.traj[ctx.rounds_total]) / sqrt(2000)
        assert predict_copies(CATALOG["K2"], ctx) == pytest.approx(expect, rel=1e-9)

    def test_four_cycle_formula(self):
        ctx = RoundContext(2000, 0.1)
        f = float(ctx.traj[ctx.rounds_total]) / sqrt(2000)
        expect = 3 * comb(2000, 4) * f ** 4
        # lgamma-based evaluation differs from the direct product at ~1e-12
        assert predict_copies(CATALOG["C4"], ctx) == pytest.approx(expect, rel=1e-9)

    def test_rejects_triangle_patterns(self):
        tri = PatternGraph.from_edges([(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError):
            predict_copies(tri, RoundContext(100, 0.2))

    def test_monotone_in_n_and_eps(self):
        vals_n = [predict_copies(CATALOG["C4"], RoundContext(n, 0.1))
                  for n in (500, 1000, 2000, 4000, 8000)]
        assert vals_n == sorted(vals_n)
        vals_eps = [predict_copies(CATALOG["C4"], RoundContext(4000, e))
                    for e in (0.05, 0.1, 0.2, 0.3)]
        assert vals_eps == sorted(vals_eps)

    def test_two_disjoint_edges_vs_squared_single(self):
        # unordered disjoint pairs carry a 1/2 against the squared count
        two = PatternGraph.from_edges([(0, 1), (2, 3)], name="2K2")
        for n in (1000, 4000, 20000):
            ctx = RoundContext(n, 0.1)
            ratio = 2 * predict_copies(two, ctx) / predict_copies(CATALOG["K2"], ctx) ** 2
            assert abs(ratio - 1) <= 10 / n

    def test_log_form_far_from_sharp_at_desk_scale(self):
        # the log-asymptotic variant undershoots substantially at these n
        ctx = RoundContext(2000, 0.1)
        sharp = predict_copies(CATALOG["K2"], ctx)
        logf = predict_copies_log_form(CATALOG["K2"], ctx)
        assert logf < sharp
        assert 0.5 < logf / sharp < 0.95


class TestGnmSampler:
    def test_exact_edge_budget(self):
        m = gnm_edge_target(2000, 0.1)
        assert m == math.floor(0.5 * 2000 ** 1.5 * sqrt(0.1 * math.log(2000)))
        g = sample_gnm(200, 500, rng.stream(1, purpose=rng.GNM))
        assert g.edge_count == 500

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            sample_gnm(10, num_pairs(10) + 1, rng.stream(1))

    def test_dense_samples_have_triangles(self):
        n = 200
        m = int(n ** 1.5)
        for t in range(20):
            g = sample_gnm(n, m, rng.stream(5, t, purpose=rng.GNM))
            assert not g.audit_triangle_free()

    def test_uniform_pair_marginals(self):
        # each pair appears with probability m / C(n,2); 4 sigma band on a
        # fixed pair over repeated samples
        n, m, reps = 30, 100, 2000
        hits = sum(sample_gnm(n, m, rng.stream(9, t, purpose=rng.GNM)).adj[3] >> 17 & 1
                   for t in range(reps))
        p = m / num_pairs(n)
        sigma = sqrt(p * (1 - p) / reps)
        assert abs(hits / reps - p) <= 4 * sigma


def _gnm_on_int_rows(n: int, m: int, gen) -> EvolvingGraph:
    """The reference host: the same draw, its pairs set one by one in int rows."""
    ids = gen.choice(num_pairs(n), size=m, replace=False)
    return host(n, map(pairs(n).__getitem__, ids.tolist()))


class _NoDraws:
    def __getattr__(self, name):
        raise AssertionError(f"drew ({name}) before the memory check")


class TestGnmHost:
    @pytest.mark.parametrize("n, m", [(1, 0), (40, 0), (40, 300), (40, num_pairs(40)),
                                      (130, 2000), (300, gnm_edge_target(300, 0.1))])
    def test_equals_per_edge_construction(self, n, m):
        g = sample_gnm(n, m, rng.stream(3, n, purpose=rng.GNM))
        ref = _gnm_on_int_rows(n, m, rng.stream(3, n, purpose=rng.GNM))
        assert g.adj == ref.adj
        assert g.edge_count == ref.edge_count == m
        assert g.birthed_adj == [0] * n and g.birthed_count == 0

    @pytest.mark.parametrize("n, m", [(300, gnm_edge_target(300, 0.1)),
                                      (2000, gnm_edge_target(2000, 0.1)),
                                      (2000, num_pairs(2000) // 50 + 1)])
    def test_estimate_bounds_traced_peak(self, n, m):
        # the last size tail-shuffles all C(n,2) ids, the others run Floyd's
        # algorithm; the estimate adds up phases that never coexist, so it
        # stays within twice the peak
        sample_gnm(40, 300, rng.stream(1, purpose=rng.GNM))  # warm the caches first
        gen = rng.stream(1, purpose=rng.GNM)
        _, peak = traced_peak(sample_gnm, n, m, gen)
        assert peak <= predictor._gnm_bytes(n, m) <= 2 * peak

    def test_refused_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(graphcore, "physical_memory", lambda: 1 << 20)
        forbid_streams(monkeypatch)
        m = gnm_edge_target(2000, 0.1)
        with pytest.raises(ValueError, match=fr"memory bound: a G\(n, m\) sample at "
                                             fr"n=2000, m={m} needs about 3 MiB"):
            sample_gnm(2000, m, _NoDraws())


class TestCampaigns:
    def test_report_fields_and_ratio(self):
        ctx = RoundContext(150, 0.2)
        rep = run_prediction_campaign(CATALOG["P3"], ctx, trials=6, seed=3)
        assert rep.trials == 6
        assert rep.ratio == pytest.approx(rep.empirical_mean / rep.predicted)
        assert len(rep.counts) == 6
        d = rep.to_json_dict()
        assert {"pattern", "n", "eps", "trials", "predicted", "empirical_mean",
                "empirical_sd", "ratio", "ratio_se"} <= set(d)

    def test_deterministic_campaign(self):
        ctx = RoundContext(120, 0.2)
        a = run_prediction_campaign(CATALOG["C4"], ctx, trials=4, seed=8)
        b = run_prediction_campaign(CATALOG["C4"], ctx, trials=4, seed=8)
        assert a.counts == b.counts

    def test_compare_with_gnm_fields(self):
        ctx = RoundContext(150, 0.2)
        rep = compare_with_gnm(CATALOG["C4"], ctx, trials=4, seed=2)
        assert rep.gnm is not None
        assert rep.gnm["m"] == gnm_edge_target(150, 0.2)
        assert rep.gnm["samples"] == 4
        assert len(rep.gnm["counts"]) == 4
        d = rep.to_json_dict()
        assert "gnm" in d

    def test_process_graphs_never_have_triangles(self):
        # the triangle clause of the comparison is structural
        from greedygraph.process import ProcessParams, run_rounds
        ctx = RoundContext(150, 0.2)
        for t in range(5):
            tr = run_rounds(ProcessParams(ctx=ctx, seed=42), trial=t)
            assert tr.graph.audit_triangle_free()


def test_log_form_consistency_ratio_is_far_from_one_here():
    # the squared trajectory endpoint over ln(n**eps) tends to 1 only like
    # 1 + ln(2 sqrt(ln k))/ln k; at n=1e6, eps=0.1 (k=3) it measures ~1.35
    ctx = RoundContext(10 ** 6, 0.1)
    ratio = float(ctx.traj[ctx.rounds_total]) ** 2 / (0.1 * math.log(10 ** 6))
    assert ratio == pytest.approx(1.347, abs=0.005)


def _square(x, t):
    return x * t * t


@pytest.mark.parametrize("jobs, trials, cpus, workers", [
    (64, 3, 4, 3),       # capped by the trial count
    (64, 100, 4, 4),     # capped by the CPU count
    (3, 100, 4, 3),      # the requested count when it is the smallest
    (2, 1, 4, None),     # one trial: in-process
    (8, 50, 1, None),    # one CPU: in-process
    (2, 100_000, 4, 2),  # a large campaign: a few tasks per worker
])
def test_map_trials_caps_workers(monkeypatch, jobs, trials, cpus, workers):
    created = []
    tasks = []

    class RecordingPool:
        """Stands in for the process pool: records the worker count and the
        number of tasks the trials are cut into, and runs them in-process,
        so no process is started."""

        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            items = list(items)
            tasks.append(-(-len(items) // chunksize))
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert map_trials(_square, (2,), trials, jobs) == [2 * t * t for t in range(trials)]
    assert created == ([] if workers is None else [workers])
    if workers is None:
        assert tasks == []
    else:
        # about four tasks per worker, whatever the trial count
        assert len(tasks) == 1 and tasks[0] <= 4 * workers
