"""The four benchmark workloads: set-up, timed unit, output checks, digest.

Each workload is a class with

* ``setup(sizes)``: the work a user pays before the first timed call
  (contexts, survival models); it is what ``setup_s`` times;
* ``unit(state, seed, call)``: one repetition of the workload's fixed
  work, made only of calls to the public entry points the CLI or the
  acceptance suite use, each routed through ``call`` so it runs under a
  time cap;
* ``ops(state)``: how many ops one repetition attempts;
* ``check(state, seed, out)``: verifies one repetition's outputs against
  the reference routes the package already has (or closed-form walk
  counts for copy counts) and returns (ops failed, messages);
* ``payload(state, out)``: the outputs that go into the digest;
* ``finish(state)``: checks pooled over all repetitions of a run.

Inputs of repetition r are keyed by ``rep_seed(seed, r)``, so the same
``--seed`` gives the same inputs and no repetition reruns another's.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

# Layers are called through their modules (process.run_exact, not a name
# imported from it) so that the tracer's rebinding is seen here too.
from greedygraph import branching, numerics, patterns, predictor, process, rng, slots
from greedygraph.graphcore import EvolvingGraph, bit_indices, num_pairs
from greedygraph.patterns import CATALOG
from greedygraph.process import ProcessParams

MAX_REPS = 1000
MC_SE_TOLERANCE = 5


def rep_seed(seed: int, rep: int) -> int:
    return seed * MAX_REPS + rep


def _maximal_triangle_free(g: EvolvingGraph) -> bool:
    """Every non-adjacent pair has a common neighbour (full process end state)."""
    full = (1 << g.n) - 1
    adj = g.adj
    for u in range(g.n):
        covered = adj[u] | (1 << u)
        for w in bit_indices(adj[u], g.n).tolist():
            covered |= adj[w]
        if covered != full:
            return False
    return True


def _dense(g: EvolvingGraph, dtype) -> np.ndarray:
    a = np.zeros((g.n, g.n), dtype=dtype)
    for u in range(g.n):
        a[u, bit_indices(g.adj[u], g.n)] = 1
    return a


def walk_counts(g: EvolvingGraph) -> dict[str, int]:
    """Copy counts of P3, K13, P4, C4 and C5 from degrees and closed walks.

    Valid on any simple host, triangles included (Harary-Manvel form for
    C5), so they check count_copies on both process and G(n,m) hosts by a
    route that shares no code with it.
    """
    a = _dense(g, np.float64)
    a2 = a @ a
    a3 = np.rint(a2 @ a).astype(np.int64)
    a2 = np.rint(a2).astype(np.int64)
    ai = a.astype(np.int64)
    d = ai.sum(axis=1)
    m = int(d.sum()) // 2
    tr3 = int(np.trace(a3))
    return {
        "P3": int((d * (d - 1) // 2).sum()),
        "K13": int((d * (d - 1) * (d - 2) // 6).sum()),
        # paths of 3 edges: sum over edges of (d_u - 1)(d_v - 1), less 3 per triangle
        "P4": int(((d[:, None] - 1) * (d[None, :] - 1) * ai).sum()) // 2 - tr3 // 2,
        "C4": (int((a2 * a2).sum()) - 2 * int((d * d).sum()) + 2 * m) // 8,
        "C5": (int((a3 * a2).sum()) - 5 * tr3
               - 5 * int(((d - 2) * np.diag(a3)).sum())) // 10,
    }


def c4_count_chunked(g: EvolvingGraph, rows: int = 250) -> int:
    """4-cycles from tr(A^4), with A^2 built a block of rows at a time so
    the check stays small next to the run it checks."""
    a = _dense(g, np.float32)
    d = a.sum(axis=1, dtype=np.float64)
    tr4 = 0
    for i in range(0, g.n, rows):
        block = np.rint(a[i:i + rows] @ a).astype(np.int64)
        tr4 += int((block * block).sum())
    return (tr4 - 2 * int((d * d).sum()) + int(d.sum())) // 8


def _induced(g: EvolvingGraph, k: int) -> EvolvingGraph:
    mask = (1 << k) - 1
    h = EvolvingGraph(k)
    h.adj = [g.adj[u] & mask for u in range(k)]
    h.edge_count = sum(x.bit_count() for x in h.adj) // 2
    return h


def _endpoints(idx: int, n: int) -> tuple[int, int]:
    # plain row walk, independent of graphcore's closed-form decode
    u, row = 0, n - 1
    while idx >= row:
        idx -= row
        u += 1
        row -= 1
    return u, u + 1 + idx


class CampaignN100:
    """Many tiny trials of both process forms through final_distribution_sample
    (acceptance criterion C4, scaled down)."""

    name = "campaign_n100"
    sizes = {
        "full": {"n": 100, "eps": 0.2, "trials": 500, "spot_trials": 10},
        "tiny": {"n": 100, "eps": 0.2, "trials": 20, "spot_trials": 3},
    }

    def setup(self, z):
        ctx = numerics.RoundContext(z["n"], z["eps"])
        return {"z": z, "ctx": ctx, "cutoff": process.aggregate_cutoff(ctx)}

    def unit(self, st, seed, call):
        z = st["z"]
        exact, _ = call(process.final_distribution_sample, st["ctx"], z["trials"], seed,
                        mode="exact", cutoff=st["cutoff"])
        rounds, _ = call(process.final_distribution_sample, st["ctx"], z["trials"], seed,
                         mode="rounds")
        return {"exact": exact, "rounds": rounds}

    def ops(self, st):
        return 2 * st["z"]["trials"]

    def check(self, st, seed, out):
        z, ctx = st["z"], st["ctx"]
        trials, n = z["trials"], ctx.n
        failed, msgs = 0, []
        forms = {"exact": ProcessParams(ctx=ctx, seed=seed, mode="exact", cutoff=st["cutoff"]),
                 "rounds": ProcessParams(ctx=ctx, seed=seed, mode="rounds")}
        for form, params in forms.items():
            counter = out[form]
            bad = abs(sum(counter.values()) - trials)
            # Mantel: a triangle-free graph has at most n^2/4 edges
            bad += sum(c for k, c in counter.items() if not 0 <= k <= n * n // 4)
            # the first trials rerun one by one: each triangle-free, and the
            # campaign's counter holds every final edge count they give
            spot = Counter()
            for t in range(z["spot_trials"]):
                trace = process.run(params, trial=t)
                bad += not trace.graph.audit_triangle_free()
                spot[trace.final_edges] += 1
            bad += sum(max(0, c - counter.get(k, 0)) for k, c in spot.items())
            if bad:
                msgs.append(f"{form}: {bad} trials disagree with their reruns or counts")
            failed += min(bad, trials)
        return failed, msgs

    def payload(self, st, out):
        return {form: sorted(counter.items()) for form, counter in out.items()}

    def finish(self, st):
        return 0, []


class LargeRuns:
    """One lambda-command run (round form at n=5000 with snapshots, then the
    trajectory report) and one simulate-command run (full birth order at
    n=2000)."""

    name = "large_runs"
    sizes = {
        "full": {"rounds_n": 5000, "exact_n": 2000, "eps": 0.1, "sample_size": 2000},
        "tiny": {"rounds_n": 300, "exact_n": 200, "eps": 0.1, "sample_size": 200},
    }

    def setup(self, z):
        return {"z": z, "rounds_ctx": numerics.RoundContext(z["rounds_n"], z["eps"]),
                "exact_ctx": numerics.RoundContext(z["exact_n"], z["eps"])}

    def unit(self, st, seed, call):
        ctx = st["rounds_ctx"]
        trace = call(process.run_rounds, ProcessParams(ctx=ctx, seed=seed,
                                                       record_snapshots=True))
        report = call(slots.check_trajectories, trace, ctx,
                      sample_size=st["z"]["sample_size"], seed=seed)
        full = call(process.run_exact, ProcessParams(ctx=st["exact_ctx"], seed=seed,
                                                     mode="exact"))
        return {"rounds": trace, "report": report, "exact": full}

    def ops(self, st):
        return 3

    def check(self, st, seed, out):
        ctx = st["rounds_ctx"]
        n, m = ctx.n, num_pairs(ctx.n)
        trace, report, full = out["rounds"], out["report"], out["exact"]
        msgs = []

        g = trace.graph
        totals = [r.total_edges for r in trace.per_round]
        ok_rounds = (g.audit_triangle_free()
                     and len(trace.per_round) == ctx.rounds_total
                     and len(trace.snapshots) == ctx.rounds_total + 1
                     and [s.edge_count for s in trace.snapshots[1:]] == totals
                     and totals[-1] == g.edge_count
                     and sum(r.added for r in trace.per_round) == g.edge_count
                     and sum(r.birthed for r in trace.per_round) == g.birthed_count)
        if not ok_rounds:
            msgs.append("round-form run: a triangle or inconsistent per-round records")

        size = min(st["z"]["sample_size"], m)
        ok_report = (len(report.rounds) == ctx.rounds_total + 1
                     and report.rounds[0].max_closed == 0
                     and all(r.sampled == size and 0 <= r.non_birthed <= size
                             and all(0.0 <= f <= 1.0 for f in (*r.half_within.values(),
                                                                *r.fully_within.values()))
                             for r in report.rounds))
        if ok_report:
            # the last round's sample redrawn and recounted directly
            last = ctx.rounds_total
            snap = trace.snapshots[last]
            gen = rng.stream(seed, 0, round_=last, purpose=rng.SAMPLE)
            max_closed = non_birthed = 0
            for idx in gen.choice(m, size=size, replace=False).tolist():
                u, v = _endpoints(idx, n)
                max_closed = max(max_closed, (snap.adj[u] & snap.adj[v]).bit_count())
                non_birthed += not (snap.birthed_adj[u] >> v) & 1
            ok_report = (report.rounds[last].max_closed == max_closed
                         and report.rounds[last].non_birthed == non_birthed)
        if not ok_report:
            msgs.append("trajectory report disagrees with a direct recount")

        fg = full.graph
        ok_exact = (fg.audit_triangle_free() and _maximal_triangle_free(fg)
                    and fg.birthed_count == num_pairs(fg.n)
                    and full.per_round[0].added == fg.edge_count)
        if not ok_exact:
            msgs.append("birth-order run: not a maximal triangle-free graph")
        return 3 - ok_rounds - ok_report - ok_exact, msgs

    def payload(self, st, out):
        return {"rounds": [[r.i, r.birthed, r.added, r.total_edges]
                           for r in out["rounds"].per_round],
                "report": out["report"].to_json_dict(),
                "exact": [out["exact"].final_edges, out["exact"].graph.birthed_count]}

    def finish(self, st):
        return 0, []


class CountN300:
    """compare-gnm for five patterns at n=300, plus predict for C4 on one
    n=2000 process host."""

    name = "count_n300"
    patterns = ("P3", "C4", "P4", "K13", "C5")
    sizes = {
        "full": {"n": 300, "eps": 0.1, "trials": 1, "big_n": 2000, "small_n": 40},
        "tiny": {"n": 60, "eps": 0.1, "trials": 1, "big_n": 200, "small_n": 20},
    }

    def setup(self, z):
        return {"z": z, "ctx": numerics.RoundContext(z["n"], z["eps"]),
                "big_ctx": numerics.RoundContext(z["big_n"], z["eps"]),
                "patterns": {p: CATALOG[p] for p in self.patterns}}

    def unit(self, st, seed, call):
        trials = st["z"]["trials"]
        reports = {p: call(predictor.compare_with_gnm, pat, st["ctx"], trials, seed, jobs=1)
                   for p, pat in st["patterns"].items()}
        big = call(predictor.run_prediction_campaign, CATALOG["C4"], st["big_ctx"], 1, seed,
                   jobs=1)
        return {"reports": reports, "big": big}

    def ops(self, st):
        return 2 * len(st["patterns"]) * st["z"]["trials"] + 1

    def check(self, st, seed, out):
        z, ctx = st["z"], st["ctx"]
        reports = out["reports"]
        failed, msgs = 0, []
        m = predictor.gnm_edge_target(ctx.n, ctx.eps)
        with_triangle = 0
        for t in range(z["trials"]):
            hosts = {
                "process": process.run_rounds(ProcessParams(ctx=ctx, seed=seed), trial=t).graph,
                "gnm": predictor.sample_gnm(ctx.n, m, rng.stream(seed, t, purpose=rng.GNM)),
            }
            with_triangle += not hosts["gnm"].audit_triangle_free()
            for kind, host in hosts.items():
                ref = walk_counts(host)
                small = _induced(host, z["small_n"])
                host_ok = kind == "gnm" or host.audit_triangle_free()
                for p, pat in st["patterns"].items():
                    rep = reports[p]
                    got = rep.counts[t] if kind == "process" else rep.gnm["counts"][t]
                    small_ok = (patterns.count_copies(small, pat)
                                == patterns.count_embeddings(small, pat) // pat.aut)
                    if not (host_ok and small_ok and got == ref[p]):
                        failed += 1
                        msgs.append(f"{p} on {kind} host {t}: count {got}, reference {ref[p]}")
        for p in st["patterns"]:
            if reports[p].gnm["samples_with_triangle"] != with_triangle:
                failed += 1
                msgs.append(f"{p}: G(n,m) triangle flags disagree with the audit")
        big_host = process.run_rounds(ProcessParams(ctx=st["big_ctx"], seed=seed)).graph
        big_count = out["big"].counts[0]
        if not (big_host.audit_triangle_free() and big_count == c4_count_chunked(big_host)):
            failed += 1
            msgs.append(f"C4 on the n={big_host.n} host: count {big_count}, reference differs")
        return min(failed, self.ops(st)), msgs

    def payload(self, st, out):
        data = {p: [r.counts, r.gnm["counts"], r.gnm["samples_with_triangle"]]
                for p, r in out["reports"].items()}
        data["C4_big"] = out["big"].counts
        return data

    def finish(self, st):
        return 0, []


class SurvivalMC:
    """Survival curves at the middle round of RoundContext(10**6, 0.1) and the
    Monte Carlo grid of acceptance criterion C7."""

    name = "survival_mc"
    _common = {"n": 10 ** 6, "eps": 0.1, "depth": 40, "scales": (4, 16, 64, 256),
               "mc_scales": (4, 8, 16), "mc_depths": (4, 6, 8)}
    sizes = {"full": {**_common, "trees": 1000}, "tiny": {**_common, "trees": 40}}

    def setup(self, z):
        ctx = numerics.RoundContext(z["n"], z["eps"])
        c = ctx.with_round(ctx.rounds_total // 2)
        make = branching.SurvivalModel.make
        return {"z": z, "ctx": c,
                "models": {k: make(c, scale=k, depth=z["depth"]) for k in z["scales"]},
                "cells": {(k, d): make(c, scale=k, depth=d)
                          for k in z["mc_scales"] for d in z["mc_depths"]},
                "survivors": Counter(), "trees": Counter(), "reps": 0}

    def unit(self, st, seed, call):
        z, c = st["z"], st["ctx"]
        exact = call(branching.exact_curve, c)
        levels = call(branching.limit_recursion, c, depth=z["depth"])
        finite = {k: call(branching.finite_recursion, mod) for k, mod in st["models"].items()}
        mc = {(k, d): call(branching.simulate_tree, mod, c.delta, trials=z["trees"],
                           seed=seed * 10_000 + 100 * k + d)
              for (k, d), mod in st["cells"].items()}
        return {"exact": exact, "limit": levels, "finite": finite, "mc": mc}

    def ops(self, st):
        return 2 + len(st["models"]) + len(st["cells"])

    def check(self, st, seed, out):
        depth = st["z"]["depth"]
        limit = out["limit"][depth].p
        msgs = []
        # acceptance C6: depth-40 recursion within 1e-8 of the closed form
        ok_limit = float(np.max(np.abs(limit - out["exact"].p))) <= 1e-8
        if not ok_limit:
            msgs.append("limit recursion at depth 40 is more than 1e-8 from the closed form")
        # acceptance C8: finite-scale gaps shrink, to at most 2/k at the largest k
        gaps = [abs(float(out["finite"][k][depth].p[-1]) - float(limit[-1]))
                for k in st["z"]["scales"]]
        ok_finite = (all(a > b for a, b in zip(gaps, gaps[1:]))
                     and gaps[-1] <= 2.0 / st["z"]["scales"][-1])
        if not ok_finite:
            msgs.append(f"finite-scale gaps do not shrink to the limit: {gaps}")
        bad_cells = 0
        for key, est in out["mc"].items():
            bad_cells += not 0 <= est.survivors <= est.trials
            st["survivors"][key] += est.survivors
            st["trees"][key] += est.trials
        st["reps"] += 1
        failed = 2 * (not ok_limit) + len(gaps) * (not ok_finite) + bad_cells
        return failed, msgs

    def payload(self, st, out):
        depth = st["z"]["depth"]
        return {"exact": [float(out["exact"].p[-1]), float(out["exact"].cum[-1])],
                "limit": float(out["limit"][depth].p[-1]),
                "finite": [float(out["finite"][k][depth].p[-1]) for k in st["z"]["scales"]],
                "survivors": [[k, d, e.survivors] for (k, d), e in out["mc"].items()]}

    def finish(self, st):
        """Acceptance C7 on the pooled trees: each cell within 5 se of the
        finite recursion.  A failing cell fails that cell in every repetition.

        C7 itself uses 4 se on fixed seeds.  Here every run draws new trees,
        and 4 se on 9 cells fails correct code on about 1 run in 1,750; 5 se
        makes that about 1 in 200,000, while a 1% bias in a cell still
        shows (5 se is about 0.7% at the ~90,000 trees of a full run)."""
        failed, msgs = 0, []
        for (k, d), mod in st["cells"].items():
            trees = st["trees"][(k, d)]
            if not trees:
                continue
            mean = st["survivors"][(k, d)] / trees
            se = math.sqrt(mean * (1.0 - mean) / trees)
            expect = float(branching.finite_recursion(mod)[d].p[-1])
            if abs(mean - expect) > MC_SE_TOLERANCE * se:
                failed += st["reps"]
                msgs.append(f"k={k}, depth={d}: Monte Carlo {mean:.5f} vs recursion "
                            f"{expect:.5f} over {trees} trees, more than "
                            f"{MC_SE_TOLERANCE} se")
        return failed, msgs


WORKLOADS = {w.name: w for w in (CampaignN100(), LargeRuns(), CountN300(), SurvivalMC())}
