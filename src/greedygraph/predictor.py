"""Closed-form copy-count predictions and simulation comparisons.

The expected number of unlabelled copies of a triangle-free pattern F in
the final round-form graph is predicted as

    (v_F! / aut(F)) * C(n, v_F) * (traj(rounds * step) / sqrt(n))**e_F

(the sharp form).  The log-asymptotic variant replaces traj(rounds*step)
by sqrt(ln(n**eps)) and is reported alongside for reference; at
simulation scale the sharp form is substantially more accurate.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Optional

import numpy as np

from . import rng
from .graphcore import EvolvingGraph, check_memory, choice_bytes, num_pairs, pair_rows
from .numerics import RoundContext
from .patterns import PatternGraph, count_copies
from .process import ProcessParams, run_rounds


def _log_binomial(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _predict(pattern: PatternGraph, ctx: RoundContext, log_traj: float) -> float:
    """(v_F! / aut(F)) * C(n, v_F) * (t / sqrt(n))**e_F, given ln t."""
    if not pattern.triangle_free:
        raise ValueError(f"pattern {pattern.name} contains a triangle; "
                         "its copy count in the final graph is identically 0")
    n = ctx.n
    if pattern.v > n:
        raise ValueError(f"pattern {pattern.name} has {pattern.v} vertices, more than n={n}")
    log_pred = (math.lgamma(pattern.v + 1) - math.log(pattern.aut)
                + _log_binomial(n, pattern.v)
                + pattern.e * (log_traj - 0.5 * math.log(n)))
    return math.exp(log_pred)


def predict_copies(pattern: PatternGraph, ctx: RoundContext) -> float:
    """Sharp prediction for the mean copy count in the final graph."""
    return _predict(pattern, ctx, math.log(float(ctx.traj[ctx.rounds_total])))


def predict_copies_log_form(pattern: PatternGraph, ctx: RoundContext) -> float:
    """Log-asymptotic variant: (ln n**eps / n)**(e_F/2) in place of the
    sharp trajectory factor."""
    return _predict(pattern, ctx, 0.5 * math.log(ctx.eps * math.log(ctx.n)))


def gnm_edge_target(n: int, eps: float) -> int:
    """Edge budget floor(n**1.5 * sqrt(ln n**eps) / 2) for the uniform
    comparison graph."""
    return int(math.floor(0.5 * n ** 1.5 * math.sqrt(eps * math.log(n))))


def _gnm_bytes(n: int, m: int) -> int:
    """Peak bytes of ``sample_gnm(n, m, ...)``: the draw of m distinct pair
    ids (``choice_bytes``), then about 48 bytes per edge for decoding and
    setting bits, and the graph's word rows, 8 bytes per word."""
    return choice_bytes(num_pairs(n), m) + 48 * m + 8 * n * ((n + 63) // 64)


def sample_gnm(n: int, m: int, gen: np.random.Generator) -> EvolvingGraph:
    """Uniform graph with exactly m edges on n labelled vertices, none of its
    pairs traversed.  The memory bound is checked before any draw; the
    sampled pairs are set in the graph's word rows (``pair_rows``)."""
    total = num_pairs(n)
    if not 0 <= m <= total:
        raise ValueError(f"m={m} outside [0, {total}]")
    check_memory(_gnm_bytes(n, m), f"a G(n, m) sample at n={n}, m={m}")
    g = EvolvingGraph(n)
    g.words = pair_rows(gen.choice(total, size=m, replace=False), n)
    g.edge_count = m
    return g


@dataclass
class PredictionReport:
    pattern: str
    n: int
    eps: float
    trials: int
    predicted: float
    predicted_log_form: float
    empirical_mean: float
    empirical_sd: float
    ratio: float
    ratio_se: float
    counts: list[int] = field(default_factory=list, repr=False)
    gnm: Optional[dict] = None

    def to_json_dict(self) -> dict:
        """Every field but ``counts``, and ``gnm`` only when it is set."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "counts" and (f.name != "gnm" or self.gnm is not None)}


def _mean_sd(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    return mean, sd


def copy_count_trial(pattern: PatternGraph, ctx: RoundContext, seed: int,
                     trial: int) -> int:
    trace = run_rounds(ProcessParams(ctx=ctx, seed=seed, mode="rounds"), trial=trial)
    return count_copies(trace.graph, pattern)


def run_prediction_campaign(pattern: PatternGraph, ctx: RoundContext, trials: int,
                            seed: int, jobs: int = 1) -> PredictionReport:
    """Simulate the round process ``trials`` times and compare the mean copy
    count with the sharp prediction.  The predictions come first, so a
    pattern they refuse (one with a triangle) costs no simulation."""
    predicted = predict_copies(pattern, ctx)
    log_form = predict_copies_log_form(pattern, ctx)
    counts = map_trials(copy_count_trial, (pattern, ctx, seed), trials, jobs)
    mean, sd = _mean_sd(counts)
    return PredictionReport(
        pattern=pattern.name, n=ctx.n, eps=ctx.eps, trials=trials,
        predicted=predicted, predicted_log_form=log_form,
        empirical_mean=mean, empirical_sd=sd,
        ratio=mean / predicted,
        ratio_se=(sd / math.sqrt(trials) / predicted) if trials > 1 else 0.0,
        counts=[int(c) for c in counts],
    )


def gnm_copy_trial(pattern: PatternGraph, n: int, m: int, seed: int,
                   trial: int) -> tuple[int, bool]:
    gen = rng.stream(seed, trial, purpose=rng.GNM)
    g = sample_gnm(n, m, gen)
    return count_copies(g, pattern), not g.audit_triangle_free()


def compare_with_gnm(pattern: PatternGraph, ctx: RoundContext, trials: int,
                     seed: int, jobs: int = 1) -> PredictionReport:
    """Round-process campaign paired with uniform-graph sampling at the
    matching log-asymptotic edge budget; the uniform samples' triangle
    presence is recorded alongside the copy counts."""
    report = run_prediction_campaign(pattern, ctx, trials, seed, jobs=jobs)
    m = gnm_edge_target(ctx.n, ctx.eps)
    results = map_trials(gnm_copy_trial, (pattern, ctx.n, m, seed), trials, jobs)
    gnm_counts = [r[0] for r in results]
    with_triangle = sum(1 for r in results if r[1])
    gmean, gsd = _mean_sd(gnm_counts)
    report.gnm = {
        "m": m,
        "mean": gmean,
        "sd": gsd,
        # JSON has no NaN: with no process copies the ratio is null
        "ratio_vs_process": gmean / report.empirical_mean if report.empirical_mean else None,
        "samples_with_triangle": with_triangle,
        "samples": trials,
        "counts": [int(c) for c in gnm_counts],
    }
    return report


def map_trials(fn, args: tuple, trials: int, jobs: int) -> list:
    """Run fn(*args, trial) for trial in range(trials); reduction is in
    trial order regardless of scheduling.

    Workers are capped at the trial count and the CPU count, since the pool
    starts every worker up front; with one worker the trials run in-process.
    Trials go to the workers in about four chunks per worker, so a campaign
    of any size makes a handful of futures, not one per trial.
    """
    workers = min(jobs, trials, os.cpu_count() or 1)
    if workers <= 1:
        return [fn(*args, t) for t in range(trials)]
    from concurrent.futures import ProcessPoolExecutor
    chunksize = -(-trials // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(partial(fn, *args), range(trials), chunksize=chunksize))
