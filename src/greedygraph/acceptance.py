"""Acceptance suite: every shipping criterion as one callable check.

A criterion is one function decorated with ``_criterion``, which states its
id, title, profile and budget and registers it in ``CRITERIA``; the function
records its sub-checks on a ``_Check`` and returns its measured values, and
the registered wrapper times it and returns a CriterionResult.  The runner
prints one line per criterion and aggregates an exit code.  The quick
profile covers everything that runs in seconds to a couple of minutes; the
full profile adds the long simulation campaigns.

Stated runtime budgets are recorded as informational: pass/fail is decided
by the numeric tolerances only.

Four checks assert asymptotic bands that are provably or measurably
out of reach at these instance sizes; they are implemented as stated and
left failing, with the measured values in their details:

  * C1: trajectory(1e6)/sqrt(ln 1e6) = 1.0713, outside [0.95, 1.05]
    (the sqrt-log form converges like sqrt(ln x + ln(2 sqrt(ln x)))).
  * C10: the +/- 5*window bands are ~1e-9 wide at n=5000 while per-pair
    fluctuations are Theta(n^{-1/2}); the half-open cap i*sqrt(n) is also
    exceeded by ~2% of pairs at round 1.
  * C11: the deviation of the edge-count ratio is not monotone in n
    because floor(n**eps) jumps from 1 to 2 inside the stated n range.
  * C13: the uniform-graph edge budget uses the log-asymptotic form while
    the process tracks the sharp trajectory form; their 4-cycle means
    differ by a factor ~3 at n=2000.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import wraps
from itertools import combinations
from math import sqrt

import numpy as np

from .branching import (SurvivalModel, exact_curve, exact_point, finite_recursion,
                        limit_recursion, simulate_tree)
from .numerics import HALF_SQRT_PI, RoundContext, erfi, round_slope, trajectory
from .patterns import CATALOG, variance_margin
from .predictor import compare_with_gnm
from .process import (ProcessParams, aggregate_cutoff, exhaustive_oracle,
                      final_distribution_sample, normalize_counter,
                      predicted_final_edges, run_rounds, tv_distance)
from .slots import check_trajectories

SURROGATE_N = 10 ** 6
SURROGATE_EPS = 0.1


@dataclass
class CriterionResult:
    cid: int
    title: str
    profile: str                      # "quick" | "full"
    passed: bool
    elapsed_s: float
    budget_s: float
    details: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {"id": self.cid, "title": self.title, "profile": self.profile,
                "passed": self.passed, "elapsed_s": round(self.elapsed_s, 3),
                "budget_s": self.budget_s, "details": self.details,
                "failures": self.failures}

    def verdict(self) -> str:
        """The report's line for this criterion, then one line per failure."""
        status = "PASS" if self.passed else "FAIL"
        return "\n".join([f"[{status}] C{self.cid:02d} {self.title} ({self.elapsed_s:.1f}s)"]
                         + [f"       - {f}" for f in self.failures])


class _Check:
    """Collects named sub-checks so a criterion reports every failure."""

    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok: bool, msg: str) -> bool:
        if not ok:
            self.failures.append(msg)
        return ok


CRITERIA: dict = {}


def _criterion(cid: int, title: str, profile: str, budget_s: float):
    """Register the decorated ``check(ck, seed) -> details`` as CRITERIA[cid].

    Calling ``CRITERIA[cid](seed=...)`` runs the check with a fresh
    ``_Check``, times it and returns its CriterionResult; the registered
    function's ``profile`` attribute is the criterion's profile."""
    def register(check):
        @wraps(check)
        def run(seed: int = 0) -> CriterionResult:
            ck = _Check()
            t0 = time.perf_counter()
            details = check(ck, seed)
            return CriterionResult(cid, title, profile, not ck.failures,
                                   time.perf_counter() - t0, budget_s, details, ck.failures)
        run.profile = profile
        CRITERIA[cid] = run
        return run
    return register


@_criterion(1, "trajectory inversion identity and asymptotic band", "quick", 1.0)
def criterion_01(ck: _Check, seed: int) -> dict:
    """Inversion identity on a log grid plus the sqrt-log asymptotic band."""
    xs = np.logspace(-6, math.log10(50.0), 1000)
    worst = 0.0
    for x in xs:
        x = float(x)
        z = trajectory(x)
        worst = max(worst, abs(HALF_SQRT_PI * erfi(z) - x) / max(1.0, x))
    ck.expect(worst <= 1e-12,
              f"inverse residual {worst:.3e} exceeds 1e-12 on [1e-6, 50]")
    ratio = trajectory(1e6) / math.sqrt(math.log(1e6))
    ck.expect(0.95 <= ratio <= 1.05,
              f"trajectory(1e6)/sqrt(ln 1e6) = {ratio:.4f} outside [0.95, 1.05]; "
              "the inversion itself is correct to 1e-12, the sqrt-log form is "
              "still 7% away at x=1e6")
    return {"worst_residual": worst, "asymptotic_ratio": ratio}


@_criterion(2, "exhaustive oracle n=4 vs simulation", "quick", 30.0)
def criterion_02(ck: _Check, seed: int) -> dict:
    """n=4 exhaustive distribution vs 1e5 birth-order simulations."""
    oracle = exhaustive_oracle(4)
    trials = 100_000
    ctx = RoundContext(4, 0.2)
    _, classes = final_distribution_sample(ctx, trials, seed=seed, mode="exact",
                                           classify=True)
    emp = normalize_counter(classes)
    details = {"oracle": {k: float(v) for k, v in oracle.class_probs.items()},
               "empirical": emp, "trials": trials}
    for name, p in oracle.class_probs.items():
        p = float(p)
        sigma = sqrt(p * (1 - p) / trials)
        got = emp.get(name, 0.0)
        ck.expect(abs(got - p) <= 3 * sigma,
                  f"class {name}: |{got:.5f} - {p:.5f}| > 3 sigma ({3 * sigma:.5f})")
    ck.expect(set(emp) <= set(oracle.class_probs),
              f"unexpected outcome classes: {sorted(emp)}")
    return details


@_criterion(3, "exhaustive oracle n=5 vs simulation", "full", 600.0)
def criterion_03(ck: _Check, seed: int) -> dict:
    """n=5 exact edge-count distribution vs 1e6 simulations, TV <= 0.01."""
    oracle = exhaustive_oracle(5)
    trials = 1_000_000
    ctx = RoundContext(5, 0.2)
    counts, _ = final_distribution_sample(ctx, trials, seed=seed, mode="exact")
    tv = tv_distance(normalize_counter(counts), oracle.edge_count_probs)
    ck.expect(tv <= 0.01, f"TV distance {tv:.5f} > 0.01")
    return {"tv": tv, "trials": trials,
            "oracle": {str(k): float(v) for k, v in oracle.edge_count_probs.items()},
            "empirical": {str(k): v for k, v in sorted(normalize_counter(counts).items())}}


@_criterion(4, "round/birth-order distributional equivalence", "quick", 120.0)
def criterion_04(ck: _Check, seed: int) -> dict:
    """Round form vs birth-order form with the matching cutoff (n=100, k=2).
    Both go through ``process._draw`` with one share, so the TV compares two
    samples of one law; ``test_round_form_campaign_matches_reference_route``
    checks the round form against the per-round draw it replaced."""
    ctx = RoundContext(100, 0.2)
    ck.expect(ctx.k == 2,
              f"RoundContext(100, 0.2) has k={ctx.k}; the criterion is stated for k=2")
    trials = 100_000
    cutoff = aggregate_cutoff(ctx)
    exact_counts, _ = final_distribution_sample(ctx, trials, seed=seed,
                                                mode="exact", cutoff=cutoff)
    round_counts, _ = final_distribution_sample(ctx, trials, seed=seed + 1,
                                                mode="rounds")
    tv = tv_distance(normalize_counter(exact_counts),
                     normalize_counter(round_counts))
    ck.expect(tv <= 0.02, f"TV distance {tv:.5f} > 0.02")
    return {"tv": tv, "cutoff": cutoff, "trials": trials}


def _simpson(xs: np.ndarray, ys: np.ndarray) -> float:
    # composite Simpson on an odd-length uniform grid
    if len(xs) % 2 == 0:
        raise ValueError("need an odd number of points")
    h = xs[1] - xs[0]
    return float(h / 3.0 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum()))


def _surrogate_rounds(ctx: RoundContext) -> list[int]:
    return [0, ctx.rounds_total // 2, ctx.rounds_total]


@_criterion(5, "closed-form fixed point and endpoint identities", "quick", 5.0)
def criterion_05(ck: _Check, seed: int) -> dict:
    """Closed form satisfies the depth-free equation; endpoints re-checked
    by independent quadrature."""
    ctx = RoundContext(SURROGATE_N, SURROGATE_EPS)
    details = {}
    for i in _surrogate_rounds(ctx):
        c = ctx.with_round(i)
        curve = exact_curve(c, grid=1024)
        t_i = float(c.traj[i])
        d_i = float(c.density[i])
        resid = float(np.max(np.abs(
            curve.p - np.exp(-2 * t_i * d_i * curve.cum - (d_i * curve.cum) ** 2))))
        ck.expect(resid <= 1e-10, f"i={i}: fixed-point residual {resid:.2e} > 1e-10")
        # endpoint identities, re-verified by Simpson quadrature of p
        fine = exact_curve(c, grid=1025)
        quad = _simpson(fine.x, fine.p)
        P_end, p_end = exact_point(c, c.delta)
        ck.expect(abs(quad - P_end) <= 1e-8,
                  f"i={i}: quadrature {quad:.12f} vs cumulative {P_end:.12f}")
        t_next = trajectory((i + 1) * c.delta)
        ck.expect(abs(P_end - (t_next - t_i) / d_i) <= 1e-12,
                  f"i={i}: cumulative endpoint mismatch")
        ck.expect(abs(p_end - math.exp(t_i * t_i - t_next * t_next)) <= 1e-12,
                  f"i={i}: pointwise endpoint mismatch")
        details[f"i={i}"] = {"residual": resid, "quad_gap": abs(quad - P_end)}
    return details


@_criterion(6, "depth recursion convergence and sandwich", "quick", 10.0)
def criterion_06(ck: _Check, seed: int) -> dict:
    """Depth-40 convergence to the closed form and the odd/even sandwich."""
    ctx = RoundContext(SURROGATE_N, SURROGATE_EPS)
    details = {}
    for i in _surrogate_rounds(ctx):
        c = ctx.with_round(i)
        levels = limit_recursion(c, depth=60)
        exact = exact_curve(c, grid=len(levels[0].x))
        gap = float(np.max(np.abs(levels[40].p - exact.p)))
        ck.expect(gap <= 1e-8, f"i={i}: |p_40 - p| = {gap:.2e} > 1e-8")
        # sandwich vs the closed form, within the same uniform tolerance
        worst_odd = max(float(np.max(levels[2 * j + 1].p - exact.p)) for j in range(20))
        worst_even = max(float(np.max(exact.p - levels[2 * j].p)) for j in range(21))
        ck.expect(worst_odd <= 1e-8,
                  f"i={i}: odd level exceeds closed form by {worst_odd:.2e}")
        ck.expect(worst_even <= 1e-8,
                  f"i={i}: even level dips below closed form by {worst_even:.2e}")
        # structural sandwich against the converged grid fixed point is exact
        fix = levels[60].p
        s_odd = max(float(np.max(levels[2 * j + 1].p - fix)) for j in range(20))
        s_even = max(float(np.max(fix - levels[2 * j].p)) for j in range(21))
        ck.expect(s_odd <= 1e-12 and s_even <= 1e-12,
                  f"i={i}: structural sandwich violated ({s_odd:.1e}, {s_even:.1e})")
        details[f"i={i}"] = {"gap40": gap, "odd_excess": worst_odd,
                             "even_excess": worst_even}
    return details


@_criterion(7, "Monte Carlo vs finite-scale recursion", "quick", 180.0)
def criterion_07(ck: _Check, seed: int) -> dict:
    """Monte Carlo tree survival vs the finite-scale recursion, 3x3 grid."""
    ctx = RoundContext(SURROGATE_N, SURROGATE_EPS)
    c = ctx.with_round(ctx.rounds_total // 2)
    trials = 100_000
    details = {}
    for scale in (4, 8, 16):
        for depth in (4, 6, 8):
            model = SurvivalModel.make(c, scale=scale, depth=depth)
            expect = finite_recursion(model)[depth].p[-1]
            est = simulate_tree(model, c.delta, trials=trials,
                                seed=seed + 100 * scale + depth)
            z = (est.mean - expect) / est.se if est.se else 0.0
            details[f"k={scale},L={depth}"] = {"mc": est.mean, "recursion": float(expect),
                                               "se": est.se, "z": z}
            ck.expect(abs(est.mean - expect) <= 4 * est.se,
                      f"k={scale}, depth={depth}: |{est.mean:.5f} - {expect:.5f}|"
                      f" > 4 se ({4 * est.se:.5f})")
    return details


@_criterion(8, "finite-scale to limit convergence", "quick", 10.0)
def criterion_08(ck: _Check, seed: int) -> dict:
    """Finite-scale to limit convergence: monotone gap, <= 2/k at k=256."""
    ctx = RoundContext(SURROGATE_N, SURROGATE_EPS)
    c = ctx.with_round(ctx.rounds_total // 2)
    limit_end = limit_recursion(c, depth=40)[40].p[-1]
    gaps = []
    for scale in (4, 16, 64, 256):
        end = finite_recursion(SurvivalModel.make(c, scale=scale))[40].p[-1]
        gaps.append(abs(float(end) - float(limit_end)))
    ck.expect(all(gaps[j] > gaps[j + 1] for j in range(len(gaps) - 1)),
              f"gaps not strictly decreasing: {gaps}")
    ck.expect(gaps[-1] <= 2 / 256, f"gap at k=256 is {gaps[-1]:.2e} > {2 / 256:.2e}")
    return {"gaps": dict(zip(["k=4", "k=16", "k=64", "k=256"], gaps))}


@_criterion(9, "telescoping identities over rounds", "quick", 1.0)
def criterion_09(ck: _Check, seed: int) -> dict:
    """Telescoping sums and products across rounds; slopes in [0, 1]."""
    details = {}
    for n, eps in ((SURROGATE_N, SURROGATE_EPS), (SURROGATE_N, 0.25)):
        ctx = RoundContext(n, eps)
        slopes = [round_slope(ctx, i) for i in range(ctx.rounds_total)]
        ck.expect(all(0.0 <= s <= 1.0 for s in slopes),
                  f"eps={eps}: slope outside [0, 1]")
        sum_gap = abs(sum(ctx.delta * s for s in slopes) - float(ctx.traj[-1]))
        ck.expect(sum_gap <= 1e-10, f"eps={eps}: telescoped sum off by {sum_gap:.2e}")
        prod = 1.0
        for i in range(ctx.rounds_total):
            prod *= exact_point(ctx.with_round(i), ctx.delta)[1]
        prod_gap = abs(prod - float(ctx.density[-1]))
        ck.expect(prod_gap <= 1e-8, f"eps={eps}: survival product off by {prod_gap:.2e}")
        details[f"eps={eps}"] = {"rounds": ctx.rounds_total, "sum_gap": sum_gap,
                                 "prod_gap": prod_gap}
    return details


@_criterion(10, "slot trajectory windows at n=5000", "full", 600.0)
def criterion_10(ck: _Check, seed: int) -> dict:
    """Slot-count windows and absolute caps at n=5000."""
    ctx = RoundContext(5000, 0.1)
    trace = run_rounds(ProcessParams(ctx=ctx, seed=seed, record_snapshots=True))
    report = check_trajectories(trace, ctx, sample_size=2000, seed=seed)
    details = {}
    for r in report.rounds:
        if r.round == 0:
            continue
        details[f"i={r.round}"] = {
            "fully_within_5w": r.fully_within[5], "half_within_5w": r.half_within[5],
            "window": float(ctx.windows[r.round]),
            "half_scale_for_95": r.half_scale_for_95,
            "fully_scale_for_95": r.fully_scale_for_95,
            "cap_violations": {"closed": r.closed_cap_violations,
                               "half": r.half_cap_violations},
            "max_half": r.max_half, "half_cap": r.half_cap,
        }
        ck.expect(r.fully_within[5] >= 0.95,
                  f"i={r.round}: only {r.fully_within[5]:.2%} of fully-open ratios "
                  f"inside 1 +/- 5*window ({5 * ctx.windows[r.round]:.1e}); "
                  f"covering 95% needs ~{r.fully_scale_for_95:.1e}x the window")
        ck.expect(r.half_within[5] >= 0.95,
                  f"i={r.round}: only {r.half_within[5]:.2%} of half-open ratios "
                  f"inside 1 +/- 5*window")
        ck.expect(r.closed_cap_violations == 0,
                  f"i={r.round}: {r.closed_cap_violations} closed-count cap violations")
        ck.expect(r.half_cap_violations == 0,
                  f"i={r.round}: {r.half_cap_violations} of {r.sampled} sampled pairs "
                  f"exceed the half-open cap {r.half_cap:.1f} (max seen {r.max_half})")
    return details


@_criterion(11, "edge-count trend over n", "full", 900.0)
def criterion_11(ck: _Check, seed: int) -> dict:
    """Edge-count ratio within 10% and its deviation trend over n."""
    deviations = []
    details = {}
    for n in (500, 1000, 2000, 4000):
        ctx = RoundContext(n, 0.1)
        pred = predicted_final_edges(ctx)
        vals = [run_rounds(ProcessParams(ctx=ctx, seed=seed), trial=t).final_edges
                for t in range(20)]
        ratio = (sum(vals) / len(vals)) / pred
        deviations.append(abs(ratio - 1.0))
        details[f"n={n}"] = {"k": ctx.k, "ratio": ratio, "deviation": abs(ratio - 1.0)}
        ck.expect(0.9 <= ratio <= 1.1, f"n={n}: ratio {ratio:.4f} outside [0.9, 1.1]")
    ck.expect(all(deviations[j] >= deviations[j + 1] for j in range(len(deviations) - 1)),
              "deviation |ratio - 1| not nonincreasing in n: "
              + ", ".join(f"{d:.4f}" for d in deviations)
              + " (floor(n**eps) jumps from 1 to 2 at n=2000, resetting the bias)")
    return details


_C12_CACHE: dict = {}


def _c12_campaign(seed: int):
    if seed not in _C12_CACHE:
        ctx = RoundContext(2000, 0.1)
        _C12_CACHE[seed] = compare_with_gnm(CATALOG["C4"], ctx, trials=30, seed=seed)
    return _C12_CACHE[seed]


@_criterion(12, "4-cycle count vs prediction at n=2000", "full", 900.0)
def criterion_12(ck: _Check, seed: int) -> dict:
    """Mean 4-cycle count vs the sharp prediction at n=2000."""
    rep = _c12_campaign(seed)
    ck.expect(0.8 <= rep.ratio <= 1.2,
              f"4-cycle ratio {rep.ratio:.4f} outside [0.8, 1.2]")
    return {"ratio": rep.ratio, "ratio_se": rep.ratio_se, "predicted": rep.predicted,
            "empirical_mean": rep.empirical_mean}


@_criterion(13, "uniform random graph comparison", "full", 60.0)
def criterion_13(ck: _Check, seed: int) -> dict:
    """Uniform-graph comparison: 4-cycle means and triangle presence."""
    rep = _c12_campaign(seed)
    gnm = rep.gnm
    ratio = gnm["ratio_vs_process"]
    ck.expect(0.85 <= ratio <= 1.15,
              f"uniform/process 4-cycle mean ratio {ratio:.4f} outside [0.85, 1.15]; "
              f"the log-form edge budget m={gnm['m']} sits 25% below the process "
              f"edge count, and 4-cycle counts scale with its 4th power")
    ck.expect(gnm["samples_with_triangle"] == gnm["samples"],
              f"only {gnm['samples_with_triangle']}/{gnm['samples']} uniform samples "
              "contain a triangle")
    # process graphs are triangle-free by construction; re-audit a few
    ctx = RoundContext(2000, 0.1)
    for t in range(3):
        g = run_rounds(ProcessParams(ctx=ctx, seed=seed), trial=t).graph
        ck.expect(g.audit_triangle_free(), f"process trial {t} contains a triangle")
    return {"gnm_mean": gnm["mean"], "process_mean": rep.empirical_mean, "ratio": ratio,
            "m": gnm["m"], "samples_with_triangle": gnm["samples_with_triangle"]}


def _margin_oracle(pattern, eps: float) -> tuple[float, float]:
    # literal double enumeration over (vertex subset, edge subset) pairs
    c = 0.5 - eps
    best = float("inf")
    dens = 0.0
    for r in range(1, pattern.v + 1):
        for subset in combinations(range(pattern.v), r):
            sset = set(subset)
            inside = sum(1 for a, b in pattern.edges if a in sset and b in sset)
            for k in range(1, inside + 1):
                best = min(best, r - c * k)
                dens = max(dens, k / r)
    return best, dens


@_criterion(14, "variance-exponent margins and catalog flags", "quick", 1.0)
def criterion_14(ck: _Check, seed: int) -> dict:
    """Second-moment exponent margins and catalog metadata."""
    details = {}
    for name in ("C4", "C5", "C6", "P3", "P4"):
        pattern = CATALOG[name]
        got = variance_margin(pattern, 0.01)
        ref_margin, ref_dens = _margin_oracle(pattern, 0.01)
        details[name] = {"margin": got.margin, "max_density": got.max_density}
        ck.expect(got.margin > 0, f"{name}: margin {got.margin} not positive")
        ck.expect(abs(got.margin - ref_margin) <= 1e-12,
                  f"{name}: margin {got.margin} != enumeration {ref_margin}")
        ck.expect(abs(got.max_density - ref_dens) <= 1e-12,
                  f"{name}: density {got.max_density} != enumeration {ref_dens}")
    for name, pattern in CATALOG.items():
        ck.expect(pattern.balanced, f"{name} should be flagged balanced")
        ck.expect(pattern.density < 2, f"{name} density {pattern.density} >= 2")
    ck.expect(CATALOG["C4"].density == 1.0, "C4 density should be exactly 1")
    return details


def run_acceptance(profile: str = "quick", seed: int = 0,
                   only: list[int] | None = None) -> list[CriterionResult]:
    """Run the criteria of ``profile``, or those in ``only``, printing each
    verdict to stdout as it finishes and then the tally."""
    if profile not in ("quick", "full"):
        raise ValueError(f"profile must be 'quick' or 'full', got {profile!r}")
    ids = sorted(cid for cid, run in CRITERIA.items()
                 if profile == "full" or run.profile == "quick")
    if only is not None:
        unknown = sorted(set(only) - set(CRITERIA))
        if unknown or not only:
            what = f"unknown criterion ids {unknown}" if unknown else "no criterion id given"
            raise ValueError(f"{what}; valid ids are {', '.join(map(str, CRITERIA))}")
        ids = sorted(set(only))
    results = []
    for cid in ids:
        res = CRITERIA[cid](seed=seed)
        results.append(res)
        print(res.verdict(), flush=True)
    npass = sum(r.passed for r in results)
    label = f"only={','.join(str(i) for i in ids)}" if only else f"profile={profile}"
    print(f"{npass}/{len(results)} criteria passed ({label}, seed={seed})")
    return results
