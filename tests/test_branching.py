import io
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from greedygraph import rng
from greedygraph.branching import (DEFAULT_GRID, McEstimate, SurvivalCurve,
                                   SurvivalModel, choose_thinning, exact_curve,
                                   exact_point, finite_recursion, limit_recursion,
                                   simulate_tree, write_curves_csv)
from greedygraph.numerics import RoundContext


@pytest.fixture(scope="module")
def ctx():
    return RoundContext(10 ** 6, 0.1)


def _thinning_by_scan(target: float) -> float:
    """The reference: scan all 800,001 grid points of [0.1, 0.9] for the
    first whose product with the target lies within the tolerance of an
    integer, else take the distance-minimizing one."""
    if target <= 0.0:
        return 0.1
    steps = int(round((0.9 - 0.1) / 1e-6)) + 1
    zetas = 0.1 + 1e-6 * np.arange(steps)
    prod = zetas * target
    dist = np.abs(prod - np.rint(prod))
    tol = 5e-7 * max(1.0, target)
    hits = np.nonzero(dist <= tol)[0]
    idx = int(hits[0]) if len(hits) else int(np.argmin(dist))
    return float(zetas[idx])


def _survival_targets():
    # the targets 2 k traj_i of the models that C7, C8 and the benchmark's
    # survival workload build at the middle round of RoundContext(10**6, 0.1)
    c = RoundContext(10 ** 6, 0.1)
    c = c.with_round(c.rounds_total // 2)
    return [2.0 * k * float(c.traj[c.round]) for k in (4, 8, 16, 64, 256)]


class TestThinning:
    def test_range_and_near_integrality(self):
        for c in (0.7, 1.9, 3.3, 17.77, 412.9):
            z = choose_thinning(c)
            assert 0.1 <= z <= 0.9
            if 0.9 * c >= 1.0:
                assert abs(z * c - round(z * c)) <= 5e-7 * max(1.0, c) + 1e-12

    def test_zero_target(self):
        assert choose_thinning(0.0) == 0.1

    # 7047.357241034611 puts 705's preimage a hair below grid point 37.5:
    # point 37 misses the tolerance by 6e-14 and point 38 meets it, so a
    # window of the nearest grid point alone would miss the first hit
    @pytest.mark.parametrize("target", [0.0, 1.0, 1.11, 1.25, 1e5, 7047.357241034611,
                                        *_survival_targets()])
    def test_equals_scan_at_edges_and_model_targets(self, target):
        assert choose_thinning(target) == _thinning_by_scan(target)

    @given(st.floats(min_value=0.0, max_value=2.0, exclude_min=True))
    @settings(max_examples=40, deadline=None)
    def test_equals_scan_where_fallback_applies(self, target):
        assert choose_thinning(target) == _thinning_by_scan(target)

    @given(st.floats(min_value=2.0, max_value=1e5))
    @settings(max_examples=150, deadline=None)
    def test_equals_scan(self, target):
        assert choose_thinning(target) == _thinning_by_scan(target)

    @pytest.mark.parametrize("target", [2.0, 7.6, 486.4, 1e5])
    def test_search_allocates_no_grid(self, target):
        # past the fallback, only windows of a few grid points are built:
        # 1,000 float64 entries would be 8,000 bytes
        choose_thinning(target)  # warm any lazily built numpy state
        tracemalloc.start()
        try:
            choose_thinning(target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000

    def test_model_build_peak(self, ctx):
        # one model used to build four 800,001-entry arrays, a 24 MiB peak
        c = ctx.with_round(4)
        SurvivalModel.make(c, scale=64)
        tracemalloc.start()
        try:
            SurvivalModel.make(c, scale=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestExactSolution:
    def test_origin(self, ctx):
        for i in (0, 4, 8):
            P, p = exact_point(ctx.with_round(i), 0.0)
            assert (P, p) == (0.0, 1.0)

    def test_endpoint_identities(self, ctx):
        for i in (0, 4, 8):
            c = ctx.with_round(i)
            P, p = exact_point(c, c.delta)
            d0 = float(c.density[i])
            assert P == pytest.approx((c.traj[i + 1] - c.traj[i]) / d0, rel=1e-12)
            assert p == pytest.approx(c.density[i + 1] / d0, rel=1e-12)
            assert 0.0 <= P <= c.delta  # cumulative bounded by elapsed time

    def test_algebraic_fixed_point_identity(self, ctx):
        for i in (0, 4, 8):
            c = ctx.with_round(i)
            curve = exact_curve(c, grid=512)
            t0 = float(c.traj[i])
            d0 = float(c.density[i])
            resid = np.abs(curve.p - np.exp(-(d0 * curve.cum) ** 2
                                            - 2 * t0 * d0 * curve.cum))
            assert resid.max() <= 1e-10

    def test_curve_monotone(self, ctx):
        curve = exact_curve(ctx.with_round(4), grid=512)
        assert np.all(np.diff(curve.p) <= 1e-12)
        assert np.all(np.diff(curve.cum) >= 0)
        assert curve.p[0] == 1.0 and curve.cum[0] == 0.0


class TestLimitRecursion:
    def test_level_zero_and_one(self, ctx):
        levels = limit_recursion(ctx.with_round(4), depth=3, grid=512)
        assert np.all(levels[0].p == 1.0)
        assert levels[1].p[0] == 1.0

    def test_grid_guard(self, ctx):
        with pytest.raises(ValueError):
            limit_recursion(ctx, depth=2, grid=128)

    def test_converges_to_exact(self, ctx):
        for i in (0, 4, 8):
            c = ctx.with_round(i)
            levels = limit_recursion(c, depth=40)
            exact = exact_curve(c, grid=DEFAULT_GRID)
            assert np.max(np.abs(levels[40].p - exact.p)) <= 1e-8

    def test_sandwich_against_deep_fixed_point(self, ctx):
        # alternating monotone iteration: odd levels below, even above
        c = ctx.with_round(4)
        levels = limit_recursion(c, depth=60)
        fix = levels[60].p  # converged to the grid fixed point to ~1e-16
        for j in range(20):
            assert np.all(levels[2 * j + 1].p <= fix + 1e-12)
            assert np.all(levels[2 * j].p >= fix - 1e-12)
            # and each parity approaches monotonically
            assert np.all(levels[2 * j + 2].p <= levels[2 * j].p + 1e-12)
            assert np.all(levels[2 * j + 3].p >= levels[2 * j + 1].p - 1e-12)

    def test_doubling_gate(self, ctx):
        # default grid must make the top-level endpoint stable to 1e-9
        for i in (0, 4, 8):
            c = ctx.with_round(i)
            a = limit_recursion(c, depth=40, grid=DEFAULT_GRID)[40].p[-1]
            b = limit_recursion(c, depth=40, grid=2 * DEFAULT_GRID)[40].p[-1]
            assert abs(a - b) < 1e-9


class TestFiniteRecursion:
    def test_leafless_model_is_constant_one(self, ctx):
        c = ctx.with_round(4)
        model = SurvivalModel(ctx=c, scale=4, thinning=0.5, singles=0, pairs=0,
                              depth=6, grid=512)
        levels = finite_recursion(model)
        for lv in levels:
            assert np.all(lv.p == 1.0)

    def test_origin_pinned(self, ctx):
        model = SurvivalModel.make(ctx.with_round(4), scale=8, depth=10, grid=512)
        for lv in finite_recursion(model):
            assert lv.p[0] == 1.0

    def test_scale_convergence_monotone(self, ctx):
        c = ctx.with_round(4)
        limit_end = limit_recursion(c, depth=40)[40].p[-1]
        gaps = []
        for k in (4, 16, 64, 256):
            model = SurvivalModel.make(c, scale=k)
            end = finite_recursion(model)[40].p[-1]
            gaps.append(abs(end - limit_end))
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] <= 2 / 256

    def test_monotone_in_scale_params(self, ctx):
        # survival drops when more child sets are present
        c = ctx.with_round(4)
        base = SurvivalModel.make(c, scale=8, depth=8, grid=512)
        more_singles = SurvivalModel(ctx=c, scale=8, thinning=base.thinning,
                                     singles=base.singles + 5, pairs=base.pairs,
                                     depth=8, grid=512)
        more_pairs = SurvivalModel(ctx=c, scale=8, thinning=base.thinning,
                                   singles=base.singles, pairs=base.pairs + 40,
                                   depth=8, grid=512)
        p0 = finite_recursion(base)[8].p
        assert np.all(finite_recursion(more_singles)[8].p <= p0 + 1e-15)
        assert np.all(finite_recursion(more_pairs)[8].p <= p0 + 1e-15)

    def test_round_guard(self, ctx):
        with pytest.raises(ValueError):
            SurvivalModel.make(ctx.with_round(ctx.rounds_total), scale=4)


class TestSimulateTree:
    def test_zero_birth_time_always_survives(self, ctx):
        model = SurvivalModel.make(ctx.with_round(4), scale=8, depth=6)
        est = simulate_tree(model, 0.0, trials=500, seed=1)
        assert est.mean == 1.0 and est.se == 0.0

    def test_depth_zero_always_survives(self, ctx):
        model = SurvivalModel.make(ctx.with_round(4), scale=8, depth=6)
        est = simulate_tree(replace(model, depth=0), ctx.delta, trials=500, seed=1)
        assert est.mean == 1.0

    def test_matches_recursion_at_step(self, ctx):
        c = ctx.with_round(4)
        model = SurvivalModel.make(c, scale=8, depth=6)
        expect = finite_recursion(model)[6].p[-1]
        est = simulate_tree(model, c.delta, trials=30_000, seed=17)
        assert abs(est.mean - expect) <= 4 * est.se

    def test_deterministic(self, ctx):
        model = SurvivalModel.make(ctx.with_round(4), scale=4, depth=4)
        a = simulate_tree(model, ctx.delta, trials=2000, seed=3)
        b = simulate_tree(model, ctx.delta, trials=2000, seed=3)
        assert a == b

    def test_monotone_in_birth_time(self, ctx):
        c = ctx.with_round(4)
        model = SurvivalModel.make(c, scale=8, depth=6)
        lo = simulate_tree(model, 0.2 * c.delta, trials=20_000, seed=5)
        hi = simulate_tree(model, c.delta, trials=20_000, seed=5)
        assert lo.mean >= hi.mean - 4 * (lo.se + hi.se)

    @pytest.mark.parametrize("scale, depth, survivors", [
        (4, 2, 1544), (4, 6, 1540), (8, 2, 1560), (8, 6, 1559)])
    def test_golden_survivors(self, ctx, scale, depth, survivors):
        # pinned: the per-tree streams and the lazy expansion must keep
        # reproducing these counts
        c = ctx.with_round(4)
        model = SurvivalModel.make(c, scale=scale, depth=depth)
        assert simulate_tree(model, c.delta, trials=2000, seed=29).survivors == survivors

    @pytest.mark.parametrize("scale, depth, x_frac, seed", [
        (4, 3, 1.0, 2), (8, 6, 0.6, -7), (8, 1, 1.0, 2 ** 64 + 3)])
    def test_matches_reference_loop(self, ctx, scale, depth, x_frac, seed):
        c = ctx.with_round(4)
        model = SurvivalModel.make(c, scale=scale, depth=depth)
        x = x_frac * c.delta
        est = simulate_tree(model, x, trials=1500, seed=seed)
        assert est.survivors == _reference_survivors(model, x, 1500, seed)


def _reference_survivors(model, x, trials, seed):
    """simulate_tree's count, by the same lazy expansion written out with one
    fresh rng.stream per tree."""
    xm = min(x, model.ctx.delta)
    zeta_m = model.thinning * model.horizon
    m = model.horizon

    def survives(xb, levels, gen):
        if levels == 0:
            return True
        if model.singles:
            for _ in range(int(gen.binomial(model.singles, xb / zeta_m))):
                if survives(xb * gen.random(), levels - 1, gen):
                    return False
        for _ in range(int(gen.binomial(model.pairs, (xb / m) ** 2))):
            if survives(xb * gen.random(), levels - 1, gen) and \
               survives(xb * gen.random(), levels - 1, gen):
                return False
        return True

    return sum(survives(xm, model.depth, rng.stream(seed, t, purpose=rng.TREE))
               for t in range(trials))


class TestTelescoping:
    def test_product_over_rounds(self, ctx):
        prod = 1.0
        for i in range(ctx.rounds_total):
            _, p = exact_point(ctx.with_round(i), ctx.delta)
            prod *= p
        assert abs(prod - float(ctx.density[ctx.rounds_total])) <= 1e-8


def test_curve_csv_dump(ctx):
    c = ctx.with_round(4)
    levels = limit_recursion(c, depth=2, grid=300)
    buf = io.StringIO()
    write_curves_csv(buf, levels, exact=exact_curve(c, grid=300))
    lines = buf.getvalue().splitlines()
    assert lines[0] == "level,x,p,cum,p_exact"
    assert len(lines) == 1 + 3 * 300
