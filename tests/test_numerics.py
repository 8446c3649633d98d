import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from greedygraph.numerics import (RoundContext, erfi, floor_power, open_density,
                                  round_slope, trajectory, trajectory_grid)

HALF_SQRT_PI = math.sqrt(math.pi) / 2.0


def series_oracle(x: float, terms: int = 40) -> float:
    """Extended-precision Taylor sum x^(2j+1)/(j!(2j+1)), scaled at the end."""
    import mpmath as mp
    with mp.workdps(50):
        s = mp.mpf(0)
        xm = mp.mpf(x)
        for j in range(terms):
            s += xm ** (2 * j + 1) / (mp.factorial(j) * (2 * j + 1))
        return float(2 / mp.sqrt(mp.pi) * s)


def asymptotic_oracle(x: float) -> float:
    """exp(x^2)/(sqrt(pi) x) * sum_k (2k-1)!!/(2x^2)^k, eight terms."""
    x2 = x * x
    corr = sum(df / (2 * x2) ** k
               for k, df in enumerate([1, 1, 3, 15, 105, 945, 10395, 135135]))
    return math.exp(x2) / (math.sqrt(math.pi) * x) * corr


class TestErfi:
    def test_zero(self):
        assert erfi(0.0) == 0.0

    def test_series_oracle_at_one(self):
        assert erfi(1.0) == pytest.approx(series_oracle(1.0), rel=1e-14)

    def test_asymptotic_oracle_at_ten(self):
        assert erfi(10.0) == pytest.approx(asymptotic_oracle(10.0), rel=1e-10)

    def test_odd(self):
        for x in (0.3, 1.7, 5.0, 9.2):
            assert erfi(-x) == -erfi(x)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            erfi(150.5)
        with pytest.raises(ValueError):
            erfi(float("nan"))

    def test_overflow_saturates(self):
        assert erfi(30.0) == math.inf

    def test_switch_point_cross_agreement(self):
        # series and asymptotic evaluations must agree at the switch
        from greedygraph.numerics import _erfi_asymptotic, _erfi_series
        x = 6.0
        a, b = _erfi_series(x), _erfi_asymptotic(x)
        assert abs(a - b) / a <= 1e-13

    def test_against_scipy(self):
        from scipy.special import erfi as ref
        for x in np.linspace(0.01, 26.0, 117):
            assert erfi(float(x)) == pytest.approx(float(ref(x)), rel=5e-14)


class TestTrajectory:
    def test_origin(self):
        assert trajectory(0.0) == 0.0

    def test_exact_inverse_pair(self):
        x = HALF_SQRT_PI * erfi(1.0)
        assert trajectory(x) == pytest.approx(1.0, abs=1e-13)

    def test_large_argument_value(self):
        # frozen from a 40-digit independent inversion
        assert trajectory(1e6) == pytest.approx(3.981945669494358, rel=1e-12)
        # the sqrt-log asymptotic is still 7% away at 1e6 (slow convergence)
        assert trajectory(1e6) / math.sqrt(math.log(1e6)) == pytest.approx(1.07130, abs=2e-4)

    def test_density_asymptotic(self):
        x = 1e6
        assert 0.9 <= open_density(x) * 2 * x * math.sqrt(math.log(x)) <= 1.1

    def test_inverse_pair_residuals(self):
        rng = np.random.default_rng(2024)
        xs = rng.uniform(0.0, 50.0, size=1000)
        for x in xs:
            z = trajectory(float(x))
            assert abs(HALF_SQRT_PI * erfi(z) - x) <= 1e-12 * max(1.0, x)

    def test_derivative_is_density(self):
        h = 1e-6
        for x in np.linspace(0.05, 20.0, 100):
            x = float(x)
            fd = (trajectory(x + h) - trajectory(x)) / h
            assert fd == pytest.approx(open_density(x), abs=5e-6)

    @given(st.floats(min_value=1e-9, max_value=100.0), st.floats(min_value=1e-9, max_value=100.0))
    @settings(max_examples=200, deadline=None)
    def test_strictly_increasing(self, a, b):
        if a == b:
            return
        lo, hi = min(a, b), max(a, b)
        assert trajectory(lo) < trajectory(hi)

    def test_grid_matches_scalar(self):
        xs = np.linspace(0.0, 7.0, 57)
        grid = trajectory_grid(xs)
        for x, z in zip(xs, grid):
            assert z == pytest.approx(trajectory(float(x)), abs=1e-12)

    @pytest.mark.parametrize("xs", [
        RoundContext(10 ** 6, 0.1).delta * np.arange(RoundContext(10 ** 6, 0.1).rounds_total + 1),
        np.arange(51.0),
        np.array([0.0, 0.5, 2e6, 2e6, 3e6, 0.0, 1.0, 1e-9]),
        np.linspace(0.0, 7.0, 57),
    ])
    def test_grid_matches_uncached_loop(self, xs):
        # the loop before the previous root's erfi value was carried over:
        # every residual calls erfi
        def uncached(xs):
            out = np.empty(len(xs))
            z = 0.0
            for idx, x in enumerate(xs):
                x = float(x)
                if x == 0.0:
                    z = 0.0
                else:
                    ok = False
                    zz = z
                    for _ in range(50):
                        r = (math.sqrt(math.pi) / 2.0) * erfi(zz) - x
                        if abs(r) <= 1e-13 * max(1.0, x):
                            ok = True
                            break
                        zz -= r * math.exp(-zz * zz)
                        if not (0.0 <= zz <= 26.0):
                            break
                    z = zz if ok else trajectory(x)
                out[idx] = z
            return out

        assert np.array_equal(trajectory_grid(xs), uncached(xs))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            trajectory(-0.1)


class TestFloorPower:
    def test_known_values(self):
        assert floor_power(5000, 0.1) == 2
        assert floor_power(10 ** 6, 0.1) == 3
        assert floor_power(100, 0.2) == 2
        assert floor_power(500, 0.1) == 1

    def test_exact_integer_power(self):
        # 0.25 is exactly representable: (2^20)^(1/4) = 32 with no slop
        assert floor_power(2 ** 20, 0.25) == 32
        assert floor_power(3 ** 8, 0.25) == 9

    def test_just_below_boundary(self):
        assert floor_power(2 ** 20 - 1, 0.25) == 31


class TestRoundContext:
    def test_basic_fields(self):
        ctx = RoundContext(5000, 0.1)
        assert ctx.k == 2
        assert ctx.rounds_total == 4
        assert ctx.delta * math.sqrt(ctx.rounds_total) == pytest.approx(1.0)
        assert ctx.traj[0] == 0.0
        assert ctx.density[0] == 1.0

    def test_round_bounds(self):
        ctx = RoundContext(100, 0.2)
        with pytest.raises(ValueError):
            ctx.with_round(ctx.rounds_total + 1)
        with pytest.raises(ValueError):
            RoundContext(2, 0.1)
        with pytest.raises(ValueError):
            RoundContext(100, 0.6)

    def test_grids_frozen_and_shared(self):
        ctx = RoundContext(100, 0.2)
        sib = ctx.with_round(2)
        assert sib.traj is ctx.traj
        with pytest.raises(ValueError):
            ctx.traj[0] = 1.0

    def test_grid_values_match_reference(self):
        # frozen from a 40-digit independent inversion
        ctx = RoundContext(5000, 0.1)
        ref = [0.0, 0.4643507675745261, 0.7951721557346462,
               1.0135534409603906, 1.1651800232670744]
        assert np.allclose(ctx.traj, ref, rtol=0, atol=1e-13)


class TestErrorWindow:
    def test_round_zero_forced(self):
        ctx = RoundContext(5000, 0.1)
        assert ctx.rates[0] == pytest.approx(ctx.delta ** 2)
        assert ctx.windows[0] == pytest.approx(5000.0 ** -3.0)

    def test_recursion_ratio_exact(self):
        ctx = RoundContext(5000, 0.1)
        for i in range(ctx.rounds_total):
            ratio = ctx.windows[i + 1] / ctx.windows[i]
            assert ratio == pytest.approx(1 + 10 * ctx.rates[i], rel=1e-15)

    def test_final_window_inside_power_bounds(self):
        ctx = RoundContext(5000, 0.1)
        n, eps = 5000, 0.1
        assert n ** (-30 * eps) <= ctx.windows[ctx.rounds_total] <= n ** (-10 * eps)

    def test_rate_recomputable(self):
        ctx = RoundContext(10 ** 6, 0.1)
        for i in range(ctx.rounds_total + 1):
            expect = max(ctx.delta * ctx.traj[i] * ctx.density[i],
                         (ctx.delta * ctx.density[i]) ** 2)
            assert ctx.rates[i] == pytest.approx(expect, rel=1e-15)

    def test_late_round_rate_margins(self):
        # asymptotically rate(i) <= 0.6/i past 1/step * lnln n; at this scale
        # the constant overshoots slightly, so pin the looser envelope and
        # report the worst margin
        ctx = RoundContext(10 ** 6, 0.1)
        start = math.ceil(math.log(math.log(ctx.n)) / ctx.delta)
        worst = 0.0
        for i in range(max(start, 1), ctx.rounds_total + 1):
            worst = max(worst, ctx.rates[i] * i)
        assert worst <= 1.0
        print(f"late-round rate margin: max i*rate(i) = {worst:.4f} (asymptotic target 0.6)")


class TestRoundSlope:
    def test_in_unit_interval(self):
        for n, eps in ((5000, 0.1), (10 ** 6, 0.1), (10 ** 6, 0.25)):
            ctx = RoundContext(n, eps)
            for i in range(ctx.rounds_total):
                s = round_slope(ctx, i)
                assert 0.0 <= s <= 1.0

    def test_first_round(self):
        ctx = RoundContext(10 ** 6, 0.1)
        assert round_slope(ctx, 0) == pytest.approx(trajectory(ctx.delta) / ctx.delta)
        assert 0.0 < round_slope(ctx, 0) <= 1.0

    def test_sum_telescopes(self):
        ctx = RoundContext(10 ** 6, 0.25)
        total = sum(ctx.delta * round_slope(ctx, i) for i in range(ctx.rounds_total))
        assert abs(total - ctx.traj[ctx.rounds_total]) <= 1e-10

    def test_two_edge_placement_identity(self):
        # the factorized double sum over two independent placements
        ctx = RoundContext(10 ** 6, 0.1)
        s = sum(round_slope(ctx, i) for i in range(ctx.rounds_total))
        lhs = ctx.delta ** 2 * s * s
        assert lhs == pytest.approx(float(ctx.traj[ctx.rounds_total]) ** 2, abs=1e-10)

    def test_range_error(self):
        ctx = RoundContext(5000, 0.1)
        with pytest.raises(ValueError):
            round_slope(ctx, ctx.rounds_total)


def test_density_at_unit_trajectory():
    # where the trajectory reaches 1 the density is exactly exp(-1)
    x = HALF_SQRT_PI * erfi(1.0)
    assert open_density(x) == pytest.approx(math.exp(-1.0), abs=1e-12)
