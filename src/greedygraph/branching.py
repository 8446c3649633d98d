"""Survival calculus on idealized recursive trees.

A tree node is born at time x (in units of sqrt(n), restricted to one
round step).  It has ``singles`` child sets of size one and ``pairs`` child sets
of size two.  Members of singleton sets carry clocks uniform on
[0, thinning * m]; members of pair sets carry clocks uniform on [0, m].
A set *triggers* when every member beats min(x, step).  The node survives
iff every triggered set contains a member that itself dies; nodes at the
depth horizon survive by definition.

Three mutually independent evaluators:

  * ``exact_point`` / ``exact_curve``: the closed-form fixed point of the
    depth-free equation, expressed through the trajectory pair;
  * ``limit_recursion`` (scale-free limit) and ``finite_recursion``
    (finite scale k, with integer child-set counts and the thinning
    device): depth-indexed functional iterations on a quadrature grid;
  * ``simulate_tree``: Monte Carlo over lazily expanded random trees.

The finite-scale model is parameterized by the integer k = m * density_i
directly; pair-set counts are then exactly k**2 and the k -> infinity
limit is approached with gap O(1/k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .numerics import RoundContext, trajectory, trajectory_grid

DEFAULT_DEPTH = 40
# 1024 points leave the top-level endpoint ~2e-9 short of its refinement
# limit, failing the 1e-9 doubling gate; 2048 passes it with margin
DEFAULT_GRID = 2048
_THINNING_LO = 0.1
_THINNING_HI = 0.9
_THINNING_STEP = 1e-6


def _grid_distances(target: float, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Thinning grid points lo..hi-1 and the distance from each one's product
    with ``target`` to the nearest integer."""
    zetas = _THINNING_LO + _THINNING_STEP * np.arange(lo, hi)
    prod = zetas * target
    return zetas, np.abs(prod - np.rint(prod))


def choose_thinning(target: float) -> float:
    """Smallest thinning factor in [0.1, 0.9] (1e-6 grid) whose product with
    ``target`` lies within 5e-7 * max(1, target) of an integer; falls back to
    the distance-minimizing grid point when no grid point does.

    For target >= 1 a product within the tolerance of the integer j lies
    within half a grid step (plus rounding) of j's exact preimage
    (j / target - 0.1) / 1e-6.  So the search walks j upwards over the
    integers of [0.1, 0.9] * target and tests the 7 grid points about each
    preimage: the windows ascend and no hit lies outside them, so the first
    hit found is the grid's first hit, at a cost of microseconds.  Smaller
    targets, where [0.1, 0.9] * target holds no positive integer, and
    targets up to about 1.11 that find no hit, scan all 800,001 grid points
    (a 24 MiB transient).
    """
    if target <= 0.0:
        return _THINNING_LO
    steps = int(round((_THINNING_HI - _THINNING_LO) / _THINNING_STEP)) + 1
    tol = 5e-7 * max(1.0, target)
    if target >= 1.0:
        reach = math.ceil(tol / (target * _THINNING_STEP)) + 2
        for j in range(max(0, math.floor(_THINNING_LO * target) - 1),
                       math.ceil(_THINNING_HI * target) + 2):
            centre = round((j / target - _THINNING_LO) / _THINNING_STEP)
            zetas, dist = _grid_distances(target, max(0, centre - reach),
                                          min(steps, centre + reach + 1))
            hits = np.nonzero(dist <= tol)[0]
            if len(hits):
                return float(zetas[hits[0]])
    zetas, dist = _grid_distances(target, 0, steps)
    hits = np.nonzero(dist <= tol)[0]
    return float(zetas[hits[0] if len(hits) else np.argmin(dist)])


@dataclass(frozen=True)
class SurvivalModel:
    """Finite-scale tree specification at one round of a context."""

    ctx: RoundContext
    scale: int                # k = m * density_i; pair-set count is k**2
    thinning: float           # singleton clock compression in [0.1, 0.9]
    singles: int              # number of singleton child sets
    pairs: int                # number of pair child sets
    depth: int = DEFAULT_DEPTH
    grid: int = DEFAULT_GRID

    @classmethod
    def make(cls, ctx: RoundContext, scale: int, depth: int = DEFAULT_DEPTH,
             grid: int = DEFAULT_GRID, thinning: float | None = None) -> "SurvivalModel":
        if scale < 1:
            raise ValueError(f"scale must be >= 1, got {scale}")
        if ctx.round >= ctx.rounds_total:
            raise ValueError("survival model needs a round below the final one")
        target = 2.0 * scale * float(ctx.traj[ctx.round])
        if thinning is None:
            thinning = choose_thinning(target)
        if not (_THINNING_LO <= thinning <= _THINNING_HI):
            raise ValueError(f"thinning must lie in [0.1, 0.9], got {thinning}")
        singles = int(round(thinning * target))
        model = cls(ctx=ctx, scale=scale, thinning=thinning, singles=singles,
                    pairs=scale * scale, depth=depth, grid=grid)
        if singles > 0 and ctx.delta > thinning * model.horizon:
            raise ValueError("singleton clock horizon shorter than the round step; "
                             "increase the scale")
        return model

    @property
    def horizon(self) -> float:
        """Child clock horizon m = scale / density_i in step units."""
        return self.scale / float(self.ctx.density[self.ctx.round])


@dataclass(frozen=True)
class SurvivalCurve:
    """One depth level: survival probability p over [0, step] and its
    cumulative integral."""

    x: np.ndarray
    p: np.ndarray
    cum: np.ndarray


def _cumtrapz(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    dx = np.diff(x)
    out = np.empty_like(y)
    out[0] = 0.0
    np.cumsum(0.5 * dx * (y[1:] + y[:-1]), out=out[1:])
    return out


def exact_point(ctx: RoundContext, x: float) -> tuple[float, float]:
    """Closed-form fixed point at offset x within the context's round.

    Returns (cumulative, pointwise):
        cumulative = (traj(i*step + x) - traj_i) / density_i
        pointwise  = density(i*step + x) / density_i
    """
    i = ctx.round
    if not 0.0 <= x <= ctx.delta + 1e-15:
        raise ValueError(f"offset {x} outside [0, {ctx.delta}]")
    if x == 0.0:
        return 0.0, 1.0
    t0 = float(ctx.traj[i])
    d0 = float(ctx.density[i])
    tx = trajectory(i * ctx.delta + x)
    return (tx - t0) / d0, math.exp(t0 * t0 - tx * tx)


def exact_curve(ctx: RoundContext, grid: int = DEFAULT_GRID) -> SurvivalCurve:
    """Closed-form fixed point sampled on a uniform grid over the round."""
    i = ctx.round
    xs = np.linspace(0.0, ctx.delta, grid)
    t0 = float(ctx.traj[i])
    d0 = float(ctx.density[i])
    tvals = trajectory_grid(i * ctx.delta + xs)
    tvals[0] = t0  # pin the origin: re-inversion jitter is ~1e-14
    p = np.exp(t0 * t0 - tvals * tvals)
    cum = (tvals - t0) / d0
    return SurvivalCurve(x=xs, p=p, cum=cum)


def _depth_levels(ctx: RoundContext, depth: int, grid: int, step) -> list[SurvivalCurve]:
    """Levels 0..depth of a depth recursion on a uniform grid of ``grid``
    points over the context's round: p_0 = 1 and p_l = step(P_{l-1})."""
    if grid < 256:
        raise ValueError(f"grid resolution must be >= 256, got {grid}")
    xs = np.linspace(0.0, ctx.delta, grid)
    p = np.ones_like(xs)
    levels = [SurvivalCurve(x=xs, p=p, cum=_cumtrapz(xs, p))]
    for _ in range(depth):
        p = step(levels[-1].cum)
        levels.append(SurvivalCurve(x=xs, p=p, cum=_cumtrapz(xs, p)))
    return levels


def limit_recursion(ctx: RoundContext, depth: int = DEFAULT_DEPTH,
                    grid: int = DEFAULT_GRID) -> list[SurvivalCurve]:
    """Scale-free depth recursion p_l = exp(-2 traj_i density_i P_{l-1}
    - density_i**2 P_{l-1}**2), p_0 = 1; returns levels 0..depth."""
    t0 = float(ctx.traj[ctx.round])
    d0 = float(ctx.density[ctx.round])
    return _depth_levels(ctx, depth, grid,
                         lambda prev: np.exp(-2.0 * t0 * d0 * prev - (d0 * prev) ** 2))


def finite_recursion(model: SurvivalModel) -> list[SurvivalCurve]:
    """Finite-scale depth recursion with integer set counts:

        p_l = (1 - P_{l-1}/(thinning*m))**singles * (1 - (P_{l-1}/m)**2)**pairs

    p_0 = 1; returns levels 0..depth.  Converges pointwise to the
    scale-free limit as the scale grows, with gap O(1/scale).
    """
    m = model.horizon

    def step(prev):
        single_factor = (1.0 - prev / (model.thinning * m)) ** model.singles \
            if model.singles else 1.0
        return single_factor * (1.0 - (prev / m) ** 2) ** model.pairs

    return _depth_levels(model.ctx, model.depth, model.grid, step)


@dataclass(frozen=True)
class McEstimate:
    mean: float
    se: float
    trials: int
    survivors: int


def simulate_tree(model: SurvivalModel, x: float, trials: int, seed: int) -> McEstimate:
    """Monte Carlo survival estimate at birth time x.

    Trees are expanded lazily: a child set is materialized only when its
    members' clocks all beat min(x, step), which happens with probability
    min(x, step)/(thinning*m) per singleton set and (min(x, step)/m)**2 per
    pair set; triggered members get fresh uniform birth times below the
    parent's and recurse one level down.  Nodes at the horizon survive.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    ctx = model.ctx
    xm = min(x, ctx.delta)
    m = model.horizon
    zeta_m = model.thinning * m
    singles = model.singles
    pairs = model.pairs

    def survives(xb: float, levels: int, gen) -> bool:
        if levels == 0:
            return True
        if singles:
            for _ in range(int(gen.binomial(singles, xb / zeta_m))):
                if survives(xb * gen.random(), levels - 1, gen):
                    return False
        trig = xb / m
        for _ in range(int(gen.binomial(pairs, trig * trig))):
            if survives(xb * gen.random(), levels - 1, gen) and \
               survives(xb * gen.random(), levels - 1, gen):
                return False
        return True

    streams = rng.Streams()
    alive = 0
    for t in range(trials):
        if survives(xm, model.depth, streams.rekey(seed, t, purpose=rng.TREE)):
            alive += 1
    mean = alive / trials
    se = math.sqrt(mean * (1.0 - mean) / trials)
    return McEstimate(mean=mean, se=se, trials=trials, survivors=alive)


def write_curves_csv(fileobj, levels: list[SurvivalCurve],
                     exact: SurvivalCurve | None = None) -> None:
    """Dump (x, p_l(x), P_l(x), closed-form p) rows for each level."""
    header = "level,x,p,cum" + (",p_exact" if exact is not None else "")
    fileobj.write(header + "\n")
    for l, curve in enumerate(levels):
        for j in range(len(curve.x)):
            row = f"{l},{curve.x[j]!r},{curve.p[j]!r},{curve.cum[j]!r}"
            if exact is not None:
                row += f",{exact.p[j]!r}"
            fileobj.write(row + "\n")
