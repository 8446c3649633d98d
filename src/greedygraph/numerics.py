"""Scalar special functions for the greedy process trajectory.

The pace of the process is governed by the ODE pair

    trajectory'(x) = open_density(x),   open_density(x) = exp(-trajectory(x)^2),
    trajectory(0)  = 0,

whose solution is given implicitly by (sqrt(pi)/2) * erfi(trajectory(x)) = x,
with erfi the imaginary error function.  ``trajectory`` is therefore
evaluated by inverting that identity: bracketed bisection down to 1e-14
followed by a Newton polish (the derivative of (sqrt(pi)/2)*erfi is
exp(z^2), available analytically).

``RoundContext`` bundles the global parameters of one process instance
(n, the pace exponent, the exact rational round step) and eagerly builds
the per-round grids that the trajectory checks and the survival calculus
consume.  All values here are immutable after construction and safe to
share across workers.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np

SQRT_PI = math.sqrt(math.pi)
HALF_SQRT_PI = SQRT_PI / 2.0

ERFI_DOMAIN = 150.0
_SERIES_CUTOFF = 6.0     # power series below, asymptotic expansion above
_EXP_OVERFLOW = 709.78   # exp argument beyond which float64 overflows
_INVERT_TOL = 1e-14      # bisection width before the Newton polish


def erfi(x: float) -> float:
    """Imaginary error function (2/sqrt(pi)) * int_0^x exp(t^2) dt.

    Power series for |x| <= 6 (all terms positive, summed with fsum),
    optimally truncated asymptotic expansion exp(x^2)/(sqrt(pi) x) *
    sum_k (2k-1)!!/(2x^2)^k above; the two agree to ~3e-16 relative at
    the switch point.  Relative error <= 1e-13 wherever the value is
    representable; saturates to +/-inf once exp(x^2) leaves float64
    range (|x| > ~26.64).
    """
    if not math.isfinite(x):
        raise ValueError(f"erfi argument must be finite, got {x!r}")
    if abs(x) > ERFI_DOMAIN:
        raise ValueError(f"erfi argument outside supported domain |x| <= {ERFI_DOMAIN:g}: {x!r}")
    if x < 0.0:
        return -erfi(-x)
    if x <= _SERIES_CUTOFF:
        return _erfi_series(x)
    return _erfi_asymptotic(x)


def _erfi_series(x: float) -> float:
    if x == 0.0:
        return 0.0
    x2 = x * x
    terms = []
    u = x  # x^(2j+1) / j!
    top = x
    j = 0
    while True:
        t = u / (2 * j + 1)
        terms.append(t)
        if t > top:
            top = t
        # terms grow until j ~ x^2, then decay factorially
        if j > x2 and t <= 1e-18 * top:
            break
        j += 1
        u *= x2 / j
    return (2.0 / SQRT_PI) * math.fsum(terms)


def _erfi_asymptotic(x: float) -> float:
    x2 = x * x
    s = 1.0
    c = 1.0
    k = 1
    while True:
        cn = c * (2 * k - 1) / (2.0 * x2)
        if cn >= c:  # divergent tail reached: truncate at the minimal term
            break
        s += cn
        if cn < 1e-17 * s:
            break
        c = cn
        k += 1
    if x2 > _EXP_OVERFLOW:
        return math.inf
    return math.exp(x2) * s / (SQRT_PI * x)


def trajectory(x: float) -> float:
    """The unique z >= 0 with (sqrt(pi)/2) * erfi(z) = x.

    Residual |(sqrt(pi)/2) erfi(z) - x| <= 1e-12 * max(1, x); strictly
    increasing; trajectory(0) = 0.  The bracket [0, sqrt(ln max(x,2)) + 2]
    always contains the root.
    """
    if not (x >= 0.0):
        raise ValueError(f"trajectory argument must be >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    lo = 0.0
    hi = math.sqrt(math.log(max(x, 2.0))) + 2.0
    while hi - lo > _INVERT_TOL:
        mid = 0.5 * (lo + hi)
        if HALF_SQRT_PI * erfi(mid) < x:
            lo = mid
        else:
            hi = mid
    z = 0.5 * (lo + hi)
    for _ in range(3):
        z -= (HALF_SQRT_PI * erfi(z) - x) * math.exp(-z * z)
    return max(z, 0.0)


def open_density(x: float) -> float:
    """exp(-trajectory(x)^2): the trajectory's derivative, in (0, 1]."""
    z = trajectory(x)
    return math.exp(-z * z)


def trajectory_grid(xs) -> np.ndarray:
    """trajectory() over a nondecreasing sequence of points.

    Warm-starts Newton from the previous root; falls back to the bracketed
    solver on any point that fails to converge.  Residuals meet the same
    1e-12 * max(1, x) contract as the scalar path.  The previous root's
    (sqrt(pi)/2) erfi value is carried over, so a point's first residual
    costs no erfi call.
    """
    out = np.empty(len(xs), dtype=float)
    z = 0.0
    fz = 0.0     # HALF_SQRT_PI * erfi(z)
    for idx, x in enumerate(xs):
        x = float(x)
        if x == 0.0:
            z = fz = 0.0
        else:
            # Newton from the previous root; bail out to the bracketed
            # solver on any sign of divergence (large forward jumps can
            # push the iterate past the erfi overflow range)
            ok = False
            zz, f = z, fz
            for _ in range(50):
                r = f - x
                if abs(r) <= 1e-13 * max(1.0, x):
                    ok = True
                    break
                zz -= r * math.exp(-zz * zz)
                if not (0.0 <= zz <= 26.0):
                    break
                f = HALF_SQRT_PI * erfi(zz)
            if ok:
                z, fz = zz, f
            else:
                z = trajectory(x)
                fz = HALF_SQRT_PI * erfi(z)
        out[idx] = z
    return out


def floor_power(n: int, eps: float) -> int:
    """floor(n**eps), re-checked in 60-digit decimal near integer boundaries.

    The round step of the process is the exact rational 1/floor(n**eps), so
    a one-off misrounding here would silently change every derived quantity.
    """
    x = float(n) ** eps
    k = int(x)
    if abs(x - round(x)) < 1e-9 * max(1.0, x):
        with localcontext() as dctx:
            dctx.prec = 60
            d = (Decimal(eps) * Decimal(n).ln()).exp()
            nearest = d.to_integral_value(rounding="ROUND_HALF_EVEN")
            if abs(d - nearest) < Decimal("1e-40"):
                k = int(nearest)
            else:
                k = int(d)
    return max(k, 1)


class RoundContext:
    """Global parameters of one process instance plus per-round grids.

    n vertices; pace exponent eps in (0, 1/2).  The per-round time step is
    the exact rational 1/k with k = floor(n**eps); there are k**2 rounds.
    Grids over rounds 0..k**2:

        traj[i]    = trajectory(i * step)
        density[i] = exp(-traj[i]**2)
        rates[i]   = max(step * traj[i] * density[i], step**2 * density[i]**2)
        windows[i] = n**(-30 eps) at i = 0, else windows[i-1] * (1 + 10 rates[i-1])

    rates[i] is round i's error rate and windows[i] its accumulated
    multiplicative tolerance window.

    Contexts are immutable after construction; ``with_round`` returns a
    sibling at another round sharing the same grids.
    """

    __slots__ = ("n", "eps", "k", "rounds_total", "round", "traj", "density",
                 "rates", "windows")

    def __init__(self, n: int, eps: float, round: int = 0, _share=None):
        if not isinstance(n, int) or n < 3:
            raise ValueError(f"n must be an integer >= 3, got {n!r}")
        if not (0.0 < eps < 0.5):
            raise ValueError(f"eps must lie in (0, 1/2), got {eps!r}")
        self.n = n
        self.eps = eps
        self.k = floor_power(n, eps)
        self.rounds_total = self.k * self.k
        if not 0 <= round <= self.rounds_total:
            raise ValueError(f"round {round} outside [0, {self.rounds_total}]")
        self.round = round
        if _share is not None:
            self.traj, self.density, self.rates, self.windows = _share
            return
        step = 1.0 / self.k
        xs = step * np.arange(self.rounds_total + 1)
        traj = trajectory_grid(xs)
        density = np.exp(-traj * traj)
        rates = np.maximum(step * traj * density, (step * density) ** 2)
        windows = np.empty_like(rates)
        windows[0] = float(n) ** (-30.0 * eps)
        for i in range(1, len(windows)):
            windows[i] = windows[i - 1] * (1.0 + 10.0 * rates[i - 1])
        for arr in (traj, density, rates, windows):
            arr.setflags(write=False)
        self.traj = traj
        self.density = density
        self.rates = rates
        self.windows = windows

    @property
    def delta(self) -> float:
        """Round step 1/k (float image of the exact rational)."""
        return 1.0 / self.k

    @property
    def birth_prob(self) -> float:
        """Per-round, per-pair traversal probability step / sqrt(n)."""
        return 1.0 / (self.k * math.sqrt(self.n))

    def with_round(self, i: int) -> "RoundContext":
        return RoundContext(self.n, self.eps, round=i,
                            _share=(self.traj, self.density, self.rates, self.windows))

    def __repr__(self):
        return (f"RoundContext(n={self.n}, eps={self.eps}, k={self.k}, "
                f"rounds={self.rounds_total}, round={self.round})")


def round_slope(ctx: RoundContext, i: int) -> float:
    """Mean trajectory slope over round i: (traj[i+1] - traj[i]) / step.

    Lies in [0, 1]; summing step * round_slope over all rounds telescopes
    to the trajectory endpoint.
    """
    if not 0 <= i < ctx.rounds_total:
        raise ValueError(f"round index {i} outside [0, {ctx.rounds_total})")
    return float(ctx.traj[i + 1] - ctx.traj[i]) * ctx.k
