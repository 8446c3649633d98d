"""Per-pair triangle-slot classification and trajectory window checks.

For a pair g = {u, v} and each third vertex w, the potential triangle on
{u, v, w} is classified by the state of its two other pairs:

    closed      both already in the graph
    half open   exactly one in the graph, the other not yet traversed and
                individually addable (its insertion keeps the graph
                triangle-free)
    fully open  neither traversed, both individually addable

Counts are compared against the first-order trajectory centres
2*sqrt(n)*traj_i*density_i (half open) and n*density_i**2 (fully open)
inside multiplicative bands 1 +/- c*window(i).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from . import rng
from .graphcore import EvolvingGraph, bit_indices, decode_edge_ids, num_pairs
from .numerics import RoundContext
from .process import RunTrace

# band multiples c of the window reports: the fraction of sampled ratios
# within 1 +/- c*window(i)
BAND_SCALES = (1, 5)


@dataclass(frozen=True)
class SlotCounts:
    """Classification of all n-2 third vertices for one pair at one round."""

    u: int
    v: int
    round: int
    closed: int
    half_open: int
    fully_open: int
    half_open_center: float
    fully_open_center: float
    window: float

    def half_open_ratio(self) -> float:
        if self.half_open_center == 0.0:
            return 1.0 if self.half_open == 0 else float("inf")
        return self.half_open / self.half_open_center

    def fully_open_ratio(self) -> float:
        if self.fully_open_center == 0.0:
            return 1.0 if self.fully_open == 0 else float("inf")
        return self.fully_open / self.fully_open_center


def _blocked_mask(graph: EvolvingGraph, x: int) -> int:
    """Vertices w whose pair {x, w} would close a triangle: the union of
    the neighbourhoods of x's neighbours."""
    adj = graph.adj
    out = 0
    for z in bit_indices(adj[x], graph.n).tolist():
        out |= adj[z]
    return out


def classify_pair(graph: EvolvingGraph, u: int, v: int, ctx: RoundContext) -> SlotCounts:
    """Slot counts for the pair {u, v} against the snapshot held in ``graph``.

    Pure: recomputing on a stored snapshot always returns the same counts.
    """
    u, v = graph._check_pair(u, v)
    return _slot_counts(graph, u, v, ctx, _blocked_mask(graph, u), _blocked_mask(graph, v))


def _slot_counts(graph: EvolvingGraph, u: int, v: int, ctx: RoundContext,
                 blocked_u: int, blocked_v: int) -> SlotCounts:
    """``classify_pair`` for a checked pair whose endpoints' blocked masks
    (``_blocked_mask``) are given, so a round computes each once."""
    n = graph.n
    i = ctx.round
    adj = graph.adj
    birthed = graph.birthed_adj
    full = (1 << n) - 1
    valid = full & ~(1 << u) & ~(1 << v)
    au, av = adj[u], adj[v]
    addable_u = valid & ~birthed[u] & ~blocked_u
    addable_v = valid & ~birthed[v] & ~blocked_v
    closed = (au & av & valid).bit_count()
    half = ((au & ~av & valid) & addable_v).bit_count() \
        + ((av & ~au & valid) & addable_u).bit_count()
    fully = (valid & ~au & ~av & addable_u & addable_v).bit_count()
    traj_i = float(ctx.traj[i])
    dens_i = float(ctx.density[i])
    return SlotCounts(
        u=u, v=v, round=i, closed=closed, half_open=half, fully_open=fully,
        half_open_center=2.0 * (n ** 0.5) * traj_i * dens_i,
        fully_open_center=n * dens_i * dens_i,
        window=float(ctx.windows[i]),
    )


@dataclass
class RoundWindowReport:
    """Window statistics for one round over a sampled set of pairs."""

    round: int
    sampled: int
    non_birthed: int
    half_within: dict[int, float]        # band scale -> fraction inside
    fully_within: dict[int, float]
    closed_cap: float
    half_cap: float
    closed_cap_violations: int
    half_cap_violations: int
    max_closed: int
    max_half: int
    half_ratio_mean: float
    fully_ratio_mean: float
    half_ratio_spread: float             # max |ratio - 1| over the sample
    fully_ratio_spread: float
    # smallest band multiple that would cover 95% of the sampled pairs
    half_scale_for_95: float
    fully_scale_for_95: float

    def to_json_dict(self) -> dict:
        """Every field in order, ``round`` as "i" and band scales as strings."""
        out = {}
        for f in fields(self):
            val = getattr(self, f.name)
            out["i" if f.name == "round" else f.name] = \
                {str(c): x for c, x in val.items()} if isinstance(val, dict) else val
        return out


@dataclass
class TrajectoryReport:
    n: int
    eps: float
    seed: int
    sample_size: int
    rounds: list[RoundWindowReport] = field(default_factory=list)
    rows: list[SlotCounts] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n, "eps": self.eps, "seed": self.seed,
            "sample_size": self.sample_size,
            "band_scales": list(BAND_SCALES),
            "rounds": [r.to_json_dict() for r in self.rounds],
        }


def _quantile(sorted_vals: list[float], percent: int) -> float:
    """The smallest of ``sorted_vals`` that at least ``percent`` percent of
    them do not exceed (0.0 for none): the one at index
    ceil(percent * len / 100) - 1, in integer arithmetic."""
    if not sorted_vals:
        return 0.0
    return sorted_vals[-(-percent * len(sorted_vals) // 100) - 1]


def _band_stats(kind: str, ratios: list[float], window: float) -> dict:
    """The ``RoundWindowReport`` fields of one ratio kind ("half" or "fully")
    over the non-traversed sampled pairs: the fraction within each band
    c * window, the mean, the largest |ratio - 1| and the 95% band scale
    (1.0, 1.0, 0.0 and 0.0 for no pair; a scale of 0.0 for a zero window)."""
    nb = len(ratios)
    within = {}
    for c in BAND_SCALES:
        band = c * window
        within[c] = sum(1 for r in ratios if abs(r - 1.0) <= band) / nb if nb else 1.0
    dev = sorted(abs(r - 1.0) for r in ratios)
    return {f"{kind}_within": within,
            f"{kind}_ratio_mean": sum(ratios) / nb if nb else 1.0,
            f"{kind}_ratio_spread": dev[-1] if dev else 0.0,
            f"{kind}_scale_for_95": _quantile(dev, 95) / window if window else 0.0}


def check_trajectories(trace: RunTrace, ctx: RoundContext, sample_size: int = 2000,
                       seed: int = 0, keep_rows: bool = False) -> TrajectoryReport:
    """Window report over a per-round uniform sample of pairs.

    For every recorded round, draws ``sample_size`` pairs uniformly from all
    C(n,2); window fractions are computed over the non-traversed pairs of
    the sample (the centres only apply to those), while the absolute caps
    closed <= i * n**(5 eps) and half_open <= i * sqrt(n) are checked on
    every sampled pair, traversed or not.
    """
    if trace.snapshots is None:
        raise ValueError("trace has no snapshots; rerun with record_snapshots=True")
    n = ctx.n
    m = num_pairs(n)
    report = TrajectoryReport(n=n, eps=ctx.eps, seed=seed, sample_size=sample_size)
    streams = rng.Streams()
    for i in range(0, ctx.rounds_total + 1):
        graph = trace.snapshots[i]
        cctx = ctx.with_round(i)
        gen = streams.rekey(seed, 0, round_=i, purpose=rng.SAMPLE)
        size = min(sample_size, m)
        ids = gen.choice(m, size=size, replace=False)
        us, vs = (ends.tolist() for ends in decode_edge_ids(ids, n))
        # each endpoint's blocked mask once: at n=5000 the 4,000 endpoints
        # of a round cover about 2,750 vertices
        blocked = {x: _blocked_mask(graph, x) for x in set(us).union(vs)}
        closed_cap = i * float(n) ** (5.0 * ctx.eps)
        half_cap = i * n ** 0.5
        window = float(ctx.windows[i])
        closed_viol = half_viol = 0
        max_closed = max_half = 0
        half_ratios: list[float] = []
        fully_ratios: list[float] = []
        for u, v in zip(us, vs):
            sc = _slot_counts(graph, u, v, cctx, blocked[u], blocked[v])
            if keep_rows:
                report.rows.append(sc)
            if sc.closed > closed_cap:
                closed_viol += 1
            if sc.half_open > half_cap:
                half_viol += 1
            max_closed = max(max_closed, sc.closed)
            max_half = max(max_half, sc.half_open)
            if not graph.is_birthed(u, v):
                half_ratios.append(sc.half_open_ratio())
                fully_ratios.append(sc.fully_open_ratio())
        report.rounds.append(RoundWindowReport(
            round=i, sampled=size, non_birthed=len(half_ratios),
            closed_cap=closed_cap, half_cap=half_cap,
            closed_cap_violations=closed_viol, half_cap_violations=half_viol,
            max_closed=max_closed, max_half=max_half,
            **_band_stats("half", half_ratios, window),
            **_band_stats("fully", fully_ratios, window),
        ))
    return report


CSV_HEADER = "round,u,v,closed,half_open,fully_open,half_center,fully_center,window"


def write_rows_csv(report: TrajectoryReport, fileobj) -> None:
    """Per-pair dump: (i, edge, counts, centres, window), one row per pair."""
    fileobj.write(CSV_HEADER + "\n")
    for sc in report.rows:
        fileobj.write(f"{sc.round},{sc.u},{sc.v},{sc.closed},{sc.half_open},"
                      f"{sc.fully_open},{sc.half_open_center!r},"
                      f"{sc.fully_open_center!r},{sc.window!r}\n")


__all__ = ["SlotCounts", "classify_pair", "check_trajectories",
           "TrajectoryReport", "RoundWindowReport", "write_rows_csv"]
