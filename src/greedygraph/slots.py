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
from functools import reduce
from operator import or_

import numpy as np

from . import rng
from .graphcore import (_GATHER, _SLICE, EvolvingGraph, bit_slots, check_memory, choice_bytes,
                        decode_edge_ids, iter_bits, num_pairs, pair_rows, reach_rows,
                        row_bit_counts)
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


def _centres(n: int, ctx: RoundContext) -> tuple[float, float, float]:
    """Round ``ctx.round``'s half-open and fully-open centres and window."""
    i = ctx.round
    traj_i = float(ctx.traj[i])
    dens_i = float(ctx.density[i])
    return 2.0 * (n ** 0.5) * traj_i * dens_i, n * dens_i * dens_i, float(ctx.windows[i])


def classify_pair(graph: EvolvingGraph, u: int, v: int, ctx: RoundContext) -> SlotCounts:
    """Slot counts for the pair {u, v} against the snapshot held in ``graph``,
    counted on the int bitmask rows: the scalar reference of
    ``classify_pairs``.

    Pure: recomputing on a stored snapshot always returns the same counts.
    """
    u, v = graph._check_pair(u, v)
    n = graph.n
    adj = graph.adj
    birthed = graph.birthed_adj
    full = (1 << n) - 1
    valid = full & ~(1 << u) & ~(1 << v)
    au, av = adj[u], adj[v]
    # a pair {x, w} is addable unless traversed or w is a neighbour of a
    # neighbour of x
    addable_u = valid & ~birthed[u] & ~reduce(or_, map(adj.__getitem__, iter_bits(au)), 0)
    addable_v = valid & ~birthed[v] & ~reduce(or_, map(adj.__getitem__, iter_bits(av)), 0)
    closed = (au & av & valid).bit_count()
    half = ((au & ~av & valid) & addable_v).bit_count() \
        + ((av & ~au & valid) & addable_u).bit_count()
    fully = (valid & ~au & ~av & addable_u & addable_v).bit_count()
    half_c, fully_c, window = _centres(n, ctx)
    return SlotCounts(u=u, v=v, round=ctx.round, closed=closed, half_open=half,
                      fully_open=fully, half_open_center=half_c,
                      fully_open_center=fully_c, window=window)


def _addable_rows(graph: EvolvingGraph, ends: np.ndarray,
                  traversed: np.ndarray) -> tuple[np.ndarray, ...]:
    """The adjacency, addable and traversed rows of the vertices ``ends``, as
    ``bitset_words`` arrays, given ``traversed``, all n traversed rows.  Vertex
    x's addable row holds each w != x whose pair {x, w} is not traversed and
    would close no triangle: w shares no neighbour with x (``reach_rows``)."""
    words = graph.words
    addable = reach_rows(words, ends)
    traversed = traversed[ends]
    addable |= traversed
    at, bits = bit_slots(np.arange(len(ends)), ends, words.shape[1])
    addable.reshape(-1)[at] |= bits
    np.invert(addable, out=addable)
    addable[:, -1] &= np.uint64((1 << (graph.n - 1) % 64 + 1) - 1)  # no bit at or past n
    return words[ends], addable, traversed


# Bytes of word rows that classify_pairs gathers and combines for one block
# of pairs: the four gathered rows and their temporaries, 8 rows per pair
_BLOCK_BYTES = 1 << 20


def _check_bytes(trace: RunTrace, pairs: int, kept: int) -> int:
    """Bytes ``check_trajectories`` holds at its peak when it samples
    ``pairs`` pairs a round from the snapshots of ``trace`` and keeps
    ``kept`` rows for the CSV:

    - the draw of the pairs (``choice_bytes``) and 96 bytes per pair for
      their endpoints, row indices and counts;
    - the traversed rows, grown snapshot by snapshot: n rows of ceil(n/64)
      words, and a byte a word of the snapshot's rows for degrees;
    - per endpoint, of at most min(n, 2 * pairs): 3 rows (the adjacency,
      traversed and addable rows) and 40 bytes;
    - 6 * ``_GATHER`` for a ``reach_rows`` block (its rows, its CSR of up to
      ``_GATHER`` / 8 set bits at 32 bytes each, the gathered rows and their
      OR), or 48 bytes per pair of vertices at small n;
    - 64 per pair of the largest slice of traversed ids decoded, those new
      at one snapshot but at most ``_SLICE``, and 8 per vertex;
    - ``_BLOCK_BYTES`` for one block of pairs;
    - 300 per kept row.
    """
    n = trace.n
    row = 8 * ((n + 63) // 64)
    ends = min(n, 2 * pairs)
    new = max(np.diff([0, *(s.birthed_count for s in trace.snapshots)]).tolist())
    return (choice_bytes(num_pairs(n), pairs) + 96 * pairs + n * row + n * row // 8
            + ends * (3 * row + 40) + 6 * min(_GATHER, 8 * n * n)
            + 64 * min(new, _SLICE) + 8 * n + _BLOCK_BYTES + 300 * kept)


def classify_pairs(graph: EvolvingGraph, traversed: np.ndarray, us, vs) -> tuple[np.ndarray, ...]:
    """The closed, half-open and fully-open counts of the pairs
    (us[j], vs[j]) against the snapshot held in ``graph``, whose traversed
    pairs set the rows ``traversed`` of all n vertices (``pair_rows``), as
    int64 arrays, equal to ``classify_pair``'s, and whether each pair is not
    yet traversed, as a bool array.  The pairs are not checked: each must
    have distinct endpoints in range.

    Each distinct endpoint's adjacency, addable and traversed rows are
    built once (``_addable_rows``), and the pairs are counted a block at a
    time (``_BLOCK_BYTES``) with popcounts over their gathered rows.  With
    a, b the adjacency rows of u and v and p, q their addable rows: closed
    a & b, half open (a & ~b & q) + (b & ~a & p), fully open p & q & ~(a | b).
    No other mask is needed: every count ANDs a row of u, which lacks bit u,
    with a row of v, which lacks bit v, and no row holds a bit at or past n.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    ends = np.unique(np.concatenate([us, vs]))
    rows, addable, traversed = _addable_rows(graph, ends, traversed)
    iu = np.searchsorted(ends, us)
    iv = np.searchsorted(ends, vs)
    counts = np.empty((3, len(us)), dtype=np.int64)
    step = max(1, _BLOCK_BYTES // (64 * rows.shape[1]))
    for s in range(0, len(us), step):
        a, b = rows[iu[s:s + step]], rows[iv[s:s + step]]
        p, q = addable[iu[s:s + step]], addable[iv[s:s + step]]
        counts[0, s:s + step] = row_bit_counts(a & b)
        counts[1, s:s + step] = row_bit_counts(a & ~b & q) + row_bit_counts(b & ~a & p)
        counts[2, s:s + step] = row_bit_counts(p & q & ~(a | b))
    at, bit = bit_slots(iu, vs, traversed.shape[1])
    fresh = traversed.reshape(-1)[at] & bit == 0
    return counts[0], counts[1], counts[2], fresh


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


def _ratios(counts: np.ndarray, centre: float) -> list[float]:
    """count / centre for each count, as floats; with a zero centre, 1.0
    for a zero count and inf for any other."""
    if centre == 0.0:
        return [1.0 if c == 0 else float("inf") for c in counts.tolist()]
    return (counts / centre).tolist()


def check_trajectories(trace: RunTrace, ctx: RoundContext, sample_size: int = 2000,
                       seed: int = 0, keep_rows: bool = False) -> TrajectoryReport:
    """Window report over a per-round uniform sample of pairs.

    For every recorded round, draws ``sample_size`` pairs uniformly from all
    C(n,2) and counts their slots with ``classify_pairs``; window fractions
    are computed over the non-traversed pairs of the sample (the centres
    only apply to those), while the absolute caps
    closed <= i * n**(5 eps) and half_open <= i * sqrt(n) are checked on
    every sampled pair, traversed or not.  Raises ValueError, before any
    draw, when a round's work would not fit in memory (``check_memory``).
    """
    if trace.snapshots is None:
        raise ValueError("trace has no snapshots; rerun with record_snapshots=True")
    n = ctx.n
    m = num_pairs(n)
    size = min(sample_size, m)
    # made before the check, so that what it maps counts as mapped already
    streams = rng.Streams()
    check_memory(_check_bytes(trace, size, size * (ctx.rounds_total + 1) * keep_rows),
                 f"the trajectory check at n={n}")
    report = TrajectoryReport(n=n, eps=ctx.eps, seed=seed, sample_size=sample_size)
    traversed = pair_rows([], n)
    for i in range(0, ctx.rounds_total + 1):
        graph = trace.snapshots[i]
        # each snapshot's traversed ids extend the one before it
        pair_rows(graph.traversed[trace.snapshots[max(i - 1, 0)].birthed_count:], n, traversed)
        gen = streams.rekey(seed, 0, round_=i, purpose=rng.SAMPLE)
        us, vs = decode_edge_ids(gen.choice(m, size=size, replace=False), n)
        closed, half, fully, fresh = classify_pairs(graph, traversed, us, vs)
        half_c, fully_c, window = _centres(n, ctx.with_round(i))
        if keep_rows:
            report.rows.extend(
                SlotCounts(u=u, v=v, round=i, closed=c, half_open=h, fully_open=f,
                           half_open_center=half_c, fully_open_center=fully_c,
                           window=window)
                for u, v, c, h, f in zip(us.tolist(), vs.tolist(), closed.tolist(),
                                         half.tolist(), fully.tolist()))
        closed_cap = i * float(n) ** (5.0 * ctx.eps)
        half_cap = i * n ** 0.5
        report.rounds.append(RoundWindowReport(
            round=i, sampled=size, non_birthed=int(fresh.sum()),
            closed_cap=closed_cap, half_cap=half_cap,
            closed_cap_violations=int((closed > closed_cap).sum()),
            half_cap_violations=int((half > half_cap).sum()),
            max_closed=int(closed.max(initial=0)), max_half=int(half.max(initial=0)),
            **_band_stats("half", _ratios(half[fresh], half_c), window),
            **_band_stats("fully", _ratios(fully[fresh], fully_c), window),
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


__all__ = ["SlotCounts", "classify_pair", "classify_pairs", "check_trajectories",
           "TrajectoryReport", "RoundWindowReport", "write_rows_csv"]
