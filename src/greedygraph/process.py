"""The triangle-free random greedy process, plus exact oracles.

One routine, ``_run``, runs the process: it traverses pairs of K_n in
order, skipping any insertion that would close a triangle.  A pair's round
and its birth time within the round make one aggregate birth time, uniform
in [0, 1) and independent across pairs, so one draw per trial gives a whole
run: the pairs whose time falls below the run's share, in increasing time
order, cut into rounds at the rounds' bounds.  The draw keeps each pair
independently with that share, shuffles the kept pairs into uniform order
and draws the rounds' sizes, so it costs the pairs kept, not C(n,2).  Two
forms share it:

``run_exact`` is the birth-order form: a single round, below 1 (every
pair, in a uniform permutation) or below an optional cutoff.

``run_rounds`` is the round form: k**2 rounds, each traversing every
not-yet-traversed pair independently with probability step/sqrt(n), in
fresh uniform birth order within the round.  The two produce identically
distributed graphs when the cutoff matches the aggregate traversal
probability 1 - (1 - step/sqrt(n))**rounds.

``final_distribution_sample`` runs a campaign of many trials of either
form: each trial draws its pair sequence as ``run`` does, then blocks of
trials traverse their sequences in lockstep, one position of every trial
per numpy step.  Trial t's final graph is the one ``run`` builds for it.

``exhaustive_oracle`` returns the exact outcome distribution over all
C(n,2)! birth orders for n <= 5 as a chain over adjacency alone: given the
graph so far, the next edge is uniform among the open pairs (those whose
ends share no neighbour), since none of them has been traversed yet.

Outcome classes are named from the labelled adjacency of a final graph,
for any n: its non-isolated part is matched against a few named shapes
(K2, P3, P4, C4, C5, K13, K14, K23) by the pattern isomorphism search,
and any other graph is named v<vertices>e<edges>.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from math import ceil, factorial, sqrt
from typing import Optional

import numpy as np

from . import graphcore, rng
from .graphcore import (_SLICE, EvolvingGraph, bit_slots, bitset_ints, check_memory,
                        decode_edge_ids, greedy_insert, num_pairs, row_bit_counts)
from .numerics import RoundContext
from . import patterns as pat


@dataclass
class ProcessParams:
    """One process configuration; (params, trial) fully determines a run."""

    ctx: RoundContext
    seed: int
    mode: str = "rounds"                 # "exact" | "rounds"
    record_snapshots: bool = False
    cutoff: Optional[float] = None       # birth-time threshold, exact mode only

    def __post_init__(self):
        if self.mode not in ("exact", "rounds"):
            raise ValueError(f"mode must be 'exact' or 'rounds', got {self.mode!r}")
        if self.cutoff is not None and not (0.0 < self.cutoff <= 1.0):
            raise ValueError(f"cutoff must lie in (0, 1], got {self.cutoff!r}")


@dataclass(frozen=True)
class RoundRecord:
    i: int
    birthed: int
    added: int
    total_edges: int


@dataclass
class RunTrace:
    n: int
    mode: str
    seed: int
    trial: int
    per_round: list[RoundRecord]
    graph: EvolvingGraph
    snapshots: Optional[list[EvolvingGraph]] = None
    cutoff: Optional[float] = None

    @property
    def final_edges(self) -> int:
        return self.graph.edge_count

    def to_json_dict(self) -> dict:
        return {
            "params": {"n": self.n, "mode": self.mode, "seed": self.seed,
                       "trial": self.trial, "cutoff": self.cutoff},
            "per_round": [{"i": r.i, "birthed": r.birthed, "added": r.added,
                           "total_edges": r.total_edges} for r in self.per_round],
            "final_edges": self.final_edges,
        }


def _schedule(params: ProcessParams):
    """The stream purpose of a run, the share of the pairs it traverses and
    the bounds between its rounds, on the scale of a pair's aggregate birth
    time.  The birth-order form is one round, below the cutoff or below 1
    (every pair); round i of the round form's k**2 takes the times in
    [1 - (1 - q)**(i-1), 1 - (1 - q)**i), q the birth probability."""
    if params.mode == "exact":
        return rng.EXACT, 1.0 if params.cutoff is None else params.cutoff, []
    q = params.ctx.birth_prob
    return (rng.ROUNDS, aggregate_cutoff(params.ctx),
            [1.0 - (1.0 - q) ** i for i in range(1, params.ctx.rounds_total)])


def _cap(m: int, share: float) -> int:
    """Six standard deviations above the mean of Binomial(m, share), the
    count of pairs a run keeps, or m if that is fewer."""
    return min(m, ceil(share * m + 6 * sqrt(share * m)))


def _draw(streams: rng.Streams, params: ProcessParams, trial: int, schedule, cap: int):
    """Trial ``trial``'s traversed pair ids in traversal order, and where in
    them each round but the last ends, given ``_schedule(params)`` and its ``_cap``.

    One stream cell per trial: (seed, trial, 0, the form's purpose).  A
    pair's round and its time within the round make one aggregate birth
    time, uniform in [0, 1) and independent across pairs, so a run traverses
    each pair with its share independently, in uniform order.  The kept ids
    are drawn ascending by geometric gaps, ``cap`` gaps at a time until they
    pass C(n,2), so the draw costs the pairs kept, not C(n,2); an uncut run
    keeps every pair.  One in-place shuffle puts them in uniform order.  The
    rounds' sizes are one multinomial draw over the kept count, round i's
    probability being its share of [0, share): i.i.d. (round, time) keys
    give a uniform order and multinomial round sizes that do not depend on
    it.  A schedule without bounds draws no sizes; since they come after the
    shuffle, the ids are the same.
    """
    m = num_pairs(params.ctx.n)
    purpose, share, bounds = schedule
    gen = streams.rekey(params.seed, trial, 0, purpose)
    if share >= 1.0:
        ids = np.arange(m)
    else:
        ids = gen.geometric(share, cap)
        np.cumsum(ids, out=ids)
        ids -= 1
        while ids[-1] < m:
            more = gen.geometric(share, cap)
            np.cumsum(more, out=more)
            more += ids[-1]
            ids = np.concatenate([ids, more])
        ids = ids[:np.searchsorted(ids, m)]
    gen.shuffle(ids)
    if not bounds:
        return ids, []
    sizes = gen.multinomial(len(ids), np.diff([0.0, *bounds, share]) / share)
    return ids, np.cumsum(sizes[:-1]).tolist()


def _round_bytes(n: int, share: float, snapshots: int = 0) -> int:
    """Bytes of address space a run on n vertices maps at its peak, beyond
    what was mapped before it, when it keeps a ``share`` of the m = C(n,2)
    pairs (``_cap`` at most) and ``snapshots`` copies of the graph.  The
    draw holds only the ids, 8 bytes per pair kept, shuffled in place, so
    the insertion sets the peak:

    - 8 per pair kept for the ids, which are also the traversed pairs;
    - the graph's word rows, 8n * ceil(n/64) bytes (about n**2/8), twice:
      a call copies them before it writes, and its reach rows
      (``reach_rows``) take as much; with snapshots, one set per snapshot
      (the last is the graph's own) and the reach rows;
    - 64 per pair of the slice of 2^16 ids being decoded and inserted (about
      42 traced), which also covers a chunk's gathered rows, or the last slice's
      arrays and a sieve's 1.5 MiB block, and 8 per vertex; n**2/64 for a sieve's degrees.

    On x86_64 Linux (glibc malloc, numpy 2.4) under a 1,000,000 KiB RLIMIT_AS
    with about 109 MiB mapped and the check off, the last n that completes
    is 14579 uncut, 24862 at cutoff 0.3, 18434 at 0.6 and 15308 at 0.9; this
    figure accepts up to n = 14567, 24839, 18422 and 15296, and overstates
    the need of the last n that completes by 0.15%, 0.16%, 0.15% and 0.14%."""
    m = num_pairs(n)
    kept = _cap(m, share)
    return ceil(8 * kept + (1 + max(1, snapshots)) * 8 * n * ((n + 63) // 64)
                + 64 * min(kept, _SLICE) + 8 * n + n * n / 64)


def _run(params: ProcessParams, trial: int) -> RunTrace:
    """Trial ``trial`` of the form ``params.mode`` on an empty graph: one
    ``_draw``, then each of its rounds traversed in one ``greedy_insert``
    call, the graph's ``traversed`` then being a view of the draw up to the
    round's end.  When recorded, the snapshots are a copy of the empty graph
    and one after each round.  Raises ValueError, before any draw, when the
    run would not fit in memory (``check_memory``).
    """
    n = params.ctx.n
    _, share, bounds = schedule = _schedule(params)
    # made before the check, so that what it maps (numpy.random, loaded on
    # first use) counts as mapped already
    streams = rng.Streams()
    check_memory(_round_bytes(n, share, (len(bounds) + 2) * params.record_snapshots),
                 f"a run at n={n}")
    ids, ends = _draw(streams, params, trial, schedule, _cap(num_pairs(n), share))
    g = EvolvingGraph(n)
    per_round: list[RoundRecord] = []
    snapshots = [g.copy()] if params.record_snapshots else None
    for i, (a, b) in enumerate(zip([0, *ends], [*ends, len(ids)]), start=1):
        added = greedy_insert(g, ids[a:b])
        g.traversed = ids[:b]
        per_round.append(RoundRecord(i=i, birthed=b - a, added=added,
                                     total_edges=g.edge_count))
        if snapshots is not None:
            snapshots.append(g.copy())
    return RunTrace(n=n, mode=params.mode, seed=params.seed, trial=trial,
                    per_round=per_round, graph=g, snapshots=snapshots,
                    cutoff=params.cutoff)


def run_exact(params: ProcessParams, trial: int = 0) -> RunTrace:
    """Birth-order process: every pair, or each with the cutoff's share, in
    uniform order, in one round (two snapshots, when recorded: the empty graph and the final one)."""
    return _run(replace(params, mode="exact"), trial)


def run_rounds(params: ProcessParams, trial: int = 0) -> RunTrace:
    """Round form of the process through all k**2 rounds (it has no cutoff)."""
    return _run(replace(params, mode="rounds", cutoff=None), trial)


def run(params: ProcessParams, trial: int = 0) -> RunTrace:
    return run_exact(params, trial) if params.mode == "exact" else run_rounds(params, trial)


def aggregate_cutoff(ctx: RoundContext) -> float:
    """Total traversal probability of the round form: 1 - (1 - q)**rounds."""
    return 1.0 - (1.0 - ctx.birth_prob) ** ctx.rounds_total


# ---------------------------------------------------------------------------
# exact small-instance oracle


def _fraction_map(probs: dict) -> dict:
    """Exact probabilities as JSON: numerator, denominator and float, keyed
    by the key as a string, in key order."""
    return {str(k): {"num": v.numerator, "den": v.denominator, "float": float(v)}
            for k, v in sorted(probs.items())}


@dataclass(frozen=True)
class OracleDistribution:
    n: int
    total_orderings: int
    edge_count_probs: dict[int, Fraction]
    class_probs: dict[str, Fraction]

    def to_json_dict(self) -> dict:
        return {"n": self.n, "total_orderings": self.total_orderings,
                "edge_count_probs": _fraction_map(self.edge_count_probs),
                "class_probs": _fraction_map(self.class_probs)}


# the outcome classes that have a name: (name, edges, adjacency masks)
_SHAPES = [(name, shape.e, shape.adjacency()) for name, shape in (
    ("K2", pat.CATALOG["K2"]), ("P3", pat.CATALOG["P3"]), ("P4", pat.CATALOG["P4"]),
    ("C4", pat.CATALOG["C4"]), ("C5", pat.CATALOG["C5"]), ("K13", pat.CATALOG["K13"]),
    ("K14", pat.star_graph(4)), ("K23", pat.complete_bipartite(2, 3)))]


def _class_name(adj: list[int]) -> str:
    """Isomorphism-class name of a labelled graph given as adjacency masks,
    isolated vertices ignored: a named shape, else v<vertices>e<edges>."""
    keep = sum(1 << u for u, m in enumerate(adj) if m)
    if not keep:
        return "empty"
    sub = pat.induced(adj, keep)
    e = sum(m.bit_count() for m in sub) // 2
    for name, shape_e, shape in _SHAPES:
        if shape_e == e and pat.isomorphisms(sub, shape, first=True):
            return name
    return f"v{len(sub)}e{e}"


def exhaustive_oracle(n: int) -> OracleDistribution:
    """Exact distribution of the final graph over all birth orders, n <= 5.

    A pair is open when it is not an edge and its ends share no neighbour.
    An open pair has not been traversed (it would have been added), so
    given the graph so far the next edge is uniform among the open pairs
    (Erdős, Suen & Winkler, "On the size of a random maximal graph", 1995),
    and the process ends when none is left.  The chain runs over adjacency
    masks alone, with exact Fraction probabilities; it regroups the C(n,2)!
    orderings without changing the distribution (validated against the
    literal 720-ordering iteration at n = 4 in the test suite).
    """
    if n not in (3, 4, 5):
        raise ValueError(f"exhaustive oracle supports n in {{3, 4, 5}}, got {n}")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    states: dict[tuple[int, ...], Fraction] = {(0,) * n: Fraction(1)}
    edge_probs: Counter = Counter()
    class_probs: Counter = Counter()
    while states:
        nxt: dict[tuple[int, ...], Fraction] = {}
        for adj, p in states.items():
            open_ = [(u, v) for u, v in pairs if not (adj[u] >> v) & 1 and not adj[u] & adj[v]]
            if not open_:
                edge_probs[sum(m.bit_count() for m in adj) // 2] += p
                class_probs[_class_name(adj)] += p
            for u, v in open_:
                after = list(adj)
                after[u] |= 1 << v
                after[v] |= 1 << u
                after = tuple(after)
                nxt[after] = nxt.get(after, 0) + p / len(open_)
        states = nxt
    return OracleDistribution(n=n, total_orderings=factorial(len(pairs)),
                              edge_count_probs=dict(sorted(edge_probs.items())),
                              class_probs=dict(sorted(class_probs.items())))


# ---------------------------------------------------------------------------
# campaign helpers


# Byte budget of one block of trials in the campaign path, its adjacency words
# and padded pair sequences: a step makes a dozen numpy calls at any width, so
# wide blocks amortise them (500 trials of C4's setting at n = 100 are one).
_BLOCK_BYTES = 4 << 20
# Bytes per pair of the campaign path's pair table.
_TABLE_BYTES = 64
# Class names a block memoizes at most: one per labelled graph on five vertices.
_NAMES = 1 << 10


def _pair_table(n: int):
    """Per-pair lookup for ``_lockstep``, indexed by pair id: the endpoints
    (u, v), u < v, as row offsets within a trial; the word offsets of bit v
    in row u and of bit u in row v; and those two bits.  One extra entry,
    the padding id C(n,2), has endpoints (0, 1) and no bits, so a step on
    it changes nothing."""
    m = num_pairs(n)
    u, v = decode_edge_ids(np.arange(m), n)
    u, v = np.append(u, 0), np.append(v, 1)
    words = (n + 63) // 64
    at_uv, bit_uv = bit_slots(u, v, words)
    at_vu, bit_vu = bit_slots(v, u, words)
    bits = np.stack([bit_uv, bit_vu], axis=1)
    bits[m] = 0
    return np.stack([u, v], axis=1), np.stack([at_uv, at_vu], axis=1), bits


def _lockstep(n: int, table, seq: np.ndarray) -> np.ndarray:
    """Final adjacency of the trials whose pair ids are the columns of ``seq``.

    Trial t traverses seq[:, t] in order, as ``greedy_insert`` would; the
    columns are padded with the id C(n,2).  All trials take step j together:
    the pair's two bits are set in every trial where ``graphcore._open``
    finds it open (a closed pair steps on the padding id instead).  Returns
    the rows as one (trials * n, ceil(n/64)) uint64 word array, row t * n + u.
    """
    ends, offsets, bits = table
    pad = len(ends) - 1
    trials = seq.shape[1]
    words = (n + 63) // 64
    rows = np.zeros((trials * n, words), dtype=np.uint64)
    flat = rows.reshape(-1)
    base = np.repeat(np.arange(trials)[:, None] * n, 2, axis=1)
    base_words = base * words
    for p in seq:
        p = p.astype(np.intp)
        e = ends.take(p, axis=0)
        e += base
        p = np.where(graphcore._open(rows, e), p, pad)
        at = offsets.take(p, axis=0)
        at += base_words
        flat[at] |= bits.take(p, axis=0)
    return rows


def _final_blocks(params: ProcessParams, trials: int):
    """Final adjacency words of trials 0..trials-1, a block of trials at a time.

    Each trial of a block takes its pair sequence from ``_draw``, as ``run``
    does, into a column of one padded matrix, and ``_lockstep`` traverses
    the columns together: a round ends where the next begins, so the whole
    sequence needs no split, and the draw skips the rounds' sizes.  So trial
    t's rows are ``run(params, t).graph.words``.  The matrix has the narrowest
    signed type that holds the padding id C(n,2); the block size comes from
    ``_BLOCK_BYTES`` and a column length of ``_cap`` pairs, and a longer
    sequence grows the matrix.  Raises ValueError, before any draw, when the
    work would not fit in memory (``check_memory``).
    """
    n = params.ctx.n
    m = num_pairs(n)
    purpose, share, _ = _schedule(params)
    cap = _cap(m, share)
    dtype = next(t for t in (np.int16, np.int32, np.int64) if m <= np.iinfo(t).max)
    # a trial's rows and a byte a word for their degree count, its column of
    # the matrix, and its share of a step's gathered rows and index arrays
    per_trial = (9 * n + 24) * ((n + 63) // 64) + dtype().itemsize * cap + 128
    block = max(1, min(trials, _BLOCK_BYTES // per_trial))
    # a trial's draw (``_round_bytes``, which also covers a run's graph and
    # insertion), the table and the block
    check_memory(_round_bytes(n, share) + _TABLE_BYTES * m
                 + block * per_trial, f"a campaign at n={n}")
    table = _pair_table(n)
    # one matrix serves every block, so two are never alive at once
    seq = np.empty((cap, block), dtype=dtype)
    streams = rng.Streams()
    for start in range(0, trials, block):
        cols = min(block, trials - start)
        seq.fill(m)
        longest = 0
        for col in range(cols):
            ids, _ = _draw(streams, params, start + col, (purpose, share, []), cap)
            if len(ids) > len(seq):
                seq = np.vstack([seq, np.full((len(ids) - len(seq), block), m, dtype=dtype)])
            seq[:len(ids), col] = ids
            longest = max(longest, len(ids))
        yield _lockstep(n, table, seq[:longest, :cols])


def final_distribution_sample(ctx: RoundContext, trials: int, seed: int, *,
                              mode: str = "exact", cutoff: float | None = None,
                              classify: bool = False) -> tuple[Counter, Counter]:
    """Edge-count (and optionally class) counters over trials 0..trials-1;
    trial t's final graph is ``run(ProcessParams(...), t).graph``."""
    params = ProcessParams(ctx=ctx, seed=seed, mode=mode, cutoff=cutoff)
    n = ctx.n
    edge_counter: Counter = Counter()
    class_counter: Counter = Counter()
    for rows in _final_blocks(params, trials):
        # a trial's n rows, read as one bitset row, hold its degree sum
        trial_rows = rows.reshape(-1, n * rows.shape[1])
        edge_counter.update((row_bit_counts(trial_rows) // 2).tolist())
        names: dict[bytes, str] = {}  # by a trial's word bytes, for this block only
        for words in trial_rows if classify else ():
            key = words.tobytes()
            name = names.get(key) or _class_name(list(bitset_ints(words.reshape(n, -1))))
            if len(names) < _NAMES:
                names[key] = name
            class_counter[name] += 1
        del rows, trial_rows, names  # before the next block's rows are made
    return edge_counter, class_counter


def tv_distance(p, q) -> float:
    """Total variation distance between two distributions given as mappings
    key -> probability (Fractions or floats; need not share support)."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(float(p.get(k, 0.0)) - float(q.get(k, 0.0))) for k in keys)


def normalize_counter(c: Counter) -> dict:
    total = sum(c.values())
    return {k: v / total for k, v in c.items()}


def predicted_final_edges(ctx: RoundContext) -> float:
    """First-order prediction for |final graph| of the round form:
    C(n,2) * traj(rounds * step) / sqrt(n)."""
    n = ctx.n
    return num_pairs(n) * float(ctx.traj[ctx.rounds_total]) / sqrt(n)
