"""The triangle-free random greedy process, plus exact oracles.

One routine, ``_traverse``, runs the process: each round draws a uniform
time for every pair of K_n, takes the pairs not yet traversed whose time
falls below a threshold, and traverses them in increasing time order,
skipping any insertion that would close a triangle.  The order is that of a
stable sort: the faster default argsort gives it whenever the round's times
are distinct, and an exact tie falls back to the stable sort, so tied pairs
go in pair-index order.  Two stream schedules drive it:

``run_exact`` is the birth-order form: a single round whose times are the
birth times, with threshold 1 (every pair) or an optional cutoff.

``run_rounds`` is the round form: k**2 rounds, each traversing every
not-yet-traversed pair independently with probability step/sqrt(n), in
fresh uniform birth order within the round.  The two produce identically
distributed graphs when the cutoff matches the aggregate traversal
probability 1 - (1 - step/sqrt(n))**rounds.

``exhaustive_oracle`` returns the exact outcome distribution over all
C(n,2)! birth orders for n <= 5 by dynamic programming over
(processed-set, graph) states, which regroups the literal enumeration
without changing it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, sqrt
from typing import Optional

import numpy as np

from . import rng
from .graphcore import EvolvingGraph, decode_edge_ids, greedy_insert, num_pairs
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


def _birth_order(times: np.ndarray) -> np.ndarray:
    """The permutation that sorts ``times`` stably.

    The default (unstable) argsort is several times faster than the stable
    mergesort, and with distinct times every sort gives the same order; an
    exact tie, rare among 53-bit draws, falls back to the stable sort, so
    tied pairs keep their pair-index order on every machine.
    """
    order = np.argsort(times)
    ranked = times[order]
    if (ranked[1:] == ranked[:-1]).any():
        order = np.argsort(times, kind="stable")
    return order


def _traverse(n: int, gens, threshold: float, snapshots: Optional[list[EvolvingGraph]]
              ) -> tuple[EvolvingGraph, list[RoundRecord]]:
    """Run one round per generator in ``gens`` on an empty graph on n vertices.

    A round draws a time in [0, 1) for every pair and traverses, in stable
    time order (exact float ties fall back to pair-index order), the pairs
    not yet traversed whose time is below ``threshold``.  ``snapshots``, if
    given, receives a copy of the graph before the first round and after
    every round.
    """
    m = num_pairs(n)
    g = EvolvingGraph(n)
    # vectorised mirror of the ledger, so a round filters in numpy
    seen = np.zeros(m, dtype=bool)
    per_round: list[RoundRecord] = []
    if snapshots is not None:
        snapshots.append(g.copy())
    for i, gen in enumerate(gens, start=1):
        t = gen.random(m)
        fresh = (t < threshold) & ~seen
        seen |= fresh
        ids = np.nonzero(fresh)[0]
        times = t[ids]
        del t, fresh  # free the C(n,2) arrays before the round is sorted
        ids = ids[_birth_order(times)]
        del times
        us, vs = decode_edge_ids(ids, n)
        added = greedy_insert(g, us, vs)
        per_round.append(RoundRecord(i=i, birthed=len(ids), added=added,
                                     total_edges=g.edge_count))
        if snapshots is not None:
            snapshots.append(g.copy())
    return g, per_round


def run_exact(params: ProcessParams, trial: int = 0) -> RunTrace:
    """Birth-order process: all pairs sorted by uniform birth times."""
    n = params.ctx.n
    gens = [rng.stream(params.seed, trial, purpose=rng.EXACT)]
    # draws lie in [0, 1), so threshold 1 traverses every pair
    threshold = 1.0 if params.cutoff is None else params.cutoff
    g, per_round = _traverse(n, gens, threshold, None)
    return RunTrace(n=n, mode="exact", seed=params.seed, trial=trial,
                    per_round=per_round, graph=g, cutoff=params.cutoff)


def run_rounds(params: ProcessParams, trial: int = 0) -> RunTrace:
    """Round form of the process through all k**2 rounds."""
    ctx = params.ctx
    gens = (rng.stream(params.seed, trial, round_=i, purpose=rng.ROUNDS)
            for i in range(1, ctx.rounds_total + 1))
    snapshots = [] if params.record_snapshots else None
    g, per_round = _traverse(ctx.n, gens, ctx.birth_prob, snapshots)
    return RunTrace(n=ctx.n, mode="rounds", seed=params.seed, trial=trial,
                    per_round=per_round, graph=g, snapshots=snapshots)


def run(params: ProcessParams, trial: int = 0) -> RunTrace:
    return run_exact(params, trial) if params.mode == "exact" else run_rounds(params, trial)


def aggregate_cutoff(ctx: RoundContext) -> float:
    """Total traversal probability of the round form: 1 - (1 - q)**rounds."""
    return 1.0 - (1.0 - ctx.birth_prob) ** ctx.rounds_total


# ---------------------------------------------------------------------------
# exact small-instance oracle


@dataclass(frozen=True)
class OracleDistribution:
    n: int
    total_orderings: int
    edge_count_probs: dict[int, Fraction]
    class_probs: dict[str, Fraction]
    # canonical edge tuple per class name, for labelling simulated outcomes
    class_forms: dict[str, tuple[tuple[int, int], ...]] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "total_orderings": self.total_orderings,
            "edge_count_probs": {str(k): {"num": v.numerator, "den": v.denominator,
                                          "float": float(v)}
                                 for k, v in sorted(self.edge_count_probs.items())},
            "class_probs": {k: {"num": v.numerator, "den": v.denominator,
                                "float": float(v)}
                            for k, v in sorted(self.class_probs.items())},
        }


_NAMED_SHAPES = [
    ("K2", lambda: pat.CATALOG["K2"]),
    ("P3", lambda: pat.CATALOG["P3"]),
    ("P4", lambda: pat.CATALOG["P4"]),
    ("C4", lambda: pat.CATALOG["C4"]),
    ("C5", lambda: pat.CATALOG["C5"]),
    ("K13", lambda: pat.star_graph(3)),
    ("K14", lambda: pat.star_graph(4)),
    ("K23", lambda: pat.complete_bipartite(2, 3)),
]


def _class_name(edges: tuple[tuple[int, int], ...]) -> str:
    if not edges:
        return "empty"
    candidate = pat.PatternGraph.from_edges(edges)
    for name, maker in _NAMED_SHAPES:
        ref = maker()
        if (ref.v, ref.e) == (candidate.v, candidate.e) and pat.is_isomorphic(candidate, ref):
            return name
    return f"v{candidate.v}e{candidate.e}"


def _closure_table(n: int):
    """closes[graph_mask][edge] for all graphs on <= 10 pair slots."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = len(pairs)
    idx = {e: i for i, e in enumerate(pairs)}
    table = []
    for gmask in range(1 << m):
        row = []
        for (u, v) in pairs:
            closed = False
            for w in range(n):
                if w == u or w == v:
                    continue
                e1 = idx[(min(u, w), max(u, w))]
                e2 = idx[(min(v, w), max(v, w))]
                if (gmask >> e1) & 1 and (gmask >> e2) & 1:
                    closed = True
                    break
            row.append(closed)
        table.append(row)
    return pairs, table


def exhaustive_oracle(n: int) -> OracleDistribution:
    """Exact distribution of the final graph over all birth orders, n <= 5.

    States (processed pairs, current graph) are advanced one traversal at a
    time with ordering multiplicities carried as exact integers; merging
    equal states is a pure regrouping of the C(n,2)! orderings (validated
    against the literal 720-ordering iteration at n = 4 in the test suite).
    """
    if n not in (3, 4, 5):
        raise ValueError(f"exhaustive oracle supports n in {{3, 4, 5}}, got {n}")
    pairs, closes = _closure_table(n)
    m = len(pairs)
    states: dict[tuple[int, int], int] = {(0, 0): 1}
    for _ in range(m):
        nxt: dict[tuple[int, int], int] = {}
        for (proc, gmask), ways in states.items():
            for e in range(m):
                if (proc >> e) & 1:
                    continue
                ng = gmask if closes[gmask][e] else (gmask | (1 << e))
                key = (proc | (1 << e), ng)
                nxt[key] = nxt.get(key, 0) + ways
        states = nxt
    total = factorial(m)
    finals: dict[int, int] = {}
    for (_, gmask), ways in states.items():
        finals[gmask] = finals.get(gmask, 0) + ways
    edge_probs: dict[int, Fraction] = {}
    class_counts: dict[tuple, int] = {}
    for gmask, ways in finals.items():
        k = gmask.bit_count()
        edge_probs[k] = edge_probs.get(k, Fraction(0)) + Fraction(ways, total)
        edges = tuple(pairs[e] for e in range(m) if (gmask >> e) & 1)
        canon = pat.canonical_form(n, edges)
        class_counts[canon] = class_counts.get(canon, 0) + ways
    class_probs = {}
    class_forms = {}
    for canon, ways in class_counts.items():
        name = _class_name(canon)
        class_probs[name] = class_probs.get(name, Fraction(0)) + Fraction(ways, total)
        class_forms[name] = canon
    return OracleDistribution(n=n, total_orderings=total,
                              edge_count_probs=dict(sorted(edge_probs.items())),
                              class_probs=dict(sorted(class_probs.items())),
                              class_forms=class_forms)


# ---------------------------------------------------------------------------
# campaign helpers


_CLASS_CACHE: dict[tuple, str] = {}


def classify_final_graph(graph: EvolvingGraph) -> str:
    """Isomorphism-class name of a tiny final graph (n <= 8, memoized)."""
    key = (graph.n, tuple(graph.adj))
    name = _CLASS_CACHE.get(key)
    if name is None:
        edges = tuple(graph.edges())
        name = _class_name(pat.canonical_form(graph.n, edges))
        _CLASS_CACHE[key] = name
    return name


def final_distribution_sample(ctx: RoundContext, trials: int, seed: int, *,
                              mode: str = "exact", cutoff: float | None = None,
                              classify: bool = False) -> tuple[Counter, Counter]:
    """Edge-count (and optionally class) counters over independent trials."""
    params = ProcessParams(ctx=ctx, seed=seed, mode=mode, cutoff=cutoff)
    edge_counter: Counter = Counter()
    class_counter: Counter = Counter()
    for t in range(trials):
        trace = run(params, trial=t)
        edge_counter[trace.final_edges] += 1
        if classify:
            class_counter[classify_final_graph(trace.graph)] += 1
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
