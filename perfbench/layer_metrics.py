"""Per-layer metrics from the span records of one traced run.

Span run ids name where a span came from: ``<workload>/setup`` and
``<workload>/rep<j>`` for the measured workload, ``probe:<other>/setup``
and ``probe:<other>/rep0`` for the tiny-size pass over the other
workloads.  A metric is computed from the workload's own spans; a layer
the workload never calls is measured on the probe spans instead, so that
every traced run reports every layer with a real measurement.

Counts (calls, pairs) come from the first repetition of each source, whose
inputs are fixed by the seed, so they repeat exactly; times are totals
over all traced repetitions divided by their number, or by the calls,
pairs or trees they cover.
"""

from __future__ import annotations

from spans import children_of, self_ns

PATTERN_LABELS = {"P3": "P3", "C4": "C4", "P4": "P4", "S3": "K13", "C5": "C5"}
COPY_HOSTS = ("process", "gnm")


class Source:
    """The spans of one origin (the workload itself, or the probes)."""

    def __init__(self, all_spans: list[dict], children: dict, prefix: str, n_reps: int):
        self.all = all_spans
        self.children = children
        self.n_reps = n_reps
        self.by: dict[str, dict[str, list[dict]]] = {"setup": {}, "reps": {}, "first": {}}
        setups = set()
        for s in all_spans:
            if not s["run"].startswith(prefix):
                continue
            if s["run"].endswith("/setup"):
                setups.add(s["run"])
                phases = ("setup",)
            else:
                phases = ("reps", "first") if s["run"].endswith("/rep0") else ("reps",)
            for ph in phases:
                self.by[ph].setdefault(s["name"], []).append(s)
        self.n_setups = len(setups) or 1

    def get(self, phase: str, name: str) -> list[dict]:
        return self.by[phase].get(name, [])

    @staticmethod
    def dur(spans) -> int:
        return sum(s["end_ns"] - s["start_ns"] for s in spans)

    @staticmethod
    def attr(spans, key) -> int:
        return sum(s.get("attrs", {}).get(key, 0) for s in spans)

    def self_total(self, spans) -> int:
        return sum(self_ns(self.all, s["id"], self.children) for s in spans)

    def host_kind(self, span) -> str | None:
        """process / gnm / process_large for a count_copies span."""
        if span["parent"] < 0:
            return None
        trial = self.all[span["parent"]]
        if trial["name"] == "predictor.gnm_copy_trial":
            return "gnm"
        if trial["name"] != "predictor.copy_count_trial" or trial["parent"] < 0:
            return None
        campaign = self.all[trial["parent"]]
        under_gnm = (campaign["parent"] >= 0
                     and self.all[campaign["parent"]]["name"] == "predictor.compare_with_gnm")
        return "process" if under_gnm else "process_large"


def _count(name):
    def f(src):
        return len(src.get("first", name)) or None
    return f


def _per_rep_ms(name):
    def f(src):
        spans = src.get("reps", name)
        return src.dur(spans) / src.n_reps / 1e6 if spans else None
    return f


def _setup_ms(name):
    def f(src):
        spans = src.get("setup", name)
        return src.dur(spans) / src.n_setups / 1e6 if spans else None
    return f


def _per_call(name, scale):
    def f(src):
        spans = src.get("reps", name)
        return src.dur(spans) / len(spans) / scale if spans else None
    return f


def _per_attr(name, key, scale, self_time=False, phases=("reps",)):
    def f(src):
        spans = [s for ph in phases for s in src.get(ph, name)]
        units = src.attr(spans, key)
        if not units:
            return None
        total = src.self_total(spans) if self_time else src.dur(spans)
        return total / units / scale
    return f


def _pairs(key):
    def f(src):
        spans = src.get("first", "process.run_exact") + src.get("first", "process.run_rounds")
        return src.attr(spans, key) or None
    return f


def _accept_ratio(src):
    traversed, added = _pairs("traversed")(src), _pairs("added")(src)
    return added / traversed if traversed else None


def _trees_per_s(src):
    spans = src.get("reps", "branching.simulate_tree")
    return src.attr(spans, "trees") / (src.dur(spans) / 1e9) if spans else None


def _copies_ms(label, host):
    def f(src):
        spans = [s for s in src.get("reps", "patterns.count_copies")
                 if PATTERN_LABELS.get(s["attrs"]["pattern"]) == label
                 and src.host_kind(s) == host]
        return src.dur(spans) / src.n_reps / 1e6 if spans else None
    return f


# (metric name, unit, better, how it is computed from one Source)
METRICS = [
    ("rng.stream.calls", "count", "lower", _count("rng.stream")),
    ("rng.stream.us_per_call", "us", "lower", _per_call("rng.stream", 1e3)),
    ("numerics.RoundContext.ms", "ms", "lower", _setup_ms("numerics.RoundContext.__init__")),
    ("numerics.trajectory_grid.us_per_point", "us", "lower",
     _per_attr("numerics.trajectory_grid", "points", 1e3, phases=("setup", "reps"))),
    ("graphcore.decode_edge_ids.calls", "count", "lower", _count("graphcore.decode_edge_ids")),
    ("graphcore.decode_edge_ids.ns_per_pair", "ns", "lower",
     _per_attr("graphcore.decode_edge_ids", "pairs", 1)),
    ("graphcore.EvolvingGraph.copy.ms", "ms", "lower", _per_rep_ms("graphcore.EvolvingGraph.copy")),
    ("graphcore.EvolvingGraph.audit_triangle_free.ms", "ms", "lower",
     _per_rep_ms("graphcore.EvolvingGraph.audit_triangle_free")),
    ("process.run_exact.ms_per_trial", "ms", "lower", _per_call("process.run_exact", 1e6)),
    ("process.run_rounds.ms_per_trial", "ms", "lower", _per_call("process.run_rounds", 1e6)),
    ("process.run_exact.self_ns_per_pair", "ns", "lower",
     _per_attr("process.run_exact", "traversed", 1, self_time=True)),
    ("process.run_rounds.self_ns_per_pair", "ns", "lower",
     _per_attr("process.run_rounds", "traversed", 1, self_time=True)),
    ("process.pairs_traversed", "count", "lower", _pairs("traversed")),
    ("process.pairs_added", "count", "lower", _pairs("added")),
    ("process.accept_ratio", "ratio", "higher", _accept_ratio),
    ("slots.check_trajectories.ms", "ms", "lower", _per_rep_ms("slots.check_trajectories")),
    ("slots.classify_pair.calls", "count", "lower", _count("slots.classify_pair")),
    ("slots.classify_pair.us_per_call", "us", "lower", _per_call("slots.classify_pair", 1e3)),
    *[(f"patterns.count_copies.ms.{label}.{host}", "ms", "lower", _copies_ms(label, host))
      for label in ("P3", "C4", "P4", "K13", "C5") for host in COPY_HOSTS],
    ("patterns.count_copies.ms.C4.process_large", "ms", "lower", _copies_ms("C4", "process_large")),
    ("patterns.count_embeddings.calls", "count", "lower", _count("patterns.count_embeddings")),
    ("predictor.sample_gnm.ms", "ms", "lower", _per_rep_ms("predictor.sample_gnm")),
    ("branching.simulate_tree.trees_per_s", "1/s", "higher", _trees_per_s),
    ("branching.simulate_tree.self_us_per_tree", "us", "lower",
     _per_attr("branching.simulate_tree", "trees", 1e3, self_time=True)),
    ("branching.SurvivalModel.make.ms", "ms", "lower", _setup_ms("branching.SurvivalModel.make")),
    ("branching.exact_curve.ms", "ms", "lower", _per_rep_ms("branching.exact_curve")),
    ("branching.limit_recursion.ms", "ms", "lower", _per_rep_ms("branching.limit_recursion")),
    ("branching.finite_recursion.ms", "ms", "lower", _per_rep_ms("branching.finite_recursion")),
]

OVERHEAD = ("trace.overhead_frac", "ratio", "lower")


def layer_metrics(spans: list[dict], workload: str, n_reps: int) -> tuple[dict, list[str]]:
    """Metric values, and the names that had to be measured on the probes."""
    children = children_of(spans)
    own = Source(spans, children, workload + "/", n_reps)
    probe = Source(spans, children, "probe:", 1)
    values, from_probe = {}, []
    for name, _unit, _better, fn in METRICS:
        value = fn(own)
        if value is None:
            value = fn(probe)
            from_probe.append(name)
        values[name] = 0.0 if value is None else value
    return values, from_probe
