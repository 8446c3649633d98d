"""In-memory span recorder that times greedygraph's layers from outside.

A span is one call of a wrapped layer function: name, start and end
(``perf_counter_ns``), the index of the enclosing span (-1 at top level),
the run id it belongs to and a few size attributes taken from the call's
arguments or result (pairs decoded, trees simulated, ...).  Spans stay in
memory while the benchmark runs and are written as JSON lines at the end
of a traced run, with the standard library only.

``install`` rebinds each wrapped function in every ``greedygraph`` module
that imported it by name (``from .graphcore import decode_edge_ids``), or
on its class for methods, so calls made deep inside the package are seen
without editing the package.  ``uninstall`` restores the originals.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# The layer boundaries that are timed, as (module, attribute path).
LAYER_FUNCTIONS = (
    ("rng", "stream"),
    ("numerics", "RoundContext.__init__"),
    ("numerics", "trajectory_grid"),
    ("graphcore", "decode_edge_ids"),
    ("graphcore", "EvolvingGraph.copy"),
    ("graphcore", "EvolvingGraph.audit_triangle_free"),
    ("process", "final_distribution_sample"),
    ("process", "run_exact"),
    ("process", "run_rounds"),
    ("slots", "check_trajectories"),
    ("slots", "classify_pair"),
    ("patterns", "count_copies"),
    ("patterns", "count_embeddings"),
    ("predictor", "sample_gnm"),
    ("predictor", "copy_count_trial"),
    ("predictor", "gnm_copy_trial"),
    ("predictor", "run_prediction_campaign"),
    ("predictor", "compare_with_gnm"),
    ("branching", "SurvivalModel.make"),
    ("branching", "exact_curve"),
    ("branching", "limit_recursion"),
    ("branching", "finite_recursion"),
    ("branching", "simulate_tree"),
)

PACKAGE = "greedygraph"


def _attrs(name, args, kwargs, result) -> dict | None:
    """Size attributes of one call, used as denominators of layer metrics."""
    if name == "numerics.trajectory_grid":
        return {"points": len(args[0])}
    if name == "graphcore.decode_edge_ids":
        return {"pairs": len(result[0])}
    if name in ("process.run_exact", "process.run_rounds"):
        return {"traversed": sum(r.birthed for r in result.per_round),
                "added": result.graph.edge_count}
    if name in ("patterns.count_copies", "patterns.count_embeddings"):
        host, pattern = args[0], args[1]
        return {"pattern": pattern.name, "n": host.n}
    if name == "branching.simulate_tree":
        trials = kwargs["trials"] if "trials" in kwargs else args[2]
        return {"trees": trials}
    return None


class Tracer:
    """Collects spans while ``active``; wrapped calls outside that pass through."""

    def __init__(self):
        self.spans: list[dict] = []
        self.active = False
        self.run_id = ""
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = {"run": self.run_id, "id": idx, "name": name,
                    "parent": self._stack[-1] if self._stack else -1}
            self.spans.append(span)
            self._stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                span["start_ns"] = start
                span["end_ns"] = end
            attrs = _attrs(name, args, kwargs, result)
            if attrs:
                span["attrs"] = attrs
            return result
        return traced


def write_jsonl(spans: list[dict], path) -> None:
    """One span per line, keys sorted."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span, sort_keys=True) + "\n")


def install(tracer: Tracer) -> list:
    """Wrap every LAYER_FUNCTIONS entry; returns the undo list for uninstall."""
    undo = []
    modules = [m for key, m in list(sys.modules.items())
               if key == PACKAGE or key.startswith(PACKAGE + ".")]
    for mod_name, path in LAYER_FUNCTIONS:
        module = importlib.import_module(f"{PACKAGE}.{mod_name}")
        name = f"{mod_name}.{path}"
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(tracer.wrap(name, raw.__func__))
            else:
                new = tracer.wrap(name, raw)
            setattr(cls, attr, new)
            undo.append((cls, attr, raw))
            continue
        original = getattr(module, path)
        wrapped = tracer.wrap(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, original))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def self_ns(spans: list[dict], idx: int, children: dict[int, list[int]]) -> int:
    """Span duration minus the time its direct children cover."""
    span = spans[idx]
    own = span["end_ns"] - span["start_ns"]
    for c in children.get(idx, ()):
        own -= spans[c]["end_ns"] - spans[c]["start_ns"]
    return own


def children_of(spans: list[dict]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for span in spans:
        if span["parent"] >= 0:
            out.setdefault(span["parent"], []).append(span["id"])
    return out
