"""The benchmark under perfbench/ reaches into greedygraph by name: the layer
functions its tracer wraps, the attributes its workloads and its own tests
call or patch, and the attributes it reads and assigns on the graphs it gets.
Those tests are not collected here, so this module reads the benchmark's
sources with ``ast`` and checks that every such name resolves, so that
removing one fails here and not first in the benchmark.
"""

import ast
import importlib
from pathlib import Path

import pytest

from greedygraph.graphcore import EvolvingGraph

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# the benchmark sources that use greedygraph names
CALLERS = ("workloads.py", "test_perfbench.py")


def _layer_paths() -> list[str]:
    """The dotted paths of ``spans.LAYER_FUNCTIONS``."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYER_FUNCTIONS" for t in node.targets):
            return [f"greedygraph.{mod}.{attr}" for mod, attr in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/spans.py assigns no LAYER_FUNCTIONS")


def _referenced_paths(source: str) -> set[str]:
    """The dotted greedygraph paths a module imports with ``from greedygraph...
    import``, reads as attribute chains of an imported name, or patches with
    ``setattr(name, "attr", ...)``."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "greedygraph":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    paths = set(bound.values())
    for node in ast.walk(tree):
        chain, base = [], node
        while isinstance(base, ast.Attribute):
            chain.append(base.attr)
            base = base.value
        if chain and isinstance(base, ast.Name) and base.id in bound:
            paths.add(".".join([bound[base.id], *reversed(chain)]))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "setattr" and len(node.args) >= 2
                and isinstance(node.args[0], ast.Name) and node.args[0].id in bound
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)):
            paths.add(f"{bound[node.args[0].id]}.{node.args[1].value}")
    return paths


def _resolve(path: str):
    """The object at a dotted path greedygraph.<module>[.<attr>...]; raises
    AttributeError where an attribute is missing."""
    package, module, *attrs = path.split(".")
    obj = importlib.import_module(f"{package}.{module}")
    for name in attrs:
        obj = getattr(obj, name)
    return obj


REFERENCED = {name: _referenced_paths((PERFBENCH / name).read_text()) for name in CALLERS}


@pytest.mark.parametrize("path", _layer_paths())
def test_layer_function_resolves(path):
    assert callable(_resolve(path))


@pytest.mark.parametrize("path", sorted(set().union(*REFERENCED.values())))
def test_benchmark_reference_resolves(path):
    _resolve(path)


@pytest.mark.parametrize("caller", CALLERS)
def test_scan_finds_the_callers_names(caller):
    # both callers drive the process through greedygraph.process
    assert any(p.startswith("greedygraph.process.") for p in REFERENCED[caller])



# EvolvingGraph attributes that perfbench/workloads.py reads, and those it
# assigns, with a value (``_induced`` builds a host from int rows).  They are
# named here, not found by matching the scan against the class, so that one
# removed from the class still fails.
GRAPH_READS = ("adj", "audit_triangle_free", "birthed_adj", "birthed_count", "edge_count", "n")
GRAPH_WRITES = {"adj": [0b10, 0b01, 0], "edge_count": 1}


def test_scan_finds_the_graph_attributes():
    nodes = [node for node in ast.walk(ast.parse((PERFBENCH / "workloads.py").read_text()))
             if isinstance(node, ast.Attribute)]
    assert set(GRAPH_READS) <= {node.attr for node in nodes if isinstance(node.ctx, ast.Load)}
    assert set(GRAPH_WRITES) <= {node.attr for node in nodes if isinstance(node.ctx, ast.Store)}


@pytest.mark.parametrize("name", GRAPH_READS)
def test_graph_attribute_reads(name):
    getattr(EvolvingGraph(3), name)


@pytest.mark.parametrize("name", GRAPH_WRITES)
def test_graph_attribute_assigns(name):
    g = EvolvingGraph(3)
    setattr(g, name, GRAPH_WRITES[name])
    assert getattr(g, name) == GRAPH_WRITES[name]
