"""Triangle-free random greedy process: simulation and verification toolkit."""

__version__ = "0.1.0"

from .numerics import RoundContext, erfi, trajectory, open_density, round_slope
from .graphcore import EvolvingGraph, edge_index, num_pairs
from .process import (ProcessParams, RunTrace, run_exact, run_rounds,
                      exhaustive_oracle, aggregate_cutoff)
from .patterns import PatternGraph, count_copies, variance_margin
from .slots import SlotCounts, classify_pair, check_trajectories
from .branching import (SurvivalModel, SurvivalCurve, exact_point, exact_curve,
                        limit_recursion, finite_recursion, simulate_tree)
from .predictor import predict_copies, compare_with_gnm, PredictionReport

__all__ = [
    "__version__",
    "RoundContext", "erfi", "trajectory", "open_density", "round_slope",
    "EvolvingGraph", "edge_index", "num_pairs",
    "ProcessParams", "RunTrace", "run_exact", "run_rounds",
    "exhaustive_oracle", "aggregate_cutoff",
    "PatternGraph", "count_copies", "variance_margin",
    "SlotCounts", "classify_pair", "check_trajectories",
    "SurvivalModel", "SurvivalCurve", "exact_point", "exact_curve",
    "limit_recursion", "finite_recursion", "simulate_tree",
    "predict_copies", "compare_with_gnm", "PredictionReport",
]
