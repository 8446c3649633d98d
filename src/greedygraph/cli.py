"""Command-line front end: campaigns, reports, and the acceptance driver.

Each option is declared once, in ``OPTIONS``; the parser, the resolution of
a value (flag, else the flat key=value --config file, else $GREEDYGRAPH_SEED
for the seed, else the default) and the configuration embedded in every
report come from that declaration, so any output file reproduces its run
bit-exactly; timing is recorded only in acceptance reports, keeping the
stochastic reports byte-identical across reruns.

Exit codes: 0 ok, 1 acceptance failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import __version__
from .branching import (SurvivalModel, exact_curve, finite_recursion,
                        limit_recursion, simulate_tree, write_curves_csv)
from .numerics import RoundContext
from .patterns import load_pattern
from .predictor import compare_with_gnm, map_trials, run_prediction_campaign
from .process import (ProcessParams, exhaustive_oracle, predicted_final_edges,
                      run_exact, run_rounds)
from .slots import check_trajectories, write_rows_csv
from .acceptance import run_acceptance

USAGE_ERROR = 2
ACCEPT_FAILURE = 1


def _load_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def positive_int(text: str) -> int:
    """Count flags (trials, jobs, sample size, depth, grid): a zero or
    negative value is a usage error, not a run."""
    value = int(text)
    if value < 1:
        raise ValueError(f"expected a positive integer, got {text}")
    return value


@dataclass(frozen=True)
class Option:
    """One option: how its text is read (``bool`` makes a bare flag), its
    help, and the default of each command that takes it."""

    type: Callable
    help: str
    defaults: dict
    choices: tuple | None = None


_RUNS = ("simulate", "rounds", "lambda", "branching", "predict", "compare-gnm")
_CAMPAIGNS = ("simulate", "rounds", "predict", "compare-gnm")
_ALL = _RUNS + ("oracle", "accept")

# In this order the options appear in --help and in meta.config.
OPTIONS = {
    "n": Option(int, "vertex count",
                {"simulate": 100, "rounds": 100, "oracle": 4, "lambda": 1000,
                 "branching": 10 ** 6, "predict": 1000, "compare-gnm": 1000}),
    "eps": Option(float, "pace exponent in (0, 1/2)", dict.fromkeys(_RUNS, 0.1)),
    "trials": Option(positive_int, "independent trials",
                     {"simulate": 1, "rounds": 1, "branching": 10_000, "predict": 10,
                      "compare-gnm": 10}),
    "seed": Option(int, "master seed (default: $GREEDYGRAPH_SEED or 0)",
                   dict.fromkeys(_RUNS + ("accept",))),
    "jobs": Option(positive_int, "trial-level workers", dict.fromkeys(_CAMPAIGNS, 1)),
    "out": Option(str, "write the JSON report here instead of stdout", dict.fromkeys(_ALL)),
    "config": Option(str, "flat key=value config file; flags override", dict.fromkeys(_ALL)),
    "cutoff": Option(float, "birth-time cutoff in (0, 1]", {"simulate": None}),
    "rounds_snapshots": Option(bool, "record per-round snapshots", {"rounds": False}),
    "sample_size": Option(positive_int, "pairs sampled per round", {"lambda": 2000}),
    "k": Option(int, "finite scale", {"branching": 8}),
    "zeta": Option(float, "thinning factor override", {"branching": None}),
    "depth": Option(positive_int, "recursion depth", {"branching": 40}),
    "grid": Option(positive_int, "quadrature grid points", {"branching": None}),
    "round": Option(int, "round index (default: middle)", {"branching": None}),
    "csv": Option(str, "also write the per-pair rows (lambda) or the level curves "
                  "(branching) to this CSV file", dict.fromkeys(("lambda", "branching"))),
    "pattern": Option(str, "catalog name, Sk shorthand, or edge-list file",
                      {"predict": "C4", "compare-gnm": "C4"}),
    "profile": Option(str, "criteria set", {"accept": "quick"}, choices=("quick", "full")),
    "only": Option(str, "comma-separated criterion ids to run", {"accept": None}),
}
# Options that change no output, so meta.config leaves them out.
_UNRECORDED = ("jobs", "out", "csv", "config")
# The spellings a config file may give a boolean option, case-insensitive.
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """Each option of ``args.command``: the flag, else the --config file's
    value, else ($GREEDYGRAPH_SEED first, for the seed) the command's default.
    A config key that no command declares, and a boolean option's value
    outside ``_BOOLEANS``, are ValueErrors."""
    config = _load_config(args.config) if args.config else {}
    unknown = sorted(set(config) - set(OPTIONS))
    if unknown:
        raise ValueError(f"{args.config}: unknown config key(s) {', '.join(unknown)}; "
                         f"valid keys are {', '.join(OPTIONS)}")
    resolved = argparse.Namespace(command=args.command)
    for name, opt in OPTIONS.items():
        if args.command not in opt.defaults:
            continue
        val = getattr(args, name)
        if val is None and name in config:
            raw = config[name]
            if opt.type is not bool:
                val = opt.type(raw)
            elif raw.lower() in _BOOLEANS:
                val = _BOOLEANS[raw.lower()]
            else:
                raise ValueError(f"{args.config}: {name} = {raw!r} is not a boolean")
        if val is None:
            val = (int(os.environ.get("GREEDYGRAPH_SEED") or 0) if name == "seed"
                   else opt.defaults[args.command])
        setattr(resolved, name, val)
    return resolved


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=False) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _meta(o: argparse.Namespace, **derived) -> dict:
    """The report header: the command's run options as resolved, then the
    values ``derived`` from them (which replace an option's own value)."""
    config = {k: v for k, v in vars(o).items() if k != "command" and k not in _UNRECORDED}
    config.update(derived)
    return {"tool": "greedygraph", "version": __version__, "command": o.command,
            "seed": config.get("seed", 0), "config": config}


# ---------------------------------------------------------------------------
# subcommands, each given the resolved options


def _simulate_trial(params: ProcessParams, trial: int) -> dict:
    trace = run_exact(params, trial=trial)
    return {"trial": trial, "final_edges": trace.final_edges,
            "birthed": trace.graph.birthed_count}


def _rounds_trial(params: ProcessParams, trial: int) -> tuple[dict, list | None]:
    """One round-form run; snapshots, when requested, are kept for trial 0
    only, as sorted 'u v' edge lines per round."""
    if trial:
        params = replace(params, record_snapshots=False)
    trace = run_rounds(params, trial=trial)
    exported = None
    if trace.snapshots is not None:
        exported = [[f"{u} {v}" for u, v in snap.edges()] for snap in trace.snapshots]
    return trace.to_json_dict(), exported


def _cmd_simulate(o) -> int:
    params = ProcessParams(ctx=RoundContext(o.n, o.eps), seed=o.seed, mode="exact",
                           cutoff=o.cutoff)
    runs = map_trials(_simulate_trial, (params,), o.trials, o.jobs)
    edges = [r["final_edges"] for r in runs]
    payload = {
        "meta": _meta(o),
        "runs": runs,
        "summary": {"mean_edges": sum(edges) / len(edges),
                    "min_edges": min(edges), "max_edges": max(edges)},
    }
    _emit(payload, o.out)
    return 0


def _cmd_rounds(o) -> int:
    ctx = RoundContext(o.n, o.eps)
    params = ProcessParams(ctx=ctx, seed=o.seed, mode="rounds",
                           record_snapshots=o.rounds_snapshots)
    results = map_trials(_rounds_trial, (params,), o.trials, o.jobs)
    runs = [run for run, _ in results]
    edges = [r["final_edges"] for r in runs]
    pred = predicted_final_edges(ctx)
    payload = {
        "meta": _meta(o, k=ctx.k, rounds_total=ctx.rounds_total),
        "runs": runs,
        "summary": {"mean_edges": sum(edges) / len(edges),
                    "predicted_edges": pred,
                    "ratio": sum(edges) / len(edges) / pred},
    }
    if results[0][1] is not None:
        payload["snapshots_trial0"] = results[0][1]
    _emit(payload, o.out)
    return 0


def _cmd_oracle(o) -> int:
    _emit({"meta": _meta(o), **exhaustive_oracle(o.n).to_json_dict()}, o.out)
    return 0


def _cmd_lambda(o) -> int:
    ctx = RoundContext(o.n, o.eps)
    trace = run_rounds(ProcessParams(ctx=ctx, seed=o.seed, record_snapshots=True))
    report = check_trajectories(trace, ctx, sample_size=o.sample_size, seed=o.seed,
                                keep_rows=o.csv is not None)
    payload = {"meta": _meta(o), **report.to_json_dict()}
    if o.csv:
        with open(o.csv, "w", encoding="utf-8") as fh:
            write_rows_csv(report, fh)
    _emit(payload, o.out)
    return 0


def _cmd_branching(o) -> int:
    ctx = RoundContext(o.n, o.eps)
    round_i = ctx.rounds_total // 2 if o.round is None else o.round
    c = ctx.with_round(round_i)
    kwargs = {"thinning": o.zeta} if o.zeta is not None else {}
    if o.grid is not None:
        kwargs["grid"] = o.grid
    depth = o.depth
    model = SurvivalModel.make(c, scale=o.k, depth=depth, **kwargs)
    exact = exact_curve(c, grid=model.grid)
    levels = limit_recursion(c, depth=depth, grid=model.grid)
    finite = finite_recursion(model)
    est = simulate_tree(model, c.delta, trials=o.trials, seed=o.seed)
    payload = {
        "meta": _meta(o, grid=model.grid, round=round_i, zeta=model.thinning),
        "model": {"scale": model.scale, "thinning": model.thinning,
                  "singles": model.singles, "pairs": model.pairs,
                  "depth": model.depth, "grid": model.grid},
        "at_step": {
            "exact_p": float(exact.p[-1]), "exact_cum": float(exact.cum[-1]),
            "limit_p": float(levels[depth].p[-1]),
            "finite_p": float(finite[depth].p[-1]),
            "mc_mean": est.mean, "mc_se": est.se, "mc_trials": est.trials,
        },
        "gaps": {
            "limit_vs_exact": float(np.max(np.abs(levels[depth].p - exact.p))),
            "finite_vs_limit": float(np.max(np.abs(finite[depth].p - levels[depth].p))),
            "mc_vs_finite_z": ((est.mean - float(finite[depth].p[-1])) / est.se
                               if est.se else 0.0),
        },
    }
    if o.csv:
        with open(o.csv, "w", encoding="utf-8") as fh:
            write_curves_csv(fh, finite, exact=exact)
    _emit(payload, o.out)
    return 0


def _cmd_predict(o) -> int:
    pattern = load_pattern(o.pattern)
    ctx = RoundContext(o.n, o.eps)
    campaign = compare_with_gnm if o.command == "compare-gnm" else run_prediction_campaign
    rep = campaign(pattern, ctx, trials=o.trials, seed=o.seed, jobs=o.jobs)
    _emit({"meta": _meta(o, pattern=pattern.name), **rep.to_json_dict()}, o.out)
    return 0


def _cmd_accept(o) -> int:
    only = [int(tok) for tok in o.only.split(",") if tok] if o.only is not None else None
    t0 = time.perf_counter()
    results = run_acceptance(profile=o.profile, seed=o.seed, only=only)
    payload = {
        "meta": _meta(o),
        "wall_clock_s": round(time.perf_counter() - t0, 3),
        "passed": sum(r.passed for r in results),
        "total": len(results),
        "criteria": [r.to_json_dict() for r in results],
    }
    if o.out:
        _emit(payload, o.out)
    return 0 if all(r.passed for r in results) else ACCEPT_FAILURE


# ---------------------------------------------------------------------------

_COMMANDS = {
    "simulate": ("birth-order process runs", _cmd_simulate),
    "rounds": ("round-form process runs", _cmd_rounds),
    "oracle": ("exact small-instance distribution (n = 3, 4 or 5)", _cmd_oracle),
    "lambda": ("triangle-slot trajectory windows", _cmd_lambda),
    "branching": ("survival curves and Monte Carlo check", _cmd_branching),
    "predict": ("copy-count prediction campaign", _cmd_predict),
    "compare-gnm": ("prediction campaign with a uniform-graph baseline", _cmd_predict),
    "accept": ("run the acceptance suite", _cmd_accept),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greedygraph",
        description="Triangle-free random greedy process: simulation and "
                    "verification toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, _) in _COMMANDS.items():
        sp = sub.add_parser(command, help=text)
        for name, opt in OPTIONS.items():
            if command not in opt.defaults:
                continue
            default = opt.defaults[command]
            flag = "--" + name.replace("_", "-")
            if opt.type is bool:
                sp.add_argument(flag, action="store_const", const=True, help=opt.help)
                continue
            sp.add_argument(flag, type=opt.type, choices=opt.choices,
                            help=opt.help if default is None else f"{opt.help} (default {default})")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][1](_resolve(args))
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except MemoryError as exc:
        sys.stderr.write(f"error: memory bound: an allocation failed{f' ({exc})' if str(exc) else ''}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
