"""Command-line front end: campaigns, reports, and the acceptance driver.

Every subcommand resolves its parameters from, in priority order, explicit
flags, a flat key=value --config file, the GREEDYGRAPH_SEED environment
variable (seed only), and built-in defaults.  The resolved configuration
is embedded in every emitted report, so any output file reproduces its run
bit-exactly; timing is recorded only in acceptance reports, keeping the
stochastic reports byte-identical across reruns.

Exit codes: 0 ok, 1 acceptance failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from dataclasses import replace

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


class _Params:
    """Flag > config file > environment (seed) > default."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config: dict[str, str] = {}
        if getattr(args, "config", None):
            self.config = _load_config(args.config)

    def get(self, name: str, default, typ=None):
        val = getattr(self.args, name, None)
        if val is not None:
            return val
        if name in self.config:
            raw = self.config[name]
            if typ is bool:
                return raw.lower() in ("1", "true", "yes", "on")
            return typ(raw) if typ else raw
        return default

    def seed(self) -> int:
        val = self.get("seed", None, int)
        if val is not None:
            return val
        env = os.environ.get("GREEDYGRAPH_SEED")
        return int(env) if env else 0

    def resolved(self, **extra) -> dict:
        # output destinations are not part of the run configuration
        skip = ("func", "config", "out", "csv")
        out = {k: v for k, v in vars(self.args).items()
               if k not in skip and v is not None}
        out.update(extra)
        return out


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=False) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _meta(command: str, params: _Params, seed: int, **extra) -> dict:
    return {"tool": "greedygraph", "version": __version__, "command": command,
            "seed": seed, "config": params.resolved(seed=seed, **extra)}


# ---------------------------------------------------------------------------
# subcommands


def _simulate_trial(params: ProcessParams, trial: int) -> dict:
    trace = run_exact(params, trial=trial)
    return {"trial": trial, "final_edges": trace.final_edges,
            "birthed": trace.graph.birthed_count}


def _rounds_trial(params: ProcessParams, trial: int) -> tuple[dict, list | None]:
    """One round-form run; snapshots, when requested, are kept for trial 0
    only, as sorted edge lines per round."""
    if trial:
        params = replace(params, record_snapshots=False)
    trace = run_rounds(params, trial=trial)
    exported = None
    if trace.snapshots is not None:
        exported = []
        for snap in trace.snapshots:
            buf = io.StringIO()
            snap.export_edges(buf)
            exported.append(buf.getvalue().splitlines())
    return trace.to_json_dict(), exported


def _cmd_simulate(args) -> int:
    p = _Params(args)
    n = p.get("n", 100, int)
    eps = p.get("eps", 0.1, float)
    trials = p.get("trials", 1, positive_int)
    cutoff = p.get("cutoff", None, float)
    jobs = p.get("jobs", 1, positive_int)
    seed = p.seed()
    ctx = RoundContext(n, eps)
    params = ProcessParams(ctx=ctx, seed=seed, mode="exact", cutoff=cutoff)
    runs = map_trials(_simulate_trial, (params,), trials, jobs)
    edges = [r["final_edges"] for r in runs]
    payload = {
        "meta": _meta("simulate", p, seed, n=n, eps=eps, trials=trials, cutoff=cutoff),
        "runs": runs,
        "summary": {"mean_edges": sum(edges) / len(edges),
                    "min_edges": min(edges), "max_edges": max(edges)},
    }
    _emit(payload, p.get("out", None))
    return 0


def _cmd_rounds(args) -> int:
    p = _Params(args)
    n = p.get("n", 100, int)
    eps = p.get("eps", 0.1, float)
    trials = p.get("trials", 1, positive_int)
    snapshots = bool(p.get("rounds_snapshots", False, bool))
    seed = p.seed()
    jobs = p.get("jobs", 1, positive_int)
    ctx = RoundContext(n, eps)
    params = ProcessParams(ctx=ctx, seed=seed, mode="rounds",
                           record_snapshots=snapshots)
    results = map_trials(_rounds_trial, (params,), trials, jobs)
    runs = [run for run, _ in results]
    exported = results[0][1]
    edges = [r["final_edges"] for r in runs]
    pred = predicted_final_edges(ctx)
    payload = {
        "meta": _meta("rounds", p, seed, n=n, eps=eps, trials=trials,
                      rounds_snapshots=snapshots, k=ctx.k,
                      rounds_total=ctx.rounds_total),
        "runs": runs,
        "summary": {"mean_edges": sum(edges) / len(edges),
                    "predicted_edges": pred,
                    "ratio": sum(edges) / len(edges) / pred},
    }
    if exported is not None:
        payload["snapshots_trial0"] = exported
    _emit(payload, p.get("out", None))
    return 0


def _cmd_oracle(args) -> int:
    p = _Params(args)
    n = p.get("n", 4, int)
    oracle = exhaustive_oracle(n)
    payload = {"meta": _meta("oracle", p, 0, n=n)}
    payload.update(oracle.to_json_dict())
    _emit(payload, p.get("out", None))
    return 0


def _cmd_lambda(args) -> int:
    p = _Params(args)
    n = p.get("n", 1000, int)
    eps = p.get("eps", 0.1, float)
    sample = p.get("sample_size", 2000, positive_int)
    seed = p.seed()
    csv_path = p.get("csv", None)
    ctx = RoundContext(n, eps)
    trace = run_rounds(ProcessParams(ctx=ctx, seed=seed, record_snapshots=True))
    report = check_trajectories(trace, ctx, sample_size=sample, seed=seed,
                                keep_rows=csv_path is not None)
    payload = {"meta": _meta("lambda", p, seed, n=n, eps=eps, sample_size=sample)}
    payload.update(report.to_json_dict())
    if csv_path:
        with open(csv_path, "w", encoding="utf-8") as fh:
            write_rows_csv(report, fh)
    _emit(payload, p.get("out", None))
    return 0


def _cmd_branching(args) -> int:
    p = _Params(args)
    n = p.get("n", 10 ** 6, int)
    eps = p.get("eps", 0.1, float)
    scale = p.get("k", 8, int)
    depth = p.get("depth", 40, positive_int)
    grid = p.get("grid", None, positive_int)
    trials = p.get("trials", 10_000, positive_int)
    zeta = p.get("zeta", None, float)
    seed = p.seed()
    ctx = RoundContext(n, eps)
    round_i = p.get("round", ctx.rounds_total // 2, int)
    c = ctx.with_round(round_i)
    kwargs = {"thinning": zeta} if zeta is not None else {}
    if grid is not None:
        kwargs["grid"] = grid
    model = SurvivalModel.make(c, scale=scale, depth=depth, **kwargs)
    exact = exact_curve(c, grid=model.grid)
    levels = limit_recursion(c, depth=depth, grid=model.grid)
    finite = finite_recursion(model)
    est = simulate_tree(model, c.delta, trials=trials, seed=seed)
    payload = {
        "meta": _meta("branching", p, seed, n=n, eps=eps, k=scale, depth=depth,
                      grid=model.grid, round=round_i, zeta=model.thinning),
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
    csv_path = p.get("csv", None)
    if csv_path:
        with open(csv_path, "w", encoding="utf-8") as fh:
            write_curves_csv(fh, finite, exact=exact)
    _emit(payload, p.get("out", None))
    return 0


def _cmd_predict(args, with_gnm: bool = False) -> int:
    p = _Params(args)
    n = p.get("n", 1000, int)
    eps = p.get("eps", 0.1, float)
    trials = p.get("trials", 10, positive_int)
    jobs = p.get("jobs", 1, positive_int)
    seed = p.seed()
    pattern = load_pattern(p.get("pattern", "C4"))
    ctx = RoundContext(n, eps)
    if with_gnm:
        rep = compare_with_gnm(pattern, ctx, trials=trials, seed=seed, jobs=jobs)
    else:
        rep = run_prediction_campaign(pattern, ctx, trials=trials, seed=seed, jobs=jobs)
    payload = {"meta": _meta("compare-gnm" if with_gnm else "predict", p, seed,
                             n=n, eps=eps, trials=trials, pattern=pattern.name)}
    payload.update(rep.to_json_dict())
    _emit(payload, p.get("out", None))
    return 0


def _cmd_accept(args) -> int:
    p = _Params(args)
    profile = p.get("profile", "quick")
    seed = p.seed()
    only = None
    if p.get("only", None):
        only = [int(tok) for tok in str(p.get("only", "")).split(",") if tok]
    t0 = time.time()
    results = run_acceptance(profile=profile, seed=seed, only=only)
    payload = {
        "meta": _meta("accept", p, seed, profile=profile),
        "wall_clock_s": round(time.time() - t0, 3),
        "passed": sum(r.passed for r in results),
        "total": len(results),
        "criteria": [r.to_json_dict() for r in results],
    }
    out = p.get("out", None)
    if out:
        _emit(payload, out)
    return 0 if all(r.passed for r in results) else ACCEPT_FAILURE


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greedygraph",
        description="Triangle-free random greedy process: simulation and "
                    "verification toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, *names):
        if "n" in names:
            sp.add_argument("--n", type=int, help="vertex count")
        if "eps" in names:
            sp.add_argument("--eps", type=float, help="pace exponent in (0, 1/2)")
        if "trials" in names:
            sp.add_argument("--trials", type=positive_int, help="independent trials")
        if "seed" in names:
            sp.add_argument("--seed", type=int,
                            help="master seed (default: $GREEDYGRAPH_SEED or 0)")
        if "jobs" in names:
            sp.add_argument("--jobs", type=positive_int, help="trial-level workers")
        sp.add_argument("--out", help="write the JSON report here instead of stdout")
        sp.add_argument("--config", help="flat key=value config file; flags override")

    sp = sub.add_parser("simulate", help="birth-order process runs")
    common(sp, "n", "eps", "trials", "seed", "jobs")
    sp.add_argument("--cutoff", type=float, help="birth-time cutoff in (0, 1]")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("rounds", help="round-form process runs")
    common(sp, "n", "eps", "trials", "seed", "jobs")
    sp.add_argument("--rounds-snapshots", action="store_const", const=True,
                    dest="rounds_snapshots", help="record per-round snapshots")
    sp.set_defaults(func=_cmd_rounds)

    sp = sub.add_parser("oracle", help="exact small-instance distribution")
    common(sp)
    sp.add_argument("--n", type=int, help="vertex count (3, 4 or 5)")
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("lambda", help="triangle-slot trajectory windows")
    common(sp, "n", "eps", "seed")
    sp.add_argument("--sample-size", type=positive_int, dest="sample_size",
                    help="pairs sampled per round (default 2000)")
    sp.add_argument("--csv", help="also dump per-pair rows to this CSV file")
    sp.set_defaults(func=_cmd_lambda)

    sp = sub.add_parser("branching", help="survival curves and Monte Carlo check")
    common(sp, "n", "eps", "trials", "seed")
    sp.add_argument("--k", type=int, help="finite scale (default 8)")
    sp.add_argument("--zeta", type=float, help="thinning factor override")
    sp.add_argument("--depth", type=positive_int, help="recursion depth (default 40)")
    sp.add_argument("--grid", type=positive_int, help="quadrature grid points")
    sp.add_argument("--round", type=int, help="round index (default: middle)")
    sp.add_argument("--csv", help="dump level curves to this CSV file")
    sp.set_defaults(func=_cmd_branching)

    sp = sub.add_parser("predict", help="copy-count prediction campaign")
    common(sp, "n", "eps", "trials", "seed", "jobs")
    sp.add_argument("--pattern", help="catalog name, Sk shorthand, or edge-list file")
    sp.set_defaults(func=_cmd_predict)

    sp = sub.add_parser("compare-gnm", help="prediction campaign with a uniform-graph baseline")
    common(sp, "n", "eps", "trials", "seed", "jobs")
    sp.add_argument("--pattern", help="catalog name, Sk shorthand, or edge-list file")
    sp.set_defaults(func=lambda a: _cmd_predict(a, with_gnm=True))

    sp = sub.add_parser("accept", help="run the acceptance suite")
    common(sp, "seed")
    sp.add_argument("--profile", choices=("quick", "full"),
                    help="criteria set (default quick)")
    sp.add_argument("--only", help="comma-separated criterion ids to run")
    sp.set_defaults(func=_cmd_accept)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except MemoryError as exc:
        sys.stderr.write(f"error: memory bound: an allocation failed ({exc})\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
