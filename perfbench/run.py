"""greedygraph benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload campaign_n100 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its
``src/`` directory, never from an installed copy.  The run

1. does the workload's set-up, then repeats the workload's unit for
   ``--seconds`` (repetition r draws its inputs from seed*1000 + r), each
   public call under a time cap, and checks every repetition's outputs;
2. between repetitions, spread over the run, times five fresh
   interpreters that import the package and do the set-up;
3. with ``--trace 0`` reports ``wall_s`` (median time of one unit),
   ``setup_s`` (median set-up time of a fresh interpreter), both scaled
   to a fixed host speed by the speed probe (see ``SpeedProbe``), and
   ``peak_rss_mb``; with ``--trace 1`` it runs the first five units twice,
   untraced and then traced, and reports the per-layer metrics, the
   tracing overhead, and writes the spans to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print each metric with its unit, the error rate and the output digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

SETUP_SAMPLES = 5
CALL_CAP_S = 60.0        # a single public call past this is a did-not-finish
DEADLINE_S = 140.0       # no timed call runs later than this into the run
TRACED_REPS = 5          # repetitions that also run traced; bounds the span memory
PROBE_LOOPS = 1500       # one speed probe: about 1 ms on the measuring host
PROBE_PERIOD_S = 0.025   # CPU seconds between probes inside a unit
PROBE_EDGE = 4           # probes just before and just after each unit or set-up
REF_PROBE_S = 1e-3       # reported times are seconds at the speed where a probe takes this
WORKLOAD_NAMES = ("campaign_n100", "large_runs", "count_n300", "survival_mc")

# one process, one thread: numpy's BLAS pool must not use the second core
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_ENV)


class DidNotFinish(Exception):
    pass


# Probe data: about 4 MB of machine words and 0.6 MB of big integers, so
# the probe feels the host's cache and memory contention as the workloads
# do, not only its instruction rate.
_PROBE_WORDS = 1 << 19
_PROBE_TABLE = array("q", [0]) * _PROBE_WORDS
_PROBE_BIGS = [(1 << 5000) // (i + 3) for i in range(1000)]


def time_probe() -> float:
    """Seconds one fixed piece of pure-Python work takes now (scattered
    reads of a table, then ANDs and popcounts of big integers, as in the
    package's inner loops): the host's current speed."""
    t0 = time.perf_counter()
    acc, j, table, bigs = 0, 1, _PROBE_TABLE, _PROBE_BIGS
    for _ in range(PROBE_LOOPS):
        j = (j * 1103515245 + 12345) & (_PROBE_WORDS - 1)
        acc += table[j]
    for i in range(PROBE_LOOPS // 2):
        acc += (bigs[(i * 7919) % 1000] & bigs[(i * 104729) % 1000]).bit_count()
    return time.perf_counter() - t0


class SpeedProbe:
    """Times units against the host's speed while they run.

    The host is shared, and its speed drifts by up to 1.5x from second to
    second and by 25% between runs minutes apart, which no statistic of
    raw times removes.  The probe slows down with the host, so a unit's
    time divided by the probe time taken around and during it does not:
    that ratio, times REF_PROBE_S, is what ``wall_s`` and ``setup_s``
    report.  Inside a unit the probe runs from a SIGPROF handler every
    PROBE_PERIOD_S of CPU time, and its own time is taken off the unit's.
    """

    def __init__(self):
        self.samples: list[float] = []

    def tick(self, signum=None, frame=None):
        self.samples.append(time_probe())

    def edge(self):
        for _ in range(PROBE_EDGE):
            self.tick()

    def around(self, timed, *args):
        """(wall net of the probes, outputs, stop record, median probe time)
        of ``timed(*args)``, which returns (wall, outputs, stop record)."""
        self.samples = []
        self.edge()
        first = len(self.samples)
        previous = signal.signal(signal.SIGPROF, self.tick)
        signal.setitimer(signal.ITIMER_PROF, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            wall, out, stop = timed(*args)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
        wall -= sum(self.samples[first:])
        self.edge()
        return wall, out, stop, statistics.median(self.samples)


def import_package():
    """Import greedygraph from this checkout's src/, or exit 2."""
    if str(SRC) in sys.path:
        return
    if not (SRC / "greedygraph" / "__init__.py").is_file():
        sys.stderr.write(f"error: no greedygraph package under {SRC}; "
                         "run from the root of a full checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import greedygraph
    if Path(greedygraph.__file__).resolve().parent != SRC / "greedygraph":
        sys.stderr.write(f"error: greedygraph imported from {greedygraph.__file__}\n")
        sys.exit(2)


def capped(fn, cap: float, *args, **kwargs):
    """fn(*args, **kwargs), interrupted by DidNotFinish after cap seconds."""
    def on_alarm(signum, frame):
        raise DidNotFinish(cap)
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(cap, 1e-3))
    try:
        return fn(*args, **kwargs)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def timed_unit(wl, state, seed: int, deadline: float):
    """(wall seconds, outputs or None, did-not-finish or error record or None)."""
    def call(fn, *args, **kwargs):
        cap = min(CALL_CAP_S, deadline - time.perf_counter())
        try:
            return capped(fn, cap, *args, **kwargs)
        except DidNotFinish:
            raise DidNotFinish({"call": f"{fn.__module__}.{fn.__qualname__}",
                                "did_not_finish_s": round(cap, 3)})
    t0 = time.perf_counter()
    try:
        out = wl.unit(state, seed, call)
    except DidNotFinish as exc:
        return time.perf_counter() - t0, None, exc.args[0]
    except Exception as exc:  # a crash in the program is a failed op, not a lost run
        return time.perf_counter() - t0, None, {"error": f"{type(exc).__name__}: {exc}"}
    return time.perf_counter() - t0, out, None


def payload_digest(wl, state, out) -> str | None:
    try:
        return digest(wl.payload(state, out))
    except Exception:  # outputs too malformed to digest; checked() reports them
        return None


def checked(wl, state, seed: int, out):
    """(ops failed, messages, digest) for one repetition's outputs."""
    try:
        failed, msgs = wl.check(state, seed, out)
    except Exception as exc:  # outputs the checks cannot even read
        return wl.ops(state), [f"check raised {type(exc).__name__}: {exc}"], None
    return failed, msgs, payload_digest(wl, state, out)


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def probe_setup(workload: str, size: str) -> tuple[float, float]:
    """Seconds from launching a fresh interpreter to the end of its set-up,
    and the median speed probe that interpreter timed around its set-up."""
    launched = time.time()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--sizes", size, "--setup-probe", repr(launched)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
        env={**os.environ, **THREAD_ENV})
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    elapsed, probe = proc.stdout.split()[-2:]
    return float(elapsed), float(probe)


def commit_id() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def meta(workload: str, seed: int, seconds: float, trace: int, size: str, sizes) -> dict:
    import numpy
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "size": size, "sizes": sizes, "commit": commit_id(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", setup_samples: int = SETUP_SAMPLES) -> dict:
    """Measure one workload; returns the full result record."""
    deadline = time.perf_counter() + DEADLINE_S
    setup_times = []
    import_package()
    import spans
    from layer_metrics import METRICS, OVERHEAD, layer_metrics
    from workloads import WORKLOADS, rep_seed, MAX_REPS

    wl = WORKLOADS[workload]
    tracer = spans.Tracer() if trace else None
    undo = spans.install(tracer) if trace else []
    try:
        def traced(run_id, fn, *args):
            tracer.run_id, tracer.active = run_id, True
            try:
                return fn(*args)
            finally:
                tracer.active = False

        state = traced(f"{workload}/setup", wl.setup, wl.sizes[size]) if trace \
            else wl.setup(wl.sizes[size])
        walls, traced_walls, durations, normed = [], [], [], []
        probe = None if trace else SpeedProbe()
        attempted = failed = 0
        messages, stopped = [], []
        first_digest = None
        loop_start = time.perf_counter()
        for rep in range(MAX_REPS):
            rep_start = time.perf_counter()
            s = rep_seed(seed, rep)
            if probe:
                wall, out, stop, probe_s = probe.around(timed_unit, wl, state, s, deadline)
                normed.append(wall / probe_s * REF_PROBE_S)
            else:
                wall, out, stop = timed_unit(wl, state, s, deadline)
            walls.append(wall)
            if rep == 0:
                # the program's own peak: no benchmark check has run yet
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            attempted += wl.ops(state)
            if out is None:
                failed += wl.ops(state)
                stopped.append(stop)
                break
            f, msgs, d = checked(wl, state, s, out)
            failed += f
            messages += msgs
            first_digest = first_digest or d
            del out
            if trace and rep < TRACED_REPS:
                wall, out, stop = traced(f"{workload}/rep{rep}", timed_unit, wl, state, s,
                                          deadline)
                traced_walls.append(wall)
                attempted += wl.ops(state)
                if out is None:
                    failed += wl.ops(state)
                    stopped.append(stop)
                    break
                if payload_digest(wl, state, out) != d:
                    failed += wl.ops(state)
                    messages.append(f"rep {rep}: traced outputs differ from untraced ones")
                del out
            # set-up probes spread over the run, so they see the same
            # stretch of host load as the units do
            if not trace and len(setup_times) < setup_samples and \
                    time.perf_counter() - loop_start >= len(setup_times) * seconds / setup_samples:
                setup_times.append(probe_setup(workload, size))
            durations.append(time.perf_counter() - rep_start)
            elapsed = time.perf_counter() - loop_start
            if elapsed + statistics.median(durations) > seconds:
                break
        f, msgs = wl.finish(state)
        failed += f
        messages += msgs
        if not trace:
            setup_times += [probe_setup(workload, size)
                            for _ in range(setup_samples - len(setup_times))]

        if trace:
            for other, owl in WORKLOADS.items():
                if other == workload:
                    continue
                pstate = traced(f"probe:{other}/setup", owl.setup, owl.sizes["tiny"])
                _, out, stop = traced(f"probe:{other}/rep0", timed_unit, owl, pstate,
                                      rep_seed(seed, 0), deadline)
                attempted += owl.ops(pstate)
                if out is None:
                    failed += owl.ops(pstate)
                    stopped.append({"probe": other, **stop})
                    continue
                f, msgs, _ = checked(owl, pstate, rep_seed(seed, 0), out)
                f2, msgs2 = owl.finish(pstate)
                failed += f + f2
                messages += [f"probe {other}: {m}" for m in msgs + msgs2]
    finally:
        spans.uninstall(undo)

    result = {"meta": meta(workload, seed, seconds, int(trace), size, wl.sizes[size]),
              "reps": len(walls), "attempted": attempted, "failed": failed,
              "error_rate": failed / attempted, "stopped": stopped,
              "messages": messages, "digest": first_digest,
              "wall_raw_s_samples": walls, "wall_s_samples": normed,
              "setup_raw_s_samples": [t for t, _ in setup_times],
              "setup_s_samples": [t / p * REF_PROBE_S for t, p in setup_times]}
    if trace:
        values, from_probe = layer_metrics(tracer.spans, workload, len(traced_walls))
        overhead = (statistics.median(traced_walls) / statistics.median(walls[:len(traced_walls)])
                    - 1.0) if traced_walls else 0.0
        result["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit, _, _ in METRICS}
        result["metrics"][OVERHEAD[0]] = {"value": overhead, "unit": OVERHEAD[1]}
        result["from_probe"] = from_probe
        result["traced_wall_s_samples"] = traced_walls
        result["spans"] = tracer.spans
    else:
        result["metrics"] = {
            "wall_s": {"value": statistics.median(result["wall_s_samples"]), "unit": "s"},
            "setup_s": {"value": statistics.median(result["setup_s_samples"]), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return result


def report(result: dict) -> None:
    """Write the result record (and spans) under perfbench/out/ and print it."""
    m = result["meta"]
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{m['workload']}-seed{m['seed']}-trace{m['trace']}"
    span_list = result.pop("spans", None)
    if span_list is not None:
        from spans import write_jsonl
        spans_path = OUT_DIR / f"spans-{m['workload']}.jsonl"
        write_jsonl(span_list, spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"perfbench {m['workload']} seed={m['seed']} trace={m['trace']} "
          f"size={m['size']} reps={result['reps']}")
    print("meta " + json.dumps(m, sort_keys=True))
    probe = set(result.get("from_probe", ()))
    for name, v in result["metrics"].items():
        note = "  (measured on the tiny probes)" if name in probe else ""
        print(f"  {name:<48} {v['value']:.6g} {v['unit']}{note}")
    walls = result["wall_raw_s_samples"]
    print(f"  ({len(walls)} repetitions: fastest {min(walls):.6g} s, slowest {max(walls):.6g} s"
          " as measured" + (f"; {len(result['setup_s_samples'])} set-ups, median "
                            f"{statistics.median(result['setup_raw_s_samples']):.6g} s as measured)"
                            if result["setup_s_samples"] else ")"))
    print(f"  error_rate {result['error_rate']:.6g} "
          f"({result['failed']} failed of {result['attempted']} ops)")
    for rec in result["stopped"]:
        print("  stopped " + json.dumps(rec, sort_keys=True))
    for msg in result["messages"]:
        print(f"  check failed: {msg}")
    print(f"digest {m['workload']} seed={m['seed']} sha256={result['digest']}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"),
                    help="all: each workload in turn, each in a fresh process")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sizes", choices=("full", "tiny"), default="full",
                    help="tiny: the small sizes the benchmark's own tests use")
    ap.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.setup_probe is not None:
        probes = [time_probe() for _ in range(PROBE_EDGE)]
        import_package()
        from workloads import WORKLOADS
        wl = WORKLOADS[args.workload]
        wl.setup(wl.sizes[args.sizes])
        elapsed = time.time() - args.setup_probe - sum(probes)
        probes += [time_probe() for _ in range(PROBE_EDGE)]
        print(elapsed, statistics.median(probes))
        return 0
    import_package()
    if args.workload == "all":
        rc = 0
        for name in WORKLOAD_NAMES:
            rc |= subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--sizes", args.sizes], cwd=ROOT).returncode
        return rc
    report(run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.sizes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
