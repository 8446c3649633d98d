"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py -q

They are not part of the package's tier-1 suite (pytest's testpaths is
tests/), and take about half a minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

from greedygraph import branching, predictor, process, rng  # noqa: E402
from greedygraph.patterns import CATALOG, count_embeddings  # noqa: E402
from workloads import walk_counts, c4_count_chunked  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def cli(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_workload_runs_and_prints_every_metric(workload, trace):
    proc = cli("--workload", workload, "--seed", "3", "--seconds", "0.3",
               "--trace", trace, "--sizes", "tiny")
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "end_to_end" if trace == "0" else "per_layer"
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name in expected:
        assert f"  {name} " in proc.stdout
    assert "error_rate 0 " in proc.stdout
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_digest_repeats_for_a_seed_and_tracing_leaves_outputs_alone():
    def digest_line(trace, seed):
        proc = cli("--workload", "campaign_n100", "--seed", str(seed), "--seconds", "0.1",
                   "--trace", trace, "--sizes", "tiny")
        return [ln for ln in proc.stdout.splitlines() if ln.startswith("digest ")][0]
    first = digest_line("0", 5)
    assert digest_line("0", 5) == first
    assert digest_line("1", 5) == first
    assert digest_line("0", 6) != first


def test_injected_count_mismatch_is_a_failed_op(monkeypatch):
    original = predictor.count_copies
    monkeypatch.setattr(predictor, "count_copies", lambda host, pat: original(host, pat) + 1)
    result = run.run_workload("count_n300", 1, 0.1, False, size="tiny", setup_samples=1)
    assert result["failed"] >= 1
    assert result["error_rate"] > 0
    assert any("reference" in m for m in result["messages"])


def test_injected_campaign_mismatch_is_a_failed_op(monkeypatch):
    original = process.final_distribution_sample

    def drop_one_trial(*args, **kwargs):
        edges, classes = original(*args, **kwargs)
        edges[max(edges)] -= 1
        return edges, classes
    monkeypatch.setattr(process, "final_distribution_sample", drop_one_trial)
    result = run.run_workload("campaign_n100", 1, 0.1, False, size="tiny", setup_samples=1)
    assert result["failed"] >= 1


def test_injected_monte_carlo_bias_fails_the_pooled_cells(monkeypatch):
    original = branching.simulate_tree

    def all_survive(*args, **kwargs):
        est = original(*args, **kwargs)
        return branching.McEstimate(mean=1.0, se=0.0, trials=est.trials, survivors=est.trials)
    monkeypatch.setattr(branching, "simulate_tree", all_survive)
    result = run.run_workload("survival_mc", 1, 0.1, False, size="tiny", setup_samples=1)
    assert result["failed"] == 9 * result["reps"]
    assert all("Monte Carlo" in m for m in result["messages"])


def test_call_past_its_cap_is_a_did_not_finish(monkeypatch):
    monkeypatch.setattr(run, "CALL_CAP_S", 0.2)
    original = process.final_distribution_sample

    def slow(*args, **kwargs):
        deadline = time.perf_counter() + 2.0
        while time.perf_counter() < deadline:
            pass
        return original(*args, **kwargs)
    monkeypatch.setattr(process, "final_distribution_sample", slow)
    result = run.run_workload("campaign_n100", 1, 5.0, False, size="tiny", setup_samples=1)
    [record] = result["stopped"]
    assert record["did_not_finish_s"] == 0.2 and record["call"].endswith(".slow")
    assert result["failed"] == result["attempted"] > 0
    assert result["wall_raw_s_samples"][-1] < 1.0


def test_speed_probe_runs_inside_the_unit_and_takes_its_own_time_off():
    probe = run.SpeedProbe()

    def busy():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        return time.perf_counter() - t0, "outputs", None
    wall, out, stop, probe_s = probe.around(busy)
    inside = probe.samples[run.PROBE_EDGE:-run.PROBE_EDGE]
    assert out == "outputs" and stop is None
    assert len(inside) >= 3 and probe_s > 0
    assert wall == pytest.approx(0.3 - sum(inside), abs=0.01)
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_a_crash_in_the_program_is_a_failed_op_not_a_lost_run(monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("injected")
    monkeypatch.setattr(process, "run_exact", crash)
    result = run.run_workload("large_runs", 1, 5.0, False, size="tiny", setup_samples=1)
    assert result["stopped"] == [{"error": "RuntimeError: injected"}]
    assert result["failed"] == result["attempted"] == 3


def test_without_the_package_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = cli("--workload", "campaign_n100", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("seed", range(4))
def test_walk_counts_match_backtracking_with_and_without_triangles(seed):
    for n, m in ((12, 30), (16, 45), (9, 20)):
        host = predictor.sample_gnm(n, m, rng.stream(seed, n, purpose=rng.GNM))
        ref = walk_counts(host)
        for name in ("P3", "C4", "P4", "K13", "C5"):
            pat = CATALOG[name]
            assert ref[name] == count_embeddings(host, pat) // pat.aut
        assert c4_count_chunked(host, rows=5) == ref["C4"]
