import hashlib
import json
import os
import resource
import subprocess
import sys

import pytest

from greedygraph.cli import OPTIONS, main
from reference import spy


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def capped_cli(argv, limit, timeout=120, **env):
    """Run ``python -m greedygraph *argv`` in a child whose soft address-space
    limit is ``limit`` bytes, with ``env`` added to its environment."""
    def lower_limit():
        resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))

    return subprocess.run([sys.executable, "-m", "greedygraph", *argv],
                          capture_output=True, text=True, timeout=timeout,
                          preexec_fn=lower_limit, env={**os.environ, **env})


def forbid_trials(monkeypatch):
    """Make simulating any trial of a prediction fail."""
    from greedygraph import predictor

    def no_trials(*args):
        raise AssertionError("trials simulated before the pattern was checked")

    monkeypatch.setattr(predictor, "map_trials", no_trials)


class TestOracle:
    def test_n4_json(self, capsys):
        code, out = run_cli(["oracle", "--n", "4"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["total_orderings"] == 720
        assert payload["class_probs"]["C4"]["num"] == 11
        assert payload["class_probs"]["K13"]["den"] == 15

    def test_bad_n_is_usage_error(self, capsys):
        code, _ = run_cli(["oracle", "--n", "6"], capsys)
        assert code == 2


class TestRounds:
    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        args = ["rounds", "--n", "200", "--eps", "0.2", "--trials", "3",
                "--seed", "7"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_report_embeds_config(self, capsys):
        code, out = run_cli(["rounds", "--n", "100", "--eps", "0.2",
                             "--trials", "2", "--seed", "3"], capsys)
        assert code == 0
        payload = json.loads(out)
        meta = payload["meta"]
        assert meta["tool"] == "greedygraph"
        assert meta["seed"] == 3
        assert meta["config"]["n"] == 100
        assert len(payload["runs"]) == 2
        assert "wall_clock" not in json.dumps(payload)

    def test_snapshots_flag(self, capsys):
        code, out = run_cli(["rounds", "--n", "30", "--eps", "0.3",
                             "--rounds-snapshots", "--seed", "1"], capsys)
        assert code == 0
        payload = json.loads(out)
        snaps = payload["snapshots_trial0"]
        assert snaps[0] == []  # empty initial graph
        # one snapshot per round after it, each the graph's edges as sorted
        # 'u v' lines with u < v
        totals = [r["total_edges"] for r in payload["runs"][0]["per_round"]]
        assert len(snaps) == len(totals) + 1
        for lines, total in zip(snaps[1:], totals):
            pairs = [tuple(map(int, line.split(" "))) for line in lines]
            assert [f"{u} {v}" for u, v in pairs] == lines
            assert all(u < v for u, v in pairs) and pairs == sorted(pairs)
            assert len(pairs) == total
        assert totals[-1] > 0

    def test_snapshots_simulate_trial0_once(self, capsys, monkeypatch):
        import greedygraph.cli as cli
        calls = spy(monkeypatch, cli, "run_rounds",
                    lambda _, params, trial=0: (trial, params.record_snapshots))
        code, out = run_cli(["rounds", "--n", "30", "--eps", "0.3", "--trials", "3",
                             "--rounds-snapshots", "--seed", "1"], capsys)
        assert code == 0
        assert calls == [(0, True), (1, False), (2, False)]
        payload = json.loads(out)
        assert len(payload["snapshots_trial0"]) == payload["meta"]["config"]["rounds_total"] + 1
        assert len(payload["snapshots_trial0"][-1]) == payload["runs"][0]["final_edges"]


class TestSeedResolution:
    def test_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("GREEDYGRAPH_SEED", "99")
        _, out = run_cli(["rounds", "--n", "50", "--eps", "0.2"], capsys)
        assert json.loads(out)["meta"]["seed"] == 99

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GREEDYGRAPH_SEED", "99")
        _, out = run_cli(["rounds", "--n", "50", "--eps", "0.2", "--seed", "5"],
                         capsys)
        assert json.loads(out)["meta"]["seed"] == 5

    def test_bad_env_seed_names_the_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("GREEDYGRAPH_SEED", "abc")
        assert main(["simulate"]) == 2
        assert capsys.readouterr().err == ("error: $GREEDYGRAPH_SEED = 'abc': "
                                           "invalid literal for int() with base 10: 'abc'\n")


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "campaign.cfg"
        cfg.write_text("n = 60\neps = 0.2\ntrials = 2\nseed = 11\n")
        _, out = run_cli(["rounds", "--config", str(cfg)], capsys)
        payload = json.loads(out)
        assert payload["meta"]["config"]["n"] == 60
        assert payload["meta"]["seed"] == 11

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "campaign.cfg"
        cfg.write_text("n=60\neps=0.2\nseed=11\n")
        _, out = run_cli(["rounds", "--config", str(cfg), "--n", "80"], capsys)
        assert json.loads(out)["meta"]["config"]["n"] == 80

    def test_unknown_key_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("n = 40\ntrails = 5\n")
        code = main(["simulate", "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown config key(s) trails" in err
        assert f"valid keys are {', '.join(OPTIONS)}" in err

    def test_keys_of_other_commands_and_outputs_allowed(self, capsys, tmp_path):
        # one file can serve several commands; out and csv are read from it
        report, rows = tmp_path / "report.json", tmp_path / "rows.csv"
        cfg = tmp_path / "shared.cfg"
        cfg.write_text(f"n = 60\neps = 0.25\nsample_size = 20\npattern = P3\nk = 4\n"
                       f"jobs = 2\nout = {report}\ncsv = {rows}\n")
        assert main(["lambda", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(report.read_text())["meta"]["config"]["sample_size"] == 20
        assert rows.read_text().startswith("round,u,v,")

    @pytest.mark.parametrize("raw, on", [("1", True), ("TRUE", True), ("yes", True),
                                         ("On", True), ("0", False), ("False", False),
                                         ("NO", False), ("off", False)])
    def test_boolean_spellings(self, capsys, tmp_path, raw, on):
        cfg = tmp_path / "flag.cfg"
        cfg.write_text(f"n = 20\neps = 0.2\nrounds_snapshots = {raw}\n")
        _, out = run_cli(["rounds", "--config", str(cfg)], capsys)
        payload = json.loads(out)
        assert payload["meta"]["config"]["rounds_snapshots"] is on
        assert ("snapshots_trial0" in payload) is on

    def test_misspelt_boolean_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("n = 20\nrounds_snapshots = ture\n")
        code = main(["rounds", "--config", str(cfg)])
        assert code == 2
        assert capsys.readouterr().err == (f"error: {cfg}: rounds_snapshots = 'ture' "
                                           "is not a boolean\n")

    @pytest.mark.parametrize("key, raw, reason", [
        ("seed", "x1", "invalid literal for int() with base 10: 'x1'"),
        ("n", "3.5", "invalid literal for int() with base 10: '3.5'"),
        ("trials", "0", "expected a positive integer, got 0")])
    def test_bad_value_names_file_and_key(self, capsys, tmp_path, key, raw, reason):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = {raw}\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: {key} = {raw!r}: {reason}\n"

    def test_malformed_config(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a pair\n")
        code, _ = run_cli(["rounds", "--config", str(cfg)], capsys)
        assert code == 2


# flags of a small run of every command whose report is deterministic
_REPRODUCIBLE = {
    "simulate": ["--n", "40", "--eps", "0.2", "--trials", "3", "--seed", "3",
                 "--cutoff", "0.5", "--jobs", "2"],
    "rounds": ["--n", "40", "--eps", "0.2", "--trials", "2", "--seed", "3",
               "--rounds-snapshots"],
    "oracle": ["--n", "3"],
    "lambda": ["--n", "60", "--eps", "0.25", "--sample-size", "20", "--seed", "3"],
    "branching": ["--n", "1000000", "--k", "4", "--depth", "3", "--trials", "300",
                  "--seed", "2"],
    "predict": ["--n", "60", "--eps", "0.2", "--pattern", "P3", "--trials", "2",
                "--seed", "4"],
    "compare-gnm": ["--n", "60", "--eps", "0.2", "--pattern", "C4", "--trials", "2",
                    "--seed", "4", "--jobs", "2"],
}


class TestReproduce:
    @pytest.mark.parametrize("command", sorted(_REPRODUCIBLE))
    def test_flags_config_and_meta_config_agree(self, command, capsys, tmp_path):
        # the same values as flags, as a config file, and read back from
        # the report's own meta.config give the same bytes
        flags = _REPRODUCIBLE[command]
        code, by_flags = run_cli([command, *flags], capsys)
        assert code == 0
        cfg = tmp_path / "run.cfg"
        lines, i = [], 0
        while i < len(flags):
            key = flags[i][2:].replace("-", "_")
            if OPTIONS[key].type is bool:
                lines.append(f"{key} = true")
                i += 1
            else:
                lines.append(f"{key} = {flags[i + 1]}")
                i += 2
        cfg.write_text("\n".join(lines) + "\n")
        code, by_config = run_cli([command, "--config", str(cfg)], capsys)
        assert code == 0
        assert by_config == by_flags
        replay = []
        for key, val in json.loads(by_flags)["meta"]["config"].items():
            # derived values that are no option of the command stay out
            if key not in OPTIONS or command not in OPTIONS[key].defaults:
                continue
            if val is None or val is False:
                continue
            replay += [f"--{key.replace('_', '-')}"] + ([] if val is True else [str(val)])
        code, by_meta = run_cli([command, *replay], capsys)
        assert code == 0
        assert by_meta == by_flags
        if "--jobs" in flags:
            # the worker count changes no output, so the report omits it
            at = flags.index("--jobs")
            code, serial = run_cli([command, *flags[:at], *flags[at + 2:]], capsys)
            assert serial == by_flags


@pytest.mark.parametrize("command", ["simulate", "rounds", "oracle", "lambda", "branching",
                                     "predict", "compare-gnm", "accept"])
def test_subcommand_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert f"usage: greedygraph {command}" in capsys.readouterr().out


class TestBranchingCommand:
    def test_report_and_csv(self, capsys, tmp_path):
        csv = tmp_path / "curves.csv"
        code, out = run_cli(["branching", "--n", "1000000", "--eps", "0.1",
                             "--k", "8", "--depth", "6", "--trials", "2000",
                             "--seed", "2", "--csv", str(csv)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["model"]["pairs"] == 64
        assert abs(payload["gaps"]["mc_vs_finite_z"]) < 6
        assert csv.read_text().startswith("level,x,p,cum,p_exact")


class TestPredictCommands:
    def test_predict(self, capsys):
        code, out = run_cli(["predict", "--n", "150", "--eps", "0.2",
                             "--pattern", "P3", "--trials", "3", "--seed", "4"],
                            capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["pattern"] == "P3"
        assert payload["trials"] == 3
        assert "gnm" not in payload

    def test_compare_gnm(self, capsys):
        code, out = run_cli(["compare-gnm", "--n", "150", "--eps", "0.2",
                             "--pattern", "C4", "--trials", "3", "--seed", "4"],
                            capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["gnm"]["samples"] == 3

    def test_report_is_strict_json_with_no_process_copies(self, capsys):
        # the round-form graphs of this run hold no 6-cycle, so the
        # uniform/process ratio has no value: null, not NaN, which strict
        # JSON parsers reject
        code, out = run_cli(["compare-gnm", "--n", "6", "--pattern", "C6",
                             "--trials", "2"], capsys)
        assert code == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        payload = json.loads(out, parse_constant=reject)
        assert payload["empirical_mean"] == 0
        assert payload["gnm"]["ratio_vs_process"] is None

    def test_unknown_pattern_usage_error(self, capsys):
        code, _ = run_cli(["predict", "--pattern", "Q9", "--n", "100"], capsys)
        assert code == 2

    def test_count_bound_is_usage_error(self, capsys, tmp_path):
        # the 3-cube leaves a forest only after 3 vertices are fixed, and
        # n**3 entries per row block at n=120 are past the memory bound
        cube = tmp_path / "cube.txt"
        cube.write_text("0 1\n1 3\n3 2\n2 0\n4 5\n5 7\n7 6\n6 4\n0 4\n1 5\n2 6\n3 7\n")
        code = main(["predict", "--pattern", str(cube), "--n", "120", "--eps", "0.2",
                     "--trials", "1"])
        assert code == 2
        assert "memory bound" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "compare-gnm"])
    def test_dense_adjacency_bound_is_usage_error(self, capsys, monkeypatch, command):
        # hosts are built as usual.  A count of C4 on the seed-0 hosts needs
        # at most 170,424 bytes; C5 adds the dense adjacency (60**2 bytes and
        # 60**2 float32 entries) and an int64 block of 60**2 entries, 217,224
        # bytes on the process host, so 200,000 bytes refuse C5 and count C4
        from greedygraph import graphcore, process
        monkeypatch.setattr(process, "check_memory", lambda need, what: None)
        monkeypatch.setattr(graphcore, "physical_memory", lambda: 200_000)
        code = main([command, "--pattern", "C5", "--n", "60", "--eps", "0.2",
                     "--trials", "1"])
        assert code == 2
        assert "memory bound: a count at n=60" in capsys.readouterr().err
        assert main([command, "--pattern", "C4", "--n", "60", "--eps", "0.2",
                     "--trials", "1"]) == 0

    @pytest.mark.parametrize("command,pattern,n", [("predict", "C4", 3),
                                                   ("compare-gnm", "C5", 4)])
    def test_pattern_larger_than_host_is_usage_error(self, capsys, monkeypatch,
                                                      command, pattern, n):
        forbid_trials(monkeypatch)
        code = main([command, "--pattern", pattern, "--n", str(n), "--trials", "1"])
        assert code == 2
        v = int(pattern[1])
        assert f"error: pattern {pattern} has {v} vertices, more than n={n}" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "compare-gnm"])
    def test_triangle_pattern_refused_before_simulating(self, capsys, monkeypatch,
                                                        tmp_path, command):
        forbid_trials(monkeypatch)
        k3 = tmp_path / "k3.txt"
        k3.write_text("0 1\n1 2\n0 2\n")
        code = main([command, "--pattern", str(k3), "--n", "1500", "--trials", "3"])
        assert code == 2
        assert "contains a triangle" in capsys.readouterr().err


class TestMemoryBound:
    def test_simulate_past_physical_memory_is_usage_error(self, capsys, monkeypatch):
        from greedygraph import graphcore
        monkeypatch.setattr(graphcore, "physical_memory", lambda: 1 << 20)
        code = main(["simulate", "--n", "300", "--trials", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "memory bound: a run at n=300 needs about 3 MiB" in err
        assert "Traceback" not in err

    def test_lambda_past_physical_memory_is_usage_error(self, capsys, monkeypatch):
        # the run (about 66 KiB) fits and the trajectory check (about 1 MiB)
        # does not; it is refused before it draws a sample
        from greedygraph import graphcore, rng
        monkeypatch.setattr(graphcore, "physical_memory", lambda: 1 << 19)
        rekey = rng.Streams.rekey

        def no_samples(self, seed, trial=0, round_=0, purpose=0):
            assert purpose != rng.SAMPLE, "a sample was drawn"
            return rekey(self, seed, trial, round_, purpose)

        monkeypatch.setattr(rng.Streams, "rekey", no_samples)
        code = main(["lambda", "--n", "60", "--eps", "0.25", "--sample-size", "100"])
        assert code == 2
        err = capsys.readouterr().err
        assert "memory bound: the trajectory check at n=60 needs about 1 MiB" in err
        assert "Traceback" not in err

    def test_simulate_past_address_space_limit_is_usage_error(self):
        # an uncut run at n=20000 needs about 1.6 GiB; the soft limit is
        # lowered in the child process only
        proc = capped_cli(["simulate", "--n", "20000", "--trials", "1"], 1_000_000 * 1024)
        assert proc.returncode == 2
        assert "memory bound" in proc.stderr
        assert "address-space limit (RLIMIT_AS)" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_run_that_would_run_out_of_address_space_is_refused(self):
        # an uncut run keeps a permutation of all C(n,2) pair ids, 8 bytes
        # each, through its insertion; under a 1,000,000 KiB soft limit,
        # with 100-150 MiB mapped by the interpreter and numpy, a run at
        # n=14600 fails an allocation when the check is off (the last n
        # that completes, with 109 MiB mapped, is 14579), so the check must
        # refuse it before it starts
        proc = capped_cli(["simulate", "--n", "14600", "--trials", "1"], 1_000_000 * 1024)
        assert proc.returncode == 2
        assert "memory bound: a run at n=14600 needs about" in proc.stderr
        assert "an allocation failed" not in proc.stderr

    def test_cut_run_that_would_run_out_of_address_space_is_refused(self):
        # with cutoff 0.3 the insertion holds the kept ids, 8 bytes each,
        # beside the graph's word rows and its reach rows or a copy of the
        # rows: under a 1,000,000 KiB soft limit, with one OpenBLAS thread
        # (about 109 MiB mapped before the run), a run at n=25000 fails an
        # allocation when the check is off (the last n that completes is
        # 24862); the check must refuse it before its draw
        proc = capped_cli(["simulate", "--n", "25000", "--cutoff", "0.3", "--trials", "1"],
                          1_000_000 * 1024, OPENBLAS_NUM_THREADS="1")
        assert proc.returncode == 2
        assert "memory bound: a run at n=25000 needs about" in proc.stderr
        assert "an allocation failed" not in proc.stderr

    @pytest.mark.full
    def test_rounds_at_n20000_runs_in_one_gib(self):
        # the round form draws only the pairs it keeps, so a run at n=20000
        # holds about 0.5 bytes per pair of K_n: on a 2-core x86_64 host it
        # took 2.7-3.2 s and peaked at 173 MiB resident.  Under a 1 GiB soft
        # limit it must pass the memory check and finish, which also bounds
        # its resident peak by 1 GiB
        proc = capped_cli(["rounds", "--n", "20000", "--trials", "1"], 1 << 30, timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["runs"][0]["final_edges"] > 0

    def test_allocation_failure_is_usage_error(self, capsys, monkeypatch):
        import greedygraph.cli as cli

        def fail(*args):
            raise MemoryError("Unable to allocate 549. MiB")

        monkeypatch.setattr(cli, "map_trials", fail)
        assert main(["simulate", "--n", "30"]) == 2
        err = capsys.readouterr().err
        assert "memory bound" in err and "Unable to allocate" in err

    def test_bare_allocation_failure_prints_no_empty_parentheses(self, capsys, monkeypatch):
        # the int ledger's merge near the memory limit raises MemoryError()
        import greedygraph.cli as cli

        def fail(*args):
            raise MemoryError()

        monkeypatch.setattr(cli, "map_trials", fail)
        assert main(["simulate", "--n", "30"]) == 2
        err = capsys.readouterr().err
        assert err == "error: memory bound: an allocation failed\n"


class TestLambdaCommand:
    def test_report_and_csv(self, capsys, tmp_path):
        csv = tmp_path / "rows.csv"
        code, out = run_cli(["lambda", "--n", "120", "--eps", "0.25",
                             "--sample-size", "40", "--seed", "3",
                             "--csv", str(csv)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rounds"]) >= 2
        assert csv.read_text().startswith("round,u,v,")
        # the rows file pinned byte for byte: 40 pairs in each of 10 rounds
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == \
            "36408945ce198f6f25e6b7f479f259d3e3b374ceb7edc80f8e8a8671bb2e6376"


@pytest.mark.parametrize("argv, digest", [
    ("simulate --n 60 --eps 0.2 --trials 3 --seed 5",
     "051a8a03aa9105686849b4a4281f3100b93e22481cc02327bf311b1b78ff3820"),
    ("simulate --n 60 --eps 0.2 --trials 3 --seed 5 --cutoff 0.4",
     "752b79dc4c4e3ba988239ee344f5c2f04e9c78a14bb3688559e7bcd8e7605870"),
    ("rounds --n 40 --eps 0.3 --trials 2 --rounds-snapshots --seed 1",
     "f7e3990e3b0c8ebd56b8235fd89d063904976129f43e39978560f2b18a59bfe6"),
    ("predict --n 150 --eps 0.2 --pattern P3 --trials 3 --seed 4",
     "ec12e937e35fd8ba09c7cd7c173a10211fc80d043badded5cb8ac9e7c4659916"),
    ("compare-gnm --n 150 --eps 0.2 --pattern C4 --trials 3 --seed 4",
     "255a0366570da35b4e8119d279bb474e153206f32e8f79739a80651627fb350b"),
    ("branching --n 1000000 --eps 0.1 --k 8 --depth 6 --trials 2000 --seed 2",
     "4e7f1cc55d3fc1401d4f8844bbebc7eecdc51d93df0b64d52b22083767d03618"),
    ("oracle --n 4", "6ce4ae8a8a8bcffca5d92a1c0df69997eacf258655c8dce884809f1905968273"),
    ("lambda --n 120 --eps 0.25 --sample-size 40 --seed 3",
     "e7f410a9a1178be3a0bfeeafca3c39e4077268f904a1d029b068206d2d195a74"),
], ids=["simulate", "simulate-cutoff", "rounds-snapshots", "predict", "compare-gnm", "branching",
        "oracle", "lambda"])
def test_report_digest(argv, digest, capsys):
    # each small-n report pinned byte for byte (its meta carries the version):
    # the snapshots are exported through edges(), the G(n, m) hosts audited
    # through _edge_blocks
    code, out = run_cli(argv.split(), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestAcceptCommand:
    def test_passing_subset_exit_zero(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, out = run_cli(["accept", "--only", "9,14", "--seed", "0",
                             "--out", str(out_file)], capsys)
        assert code == 0
        assert "[PASS] C09" in out
        payload = json.loads(out_file.read_text())
        assert payload["passed"] == payload["total"] == 2
        # the report pinned byte for byte, once its timings are taken out
        del payload["wall_clock_s"]
        for criterion in payload["criteria"]:
            del criterion["elapsed_s"]
        assert hashlib.sha256(json.dumps(payload).encode()).hexdigest() == \
            "49b123e2497f7b88662ce3f1d7839a3e7d4962ee15a388fbe0fe093708a014b3"

    def test_known_failing_criterion_exit_one(self, capsys):
        # criterion 1 asserts an asymptotic band the exact value provably
        # misses; the harness must surface that as a failure
        code, out = run_cli(["accept", "--only", "1", "--seed", "0"], capsys)
        assert code == 1
        assert "[FAIL] C01" in out

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["accept", "--profile", "weird"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("only", ["99", "9,99", "0"])
    def test_unknown_criterion_id_is_usage_error(self, capsys, only):
        assert main(["accept", "--only", only]) == 2
        out, err = capsys.readouterr()
        assert "criteria passed" not in out
        assert "unknown criterion ids" in err
        assert "valid ids are 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14" in err

    @pytest.mark.parametrize("only", ["", ","])
    def test_empty_criterion_list_is_usage_error(self, capsys, only):
        # an empty list names no criterion; it must not run the whole profile
        assert main(["accept", "--only", only]) == 2
        out, err = capsys.readouterr()
        assert "criteria passed" not in out
        assert "no criterion id given" in err
        assert "valid ids are 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14" in err


class TestCountFlags:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--trials", "0"],
        ["simulate", "--trials", "-2"],
        ["simulate", "--jobs", "0"],
        ["rounds", "--jobs", "-1"],
        ["predict", "--trials", "0"],
        ["lambda", "--sample-size", "0"],
        ["lambda", "--sample-size", "-5"],
        ["branching", "--depth", "0"],
        ["branching", "--grid", "-3"],
    ])
    def test_non_positive_flag_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "positive_int" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["trials = 0", "jobs = -4"])
    def test_non_positive_config_value_is_usage_error(self, line, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "positive integer" in capsys.readouterr().err


def test_import_is_light():
    # scipy would cost set-up time on every command, and the pattern spasm
    # is built on a pattern's first count, not at import
    code = ("import sys, greedygraph\n"
            "from greedygraph.patterns import _spasm\n"
            "assert 'scipy' not in sys.modules, 'scipy imported'\n"
            "assert _spasm.cache_info().currsize == 0, 'spasm built at import'\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_module_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "greedygraph", "oracle", "--n", "3"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["total_orderings"] == 6


def test_jobs_flag_reduces_in_trial_order(capsys):
    # two workers, same aggregate as sequential
    code, out = run_cli(["predict", "--n", "120", "--eps", "0.2", "--pattern",
                         "P3", "--trials", "4", "--seed", "4", "--jobs", "2"],
                        capsys)
    assert code == 0
    parallel = json.loads(out)
    code, out = run_cli(["predict", "--n", "120", "--eps", "0.2", "--pattern",
                         "P3", "--trials", "4", "--seed", "4"], capsys)
    sequential = json.loads(out)
    assert parallel["empirical_mean"] == sequential["empirical_mean"]
