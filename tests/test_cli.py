"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_query_range_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["curate", "--query", "15"])


class TestGenerate:
    def test_generate_prints_stats(self, capsys):
        code = main(["generate", "--persons", "60", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Persons" in out
        assert "integrity: clean" in out

    def test_generate_with_export_and_validate(self, tmp_path, capsys):
        outdir = tmp_path / "export"
        code = main(["generate", "--persons", "60", "--seed", "3",
                     "--out", str(outdir)])
        assert code == 0
        assert (outdir / "person.csv").exists()
        code = main(["validate", str(outdir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "integrity: clean" in out

    def test_generate_scale_factor(self, capsys):
        code = main(["generate", "--scale-factor", "0.002",
                     "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "SF 0.002" in out


class TestValidateDetectsCorruption(object):
    def test_corrupted_export_fails(self, tmp_path, capsys):
        outdir = tmp_path / "export"
        main(["generate", "--persons", "60", "--seed", "3",
              "--out", str(outdir)])
        capsys.readouterr()
        # Corrupt a like timestamp.
        likes = (outdir / "likes.csv").read_text().splitlines()
        parts = likes[1].split("|")
        parts[2] = "1"
        likes[1] = "|".join(parts)
        (outdir / "likes.csv").write_text("\n".join(likes) + "\n")
        code = main(["validate", str(outdir)])
        out = capsys.readouterr().out
        assert code == 1
        assert "violations" in out


class TestBenchmark:
    def test_benchmark_store(self, capsys):
        code = main(["benchmark", "--persons", "70", "--seed", "2",
                     "--partitions", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Table 6" in out
        assert "throughput" in out

    def test_benchmark_engine(self, capsys):
        code = main(["benchmark", "--persons", "70", "--seed", "2",
                     "--sut", "engine", "--mode", "parallel"])
        assert code == 0
        assert "relational-engine" in capsys.readouterr().out


class TestDeploymentRefusals:
    @pytest.mark.parametrize("argv", [
        ["benchmark", "--sut", "engine", "--shards", "2"],
        ["benchmark", "--remote", "h:1", "--shards", "2"],
        ["serve", "--sut", "engine", "--shards", "2"],
    ])
    def test_refused_with_one_line(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--persons", "40"])
        message = excinfo.value.code
        # A string exit code is printed alone: no traceback.
        assert isinstance(message, str) and "\n" not in message
        assert "--shards" in message


class TestExplainAndCurate:
    def test_explain(self, capsys):
        code = main(["explain", "--persons", "80", "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "join decisions:" in out

    def test_curate(self, capsys):
        code = main(["curate", "--persons", "80", "--seed", "2",
                     "--query", "5", "-k", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "curated bindings for Q5" in out
        assert out.count("Q5Params") == 3

    def test_curate_uniform(self, capsys):
        code = main(["curate", "--persons", "80", "--seed", "2",
                     "--query", "2", "-k", "2", "--uniform"])
        out = capsys.readouterr().out
        assert code == 0
        assert "uniform bindings" in out


class TestChaos:
    def test_chaos_store_converges(self, capsys):
        code = main(["chaos", "--persons", "60", "--seed", "11",
                     "--sut", "store", "--abort-rate", "0.06",
                     "--latency-rate", "0.02", "--latency-ms", "0",
                     "--store-conflicts", "0.02"])
        out = capsys.readouterr().out
        assert code == 0
        assert "chaos soak [store]" in out
        assert "state digest: MATCH" in out
        assert "OK — chaos run converged" in out

    def test_chaos_fails_without_injections(self, capsys):
        # All rates zero: the soak must refuse to claim success.
        code = main(["chaos", "--persons", "60", "--seed", "11",
                     "--sut", "store", "--abort-rate", "0",
                     "--latency-rate", "0"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED" in out

    def test_canary_faults_requires_check(self, capsys):
        code = main(["validate", ".", "--canary-faults"])
        assert code == 2

    def test_canary_faults_detects(self, capsys, tmp_path):
        golden = tmp_path / "g.jsonl"
        code = main(["validate", "--create", str(golden),
                     "--persons", "60", "--seed", "11"])
        assert code == 0
        capsys.readouterr()
        code = main(["validate", "--check", str(golden),
                     "--canary-faults"])
        out = capsys.readouterr().out
        assert code == 0
        assert "chaos canary detected" in out


class TestCrashRecoveryFlags:
    def test_chaos_crash_fault_flags_parse(self):
        args = build_parser().parse_args(
            ["chaos", "--shards", "2",
             "--shard-kill-rate", "0.01",
             "--shard-kill-after-prepare", "0.02",
             "--shard-torn-wal-rate", "0.005",
             "--shard-wal-dir", "/tmp/repro-wal",
             "--shard-max-restarts", "7"])
        assert args.shard_kill_rate == 0.01
        assert args.shard_kill_after_prepare == 0.02
        assert args.shard_torn_wal_rate == 0.005
        assert args.shard_wal_dir == "/tmp/repro-wal"
        assert args.shard_max_restarts == 7

    def test_serve_drain_and_wal_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--drain-timeout", "2.5",
             "--shard-wal-dir", "/tmp/repro-wal"])
        assert args.drain_timeout == 2.5
        assert args.shard_wal_dir == "/tmp/repro-wal"

    def test_chaos_crash_soak_cli_converges(self, capsys):
        code = main(["chaos", "--persons", "50", "--seed", "11",
                     "--shards", "2", "--abort-rate", "0",
                     "--latency-rate", "0",
                     "--shard-kill-rate", "0.01",
                     "--shard-kill-after-prepare", "0.02",
                     "--shard-torn-wal-rate", "0.005",
                     "--shard-max-restarts", "256"])
        out = capsys.readouterr().out
        assert code == 0
        assert "supervised worker restarts:" in out
        assert "state digest: MATCH" in out
        assert "OK — chaos run converged" in out
