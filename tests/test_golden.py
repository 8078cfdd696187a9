"""Golden validation datasets: create/check roundtrip, corruption
detection, and the committed seed-scale golden file."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.validation import (
    GOLDEN_FORMAT,
    canary_bug,
    check_golden,
    create_golden,
    render_golden_check,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
COMMITTED = os.path.join(GOLDEN_DIR, "snb-p80-s7.jsonl")


@pytest.fixture(scope="module")
def tiny_golden(tmp_path_factory):
    """A small golden dataset recorded fresh for this test module."""
    path = str(tmp_path_factory.mktemp("golden") / "tiny.jsonl")
    records = create_golden(path, persons=40, seed=5,
                            bindings_per_query=2, batch_size=150)
    return path, records


class TestGoldenRoundtrip:
    def test_header_and_record_count(self, tiny_golden):
        path, records = tiny_golden
        with open(path, encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        assert lines[0]["format"] == GOLDEN_FORMAT
        assert lines[0]["persons"] == 40
        assert len(lines) == records + 1
        ops = {line["op"] for line in lines[1:]}
        assert ops == {"update", "complex", "short", "checkpoint"}

    @pytest.mark.parametrize("sut", ["store", "engine"])
    def test_both_suts_check_clean(self, tiny_golden, sut):
        path, __ = tiny_golden
        report = check_golden(path, sut)
        assert report.ok, render_golden_check(report)
        assert report.updates_replayed > 100
        assert report.reads_checked > 10
        assert report.checkpoints_checked >= 1
        assert "OK — matches golden" in render_golden_check(report)

    def test_corrupted_expectation_is_detected(self, tiny_golden,
                                               tmp_path):
        path, __ = tiny_golden
        corrupted = tmp_path / "corrupted.jsonl"
        flipped = 0
        with open(path, encoding="utf-8") as src, \
                open(corrupted, "w", encoding="utf-8") as dst:
            for line in src:
                record = json.loads(line)
                if not flipped and record.get("op") == "short" \
                        and isinstance(record.get("expect"), dict) \
                        and "content" in record["expect"]:
                    record["expect"]["content"] += " CORRUPTED"
                    flipped = 1
                dst.write(json.dumps(record) + "\n")
        assert flipped, "no short-read content record to corrupt"
        report = check_golden(str(corrupted), "store")
        assert not report.ok
        assert report.mismatches[0].diff is not None
        assert any(d.column == "content"
                   for d in report.mismatches[0].diff.column_diffs)
        assert report.bundle is not None
        text = render_golden_check(report)
        assert "MISMATCHES" in text and "col content" in text
        # An expectation corruption is update-independent: the shrinker
        # reduces the counterexample to the empty update prefix.
        assert report.shrunk is not None
        assert report.shrunk.shrunk_updates == 0

    def test_rejects_non_golden_file(self, tmp_path):
        from repro.errors import BenchmarkError

        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text('{"format":"something-else"}\n')
        with pytest.raises(BenchmarkError):
            check_golden(str(bogus), "store")


class TestCommittedGolden:
    def test_committed_file_exists(self):
        assert os.path.exists(COMMITTED), \
            "the seed-scale golden dataset must be committed"

    def test_cli_check_passes_on_both_suts(self, capsys):
        code = main(["validate", "--check", COMMITTED, "--sut", "both"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert out.count("OK — matches golden") == 2

    def test_cli_canary_is_detected(self, capsys):
        code = main(["validate", "--check", COMMITTED,
                     "--sut", "engine", "--canary"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "canary detected" in out
        assert "shrunk to 0 updates" in out

    def test_cli_shard_router_canary_is_detected_at_read_level(
            self, capsys):
        """A shard dropped from every scatter-gather — the batched
        reads' ``call_many`` included — makes reads return short or
        raise; either way the check reports per-read mismatches and a
        shrunk counterexample, not a traceback."""
        code = main(["validate", "--check", COMMITTED,
                     "--sut", "sharded", "--canary"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "canary detected" in out
        assert "shrunk to 0 updates" in out
        assert " Q1 params=" in out and "<error>" in out

    def test_cli_undetected_canary_fails(self, tiny_golden, capsys,
                                         monkeypatch):
        """If the harness stops comparing, the canary job must fail."""
        import repro.validation as validation_pkg

        path, __ = tiny_golden
        real_check = validation_pkg.check_golden

        def blind_check(p, sut_name, **kwargs):
            report = real_check(p, sut_name, **kwargs)
            report.mismatches.clear()  # a broken oracle sees nothing
            return report

        # The CLI resolves check_golden through the package namespace
        # at call time, so patching the package attribute is enough.
        monkeypatch.setattr(validation_pkg, "check_golden", blind_check)
        code = main(["validate", "--check", path,
                     "--sut", "engine", "--canary"])
        out = capsys.readouterr().out
        assert code == 1
        assert "CANARY NOT DETECTED" in out


class TestGoldenCli:
    def test_create_then_check_roundtrip(self, tmp_path, capsys):
        path = str(tmp_path / "cli.jsonl")
        code = main(["validate", "--create", path, "--persons", "40",
                     "--seed", "5", "-k", "2", "--batch", "150"])
        out = capsys.readouterr().out
        assert code == 0
        assert "golden dataset written" in out
        code = main(["validate", "--check", path, "--sut", "store"])
        assert code == 0

    def test_validate_requires_a_mode(self, capsys):
        with pytest.raises(SystemExit):
            main(["validate"])
