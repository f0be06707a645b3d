"""CLI satellite tests: ``repro journal``, ``repro cache clear
--quarantine``, and the ``repro sweep-all`` orchestrator.

The journal subcommand is the offline half of the checkpoint story: a
corrupt journal must be diagnosable *before* it bites mid-``--resume``,
and the exit code is the CI gate.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main as repro_main
from repro.resilience.journal import SweepJournal


@pytest.fixture()
def journal_path(tmp_path):
    path = tmp_path / "sweep.jsonl"
    journal = SweepJournal(path, header={"experiment": "demo", "seed": 9})
    journal.record("RAP/w=8", 1.25)
    journal.record("RAP/w=16", 2.5)
    journal.record("RAS/w=8", 1.0)
    return path


class TestJournalVerify:
    def test_clean_journal_exits_zero(self, journal_path, capsys):
        assert repro_main(["journal", "verify", str(journal_path)]) == 0
        out = capsys.readouterr().out
        assert "3 valid record(s), 0 bad line(s)" in out
        assert "journal is clean" in out

    def test_corrupt_record_exits_nonzero_and_names_the_line(
        self, journal_path, capsys
    ):
        lines = journal_path.read_text().splitlines()
        lines[1] = lines[1].replace("1.25", "9.99")  # flip a payload bit
        journal_path.write_text("\n".join(lines) + "\n")
        assert repro_main(["journal", "verify", str(journal_path)]) == 1
        out = capsys.readouterr().out
        assert "1 bad line(s)" in out
        assert "line 2" in out

    def test_torn_tail_is_flagged_as_resumable(self, journal_path, capsys):
        with journal_path.open("a") as handle:
            handle.write('{"key": "RAS/w=16", "payl')  # crash mid-write
        assert repro_main(["journal", "verify", str(journal_path)]) == 1
        out = capsys.readouterr().out
        assert "torn final line" in out

    def test_bad_header_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "noise.jsonl"
        path.write_text("this is not a journal\n")
        assert repro_main(["journal", "verify", str(path)]) == 1


class TestJournalStatsAndTail:
    def test_stats_reports_header_and_counts(self, journal_path, capsys):
        assert repro_main(["journal", "stats", str(journal_path)]) == 0
        out = capsys.readouterr().out
        assert 'header.experiment: "demo"' in out
        assert "records: 3" in out
        assert "distinct cells: 3" in out

    def test_tail_prints_most_recent_records(self, journal_path, capsys):
        assert repro_main(
            ["journal", "tail", str(journal_path), "--count", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "RAP/w=8" not in out  # oldest record trimmed
        assert "RAP/w=16 = 2.5" in out
        assert "RAS/w=8 = 1.0" in out

    def test_stats_on_garbage_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "noise.jsonl"
        path.write_text("garbage\n")
        assert repro_main(["journal", "stats", str(path)]) == 1


class TestCacheQuarantineClear:
    def test_clear_quarantine_prunes_only_aged_entries(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.sim.cache import ResultCache

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = ResultCache(root=tmp_path)
        (tmp_path / "bad.json").write_text("not json")
        assert cache.get("bad") is None  # quarantined, fresh
        aged = cache.quarantine_dir / "bad.json"
        past = aged.stat().st_mtime - 7200
        os.utime(aged, (past, past))
        assert repro_main(["cache", "clear", "--quarantine"]) == 0
        assert "pruned 1 aged-out quarantined entry" in capsys.readouterr().out
        assert not aged.exists()
        # Live cache entries are untouched by the quarantine-only clear.
        assert repro_main(["cache", "clear", "--quarantine"]) == 0
        assert "pruned 0" in capsys.readouterr().out


class TestSweepAll:
    SWEEP_ARGS = [
        "sweep-all", "--trials", "8", "--widths", "8", "16", "--w4", "4",
        "--no-cache",
    ]

    def test_rerun_resumes_byte_identically(self, tmp_path, capsys):
        """An interrupted-then-resumed sweep-all prints the same bytes
        as the original; here the second run replays fully from the
        journals and must not drift by a byte."""
        argv = [*self.SWEEP_ARGS, "--journal", str(tmp_path / "all.jsonl")]
        assert repro_main([*argv, "--fresh"]) == 0
        first = capsys.readouterr().out
        assert "Table II" in first and "Table IV" in first
        assert repro_main(argv) == 0
        assert capsys.readouterr().out == first
        # One journal file per experiment, derived from the base path.
        names = sorted(p.name for p in tmp_path.glob("all-*.jsonl"))
        assert names == [
            "all-growth.jsonl", "all-lemma1.jsonl",
            "all-table2.jsonl", "all-table4.jsonl",
        ]

    def test_journals_verify_clean_after_sweep(self, tmp_path, capsys):
        argv = [*self.SWEEP_ARGS, "--journal", str(tmp_path / "all.jsonl")]
        assert repro_main([*argv, "--fresh"]) == 0
        capsys.readouterr()
        for path in sorted(tmp_path.glob("all-*.jsonl")):
            assert repro_main(["journal", "verify", str(path)]) == 0
            capsys.readouterr()

    def test_mismatched_journal_is_refused(self, tmp_path, capsys):
        argv = [*self.SWEEP_ARGS, "--journal", str(tmp_path / "all.jsonl")]
        assert repro_main([*argv, "--fresh"]) == 0
        capsys.readouterr()
        # Same journals, different parameters: the header check refuses.
        changed = [
            "sweep-all", "--trials", "16", "--widths", "8", "16", "--w4", "4",
            "--no-cache", "--journal", str(tmp_path / "all.jsonl"),
        ]
        assert repro_main(changed) == 2
        assert "error:" in capsys.readouterr().err


def test_fabric_flag_output_matches_plain_run(tmp_path, capsys):
    """`table2 --fabric workers=2` prints the same bytes as the plain
    serial run — the CLI face of the fabric's bit-identity contract."""
    base = ["table2", "--trials", "50", "--widths", "8", "16", "--no-cache"]
    assert repro_main(base) == 0
    plain = capsys.readouterr().out
    assert repro_main([*base, "--fabric", "workers=2"]) == 0
    assert capsys.readouterr().out == plain
    assert repro_main([*base, "--fabric", "workers=4,backend=pool"]) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize("command", [["table2"], ["sweep-all"]])
@pytest.mark.parametrize(
    "spec", ["backend=nope", "workers=0", "backend=spawned", "workers=x"]
)
def test_bad_fabric_spec_is_a_usage_error(command, spec, capsys):
    """A bad ``--fabric`` spec exits 2 with one argparse error line that
    lists the valid backends, not a traceback from the engine."""
    with pytest.raises(SystemExit) as exc:
        repro_main([*command, "--trials", "5", "--fabric", spec])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = [ln for ln in err.splitlines() if "error:" in ln]
    assert "argument --fabric:" in line
    assert "inproc, pool" in line
