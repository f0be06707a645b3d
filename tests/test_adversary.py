"""Tests for :mod:`repro.adversary` — the worst-case pattern search."""

import json

import numpy as np
import pytest

from repro.adversary import (
    BUDGET_NAMES,
    AdversaryResult,
    SearchBudget,
    assemble_pattern,
    expected_worst_congestion,
    find_worst_pattern,
    pattern_congestions,
)
from repro.adversary.cli import main as adversary_main
from repro.core.mappings import sample_shift_batch
from repro.resilience.faults import builtin_worker_fault_plan
from repro.sim.engine import MonteCarloEngine
from repro.sim.experiments import adversary_table
from repro.util.rng import as_generator

TINY = SearchBudget.named("tiny")


# -- scoring primitives ---------------------------------------------------


class TestPatternCongestions:
    def test_matches_direct_congestion_count(self):
        """The chunked kernel path agrees with the reference counter."""
        w = 8
        rng = as_generator(42)
        ii = rng.integers(0, w, size=(3, w))
        jj = rng.integers(0, w, size=(3, w))
        shifts = sample_shift_batch("RAP", w, 5, rng)
        got = pattern_congestions(ii, jj, shifts, w)
        assert got.shape == (5, 3)
        for t in range(5):
            for warp in range(3):
                banks = (jj[warp] + shifts[t, ii[warp]]) % w
                # Drop CRCW-merged duplicate lanes, as the executor
                # does; the survivors are distinct addresses, so a
                # bank's load is simply its lane count.
                flat = ii[warp] * w + jj[warp]
                _, first = np.unique(flat, return_index=True)
                expect = np.bincount(banks[first], minlength=w).max()
                assert got[t, warp] == expect

    def test_duplicate_lanes_merge(self):
        """All lanes on one element is congestion 1, not w."""
        w = 8
        ii = np.zeros((1, w), dtype=np.int64)
        jj = np.zeros((1, w), dtype=np.int64)
        shifts = np.zeros((1, w), dtype=np.int64)
        assert pattern_congestions(ii, jj, shifts, w).item() == 1

    def test_stride_pattern_under_raw_is_w(self):
        """One column, all rows, zero shifts: the w-fold serialization."""
        w = 16
        ii, jj = assemble_pattern(
            np.arange(w), np.zeros(w, dtype=np.int64), w
        )
        shifts = np.zeros((1, w), dtype=np.int64)
        cong = pattern_congestions(ii, jj, shifts, w)
        assert (cong == w).all()
        assert expected_worst_congestion(ii, jj, shifts, w) == w

    def test_rejects_bad_shapes(self):
        w = 8
        ii = np.zeros((2, w), dtype=np.int64)
        with pytest.raises(ValueError, match="matching"):
            pattern_congestions(ii, np.zeros((3, w), dtype=np.int64),
                                np.zeros((1, w), dtype=np.int64), w)
        with pytest.raises(ValueError, match="shifts"):
            pattern_congestions(ii, ii, np.zeros((1, w + 1), dtype=np.int64), w)

    def _stride(self, w=8):
        return assemble_pattern(np.arange(w), np.zeros(w, dtype=np.int64), w)

    def test_float_shifts_are_a_type_error(self):
        # Once truncated to shift 0: congestion 8 on the stride grid.
        ii, jj = self._stride()
        with pytest.raises(TypeError, match="shifts must be integers"):
            pattern_congestions(ii, jj, np.full((2, 8), 0.9), 8)
        with pytest.raises(TypeError, match="shifts must be integers"):
            expected_worst_congestion(ii, jj, np.full((2, 8), 0.9), 8)

    def test_zero_trials_rejected(self):
        # Once nan plus a numpy RuntimeWarning from the empty mean.
        ii, jj = self._stride()
        shifts = np.zeros((0, 8), dtype=np.int64)
        with pytest.raises(ValueError, match="at least one trial"):
            pattern_congestions(ii, jj, shifts, 8)
        with pytest.raises(ValueError, match="at least one trial"):
            expected_worst_congestion(ii, jj, shifts, 8)

    @pytest.mark.parametrize("bad", [8, -1])
    def test_out_of_range_shifts_rejected(self, bad):
        ii, jj = self._stride()
        shifts = np.zeros((2, 8), dtype=np.int64)
        shifts[1, 5] = bad
        with pytest.raises(ValueError, match=r"shifts must lie in \[0, 8\)"):
            pattern_congestions(ii, jj, shifts, 8)

    def test_rejects_out_of_range_indices(self):
        w = 8
        ii = np.full((1, w), w, dtype=np.int64)
        jj = np.zeros((1, w), dtype=np.int64)
        with pytest.raises(ValueError, match=r"\[0, 8\)"):
            pattern_congestions(ii, jj, np.zeros((1, w), dtype=np.int64), w)


class TestAssemblePattern:
    def test_row_translation(self):
        w = 4
        rows = np.array([0, 1, 2, 3])
        cols = np.array([3, 2, 1, 0])
        ii, jj = assemble_pattern(rows, cols, w)
        assert ii.shape == jj.shape == (w, w)
        for r in range(w):
            assert np.array_equal(ii[r], (rows + r) % w)
            assert np.array_equal(jj[r], cols)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="warp pattern"):
            assemble_pattern(np.arange(3), np.arange(3), 4)


# -- budgets --------------------------------------------------------------


class TestSearchBudget:
    def test_named_presets(self):
        assert set(BUDGET_NAMES) == {"tiny", "default"}
        assert SearchBudget.named("default") == SearchBudget()
        assert TINY.restarts == 2

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown budget"):
            SearchBudget.named("huge")

    def test_rejects_nonpositive_knobs(self):
        with pytest.raises(ValueError):
            SearchBudget(restarts=0)


# -- the search -----------------------------------------------------------


class TestFindWorstPattern:
    def test_raw_finds_at_least_half_w(self):
        """Acceptance floor: RAW worst-case congestion >= w/2 at w=32."""
        result = find_worst_pattern("RAW", 32, seed=2014, budget=TINY)
        assert result.eval_score >= 16
        # The stride start is exactly the known worst case; the greedy
        # search must not lose it.
        assert result.eval_score == 32

    def test_raw_strictly_exceeds_rap(self):
        raw = find_worst_pattern("RAW", 16, seed=2014, budget=TINY)
        rap = find_worst_pattern("RAP", 16, seed=2014, budget=TINY)
        assert raw.eval_score > rap.eval_score

    def test_deterministic_across_worker_counts(self):
        """Fixed seed => bit-identical result for any worker count."""
        serial = find_worst_pattern("RAP", 16, seed=7, budget=TINY)
        with MonteCarloEngine(workers=2) as engine:
            fanned = find_worst_pattern("RAP", 16, seed=7, budget=TINY, engine=engine)
        assert serial == fanned

    def test_killed_worker_is_retried_to_the_same_result(self):
        """Restarts are engine shards: a worker killed mid-search is
        retried and the result equals the fault-free serial one."""
        serial = find_worst_pattern("RAP", 16, seed=7, budget=TINY)
        plan = builtin_worker_fault_plan("kill-worker")
        with MonteCarloEngine(workers=2, faults=plan) as engine:
            chaos = find_worst_pattern("RAP", 16, seed=7, budget=TINY, engine=engine)
        assert chaos == serial
        assert engine.collector.retries

    def test_deterministic_across_calls(self):
        a = find_worst_pattern("RAS", 8, seed=5, budget=TINY)
        b = find_worst_pattern("RAS", 8, seed=5, budget=TINY)
        assert a == b

    def test_different_seeds_diverge(self):
        a = find_worst_pattern("RAP", 16, seed=1, budget=TINY)
        b = find_worst_pattern("RAP", 16, seed=2, budget=TINY)
        assert a.seed != b.seed

    def test_raw_uses_single_trial(self):
        result = find_worst_pattern("RAW", 8, seed=3, budget=TINY)
        assert result.train_trials == 1
        assert result.eval_trials == 1

    def test_eval_score_is_reproducible_from_pattern(self):
        """The reported score re-derives from the published pattern."""
        result = find_worst_pattern("RAW", 8, seed=3, budget=TINY)
        ii, jj = result.pattern()
        shifts = np.zeros((1, 8), dtype=np.int64)
        assert expected_worst_congestion(ii, jj, shifts, 8) == result.eval_score

    def test_rejects_unknown_mapping(self):
        with pytest.raises(ValueError, match="unknown mapping"):
            find_worst_pattern("XYZ", 8)

    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError, match="workers"):
            find_worst_pattern("RAP", 8, engine=MonteCarloEngine(workers=-1))


class TestAdversaryResult:
    def test_dict_roundtrip(self):
        result = find_worst_pattern("RAP", 8, seed=11, budget=TINY)
        payload = result.to_dict()
        json.dumps(payload)  # must be JSON-clean
        back = AdversaryResult.from_dict(payload)
        assert back.mapping == result.mapping
        assert back.w == result.w
        assert back.budget == result.budget
        assert back.warp_rows == result.warp_rows
        assert back.warp_cols == result.warp_cols
        assert back.pattern_sha256 == result.pattern_sha256

    def test_pattern_digest_binds_grids(self):
        a = find_worst_pattern("RAP", 8, seed=11, budget=TINY)
        b = find_worst_pattern("RAP", 8, seed=12, budget=TINY)
        if a.warp_rows != b.warp_rows or a.warp_cols != b.warp_cols:
            assert a.pattern_sha256 != b.pattern_sha256


class TestAdversarySweep:
    def test_series_and_trend(self):
        sweep = adversary_table(
            mappings=("RAW", "RAP"), widths=(8, 16), seed=2014, budget=TINY
        )
        for w in (8, 16):
            raw, rap = sweep.results[("RAW", w)], sweep.results[("RAP", w)]
            assert raw.eval_score > rap.eval_score
        series = sweep.series()
        assert set(series) == {"RAW", "RAP", "lnw/lnlnw"}
        assert len(series["RAP"]) == 2
        payload = sweep.to_dict()
        assert len(payload["results"]) == 4
        assert [cell["w"] for cell in payload["rap_trend"]] == [8, 16]
        json.dumps(payload)


# -- journal checkpointing ------------------------------------------------


class TestJournalResume:
    def test_resumed_sweep_skips_completed_cells(self, tmp_path, monkeypatch):
        from repro.resilience.journal import SweepJournal

        path = tmp_path / "adv.journal"
        header = {"experiment": "adversary", "seed": 9}
        journal = SweepJournal(path, header=header, resume=True)
        first = adversary_table(
            mappings=("RAP",), widths=(8,), seed=9, budget=TINY, journal=journal
        )

        # A resumed run must replay the journal, never search again.
        import repro.adversary.search as search

        def boom(*args, **kwargs):
            raise AssertionError("journalled cell was re-searched")

        monkeypatch.setattr(search, "find_worst_pattern", boom)
        journal2 = SweepJournal(path, header=header, resume=True)
        second = adversary_table(
            mappings=("RAP",), widths=(8,), seed=9, budget=TINY, journal=journal2
        )
        assert second.results[("RAP", 8)] == first.results[("RAP", 8)]

    def test_crash_mid_search_resumes_byte_identically(
        self, tmp_path, monkeypatch, capsys
    ):
        """Chaos: the search process dies partway through the sweep.
        Rerunning ``repro adversary --journal`` over the same journal
        resumes the remaining cells and prints output byte-identical
        to an uninterrupted run."""
        import repro.adversary.search as search

        argv = ["--w", "8", "16", "--budget", "tiny",
                "--mappings", "RAW", "RAP", "--json", "-"]

        # The uninterrupted reference run (its own journal).
        assert adversary_main(
            [*argv, "--journal", str(tmp_path / "ref.journal")]
        ) == 0
        reference = capsys.readouterr().out

        # Chaos run: the second searched cell crashes the process.
        real = search.find_worst_pattern
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise RuntimeError("injected crash mid-search")
            return real(*args, **kwargs)

        monkeypatch.setattr(search, "find_worst_pattern", flaky)
        path = tmp_path / "adv.journal"
        with pytest.raises(RuntimeError, match="injected crash"):
            adversary_main([*argv, "--journal", str(path)])
        capsys.readouterr()
        assert path.exists()  # the first cell checkpointed

        # Resume with the fault healed: byte-identical output.
        monkeypatch.setattr(search, "find_worst_pattern", real)
        assert adversary_main([*argv, "--journal", str(path)]) == 0
        assert capsys.readouterr().out == reference


# -- CLI ------------------------------------------------------------------


class TestAdversaryCLI:
    def test_smoke_table(self, capsys):
        code = adversary_main(
            ["--w", "8", "--budget", "tiny", "--mappings", "RAW", "RAP"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Found-worst congestion" in out
        assert "ln w/ln ln w" in out

    def test_json_artifact(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        code = adversary_main(
            ["--w", "8", "--budget", "tiny", "--mappings", "RAP",
             "--json", str(path)]
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["widths"] == [8]
        (cell,) = payload["results"]
        assert cell["mapping"] == "RAP"
        assert cell["assembly"] == "row-translate"

    def test_gate_passes_when_raw_exceeds_rap(self, capsys):
        code = adversary_main(
            ["--w", "8", "--budget", "tiny", "--mappings", "RAW", "RAP",
             "--check-raw-exceeds-rap"]
        )
        assert code == 0
        assert "gate ok" in capsys.readouterr().out

    def test_gate_needs_both_mappings(self, capsys):
        code = adversary_main(
            ["--w", "8", "--budget", "tiny", "--mappings", "RAP",
             "--check-raw-exceeds-rap"]
        )
        assert code == 2
        assert "RAW" in capsys.readouterr().err

    def test_knob_overrides_change_budget(self, capsys):
        code = adversary_main(
            ["--w", "8", "--budget", "tiny", "--mappings", "RAP",
             "--restarts", "1", "--eval-trials", "4", "--json", "-"]
        )
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        (cell,) = payload["results"]
        assert cell["budget"]["restarts"] == 1
        assert cell["budget"]["eval_trials"] == 4

    def test_cli_via_repro_dispatch(self, capsys):
        from repro.cli import main as repro_main

        code = repro_main(
            ["adversary", "--w", "8", "--budget", "tiny", "--mappings", "RAW"]
        )
        assert code == 0
        assert "Found-worst" in capsys.readouterr().out

    def test_journal_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "adv.journal"
        argv = ["--w", "8", "--budget", "tiny", "--mappings", "RAP",
                "--journal", str(path), "--json", "-"]
        assert adversary_main(argv) == 0
        out = capsys.readouterr().out
        first = json.loads(out[out.index("{"):])
        assert adversary_main(argv) == 0
        out = capsys.readouterr().out
        second = json.loads(out[out.index("{"):])
        assert first == second
