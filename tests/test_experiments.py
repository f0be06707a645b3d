"""Unit tests for repro.sim.experiments — the table generators."""

import sys

import pytest

from repro.core.higher_dim import ND_MAPPING_NAMES
from repro.core.mappings import MAPPING_NAMES
from repro.sim.experiments import (
    PAPER_TABLE2,
    PAPER_TABLE4_CLASSES,
    TABLE2_WIDTHS,
    table1,
    table2,
    table3,
    table4,
)


class TestTable1:
    def test_all_cells_present(self):
        r = table1()
        assert set(r.cells) == {(row, m) for row in r.rows for m in r.mappings}

    def test_rap_stride_is_one(self):
        assert table1().cells[("stride", "RAP")] == "1"

    def test_raw_any_is_w(self):
        assert table1().cells[("any", "RAW")] == "w"

    def test_contiguous_all_one(self):
        r = table1()
        assert all(r.cells[("contiguous", m)] == "1" for m in MAPPING_NAMES)


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        return table2(widths=(16, 32), trials=400, seed=7)

    def test_all_cells_present(self, result):
        for pattern in ("contiguous", "stride", "diagonal", "random"):
            for mapping in MAPPING_NAMES:
                for w in (16, 32):
                    assert (pattern, mapping, w) in result.stats

    def test_deterministic_cells_exact(self, result):
        assert result.mean("contiguous", "RAW", 16) == 1
        assert result.mean("stride", "RAW", 32) == 32
        assert result.mean("stride", "RAP", 32) == 1
        assert result.mean("diagonal", "RAW", 16) == 1

    def test_statistical_cells_near_paper(self, result):
        for (pattern, mapping, w), paper_value in result.paper.items():
            ours = result.mean(pattern, mapping, w)
            assert ours == pytest.approx(paper_value, abs=0.25), (
                f"{pattern}/{mapping}/w={w}: ours {ours:.2f} vs paper {paper_value}"
            )

    def test_paper_reference_attached(self, result):
        assert result.paper[("stride", "RAS", 32)] == 3.53

    def test_reproducible(self):
        a = table2(widths=(16,), trials=50, seed=3)
        b = table2(widths=(16,), trials=50, seed=3)
        assert a.mean("stride", "RAS", 16) == b.mean("stride", "RAS", 16)

    def test_every_width_tracks_the_paper(self):
        """All five widths: every randomized cell within 0.3 of the
        paper, and the deterministic guarantees exact at each width."""
        result = table2(widths=TABLE2_WIDTHS, trials=200, seed=2014)
        for key, paper_value in result.paper.items():
            assert result.stats[key].mean == pytest.approx(paper_value, abs=0.3), key
        for w in TABLE2_WIDTHS:
            assert result.mean("contiguous", "RAP", w) == 1
            assert result.mean("stride", "RAP", w) == 1
            assert result.mean("stride", "RAW", w) == w
            assert result.mean("diagonal", "RAW", w) == 1


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self):
        return table3(trials=20, seed=7)

    def test_nine_rows(self, result):
        assert len(result.rows) == 9

    def test_all_transposes_correct(self, result):
        assert all(row.all_correct for row in result.rows.values())

    def test_congestion_cells_raw(self, result):
        assert result.rows[("CRSW", "RAW")].read_congestion == 1
        assert result.rows[("CRSW", "RAW")].write_congestion == 32
        assert result.rows[("SRCW", "RAW")].read_congestion == 32
        assert result.rows[("DRDW", "RAW")].write_congestion == 1

    def test_congestion_cells_rap(self, result):
        assert result.rows[("CRSW", "RAP")].write_congestion == 1
        assert result.rows[("SRCW", "RAP")].read_congestion == 1

    def test_congestion_cells_statistical(self, result):
        assert result.rows[("CRSW", "RAS")].write_congestion == pytest.approx(
            3.53, abs=0.4
        )
        assert result.rows[("DRDW", "RAP")].read_congestion == pytest.approx(
            3.56, abs=0.4
        )

    def test_speedup_shape(self, result):
        assert result.speedup_vs("CRSW", "RAW", "RAP") > 7
        assert result.speedup_vs("SRCW", "RAW", "RAP") > 7
        assert result.speedup_vs("CRSW", "RAS", "RAP") > 1.4
        assert result.speedup_vs("DRDW", "RAP", "RAW") > 2

    def test_paper_ns_attached(self, result):
        assert result.rows[("CRSW", "RAP")].paper_ns == 154.5

    def test_model_ns_within_twenty_percent_of_paper(self, result):
        for key, row in result.rows.items():
            err = abs(row.predicted_ns - row.paper_ns) / row.paper_ns
            assert err < 0.20, f"{key}: {err:.1%}"

    def test_one_congestion_call_per_instruction_per_cell(self, monkeypatch):
        """Every trial's warps reach the congestion kernel, 2 w rows per
        trial, and each cell's instruction is one call: at w=8 and 5
        trials, 3 * (1 + 2 * 5) trials * 2 * 8 rows in 9 * 2 calls."""
        from repro.core import congestion
        from repro.sim.engine import MonteCarloEngine

        original = congestion.congestion_batch
        rows = []

        def counted(addresses, *args, **kwargs):
            rows.append(len(addresses))
            return original(addresses, *args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(
                module, "congestion_batch", None
            ) is original:
                monkeypatch.setattr(module, "congestion_batch", counted)
        with MonteCarloEngine(workers=1, cache=False) as engine:
            table3(w=8, trials=5, seed=7, engine=engine)
        assert sum(rows) == 3 * (1 + 2 * 5) * 2 * 8 == 528
        assert len(rows) == 18


class TestTable4:
    @pytest.fixture(scope="class")
    def result(self):
        return table4(w=12, trials=120, seed=7)

    def test_all_cells_present(self, result):
        assert len(result.stats) == 6 * len(ND_MAPPING_NAMES)

    def test_exact_one_cells(self, result):
        """Every cell the paper marks '1' must be exactly 1."""
        for (pattern, scheme), cls in PAPER_TABLE4_CLASSES.items():
            if cls == "1":
                stats = result.stats[(pattern, scheme)]
                assert stats.maximum == 1, f"{pattern}/{scheme}"

    def test_exact_w_cells(self, result):
        for (pattern, scheme), cls in PAPER_TABLE4_CLASSES.items():
            if cls == "w":
                assert result.mean(pattern, scheme) == 12, f"{pattern}/{scheme}"

    def test_log_cells_moderate(self, result):
        """O(log w / log log w)-class cells sit well between 1 and w."""
        for (pattern, scheme), cls in PAPER_TABLE4_CLASSES.items():
            if cls == "log":
                mean = result.mean(pattern, scheme)
                assert 1.5 < mean < 6, f"{pattern}/{scheme}: {mean}"

    def test_attack_cell_amplified(self, result):
        attack = result.mean("malicious", "R1P")
        generic = result.mean("malicious", "3P")
        assert attack >= 6
        assert attack > 1.5 * generic

    def test_random_number_budget(self, result):
        w = 12
        assert result.random_numbers == {
            "RAW": 0,
            "RAS": w**3,
            "1P": w,
            "R1P": w,
            "3P": 3 * w,
            "w2P": w**3,
            "1PwR": w + w * w,
        }


class TestPaperConstants:
    def test_table2_has_all_keys(self):
        assert len(PAPER_TABLE2) == 12

    def test_table2_values_have_five_widths(self):
        assert all(len(v) == 5 for v in PAPER_TABLE2.values())

    def test_table4_classes_cover_grid(self):
        patterns = {k[0] for k in PAPER_TABLE4_CLASSES}
        schemes = {k[1] for k in PAPER_TABLE4_CLASSES}
        assert patterns == {
            "contiguous", "stride1", "stride2", "stride3", "random", "malicious"
        }
        assert schemes == set(ND_MAPPING_NAMES)
