"""Unit tests for the first-class Lemma 1 experiment."""

import pytest

from repro.cli import build_parser, run_experiment
from repro.sim.experiments import lemma1_table


class TestLemma1Table:
    @pytest.fixture(scope="class")
    def cells(self):
        return lemma1_table(widths=(4, 8, 16), latency=5)

    def test_grid_complete(self, cells):
        assert len(cells) == 3 * 3

    def test_every_cell_matches(self, cells):
        for key, (measured, formula, ok) in cells.items():
            assert ok, (key, measured, formula)

    def test_formulas(self, cells):
        w, l = 8, 5
        assert cells[("CRSW", w)][1] == (w + l - 1) + (w * w + l - 1)
        assert cells[("DRDW", w)][1] == 2 * (w + l - 1)
        assert cells[("SRCW", w)][1] == cells[("CRSW", w)][1]

    def test_crsw_drdw_gap_grows_with_width(self):
        """The CRSW/DRDW gap grows linearly in w: the reason DRDW exists."""
        cells = lemma1_table(widths=(4, 32), latency=1)
        ratio = {w: cells[("CRSW", w)][0] / cells[("DRDW", w)][0] for w in (4, 32)}
        assert ratio[32] > ratio[4]
        assert ratio[32] > 10

    def test_custom_latency(self):
        for latency in (1, 5, 20):
            cells = lemma1_table(widths=(4, 8, 16, 32), latency=latency)
            for _, (_, _, ok) in cells.items():
                assert ok


class TestLemma1CLI:
    def test_renders_all_matches(self):
        args = build_parser().parse_args(["lemma1"])
        out = run_experiment("lemma1", args)
        assert "Lemma 1" in out
        assert "NO" not in out
        assert out.count("yes") == 12  # 3 algorithms x 4 widths
