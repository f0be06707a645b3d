"""Unit tests for repro.gpu.timing — the Table III cost model."""

import pytest

from repro.gpu.timing import PAPER_TABLE3_NS, GPUTimingModel


class TestPredict:
    def test_linear_components(self):
        m = GPUTimingModel(alpha_ns_per_stage=2.0, beta_ns=10.0, gamma_ns_per_op=0.5)
        assert m.predict_ns(100, 20) == pytest.approx(2 * 100 + 10 + 0.5 * 20)

    def test_zero_stages_is_overhead_only(self):
        m = GPUTimingModel(1.0, 50.0, 0.0)
        assert m.predict_ns(0) == 50.0

    def test_rejects_negative(self):
        m = GPUTimingModel(1.0, 0.0)
        with pytest.raises(ValueError):
            m.predict_ns(-1)
        with pytest.raises(ValueError):
            m.predict_ns(1, -1)

    def test_frozen(self):
        m = GPUTimingModel(1.0, 0.0)
        with pytest.raises(AttributeError):
            m.alpha_ns_per_stage = 2.0


class TestFitToPaper:
    def test_coefficients_physical(self):
        m = GPUTimingModel.fit_to_paper()
        assert m.alpha_ns_per_stage > 0
        assert m.beta_ns >= 0
        assert m.gamma_ns_per_op >= 0

    def test_all_cells_within_fifteen_percent(self):
        """The calibrated model reproduces every Table III cell."""
        errors = GPUTimingModel.fit_to_paper().relative_error()
        for key, err in errors.items():
            assert abs(err) < 0.15, f"{key}: {err:+.1%}"

    def test_crsw_speedup_shape(self):
        """RAP ~10x faster than RAW, ~2x faster than RAS on CRSW."""
        pred = GPUTimingModel.fit_to_paper().table3_prediction()
        raw_over_rap = pred[("CRSW", "RAW")] / pred[("CRSW", "RAP")]
        ras_over_rap = pred[("CRSW", "RAS")] / pred[("CRSW", "RAP")]
        assert 7 <= raw_over_rap <= 13
        assert 1.4 <= ras_over_rap <= 2.5

    def test_drdw_inversion(self):
        """On DRDW the ranking flips: RAW fastest, RAP ~2.5-3x slower."""
        pred = GPUTimingModel.fit_to_paper().table3_prediction()
        ratio = pred[("DRDW", "RAP")] / pred[("DRDW", "RAW")]
        assert 2.0 <= ratio <= 3.5

    def test_overhead_term_carries_signal(self):
        """Zeroing gamma (the address-computation cost) worsens the fit."""
        fitted = GPUTimingModel.fit_to_paper()
        zeroed = GPUTimingModel(
            fitted.alpha_ns_per_stage, fitted.beta_ns, gamma_ns_per_op=0.0
        )

        def squared_error(model):
            pred = model.table3_prediction()
            return sum((pred[k] - PAPER_TABLE3_NS[k]) ** 2 for k in pred)

        assert squared_error(fitted) < squared_error(zeroed)

    def test_prediction_covers_all_cells(self):
        pred = GPUTimingModel.fit_to_paper().table3_prediction()
        assert set(pred) == set(PAPER_TABLE3_NS)


class TestPaperConstants:
    def test_nine_cells(self):
        assert len(PAPER_TABLE3_NS) == 9

    def test_headline_numbers(self):
        """The abstract's numbers: RAP 154.5ns vs RAW 1595ns on CRSW."""
        assert PAPER_TABLE3_NS[("CRSW", "RAP")] == 154.5
        assert PAPER_TABLE3_NS[("CRSW", "RAW")] == 1595.0
        assert PAPER_TABLE3_NS[("CRSW", "RAW")] / PAPER_TABLE3_NS[
            ("CRSW", "RAP")
        ] == pytest.approx(10.3, abs=0.1)
