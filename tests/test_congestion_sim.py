"""Unit tests for repro.sim.congestion_sim — the Monte-Carlo engine."""

import numpy as np
import pytest

from repro.sim.congestion_sim import (
    CongestionStats,
    simulate_matrix_congestion,
    simulate_nd_congestion,
)
from repro.util.rng import as_generator


class TestCongestionStats:
    def test_sem(self):
        s = CongestionStats(mean=3.0, std=1.0, minimum=1, maximum=5, n_samples=100)
        assert s.sem == pytest.approx(0.1)

    def test_frozen(self):
        s = CongestionStats(3.0, 1.0, 1, 5, 100)
        with pytest.raises(AttributeError):
            s.mean = 4.0


class TestMatrixSimDeterministicCells:
    """Cells of Table II that are exact, not statistical."""

    @pytest.mark.parametrize("mapping", ["RAW", "RAS", "RAP"])
    def test_contiguous_always_one(self, mapping):
        s = simulate_matrix_congestion(mapping, "contiguous", 16, trials=20, seed=0)
        assert s.mean == 1.0 and s.minimum == 1 and s.maximum == 1

    def test_stride_raw_is_w(self, width):
        s = simulate_matrix_congestion("RAW", "stride", width, trials=1, seed=0)
        assert s.mean == width

    def test_stride_rap_always_one(self, width):
        s = simulate_matrix_congestion("RAP", "stride", width, trials=50, seed=0)
        assert s.maximum == 1

    def test_diagonal_raw_is_one(self, width):
        s = simulate_matrix_congestion("RAW", "diagonal", width, trials=1, seed=0)
        assert s.mean == 1.0

    def test_malicious_raw_is_w(self):
        s = simulate_matrix_congestion("RAW", "malicious", 32, trials=1, seed=0)
        assert s.mean == 32.0

    def test_malicious_rap_is_one(self):
        s = simulate_matrix_congestion("RAP", "malicious", 32, trials=50, seed=0)
        assert s.maximum == 1


class TestMatrixSimStatisticalCells:
    """Statistical cells must converge to the paper's Table II values."""

    def test_stride_ras_w32(self):
        s = simulate_matrix_congestion("RAS", "stride", 32, trials=3000, seed=1)
        assert s.mean == pytest.approx(3.53, abs=0.1)

    def test_diagonal_ras_w32(self):
        s = simulate_matrix_congestion("RAS", "diagonal", 32, trials=3000, seed=2)
        assert s.mean == pytest.approx(3.53, abs=0.1)

    def test_random_w32(self):
        s = simulate_matrix_congestion("RAW", "random", 32, trials=3000, seed=3)
        assert s.mean == pytest.approx(3.44, abs=0.1)

    def test_random_same_for_all_mappings(self):
        """Random access cannot tell the mappings apart (Section V)."""
        means = [
            simulate_matrix_congestion(m, "random", 32, trials=4000, seed=4).mean
            for m in ("RAW", "RAS", "RAP")
        ]
        assert max(means) - min(means) < 0.08

    def test_diagonal_rap_exceeds_ras(self):
        """The 1/(w-1) vs 1/w collision-probability effect."""
        rap = simulate_matrix_congestion("RAP", "diagonal", 32, trials=8000, seed=5)
        ras = simulate_matrix_congestion("RAS", "diagonal", 32, trials=8000, seed=6)
        assert rap.mean > ras.mean

    def test_merging_lowers_random_below_stride_ras(self):
        """Duplicate addresses merge only in the random pattern."""
        rand = simulate_matrix_congestion("RAW", "random", 32, trials=8000, seed=7)
        stride = simulate_matrix_congestion("RAS", "stride", 32, trials=8000, seed=8)
        assert rand.mean < stride.mean


class TestMatrixSimMechanics:
    def test_deterministic_seeding(self):
        a = simulate_matrix_congestion("RAS", "stride", 16, trials=100, seed=9)
        b = simulate_matrix_congestion("RAS", "stride", 16, trials=100, seed=9)
        assert a.mean == b.mean

    def test_sample_count(self):
        s = simulate_matrix_congestion("RAS", "stride", 8, trials=10, seed=0)
        assert s.n_samples == 10 * 8  # trials x warps

    def test_chunking_consistency(self):
        """Large-w runs split into chunks; results must be identical in
        distribution (same seed -> same stream -> same values)."""
        s = simulate_matrix_congestion("RAS", "stride", 128, trials=64, seed=10)
        assert s.n_samples == 64 * 128
        assert 1 <= s.minimum <= s.maximum <= 128

    @pytest.mark.parametrize("w", [3, 16, 24, 256, 4096])
    def test_int32_draws_match_int64_draws(self, w):
        """The random pattern draws its indices as int32; that keeps the
        sample stream only while numpy gives an int32 draw below ``w``
        the same values, and the same generator state after, as the
        int64 draw."""
        narrow, wide = as_generator(w), as_generator(w)
        for size in [(2, w, 64), 1, 7]:
            a = narrow.integers(0, w, size=size, dtype=np.int32)
            b = wide.integers(0, w, size=size, dtype=np.int64)
            assert np.array_equal(a, b)
            assert narrow.bit_generator.state == wide.bit_generator.state

    @pytest.mark.parametrize(
        "w, dtype", [(16, np.uint16), (256, np.uint16), (257, np.int32)]
    )
    def test_addresses_staged_in_the_narrowest_dtype(self, w, dtype):
        from repro.sim.congestion_sim import _matrix_address_chunks

        for pattern in ("stride", "random"):
            rng = as_generator(0)
            chunks = list(_matrix_address_chunks("RAP", pattern, w, 2, rng))
            assert all(a.dtype == dtype and a.max() < w * w for _, a in chunks)

    def test_unknown_mapping(self):
        with pytest.raises(ValueError):
            simulate_matrix_congestion("XYZ", "stride", 8)

    def test_unknown_pattern(self):
        with pytest.raises(ValueError):
            simulate_matrix_congestion("RAW", "knightmove", 8)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            simulate_matrix_congestion("RAW", "stride", 8, trials=0)


class TestNDSim:
    def test_contiguous_always_one(self):
        for scheme in ("RAW", "1P", "R1P", "3P"):
            s = simulate_nd_congestion(scheme, "contiguous", 8, trials=10, seed=0)
            assert s.maximum == 1

    def test_stride1_raw_is_w(self):
        s = simulate_nd_congestion("RAW", "stride1", 8, trials=1, seed=0)
        assert s.mean == 8.0

    def test_stride2_1p_is_w(self):
        s = simulate_nd_congestion("1P", "stride2", 8, trials=10, seed=0)
        assert s.mean == 8.0

    def test_stride2_r1p_is_one(self):
        s = simulate_nd_congestion("R1P", "stride2", 8, trials=20, seed=0)
        assert s.maximum == 1

    def test_stride3_3p_is_one(self):
        s = simulate_nd_congestion("3P", "stride3", 8, trials=20, seed=0)
        assert s.maximum == 1

    def test_malicious_r1p_amplified(self):
        r1p = simulate_nd_congestion("R1P", "malicious", 12, trials=100, seed=1)
        threep = simulate_nd_congestion("3P", "malicious", 12, trials=100, seed=2)
        assert r1p.mean >= 6.0
        assert threep.mean < r1p.mean / 1.5

    def test_deterministic_seeding(self):
        a = simulate_nd_congestion("3P", "random", 8, trials=50, seed=3)
        b = simulate_nd_congestion("3P", "random", 8, trials=50, seed=3)
        assert a.mean == b.mean

    def test_sample_count(self):
        s = simulate_nd_congestion("3P", "random", 8, trials=25, seed=0)
        assert s.n_samples == 25


class TestConfidenceInterval:
    def test_contains_mean(self):
        s = simulate_matrix_congestion("RAS", "stride", 16, trials=200, seed=0)
        lo, hi = s.confidence_interval()
        assert lo <= s.mean <= hi

    def test_wider_at_higher_z(self):
        s = simulate_matrix_congestion("RAS", "stride", 16, trials=200, seed=0)
        lo95, hi95 = s.confidence_interval(1.96)
        lo99, hi99 = s.confidence_interval(2.58)
        assert lo99 < lo95 and hi99 > hi95

    def test_deterministic_cell_zero_width(self):
        s = simulate_matrix_congestion("RAP", "stride", 16, trials=50, seed=0)
        lo, hi = s.confidence_interval()
        assert lo == hi == 1.0

    def test_rejects_bad_z(self):
        s = simulate_matrix_congestion("RAP", "stride", 8, trials=10, seed=0)
        with pytest.raises(ValueError):
            s.confidence_interval(0)

    def test_paper_value_inside_ci(self):
        """The paper's 3.53 must fall inside a generous CI of our
        stride-RAS estimate."""
        s = simulate_matrix_congestion("RAS", "stride", 32, trials=4000, seed=1)
        # Conservative: effective n = trials (warps are correlated).
        import numpy as np
        half = 2.58 * s.std / np.sqrt(4000)
        assert s.mean - half <= 3.5358 <= s.mean + half
