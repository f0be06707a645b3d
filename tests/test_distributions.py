"""Unit tests for repro.sim.distributions — full congestion histograms."""

import numpy as np
import pytest

from repro.core.exact import exact_max_load_pmf
from repro.sim.distributions import CongestionDistribution, congestion_distribution


class TestCongestionDistribution:
    def test_deterministic_cell_is_point_mass(self):
        d = congestion_distribution("RAP", "stride", 16, trials=50, seed=0)
        assert d.pmf[1] == 1.0
        assert d.mean == 1.0
        assert d.support_max == 1

    def test_raw_stride_point_mass_at_w(self):
        d = congestion_distribution("RAW", "stride", 16, trials=5, seed=0)
        assert d.pmf[16] == 1.0

    def test_pmf_normalized(self):
        d = congestion_distribution("RAS", "stride", 16, trials=200, seed=1)
        assert d.pmf.sum() == pytest.approx(1.0)

    def test_mean_matches_point_estimator(self):
        from repro.sim.congestion_sim import simulate_matrix_congestion

        d = congestion_distribution("RAS", "stride", 16, trials=500, seed=7)
        s = simulate_matrix_congestion("RAS", "stride", 16, trials=500, seed=7)
        assert d.mean == pytest.approx(s.mean, abs=1e-12)

    def test_quantiles(self):
        d = congestion_distribution("RAS", "stride", 32, trials=500, seed=2)
        assert d.quantile(0.5) <= d.quantile(0.95) <= d.support_max
        assert d.quantile(1.0) == d.support_max

    def test_quantile_range_checked(self):
        d = congestion_distribution("RAP", "stride", 8, trials=10, seed=0)
        with pytest.raises(ValueError):
            d.quantile(0.0)
        with pytest.raises(ValueError):
            d.quantile(1.5)

    def test_tail(self):
        d = congestion_distribution("RAS", "stride", 16, trials=300, seed=3)
        assert d.tail(0) == 1.0
        assert d.tail(1) == pytest.approx(1.0)
        assert d.tail(17) == 0.0
        assert d.tail(4) <= d.tail(3)

    def test_stride_ras_matches_exact_law(self):
        """The empirical stride-RAS histogram converges to the exact
        i.i.d. balls-in-bins PMF — three subsystems agreeing."""
        w = 16
        d = congestion_distribution("RAS", "stride", w, trials=4000, seed=4)
        exact = exact_max_load_pmf(w, w)
        # Compare on the meaningful support.
        for c in range(1, 8):
            assert d.pmf[c] == pytest.approx(exact[c], abs=0.03), c

    @pytest.mark.parametrize(
        "mapping,pattern", [("RAS", "stride"), ("RAP", "diagonal"), ("RAW", "random")]
    )
    def test_key_cells_have_ordered_quantiles(self, mapping, pattern):
        d = congestion_distribution(mapping, pattern, 32, trials=1500, seed=2014)
        assert 1 <= d.quantile(0.5) <= d.quantile(0.95) <= d.support_max <= 32

    def test_random_pattern_distribution(self):
        d = congestion_distribution("RAW", "random", 16, trials=300, seed=5)
        assert d.support_max >= 3
        assert d.mean == pytest.approx(2.91, abs=0.15)

    def test_sample_count(self):
        d = congestion_distribution("RAS", "stride", 8, trials=25, seed=0)
        assert d.n_samples == 25 * 8


class TestDataclass:
    def test_frozen(self):
        d = CongestionDistribution(pmf=np.array([0.0, 1.0]), n_samples=1)
        with pytest.raises(AttributeError):
            d.n_samples = 2

    def test_cdf_monotone(self):
        d = congestion_distribution("RAS", "diagonal", 16, trials=200, seed=6)
        cdf = d.cdf()
        assert (np.diff(cdf) >= -1e-15).all()
        assert cdf[-1] == pytest.approx(1.0)
