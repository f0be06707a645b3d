"""Unit tests for repro.core.theory — bounds of Section IV."""

import math

import numpy as np
import pytest

from repro.access.patterns import pattern_addresses
from repro.core.congestion import bank_loads_batch, congestion_batch
from repro.core.mappings import RAPMapping
from repro.core.theory import (
    chernoff_upper_tail,
    expected_max_load,
    lemma4_tail_bound,
    lemma4_threshold,
    log_over_loglog,
    pairwise_conflict_probability,
    theorem2_expectation_bound,
)
from repro.sim.congestion_sim import simulate_matrix_congestion
from repro.util.rng import as_generator


class TestChernoffBound:
    def test_is_probability(self):
        for mu in (0.5, 1.0, 5.0):
            for delta in (0.1, 1.0, 10.0):
                b = chernoff_upper_tail(mu, delta)
                assert 0.0 < b <= 1.0

    def test_decreasing_in_delta(self):
        b1 = chernoff_upper_tail(1.0, 1.0)
        b2 = chernoff_upper_tail(1.0, 4.0)
        assert b2 < b1

    def test_decreasing_in_mu_for_fixed_delta(self):
        assert chernoff_upper_tail(4.0, 1.0) < chernoff_upper_tail(1.0, 1.0)

    def test_large_delta_finite(self):
        # Evaluated in log space: huge deltas underflow to 0.0 rather
        # than raising or returning NaN/inf.
        b = chernoff_upper_tail(1.0, 1e6)
        assert b >= 0.0 and math.isfinite(b)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            chernoff_upper_tail(0.0, 1.0)
        with pytest.raises(ValueError):
            chernoff_upper_tail(1.0, 0.0)

    def test_known_value(self):
        # mu=1, delta=e-1: bound = (e^(e-1) / e^e) = e^-1.
        b = chernoff_upper_tail(1.0, math.e - 1.0)
        assert b == pytest.approx(math.exp(-1.0), rel=1e-12)


class TestLemma4:
    def test_threshold_formula(self):
        w = 32
        assert lemma4_threshold(w) == pytest.approx(
            3 * math.log(w) / math.log(math.log(w))
        )

    def test_threshold_grows(self):
        assert lemma4_threshold(256) > lemma4_threshold(16)

    def test_threshold_needs_w3(self):
        with pytest.raises(ValueError):
            lemma4_threshold(2)

    def test_tail_bound(self):
        assert lemma4_tail_bound(32) == 1 / 1024

    def test_lemma4_verified_by_chernoff(self):
        """Re-run the paper's proof arithmetic: with mu = 1 and
        1 + delta = 3 ln w / ln ln w, the Chernoff bound is <= 1/w^2."""
        for w in (16, 32, 64, 128, 256):
            threshold = lemma4_threshold(w)
            bound = chernoff_upper_tail(1.0, threshold - 1.0)
            assert bound <= lemma4_tail_bound(w) * 1.0001


class TestTheorem2Bound:
    def test_formula(self):
        w = 32
        assert theorem2_expectation_bound(w) == pytest.approx(
            2 * lemma4_threshold(w) + 1
        )

    def test_dominates_simulation_values(self):
        """The envelope must sit above the paper's measured congestion."""
        paper_worst = {16: 3.20, 32: 3.61, 64: 4.00, 128: 4.41, 256: 4.78}
        for w, measured in paper_worst.items():
            assert theorem2_expectation_bound(w) > measured

    def test_sublinear(self):
        assert theorem2_expectation_bound(256) < 256


class TestLogOverLogLog:
    def test_monotone(self):
        values = [log_over_loglog(w) for w in (16, 32, 64, 128, 256)]
        assert values == sorted(values)

    def test_needs_w3(self):
        with pytest.raises(ValueError):
            log_over_loglog(2)

    def test_shape_tracks_paper_growth(self):
        """Measured RAS stride congestion grows ~ proportionally to
        ln w / ln ln w across the paper's widths."""
        paper = {16: 3.08, 32: 3.53, 64: 3.96, 128: 4.38, 256: 4.77}
        ratios = [paper[w] / log_over_loglog(w) for w in paper]
        # Lower-order terms let the ratio drift slowly; it must stay
        # far from the x2 per-doubling drift a Theta(log w) shape has.
        assert max(ratios) / min(ratios) < 1.35


class TestExpectedMaxLoad:
    def test_w32_matches_paper_stride_ras(self):
        """32 i.i.d. balls in 32 bins -> the paper's 3.53."""
        est = expected_max_load(32, 32, trials=20000, seed=0)
        assert est == pytest.approx(3.53, abs=0.06)

    def test_one_ball(self):
        assert expected_max_load(1, 8, trials=100, seed=0) == 1.0

    def test_more_balls_larger_load(self):
        a = expected_max_load(8, 8, trials=4000, seed=1)
        b = expected_max_load(32, 8, trials=4000, seed=1)
        assert b > a

    def test_all_balls_one_bin(self):
        assert expected_max_load(5, 1, trials=10, seed=0) == 5.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            expected_max_load(0, 4)


class TestPairwiseConflictProbability:
    def test_ras(self):
        assert pairwise_conflict_probability(32, "RAS") == 1 / 32

    def test_rap(self):
        assert pairwise_conflict_probability(32, "RAP") == 1 / 31

    def test_rap_exceeds_ras(self):
        """The Section V explanation of diagonal 3.61 > 3.53."""
        for w in (16, 32, 64):
            assert pairwise_conflict_probability(
                w, "RAP"
            ) > pairwise_conflict_probability(w, "RAS")

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            pairwise_conflict_probability(32, "RAW")

    def test_needs_w2(self):
        with pytest.raises(ValueError):
            pairwise_conflict_probability(1, "RAS")


def _diagonal_warps(w, trials, rng, lanes=None):
    """RAP's worst pattern, one fresh sigma per trial: lane j touches
    (row j, column j), landing in bank (j + sigma_j) % w."""
    base = np.broadcast_to(np.arange(w, dtype=np.int64), (trials, w))
    sigma = rng.permuted(base, axis=1)
    rows = np.arange(w if lanes is None else lanes)
    return rows * w + (rows + sigma[:, rows]) % w


class TestBoundsAgainstSimulation:
    """Theorem 2 and Lemma 4 checked against measured RAP congestion."""

    WIDTHS = (16, 32, 64, 128)

    def test_theorem2_envelope(self):
        for w in self.WIDTHS:
            stats = simulate_matrix_congestion("RAP", "diagonal", w, trials=500, seed=2014)
            assert stats.mean <= theorem2_expectation_bound(w), w

    def test_growth_is_log_over_loglog(self):
        """Measured congestion grows like log w / log log w, not log w."""
        ratios = [
            simulate_matrix_congestion("RAP", "diagonal", w, trials=300, seed=2014).mean
            / log_over_loglog(w)
            for w in self.WIDTHS
        ]
        assert max(ratios) / min(ratios) < 1.4

    @pytest.mark.parametrize("w", [32, 64])
    def test_lemma4_tail(self, w):
        """A fixed bank's half-warp load rarely reaches 3 ln w / ln ln w:
        Lemma 4's 1/w^2 per bank, 1/w after a union bound over banks.
        (At w=16 the threshold exceeds the 8 lanes of a half warp.)"""
        addresses = _diagonal_warps(w, 4000, as_generator(2014), lanes=w // 2)
        loads = bank_loads_batch(addresses, w)
        assert (loads >= lemma4_threshold(w)).any(axis=1).mean() <= 1.0 / w

    def test_full_warp_at_most_twice_the_half_warp(self):
        """The proof device: E[full warp] <= 2 E[half warp], and the
        half warp is strictly smaller."""
        w = 32
        addresses = _diagonal_warps(w, 3000, as_generator(2014))
        full = congestion_batch(addresses, w).mean()
        half = bank_loads_batch(addresses[:, : w // 2], w).max(axis=1).mean()
        assert half < full <= 2 * half

    def test_worst_sigma_stays_far_below_w(self):
        """Over 300 pinned draws, the worst diagonal congestion stays
        under w/2 and under twice the Theorem 2 envelope."""
        w = 32
        worst = max(
            int(congestion_batch(
                pattern_addresses(RAPMapping.random(w, 2014 + s), "diagonal"), w
            ).max())
            for s in range(300)
        )
        assert worst < w / 2
        assert worst <= 2 * theorem2_expectation_bound(w)
