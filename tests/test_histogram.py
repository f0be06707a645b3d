"""Unit tests for repro.apps.histogram — CRCW loss and privatization."""

import numpy as np
import pytest

from repro.apps.histogram import HISTOGRAM_STRATEGIES, make_votes, run_histogram
from repro.core.mappings import RAPMapping, RAWMapping


class TestMakeVotes:
    def test_range(self):
        votes = make_votes(100, 8, seed=0)
        assert votes.min() >= 0 and votes.max() < 8

    def test_uniform_roughly_flat(self):
        votes = make_votes(8000, 8, skew=0.0, seed=1)
        counts = np.bincount(votes, minlength=8)
        assert counts.min() > 800  # ~1000 each

    def test_skew_concentrates(self):
        votes = make_votes(8000, 8, skew=2.0, seed=1)
        counts = np.bincount(votes, minlength=8)
        assert counts[0] > 4 * counts[-1]

    def test_deterministic(self):
        assert np.array_equal(make_votes(50, 8, seed=3), make_votes(50, 8, seed=3))

    def test_rejects_negative_skew(self):
        with pytest.raises(ValueError):
            make_votes(10, 8, skew=-1.0)


class TestNaiveIsLossy:
    def test_collisions_lose_votes(self):
        """The negative result: CRCW write-merging drops increments."""
        w = 16
        votes = make_votes(16 * w, w, skew=1.0, seed=3)
        outcome = run_histogram(votes, "naive", w=w)
        assert not outcome.correct
        assert outcome.lost_votes > 0

    def test_collision_free_input_is_correct(self):
        """One vote per bin per round: no merging, naive works."""
        w = 8
        votes = np.tile(np.arange(w), 4)  # every round hits distinct bins
        outcome = run_histogram(votes, "naive", w=w)
        assert outcome.correct
        assert outcome.lost_votes == 0

    def test_worst_case_all_same_bin(self):
        """All lanes vote one bin: each round counts once, not w times."""
        w = 8
        rounds = 3
        votes = np.zeros(rounds * w, dtype=np.int64)
        outcome = run_histogram(votes, "naive", w=w)
        assert outcome.lost_votes == rounds * (w - 1)

    def test_skew_increases_loss(self):
        w = 16
        for seed in (5, 2014):
            losses = []
            for skew in (0.0, 1.0, 2.0):
                outcome = run_histogram(make_votes(256, w, skew, seed=seed), "naive", w=w)
                assert not outcome.correct
                losses.append(outcome.lost_votes)
            assert 0 < losses[0] < losses[1] < losses[2], seed


class TestPrivatizedIsCorrect:
    @pytest.mark.parametrize("skew", [0.0, 1.0, 3.0])
    def test_correct_for_any_skew(self, skew):
        w = 16
        votes = make_votes(320, w, skew=skew, seed=7)
        outcome = run_histogram(votes, "privatized", w=w)
        assert outcome.correct
        assert outcome.lost_votes == 0

    def test_correct_under_rap(self, rng):
        w = 16
        votes = make_votes(256, w, skew=1.5, seed=9)
        outcome = run_histogram(
            votes, "privatized", w=w, mapping=RAPMapping.random(w, rng)
        )
        assert outcome.correct

    @pytest.mark.parametrize("fold", ["row", "column"])
    def test_correct_for_either_fold(self, fold, rng):
        w = 16
        votes = make_votes(8 * w, w, skew=1.0, seed=2014)
        for mapping in (None, RAPMapping.random(w, rng)):
            outcome = run_histogram(
                votes, "privatized", w=w, mapping=mapping, fold_assignment=fold
            )
            assert outcome.correct

    def test_partial_final_round(self):
        """Vote counts that do not fill the last warp still work."""
        w = 8
        votes = make_votes(19, w, seed=11)
        outcome = run_histogram(votes, "privatized", w=w)
        assert outcome.correct


class TestFoldCongestion:
    def test_row_fold_free_under_raw(self):
        w = 16
        votes = make_votes(64, w, seed=0)
        o = run_histogram(votes, "privatized", w=w, fold_assignment="row")
        assert o.fold_congestion == 1

    def test_column_fold_serializes_under_raw(self):
        w = 16
        votes = make_votes(64, w, seed=0)
        o = run_histogram(votes, "privatized", w=w, fold_assignment="column")
        assert o.fold_congestion == w

    def test_rap_rescues_column_fold(self, rng):
        w = 16
        votes = make_votes(64, w, seed=0)
        o = run_histogram(
            votes, "privatized", w=w, mapping=RAPMapping.random(w, rng),
            fold_assignment="column",
        )
        assert o.fold_congestion == 1

    def test_rap_taxes_the_aligned_voting_phase(self, rng):
        """Honest nuance (the DRDW lesson again): privatization is
        bank-aligned *by construction* (bank = lane under RAW), and
        RAP's randomization breaks that alignment — RAW is faster when
        the fold is row-shaped."""
        w = 16
        votes = make_votes(256, w, seed=0)
        raw = run_histogram(votes, "privatized", w=w, fold_assignment="row")
        rap = run_histogram(
            votes, "privatized", w=w, mapping=RAPMapping.random(w, rng),
            fold_assignment="row",
        )
        assert raw.time_units < rap.time_units

    def test_rap_wins_when_fold_is_column_shaped(self, rng):
        w = 16
        votes = make_votes(64, w, seed=0)
        raw = run_histogram(votes, "privatized", w=w, fold_assignment="column")
        rap = run_histogram(
            votes, "privatized", w=w, mapping=RAPMapping.random(w, rng),
            fold_assignment="column",
        )
        assert rap.time_units < raw.time_units


class TestValidation:
    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            run_histogram(np.zeros(4, dtype=int), "atomic", w=4)

    def test_vote_range_checked(self):
        with pytest.raises(ValueError):
            run_histogram(np.array([0, 9]), w=8)

    def test_empty_votes(self):
        with pytest.raises(ValueError):
            run_histogram(np.array([], dtype=int), w=8)

    def test_bad_fold_assignment(self):
        with pytest.raises(ValueError):
            run_histogram(np.zeros(4, dtype=int), w=4, fold_assignment="spiral")

    def test_mapping_width_checked(self):
        with pytest.raises(ValueError):
            run_histogram(
                np.zeros(4, dtype=int), w=4, mapping=RAWMapping(8)
            )

    def test_strategy_names_constant(self):
        assert HISTOGRAM_STRATEGIES == ("naive", "privatized")
