"""Unit tests for repro.access.transpose — CRSW / SRCW / DRDW."""

import numpy as np
import pytest

from repro.access.transpose import (
    TRANSPOSE_NAMES,
    run_transpose,
    run_transpose_batch,
    transpose_indices,
)
from repro.core.mappings import (
    MAPPING_NAMES,
    RAPMapping,
    RAWMapping,
    mapping_by_name,
    mapping_from_shifts,
)
from repro.dmm.machine import DiscreteMemoryMachine
from repro.gpu.kernel import transpose_kernel


class TestTransposeIndices:
    def test_crsw(self):
        (ri, rj), (wi, wj) = transpose_indices("CRSW", 4)
        # thread (1, 2): read a[1][2], write b[2][1]
        assert (ri[1, 2], rj[1, 2]) == (1, 2)
        assert (wi[1, 2], wj[1, 2]) == (2, 1)

    def test_srcw(self):
        (ri, rj), (wi, wj) = transpose_indices("SRCW", 4)
        assert (ri[1, 2], rj[1, 2]) == (2, 1)
        assert (wi[1, 2], wj[1, 2]) == (1, 2)

    def test_drdw(self):
        (ri, rj), (wi, wj) = transpose_indices("DRDW", 4)
        # thread (i, j): read a[j][(i+j)%w], write b[(i+j)%w][j]
        assert (ri[1, 2], rj[1, 2]) == (2, 3)
        assert (wi[1, 2], wj[1, 2]) == (3, 2)

    def test_each_reads_all_cells(self):
        for kind in TRANSPOSE_NAMES:
            (ri, rj), (wi, wj) = transpose_indices(kind, 8)
            assert len(set(zip(ri.ravel().tolist(), rj.ravel().tolist()))) == 64
            assert len(set(zip(wi.ravel().tolist(), wj.ravel().tolist()))) == 64

    def test_write_is_transpose_of_read(self):
        """Every algorithm moves a[x][y] to b[y][x]."""
        for kind in TRANSPOSE_NAMES:
            (ri, rj), (wi, wj) = transpose_indices(kind, 8)
            assert np.array_equal(ri, wj)
            assert np.array_equal(rj, wi)

    def test_unknown(self):
        with pytest.raises(ValueError):
            transpose_indices("RCRW", 4)

    def test_case_insensitive(self):
        a = transpose_indices("crsw", 4)
        b = transpose_indices("CRSW", 4)
        assert np.array_equal(a[0][0], b[0][0])


class TestTransposeProgram:
    def test_two_instructions(self):
        prog = transpose_kernel("CRSW", RAWMapping(4)).program()
        assert len(prog) == 2
        assert prog.instructions[0].op == "read"
        assert prog.instructions[1].op == "write"

    def test_default_b_base(self):
        prog = transpose_kernel("CRSW", RAWMapping(4)).program()
        assert prog.instructions[1].addresses.min() >= 16

    def test_thread_count(self):
        assert transpose_kernel("DRDW", RAWMapping(8)).program().p == 64


class TestCorrectness:
    @pytest.mark.parametrize("kind", TRANSPOSE_NAMES)
    @pytest.mark.parametrize("mapping_name", MAPPING_NAMES)
    def test_all_combinations_transpose_correctly(self, kind, mapping_name, width, rng):
        mapping = mapping_by_name(mapping_name, width, rng)
        outcome = run_transpose(kind, mapping, seed=rng)
        assert outcome.correct, f"{kind}/{mapping_name} failed at w={width}"

    def test_explicit_matrix(self, rng):
        mapping = RAPMapping.random(8, rng)
        matrix = np.arange(64.0).reshape(8, 8)
        outcome = run_transpose("CRSW", mapping, matrix=matrix)
        assert outcome.correct

    def test_matrix_shape_checked(self):
        with pytest.raises(ValueError):
            run_transpose("CRSW", RAWMapping(4), matrix=np.zeros((3, 3)))


class TestCongestionProfile:
    """The congestion cells of Table III, exactly for RAW/RAP."""

    def test_crsw_raw(self):
        o = run_transpose("CRSW", RAWMapping(32))
        assert (o.read_congestion, o.write_congestion) == (1, 32)

    def test_srcw_raw(self):
        o = run_transpose("SRCW", RAWMapping(32))
        assert (o.read_congestion, o.write_congestion) == (32, 1)

    def test_drdw_raw(self):
        o = run_transpose("DRDW", RAWMapping(32))
        assert (o.read_congestion, o.write_congestion) == (1, 1)

    def test_crsw_rap(self, rng):
        for _ in range(5):
            o = run_transpose("CRSW", RAPMapping.random(32, rng))
            assert (o.read_congestion, o.write_congestion) == (1, 1)

    def test_srcw_rap(self, rng):
        for _ in range(5):
            o = run_transpose("SRCW", RAPMapping.random(32, rng))
            assert (o.read_congestion, o.write_congestion) == (1, 1)

    def test_drdw_rap_has_conflicts(self, rng):
        """Diagonal is the one pattern RAP pays for."""
        hits = 0
        for _ in range(10):
            o = run_transpose("DRDW", RAPMapping.random(32, rng))
            hits += o.read_congestion > 1
        assert hits == 10  # at w=32 conflict-free diagonals are vanishingly rare


class TestTiming:
    def test_lemma1_crsw_time(self):
        """CRSW on RAW: (p/w + l - 1) + (p + l - 1)."""
        w, latency = 16, 6
        o = run_transpose("CRSW", RAWMapping(w), latency=latency)
        assert o.time_units == (w + latency - 1) + (w * w + latency - 1)

    def test_lemma1_drdw_time(self):
        """DRDW on RAW: 2 (p/w + l - 1)."""
        w, latency = 16, 6
        o = run_transpose("DRDW", RAWMapping(w), latency=latency)
        assert o.time_units == 2 * (w + latency - 1)

    def test_rap_crsw_matches_drdw_raw(self, rng):
        """RAP makes the naive CRSW as fast as the hand-tuned DRDW."""
        w, latency = 32, 4
        naive = run_transpose("CRSW", RAPMapping.random(w, rng), latency=latency)
        tuned = run_transpose("DRDW", RAWMapping(w), latency=latency)
        assert naive.time_units == tuned.time_units

    def test_crsw_speedup_grows_with_width(self):
        """Section V's wider future GPUs: RAW CRSW takes w + w^2 stages
        and RAP CRSW 2w, so the speedup is ~(1 + w)/2 and keeps growing."""
        speedups = {}
        for w in (16, 32, 64, 128):
            raw = run_transpose("CRSW", RAWMapping(w))
            rap = run_transpose("CRSW", RAPMapping.random(w, 2014))
            assert raw.correct and rap.correct
            speedups[w] = raw.time_units / rap.time_units
            assert speedups[w] == pytest.approx((1 + w) / 2, rel=0.05)
        assert list(speedups.values()) == sorted(speedups.values())
        assert speedups[128] > 4 * speedups[16]

    def test_raw_crsw_much_slower(self, rng):
        w = 32
        raw = run_transpose("CRSW", RAWMapping(w))
        rap = run_transpose("CRSW", RAPMapping.random(w, rng))
        assert raw.time_units > 10 * rap.time_units


def _draws(mapping_name, w, trials, rng):
    """Per trial a mapping, then a matrix: Table III's draw order."""
    shifts = np.empty((trials, w), dtype=np.int64)
    matrices = np.empty((trials, w, w))
    for t in range(trials):
        shifts[t] = mapping_by_name(mapping_name, w, rng).shifts
        matrices[t] = rng.random((w, w))
    return shifts, matrices


class TestTransposeBatch:
    """run_transpose_batch against the scalar DMM, trial by trial."""

    @pytest.mark.parametrize("latency", [1, 5])
    @pytest.mark.parametrize("w", [4, 8, 12, 32])
    @pytest.mark.parametrize("mapping_name", MAPPING_NAMES)
    @pytest.mark.parametrize("kind", TRANSPOSE_NAMES)
    def test_matches_scalar_per_trial(self, kind, mapping_name, w, latency, rng):
        shifts, matrices = _draws(mapping_name, w, 4, rng)
        batch = run_transpose_batch(kind, shifts, matrices, latency)
        assert batch.read_congestions.shape == batch.write_congestions.shape == (4, w)
        for t in range(4):
            mapping = mapping_from_shifts(mapping_name, shifts[t])
            scalar = run_transpose(kind, mapping, latency, matrix=matrices[t])
            read, write = scalar.execution.traces
            assert tuple(batch.read_congestions[t].tolist()) == read.congestions
            assert tuple(batch.write_congestions[t].tolist()) == write.congestions
            assert batch.time_units[t] == scalar.time_units
            assert batch.total_stages[t] == sum(
                trace.schedule.total_stages for trace in scalar.execution.traces
            )
            assert bool(batch.correct[t]) is scalar.correct is True

    @pytest.mark.parametrize("kind", TRANSPOSE_NAMES)
    def test_nan_is_incorrect_on_both_paths(self, kind, rng):
        shifts, matrices = _draws("RAP", 8, 3, rng)
        matrices[1, 2, 5] = np.nan
        batch = run_transpose_batch(kind, shifts, matrices)
        assert batch.correct.tolist() == [True, False, True]
        scalar = run_transpose(
            kind, mapping_from_shifts("RAP", shifts[1]), matrix=matrices[1]
        )
        assert scalar.correct is False

    def test_shifts_out_of_range(self):
        shifts = np.zeros((2, 4), dtype=np.int64)
        shifts[1, 2] = 4
        with pytest.raises(ValueError, match=r"shifts must lie in \[0, 4\)"):
            run_transpose_batch("CRSW", shifts, np.zeros((2, 4, 4)))

    def test_shifts_not_integers(self):
        with pytest.raises(TypeError, match="shifts must be integers"):
            run_transpose_batch("CRSW", np.zeros((2, 4)), np.zeros((2, 4, 4)))

    def test_shifts_of_the_wrong_width(self):
        with pytest.raises(ValueError, match=r"shifts must be \(trials, 4\)"):
            run_transpose_batch(
                "CRSW", np.zeros((2, 5), dtype=np.int64), np.zeros((2, 4, 4))
            )

    @pytest.mark.parametrize("shape", [(3, 4, 4), (2, 4, 5), (2, 16), (4, 4)])
    def test_matrices_shape_mismatch(self, shape):
        with pytest.raises(ValueError, match="matrices"):
            run_transpose_batch(
                "CRSW", np.zeros((2, 4), dtype=np.int64), np.zeros(shape)
            )

    def test_zero_trials(self):
        with pytest.raises(ValueError, match="at least one trial"):
            run_transpose_batch(
                "CRSW", np.zeros((0, 4), dtype=np.int64), np.zeros((0, 4, 4))
            )
