"""Unit tests for repro.gpu.kernel — the CUDA-like kernel abstraction."""

import numpy as np
import pytest

from repro.core.mappings import RAPMapping, RAWMapping
from repro.gpu.kernel import KernelStep, SharedMemoryKernel, transpose_kernel
from repro.gpu.timing import GPUTimingModel


def grids(w):
    return np.meshgrid(np.arange(w), np.arange(w), indexing="ij")


class TestKernelStep:
    def test_valid(self):
        ii, jj = grids(4)
        step = KernelStep("read", "a", ii, jj)
        assert step.ii.dtype == np.int64
        assert step.w == 4

    def test_bad_op(self):
        ii, jj = grids(4)
        with pytest.raises(ValueError):
            KernelStep("load", "a", ii, jj)

    def test_shape_mismatch(self):
        ii, jj = grids(4)
        with pytest.raises(ValueError):
            KernelStep("read", "a", ii, jj[:2])

    def test_non_square_grid_rejected(self):
        ii = np.zeros((4, 2), dtype=np.int64)
        with pytest.raises(ValueError, match="square"):
            KernelStep("read", "a", ii, ii)

    def test_out_of_range_entry_names_step_and_array(self):
        ii, jj = grids(4)
        bad = jj.copy()
        bad[0, 0] = 4
        with pytest.raises(ValueError, match=r"KernelStep\(read 'a'\)"):
            KernelStep("read", "a", ii, bad)

    def test_negative_entry_rejected(self):
        ii, jj = grids(4)
        bad = ii.copy()
        bad[2, 1] = -3
        with pytest.raises(ValueError, match=r"\[0, 4\)"):
            KernelStep("read", "a", bad, jj)

    def test_masked_entries_exempt_from_bounds(self):
        ii, jj = grids(4)
        bad = ii.copy()
        bad[0, 0] = 99
        mask = np.ones((4, 4), dtype=bool)
        mask[0, 0] = False
        step = KernelStep("read", "a", bad, jj, mask=mask)
        assert step.mask is not None

    def test_all_true_mask_normalized_to_none(self):
        ii, jj = grids(4)
        step = KernelStep("read", "a", ii, jj, mask=np.ones((4, 4), dtype=bool))
        assert step.mask is None

    def test_mask_shape_checked(self):
        ii, jj = grids(4)
        with pytest.raises(ValueError, match="mask"):
            KernelStep("read", "a", ii, jj, mask=np.ones((2, 2), dtype=bool))

    def test_immediate_read_rejected(self):
        ii, jj = grids(4)
        with pytest.raises(ValueError, match="immediate"):
            KernelStep("read", "a", ii, jj, immediate=True)


class TestFromPositions:
    def test_round_trip_flat_positions(self):
        pos = np.arange(16, dtype=np.int64)
        step = KernelStep.from_positions("read", "a", pos, 4)
        assert np.array_equal(step.ii, grids(4)[0])
        assert np.array_equal(step.jj, grids(4)[1])
        assert step.mask is None

    def test_negative_marks_inactive(self):
        pos = np.arange(16, dtype=np.int64)
        pos[5] = -1
        step = KernelStep.from_positions("read", "a", pos, 4)
        assert step.mask is not None
        assert not step.mask.ravel()[5]

    def test_short_vector_padded_inactive(self):
        step = KernelStep.from_positions("read", "a", np.array([0, 1, 2]), 4)
        assert step.mask.ravel().sum() == 3

    def test_position_past_tile_rejected(self):
        with pytest.raises(ValueError):
            KernelStep.from_positions("read", "a", np.array([16]), 4)


class TestSharedMemoryKernel:
    def test_unknown_array_rejected(self):
        ii, jj = grids(4)
        with pytest.raises(ValueError, match="unknown array"):
            SharedMemoryKernel(4, [KernelStep("read", "z", ii, jj)])

    def test_duplicate_array_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SharedMemoryKernel(4, [], arrays=("a", "a"))

    def test_wrong_grid_size_rejected(self):
        ii, jj = grids(8)
        with pytest.raises(ValueError):
            SharedMemoryKernel(4, [KernelStep("read", "a", ii, jj)])

    def test_mapping_by_name(self):
        k = SharedMemoryKernel(8, [], mapping="RAP", seed=3)
        assert k.mapping.name == "RAP"

    def test_mapping_width_mismatch(self):
        with pytest.raises(ValueError):
            SharedMemoryKernel(8, [], mapping=RAWMapping(4))

    def test_array_bases_consecutive(self):
        k = SharedMemoryKernel(4, [], arrays=("a", "b", "c"))
        assert k.bases == {"a": 0, "b": 16, "c": 32}

    def test_overhead_ops(self):
        ii, jj = grids(4)
        steps = [KernelStep("read", "a", ii, jj), KernelStep("write", "b", ii, jj)]
        raw = SharedMemoryKernel(4, steps, mapping=RAWMapping(4))
        rap = SharedMemoryKernel(4, steps, mapping="RAP", seed=0)
        assert raw.overhead_ops() == 0
        assert rap.overhead_ops() == 3 * 2 * 4

    def test_load_read_array_roundtrip(self, rng):
        k = SharedMemoryKernel(4, [], mapping="RAP", seed=1)
        machine = k.make_machine()
        matrix = rng.random((4, 4))
        k.load_array(machine, "a", matrix)
        assert np.array_equal(k.read_array(machine, "a"), matrix)

    def test_run_reports_stages(self):
        ii, jj = grids(4)
        steps = [KernelStep("read", "a", ii, jj, register="c"),
                 KernelStep("write", "b", jj, ii, register="c")]
        k = SharedMemoryKernel(4, steps, mapping=RAWMapping(4))
        report = k.run()
        # contiguous read: 4 stages; stride write: 16 stages.
        assert report.total_stages == 20

    def test_run_with_timing_model(self):
        ii, jj = grids(4)
        k = SharedMemoryKernel(4, [KernelStep("read", "a", ii, jj)])
        model = GPUTimingModel(2.0, 10.0, 1.0)
        report = k.run(timing_model=model)
        assert report.predicted_ns == pytest.approx(2.0 * 4 + 10.0)

    def test_run_without_model_gives_none(self):
        ii, jj = grids(4)
        k = SharedMemoryKernel(4, [KernelStep("read", "a", ii, jj)])
        assert k.run().predicted_ns is None


class TestRunWithHost:
    def _kernel(self, mapping):
        """Read ``a`` into ``c``; write ``2c`` to the first 3 rows of ``b``."""
        ii, jj = grids(4)
        mask = np.ones((4, 4), dtype=bool)
        mask[3, :] = False
        steps = [
            KernelStep("read", "a", ii, jj, register="c"),
            KernelStep("write", "b", ii, jj, mask=mask, immediate=True),
        ]
        return SharedMemoryKernel(4, steps, mapping=mapping, inputs=("a",))

    def test_values_land_on_active_lanes_only(self, rng):
        k = self._kernel(RAPMapping.random(4, 3))
        machine = k.make_machine()
        matrix = rng.random((4, 4))
        k.load_array(machine, "a", matrix)
        calls = []

        def host(index, regs):
            calls.append((index, sorted(regs)))
            if index == 1:
                return 2.0 * regs["c"][:12]
            return None

        report = k.run(machine, host=host)
        # Called before every step; registers persist from step 0.
        assert calls == [(0, []), (1, ["c"])]
        out = k.read_array(machine, "b")
        assert np.array_equal(out[:3], 2.0 * matrix[:3])
        assert not out[3].any()
        assert len(report.execution.traces) == 2

    def test_timing_matches_the_host_free_run(self):
        k = self._kernel(RAWMapping(4))
        plain = k.run()
        hosted = k.run(host=lambda index, regs: np.ones(12))
        assert hosted.time_units == plain.time_units
        assert hosted.total_stages == plain.total_stages

    def test_immediate_write_needs_values(self):
        k = self._kernel(RAWMapping(4))
        with pytest.raises(ValueError, match="immediate step 1"):
            k.run(host=lambda index, regs: None)


class TestInputsAndCompile:
    def test_inputs_inferred_from_first_access(self):
        ii, jj = grids(4)
        steps = [
            KernelStep("read", "a", ii, jj, register="c"),
            KernelStep("write", "b", jj, ii, register="c"),
            KernelStep("read", "b", ii, jj, register="o"),
        ]
        k = SharedMemoryKernel(4, steps, arrays=("a", "b"))
        assert k.inputs == ("a",)  # b is written before it is read

    def test_explicit_inputs_validated(self):
        with pytest.raises(ValueError, match="not declared"):
            SharedMemoryKernel(4, [], arrays=("a",), inputs=("z",))

    def test_mask_compiles_to_inactive_lanes(self):
        ii, jj = grids(4)
        mask = np.ones((4, 4), dtype=bool)
        mask[3, :] = False
        k = SharedMemoryKernel(
            4, [KernelStep("read", "a", ii, jj, mask=mask)], inputs=("a",)
        )
        addrs = k.program().instructions[0].addresses
        assert (addrs[12:] == -1).all()
        assert (addrs[:12] >= 0).all()

    def test_immediate_write_compiles_distinct_values(self):
        ii, jj = grids(4)
        k = SharedMemoryKernel(
            4, [KernelStep("write", "a", ii, jj, immediate=True)]
        )
        instr = k.program().instructions[0]
        assert instr.values is not None
        assert len(np.unique(instr.values)) == 16

    def test_verify_returns_report(self):
        ii, jj = grids(4)
        k = SharedMemoryKernel(
            4,
            [KernelStep("read", "a", ii, jj, register="c")],
            mapping="RAP",
            seed=0,
            inputs=("a",),
        )
        report = k.verify()
        assert report.ok
        assert report.certificate.worst >= 1


class TestTransposeKernel:
    def test_builds_two_steps(self):
        k = transpose_kernel("CRSW", RAWMapping(8))
        assert len(k.steps) == 2

    def test_data_correct_end_to_end(self, rng):
        k = transpose_kernel("CRSW", RAPMapping.random(8, rng))
        machine = k.make_machine()
        matrix = rng.random((8, 8))
        k.load_array(machine, "a", matrix)
        machine.run(k.program())
        assert np.array_equal(k.read_array(machine, "b"), matrix.T)

    def test_mapping_by_name_with_width(self):
        k = transpose_kernel("SRCW", "RAS", w=16, seed=2)
        assert k.w == 16
        assert k.mapping.name == "RAS"

    def test_default_width_32(self):
        assert transpose_kernel("DRDW", "RAW").w == 32

    def test_stage_counts_match_table3_raw(self):
        assert transpose_kernel("CRSW", "RAW").run().total_stages == 32 + 1024
        assert transpose_kernel("DRDW", "RAW").run().total_stages == 64

    def test_stage_counts_match_table3_rap(self, rng):
        k = transpose_kernel("CRSW", RAPMapping.random(32, rng))
        assert k.run().total_stages == 64
