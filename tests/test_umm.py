"""Unit tests for repro.dmm.umm — the broadcast-address contrast model."""

import numpy as np
import pytest

from repro.dmm.trace import INACTIVE, MemoryProgram, read, write
from repro.dmm.umm import UnifiedMemoryMachine, coalesced_group_count


class TestCoalescedGroupCount:
    def test_one_aligned_group(self):
        assert coalesced_group_count(np.arange(4), 4) == 1

    def test_every_address_its_own_group(self):
        # Stride-w addresses: each in a different aligned block.
        assert coalesced_group_count(np.array([0, 4, 8, 12]), 4) == 4

    def test_unaligned_run_spans_two_groups(self):
        assert coalesced_group_count(np.array([2, 3, 4, 5]), 4) == 2

    def test_duplicates_collapse(self):
        assert coalesced_group_count(np.array([5, 5, 5, 5]), 4) == 1

    def test_empty(self):
        assert coalesced_group_count(np.array([], dtype=int), 4) == 0


class TestUMMTiming:
    def test_contiguous_same_as_dmm(self):
        """Aligned row access: 1 stage per warp on both machines."""
        umm = UnifiedMemoryMachine(4, 5, 16)
        prog = MemoryProgram(p=16, instructions=[read(np.arange(16))])
        assert umm.run(prog).time_units == 4 + 5 - 1

    def test_stride_worst_case(self):
        """Column access: w distinct groups per warp -> like DMM stride."""
        umm = UnifiedMemoryMachine(4, 5, 16)
        stride = (np.arange(16).reshape(4, 4).T).ravel()
        prog = MemoryProgram(p=16, instructions=[read(stride)])
        assert umm.run(prog).time_units == 16 + 5 - 1

    def test_same_bank_different_rows_slow_on_umm(self):
        """Addresses 0,4,8,12: DMM congestion would serialize too, but
        0..3 (distinct banks, one group) is 1 stage on both; whereas
        1,5,9,13 is 4 stages on DMM *and* 4 groups on UMM; the
        *difference* shows on diagonal-style access."""
        umm = UnifiedMemoryMachine(4, 1, 16)
        # Diagonal: addresses 0, 5, 10, 15 -> distinct banks (DMM: 1 stage)
        # but 4 distinct groups (UMM: 4 stages).
        prog = MemoryProgram(p=4, instructions=[read(np.array([0, 5, 10, 15]))])
        assert umm.run(prog).time_units == 4

    def test_diagonal_contrast_with_dmm(self):
        """The architectural difference of Fig. 1, executable."""
        from repro.dmm.machine import DiscreteMemoryMachine

        addrs = np.array([0, 5, 10, 15])
        prog = MemoryProgram(p=4, instructions=[read(addrs)])
        dmm_t = DiscreteMemoryMachine(4, 1, 16).run(prog).time_units
        umm_t = UnifiedMemoryMachine(4, 1, 16).run(prog).time_units
        assert dmm_t == 1
        assert umm_t == 4

    def test_inactive_warp_skipped(self):
        umm = UnifiedMemoryMachine(4, 5, 16)
        addrs = np.concatenate([np.arange(4), np.full(4, INACTIVE)])
        prog = MemoryProgram(p=8, instructions=[read(addrs)])
        assert umm.run(prog).time_units == 5


class TestUMMData:
    def test_read_write_roundtrip(self):
        umm = UnifiedMemoryMachine(4, 1, 32)
        umm.load(0, np.arange(8.0))
        prog = MemoryProgram(p=8)
        prog.append(read(np.arange(8), register="c"))
        prog.append(write(np.arange(8) + 16, register="c"))
        umm.run(prog)
        assert np.array_equal(umm.dump(16, 8), np.arange(8.0))

    def test_crcw_arbitrary_write(self):
        umm = UnifiedMemoryMachine(4, 1, 16)
        prog = MemoryProgram(
            p=4, instructions=[write(np.zeros(4, dtype=int), values=np.arange(4.0))]
        )
        umm.run(prog)
        assert umm.dump(0, 1)[0] == 3.0

    def test_write_from_unread_register_raises(self):
        umm = UnifiedMemoryMachine(4, 1, 16)
        prog = MemoryProgram(p=4, instructions=[write(np.arange(4), register="z")])
        with pytest.raises(KeyError):
            umm.run(prog)

    def test_load_bounds(self):
        umm = UnifiedMemoryMachine(4, 1, 8)
        with pytest.raises(IndexError):
            umm.load(4, np.arange(8.0))

    def test_dump_bounds(self):
        umm = UnifiedMemoryMachine(4, 1, 8)
        with pytest.raises(IndexError):
            umm.dump(0, 9)


class TestTransposeRanking:
    def test_drdw_advantage_shrinks_on_umm(self):
        """DRDW crushes CRSW on the DMM; under the UMM's coalescing both
        pay for scattered rows, so the gap closes."""
        from repro.core.mappings import RAWMapping
        from repro.dmm.machine import DiscreteMemoryMachine
        from repro.gpu.kernel import transpose_kernel

        w = 16
        gaps = []
        for machine in (DiscreteMemoryMachine, UnifiedMemoryMachine):
            crsw, drdw = (
                machine(w, 1, 2 * w * w)
                .run(transpose_kernel(kind, RAWMapping(w)).program())
                .time_units
                for kind in ("CRSW", "DRDW")
            )
            gaps.append(crsw / drdw)
        assert gaps[0] > gaps[1]
