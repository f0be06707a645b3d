"""Failure-injection tests: the verification machinery must catch faults.

A reproduction whose correctness checks cannot fail is not checking
anything.  These tests corrupt data, layouts, and schedules on purpose
and assert that the corresponding verifier reports the fault.
"""

import numpy as np
import pytest

from repro.access.transpose import run_transpose, transpose_indices
from repro.core.mappings import RAPMapping, RAWMapping
from repro.dmm.machine import DiscreteMemoryMachine
from repro.gpu.kernel import KernelStep, SharedMemoryKernel, transpose_kernel
from repro.routing.coloring import validate_coloring
from repro.routing.offline import scheduled_permutation_program


class TestTransposeVerificationCatchesCorruption:
    def test_flipped_word_detected(self, rng):
        """Manually corrupt one destination word after a correct run:
        re-verification must fail."""
        w = 8
        mapping = RAPMapping.random(w, rng)
        matrix = rng.random((w, w))
        machine = DiscreteMemoryMachine(w, 1, 2 * w * w)
        machine.load(0, mapping.apply_layout(matrix))
        machine.run(transpose_kernel("CRSW", mapping).program())
        # sabotage
        machine.memory.store[w * w + 3] += 1.0
        out = mapping.read_layout(machine.dump(w * w, w * w))
        assert not np.array_equal(out, matrix.T)

    def test_wrong_mapping_on_readback_detected(self, rng):
        """Reading the result through a different sigma scrambles it."""
        w = 8
        mapping = RAPMapping.random(w, rng)
        other = RAPMapping.random(w, rng)
        assert not np.array_equal(mapping.sigma, other.sigma)
        matrix = rng.random((w, w))
        machine = DiscreteMemoryMachine(w, 1, 2 * w * w)
        machine.load(0, mapping.apply_layout(matrix))
        machine.run(transpose_kernel("CRSW", mapping).program())
        out = other.read_layout(machine.dump(w * w, w * w))
        assert not np.array_equal(out, matrix.T)

    def test_in_place_transpose_is_actually_safe(self):
        """Counter-check of the model: because instructions are
        phase-sequential (all reads complete before any write issues),
        an in-place transpose (source and destination are one array) is CORRECT on the
        DMM.  A cycle-interleaved machine without that barrier would
        corrupt it — this pins the semantics we implement."""
        w = 4
        mapping = RAWMapping(w)
        matrix = np.arange(16.0).reshape(4, 4)
        machine = DiscreteMemoryMachine(w, 1, 2 * w * w)
        machine.load(0, mapping.apply_layout(matrix))
        (ri, rj), (wi, wj) = transpose_indices("CRSW", w)
        in_place = SharedMemoryKernel(
            w,
            [
                KernelStep("read", "a", ri, rj, register="c"),
                KernelStep("write", "a", wi, wj, register="c"),
            ],
            arrays=("a",),
            mapping=mapping,
        )
        machine.run(in_place.program())
        out = mapping.read_layout(machine.dump(0, w * w))
        assert np.array_equal(out, matrix.T)

    def test_loading_at_wrong_base_detected(self):
        """Source loaded at the wrong base leaves b untransposed."""
        w = 4
        mapping = RAWMapping(w)
        matrix = np.arange(16.0).reshape(4, 4)
        machine = DiscreteMemoryMachine(w, 1, 3 * w * w)
        machine.load(2 * w * w, mapping.apply_layout(matrix))  # wrong spot
        machine.run(transpose_kernel("CRSW", mapping).program())
        out = mapping.read_layout(machine.dump(w * w, w * w))
        assert not np.array_equal(out, matrix.T)


class TestColoringValidatorCatchesBadSchedules:
    def test_corrupted_color_detected(self, rng):
        w = 4
        perm = rng.permutation(w * w)
        src = np.arange(w * w) % w
        dst = perm % w
        edges = list(zip(src.tolist(), dst.tolist()))
        from repro.routing.coloring import edge_color_euler

        colors = edge_color_euler(edges, w)
        assert validate_coloring(edges, colors)
        bad = list(colors)
        # Force two edges sharing a source bank into one round.
        first_two_same_src = [
            i for i, e in enumerate(edges) if e[0] == edges[0][0]
        ][:2]
        bad[first_two_same_src[1]] = bad[first_two_same_src[0]]
        assert not validate_coloring(edges, bad)

    def test_scheduled_program_collision_detected_by_machine(self, rng):
        """If we sabotage a round to double-book a bank, the machine's
        congestion accounting exposes it."""
        w = 4
        perm = rng.permutation(w * w)
        prog = scheduled_permutation_program(perm, w)
        # Sabotage: redirect one lane's read to another lane's bank.
        instr = prog.instructions[0]
        addrs = instr.addresses.copy()
        active = np.flatnonzero(addrs >= 0)
        addrs[active[0]] = addrs[active[1]] + w  # same bank, new address
        object.__setattr__(instr, "addresses", addrs)
        machine = DiscreteMemoryMachine(w, 1, 2 * w * w)
        result = machine.run(prog)
        assert result.max_congestion > 1


class TestNumericFaults:
    def test_nan_propagates_not_masked(self, rng):
        """NaNs in the source must surface in the output, not vanish."""
        w = 4
        mapping = RAWMapping(w)
        matrix = rng.random((w, w))
        matrix[2, 3] = np.nan
        outcome = run_transpose("CRSW", mapping, matrix=matrix)
        # array_equal is NaN-strict, so the outcome reports incorrect...
        assert not outcome.correct

    def test_verification_is_exact_not_approximate(self):
        """run_transpose uses exact equality: an epsilon perturbation
        of the source vs reference would be caught (data moves are
        copies, not arithmetic)."""
        w = 4
        mapping = RAWMapping(w)
        matrix = np.full((w, w), 1.0)
        outcome = run_transpose("CRSW", mapping, matrix=matrix)
        assert outcome.correct


class TestGenericSimulatorValidation:
    def test_width_mismatch_rejected(self):
        from repro.sim.congestion_sim import simulate_matrix_congestion_generic

        with pytest.raises(ValueError, match="width"):
            simulate_matrix_congestion_generic(
                lambda rng: RAWMapping(8), "stride", 16, trials=1
            )

    def test_matches_fast_path_for_rap(self, rng):
        from repro.sim.congestion_sim import (
            simulate_matrix_congestion,
            simulate_matrix_congestion_generic,
        )

        w = 16
        fast = simulate_matrix_congestion("RAP", "stride", w, trials=20, seed=0)
        generic = simulate_matrix_congestion_generic(
            lambda r: RAPMapping.random(w, r), "stride", w, trials=20, seed=0
        )
        assert fast.mean == generic.mean == 1.0
