"""Large-``w`` edge cases: dtype exactness and the enumerate fallback.

At ``w = 1024`` a flat staged index reaches ``trials * (2 w^2 + 1)``,
which silently wraps narrow integer dtypes once the per-trial offset
is baked in — so staging builds every address table in int64.  These
tests pin that audit with a bit-identity property (scalar == batched
at ``w = 256`` and ``w = 1024``) and cover the certifier's
exact-enumeration fallback on adversarial non-affine grids at the
largest width.
"""

import numpy as np
import pytest

from repro.adversary import assemble_pattern, pattern_congestions
from repro.analysis.certificates import certify_kernel, certify_program
from repro.apps import build_app_program
from repro.core.mappings import (
    RAWMapping,
    mapping_from_shifts,
    sample_shift_batch,
)
from repro.dmm.trace import MemoryProgram, read
from repro.gpu.kernel import KernelStep, SharedMemoryKernel
from repro.util.rng import as_generator


# -- satellite 1: scalar-vs-batched bit-identity at large w ---------------


@pytest.mark.parametrize("w,trials", [(256, 3), (1024, 2)])
def test_batched_matches_scalar_bit_identical_at_large_w(w, trials):
    """Every per-trial observable agrees exactly at w = 256 and 1024."""
    seed = 321
    shifts = sample_shift_batch("RAP", w, trials, as_generator(seed))
    kernel = build_app_program("transpose_crsw", RAWMapping(w), seed=seed)
    program = kernel.program_batch(shifts)
    assert all(t.dtype == np.int64 for t in program.address_tables)
    res = kernel.run_batch(shifts, latency=2)
    for t in range(trials):
        mapping = mapping_from_shifts("RAP", shifts[t])
        scalar_kernel = build_app_program("transpose_crsw", mapping, seed=seed)
        machine = scalar_kernel.make_machine(latency=2)
        scalar = machine.run(scalar_kernel.program())
        assert int(res.time_units[t]) == scalar.time_units
        for bt, st in zip(res.traces, scalar.traces):
            assert bt.trial_congestions(t) == st.congestions
            assert int(bt.time_units[t]) == st.time_units
        bregs = res.trial_registers(t)
        for reg, values in scalar.registers.items():
            assert np.array_equal(values, bregs[reg])
        assert np.array_equal(res.memory.trial(t), machine.memory.store)


# -- satellite 4: enumerate fallback at w = 1024 --------------------------


W_BIG = 1024


def _found_worst_grids(w):
    """An adversarial near-stride fixture the affine fit cannot absorb.

    The stride attack (one column, all rows) with a single deflected
    lane: ``w - 1`` lanes of every warp still pile into one bank under
    RAW, but the lone irregular column defeats the affine lift, so the
    certifier must take the exact-enumeration path."""
    rows = np.arange(w, dtype=np.int64)
    cols = np.zeros(w, dtype=np.int64)
    cols[-1] = 1
    return assemble_pattern(rows, cols, w)


class TestEnumerateFallbackAtLargeW:
    def test_adversarial_grid_certifies_exactly_at_large_w(self):
        """The deflected stride attack certifies to worst = w - 1 by
        an exact count — via the absint coset tier (the attack grid's
        merged columns are full cosets), no enumeration needed."""
        ii, jj = _found_worst_grids(W_BIG)
        kernel = SharedMemoryKernel(
            W_BIG,
            [KernelStep("read", "buf", ii, jj, register="v")],
            arrays=("buf",),
            mapping=RAWMapping(W_BIG),
        )
        cert = certify_kernel(kernel, name="found-worst")
        (step,) = cert.steps
        assert step.method == "absint"
        assert step.worst == W_BIG - 1

    def test_enumeration_agrees_with_pattern_congestions(self):
        """certify_kernel's exact count matches the adversary's scorer
        on the same grids and shift draw."""
        w = W_BIG
        rng = as_generator(99)
        ii = rng.integers(0, w, size=(w, w))
        jj = rng.integers(0, w, size=(w, w))
        shifts = sample_shift_batch("RAP", w, 1, rng)
        mapping = mapping_from_shifts("RAP", shifts[0])
        kernel = SharedMemoryKernel(
            w,
            [KernelStep("read", "buf", ii, jj, register="v")],
            arrays=("buf",),
            mapping=mapping,
        )
        cert = certify_kernel(kernel, name="random-grid")
        (step,) = cert.steps
        assert step.method == "enumerate"
        per_warp = pattern_congestions(ii, jj, shifts, w)[0]
        assert step.worst == per_warp.max()

    def test_certify_program_enumerates_compiled_steps(self):
        """A compiled program at w = 1024 certifies step by step."""
        w = W_BIG
        addresses = as_generator(5).integers(0, w * w, size=w * w)
        program = MemoryProgram(p=w * w, instructions=[read(addresses)])
        cert = certify_program(program, w, name="compiled")
        (step,) = cert.steps
        assert step.method == "enumerate"
        assert 1 <= step.worst <= w

    def test_certify_program_rejects_p_not_multiple_of_w(self):
        program = MemoryProgram(
            p=10, instructions=[read(np.arange(10, dtype=np.int64))]
        )
        with pytest.raises(ValueError, match="multiple of warp width"):
            certify_program(program, 8)
