"""Tests for the batched DMM executor and its consumers.

The load-bearing contract is *exactness*: the batched engine is a pure
performance transform, so every observable of the scalar
:class:`~repro.dmm.machine.DiscreteMemoryMachine` — per-step
congestion multisets, dispatch sets, per-step and total time units,
final registers, final memory — must be reproduced bit for bit, per
trial, for every builtin app under every mapping family.
"""

import numpy as np
import pytest

from repro.apps import BUILTIN_PROGRAMS, build_app_program
from repro.core.congestion import congestion_batch, warp_congestion
from repro.core.mappings import (
    MAPPING_NAMES,
    RAWMapping,
    mapping_from_shifts,
    sample_shift_batch,
)
from repro.dmm import BatchedDMM
from repro.dmm.machine import DiscreteMemoryMachine
from repro.dmm.mmu import batch_completion_times
from repro.dmm.trace import INACTIVE, MemoryProgram, read
from repro.gpu.kernel import KernelStep, SharedMemoryKernel
from repro.util.rng import as_generator

W = 8
TRIALS = 4
SEED = 123


# ---------------------------------------------------------------------------
# congestion_batch with INACTIVE-aware semantics
# ---------------------------------------------------------------------------


class TestMaskedCongestionBatch:
    def test_inactive_lanes_issue_no_request(self):
        rows = np.array([[0, 1, INACTIVE, INACTIVE]])
        assert congestion_batch(rows, 4, inactive=INACTIVE).tolist() == [1]

    def test_duplicates_merge(self):
        # Four lanes, one address: CRCW merge -> one request.
        rows = np.array([[5, 5, 5, 5]])
        assert congestion_batch(rows, 4, inactive=INACTIVE).tolist() == [1]

    def test_duplicates_and_inactive_mixed(self):
        # 0 and 4 share bank 0 (distinct addresses -> serialize);
        # the duplicate 4 merges; the inactive lane vanishes.
        rows = np.array([[0, 4, 4, INACTIVE]])
        assert congestion_batch(rows, 4, inactive=INACTIVE).tolist() == [2]

    def test_all_inactive_row_is_zero(self):
        rows = np.full((3, 4), INACTIVE)
        rows[1] = [0, 1, 2, 3]
        assert congestion_batch(rows, 4, inactive=INACTIVE).tolist() == [0, 1, 0]

    def test_matches_scalar_on_random_masked_rows(self):
        rng = as_generator(7)
        rows = rng.integers(0, 64, size=(50, W))
        mask = rng.random((50, W)) < 0.6
        rows = np.where(mask, rows, INACTIVE)
        got = congestion_batch(rows, W, inactive=INACTIVE)
        for row, g in zip(rows, got):
            active = row[row != INACTIVE]
            assert g == warp_congestion(active, W)

    def test_inactive_none_keeps_legacy_semantics(self):
        rng = as_generator(8)
        rows = rng.integers(0, 64, size=(20, W))
        with_sentinel = congestion_batch(rows, W, inactive=INACTIVE)
        without = congestion_batch(rows, W)
        assert np.array_equal(with_sentinel, without)


# ---------------------------------------------------------------------------
# vectorized scalar _execute: exact congestion tuples under partial masks
# ---------------------------------------------------------------------------


class TestScalarExecuteVectorized:
    def _machine(self, latency=3):
        return DiscreteMemoryMachine(W, latency=latency, memory_size=W * W)

    def test_partially_masked_trace_is_exact(self):
        # Warp 0 fully active (stride down a column: congestion W),
        # warp 1 half active, warps 2.. fully inactive.
        addresses = np.full(W * W, INACTIVE, dtype=np.int64)
        addresses[:W] = np.arange(W) * W  # one bank -> congestion W
        addresses[W : W + W // 2] = np.arange(W // 2)  # distinct banks
        program = MemoryProgram(p=W * W, instructions=[read(addresses)])
        result = self._machine().run(program)
        trace = result.traces[0]
        assert trace.dispatched_warps == (0, 1)
        assert trace.congestions == (W, 1)
        # time = sum of congestions + latency - 1
        assert trace.time_units == W + 1 + 3 - 1

    def test_all_inactive_instruction_takes_zero_time(self):
        addresses = np.full(W * W, INACTIVE, dtype=np.int64)
        program = MemoryProgram(p=W * W, instructions=[read(addresses)])
        result = self._machine().run(program)
        assert result.traces[0].dispatched_warps == ()
        assert result.traces[0].congestions == ()
        assert result.traces[0].time_units == 0

    def test_masked_congestions_match_per_warp_recount(self):
        rng = as_generator(11)
        addresses = rng.integers(0, W * W, size=W * W)
        mask = rng.random(W * W) < 0.5
        addresses = np.where(mask, addresses, INACTIVE)
        program = MemoryProgram(p=W * W, instructions=[read(addresses)])
        trace = self._machine().run(program).traces[0]
        expected = []
        for warp in addresses.reshape(-1, W):
            active = warp[warp != INACTIVE]
            if active.size:
                expected.append(warp_congestion(active, W))
        assert trace.congestions == tuple(expected)


# ---------------------------------------------------------------------------
# the exactness contract: batched == scalar for all apps x mappings
# ---------------------------------------------------------------------------


def _assert_trial_matches(res, t, scalar_result, scalar_machine):
    assert int(res.time_units[t]) == scalar_result.time_units
    for bt, st in zip(res.traces, scalar_result.traces):
        assert bt.trial_congestions(t) == st.congestions
        assert bt.trial_dispatched(t) == st.dispatched_warps
        assert int(bt.time_units[t]) == st.time_units
    bregs = res.trial_registers(t)
    assert set(bregs) == set(scalar_result.registers)
    for reg, values in scalar_result.registers.items():
        assert np.array_equal(values, bregs[reg])
    assert np.array_equal(res.memory.trial(t), scalar_machine.memory.store)


@pytest.mark.parametrize("mapping_name", MAPPING_NAMES)
@pytest.mark.parametrize("app", sorted(BUILTIN_PROGRAMS))
def test_batched_matches_scalar_exactly(app, mapping_name):
    """Per trial: congestion tuples, dispatch, timing, registers, memory."""
    rng = as_generator(SEED)
    shifts = sample_shift_batch(mapping_name, W, TRIALS, rng)
    kernel = build_app_program(app, RAWMapping(W), seed=SEED)
    res = kernel.run_batch(shifts, latency=4)
    for t in range(TRIALS):
        mapping = mapping_from_shifts(mapping_name, shifts[t])
        scalar_kernel = build_app_program(app, mapping, seed=SEED)
        machine = scalar_kernel.make_machine(latency=4)
        scalar_result = machine.run(scalar_kernel.program())
        _assert_trial_matches(res, t, scalar_result, machine)


@pytest.mark.parametrize("mapping_name", MAPPING_NAMES)
@pytest.mark.parametrize("app", sorted(BUILTIN_PROGRAMS))
def test_run_matches_unplanned_execute_plan(app, mapping_name):
    """``run`` and ``execute_plan(backend=None)`` agree exactly on an
    unplanned batch, and every step's time (fully static steps take the
    loop's closed form) is the counted path's ``total + l - 1`` or 0."""
    shifts = sample_shift_batch(mapping_name, W, TRIALS, as_generator(SEED))
    kernel = build_app_program(app, RAWMapping(W), seed=SEED)
    ran = kernel.make_batched_machine(TRIALS, 4).run(kernel.program_batch(shifts))
    planned = kernel.make_batched_machine(TRIALS, 4).execute_plan(
        kernel.program_batch(shifts), backend=None
    )
    assert np.array_equal(ran.time_units, planned.time_units)
    assert len(ran.traces) == len(planned.traces)
    for rt, pt in zip(ran.traces, planned.traces):
        assert rt.op == pt.op
        assert rt.congestions.dtype == pt.congestions.dtype
        assert np.array_equal(rt.congestions, pt.congestions)
        assert np.array_equal(rt.time_units, pt.time_units)
        assert np.array_equal(
            rt.time_units, batch_completion_times(rt.congestions.sum(axis=1), 4)
        )
    assert set(ran.registers) == set(planned.registers)
    for reg, values in ran.registers.items():
        assert np.array_equal(values, planned.registers[reg])
    assert np.array_equal(ran.memory.store, planned.memory.store)


# ---------------------------------------------------------------------------
# the time-only path: run(...).time_units without the data half
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mapping_name", MAPPING_NAMES)
@pytest.mark.parametrize("app", sorted(BUILTIN_PROGRAMS))
def test_time_batch_equals_run_batch_and_scalar(app, mapping_name):
    shifts = sample_shift_batch(mapping_name, W, TRIALS, as_generator(SEED))
    kernel = build_app_program(app, RAWMapping(W), seed=SEED)
    times = kernel.time_batch(shifts, latency=4)
    assert times.dtype == np.int64 and times.shape == (TRIALS,)
    assert np.array_equal(times, kernel.run_batch(shifts, latency=4).time_units)
    for t in range(TRIALS):
        mapping = mapping_from_shifts(mapping_name, shifts[t])
        scalar_kernel = build_app_program(app, mapping, seed=SEED)
        machine = scalar_kernel.make_machine(latency=4)
        assert int(times[t]) == machine.run(scalar_kernel.program()).time_units


@pytest.mark.parametrize("family", ["RAS", "RAP"])
@pytest.mark.parametrize("app", sorted(BUILTIN_PROGRAMS))
def test_time_of_plan_staged_program_equals_execute_plan(app, family):
    """Resolved steps (closed form), coset steps (planned matrix) and
    residual steps (bank keys) all time as ``execute_plan`` does."""
    from repro.analysis.plan import compile_plan

    kernel = build_app_program(app, RAWMapping(W), seed=SEED)
    plan = compile_plan(kernel, family)
    shifts = sample_shift_batch(family, W, TRIALS, as_generator(SEED))
    program = kernel.program_batch(shifts, plan=plan)
    times = kernel.make_batched_machine(TRIALS, 3).time(program)
    executed = kernel.make_batched_machine(TRIALS, 3).execute_plan(program)
    assert np.array_equal(times, executed.time_units)


class TestTimeOnlyPath:
    @staticmethod
    def _break_the_address_path(monkeypatch):
        from repro.dmm.batched import BatchedProgram
        from repro.dmm.memory import BatchedMemory

        def refuse(*args, **kwargs):
            raise AssertionError("the time-only path reached the data half")

        monkeypatch.setattr(BatchedMemory, "__init__", refuse)
        monkeypatch.setattr(BatchedMemory, "read_flat", refuse)
        monkeypatch.setattr(BatchedMemory, "write_flat", refuse)
        monkeypatch.setattr(BatchedProgram, "address_table", refuse)
        monkeypatch.setattr(BatchedProgram, "step_addresses", refuse)

    @pytest.mark.parametrize("planned", [False, True])
    @pytest.mark.parametrize("app", ["fft", "sort", "transpose_crsw"])
    def test_never_gathers_addresses_or_moves_data(self, monkeypatch, app, planned):
        from repro.analysis.plan import compile_plan

        kernel = build_app_program(app, RAWMapping(W), seed=SEED)
        plan = compile_plan(kernel, "RAS") if planned else None
        shifts = sample_shift_batch("RAS", W, TRIALS, as_generator(SEED))
        want = kernel.make_batched_machine(TRIALS, 2).run(
            kernel.program_batch(shifts, plan=plan)
        ).time_units
        self._break_the_address_path(monkeypatch)
        machine = kernel.make_batched_machine(TRIALS, 2)
        program = kernel.program_batch(shifts, plan=plan)
        assert np.array_equal(machine.time(program), want)
        # The patch does bite the full executor.
        with pytest.raises(AssertionError, match="data half"):
            machine.run(program)

    def test_app_sweep_never_moves_data(self, monkeypatch):
        from repro.sim.experiments import app_time_sweep

        kwargs = dict(apps=("fft", "scan"), w=W, trials=6, seed=3)
        want = app_time_sweep(**kwargs)
        self._break_the_address_path(monkeypatch)
        got = app_time_sweep(**kwargs)
        for key, res in want.items():
            assert np.array_equal(got[key].time_units, res.time_units)


# ---------------------------------------------------------------------------
# random kernels: the staged program against the scalar machine
# ---------------------------------------------------------------------------


def _random_grid(rng, masked_warp=None):
    """``(ii, jj, mask)`` for one step: per warp a random, row-local or
    column-local lane set with repeated ``(i, j)`` lanes and a random
    mask; warp ``masked_warp`` (if any) is fully masked."""
    ii = rng.integers(0, W, size=(W, W))
    jj = rng.integers(0, W, size=(W, W))
    for warp in range(W):
        style = rng.integers(0, 3)
        if style == 1:
            ii[warp] = ii[warp, 0]
        elif style == 2:
            jj[warp] = jj[warp, 0]
        # Repeat a few lanes of the warp: CRCW-merged requests.
        dst = rng.choice(W, size=3, replace=False)
        src = rng.choice(W, size=3)
        ii[warp, dst] = ii[warp, src]
        jj[warp, dst] = jj[warp, src]
    mask = rng.random((W, W)) < 0.8
    if masked_warp is not None:
        mask[masked_warp] = False
    return ii, jj, mask


def _random_steps(seed, n_steps):
    """A random kernel skeleton over arrays ``a`` and ``b``: immediate
    writes first so reads move real data, then random reads and writes
    (register writes only from registers already read)."""
    rng = as_generator(seed)
    steps = []
    filled = []
    for index in range(n_steps):
        ii, jj, mask = _random_grid(rng, masked_warp=index % W)
        array = "ab"[int(rng.integers(0, 2))]
        if index < 2 or rng.random() < 0.25:
            steps.append(
                KernelStep("write", array, ii, jj, mask=mask, immediate=True)
            )
        elif not filled or rng.random() < 0.5:
            register = f"r{int(rng.integers(0, 2))}"
            steps.append(KernelStep("read", array, ii, jj, register, mask))
            filled.append(register)
        else:
            register = filled[int(rng.integers(0, len(filled)))]
            steps.append(KernelStep("write", array, ii, jj, register, mask))
    return steps


#: (seed, steps) of the random kernels; one has a single step.
RANDOM_KERNELS = [(41, 1), (42, 7), (43, 12)]


class TestRandomKernels:
    @pytest.mark.parametrize("path", ["run_batch", "run_plan"])
    @pytest.mark.parametrize("family", ["RAS", "RAP"])
    @pytest.mark.parametrize("seed,n_steps", RANDOM_KERNELS)
    def test_every_trial_matches_the_scalar_machine(
        self, seed, n_steps, family, path
    ):
        from repro.analysis.plan import compile_plan

        steps = _random_steps(seed, n_steps)
        kernel = SharedMemoryKernel(W, steps, arrays=("a", "b"))
        shifts = sample_shift_batch(family, W, TRIALS, as_generator(seed))
        if path == "run_batch":
            res = kernel.run_batch(shifts, latency=3)
            times = kernel.time_batch(shifts, latency=3)
        else:
            plan = compile_plan(kernel, family)
            res = kernel.run_plan(shifts, plan, latency=3)
            times = kernel.make_batched_machine(TRIALS, 3).time(
                kernel.program_batch(shifts, plan=plan)
            )
        assert np.array_equal(times, res.time_units)
        assert len(res.traces) == n_steps
        for t in range(TRIALS):
            mapping = mapping_from_shifts(family, shifts[t])
            scalar_kernel = SharedMemoryKernel(W, steps, ("a", "b"), mapping)
            machine = scalar_kernel.make_machine(latency=3)
            scalar_result = machine.run(scalar_kernel.program())
            _assert_trial_matches(res, t, scalar_result, machine)

    @pytest.mark.parametrize("seed,n_steps", RANDOM_KERNELS)
    def test_grids_hold_merged_lanes_and_a_masked_warp(self, seed, n_steps):
        merged = masked = 0
        for step in _random_steps(seed, n_steps):
            for warp in range(W):
                live = (step.ii * W + step.jj)[warp][step.mask[warp]]
                merged += live.size - np.unique(live).size
                masked += not live.size
        assert merged and masked

    @pytest.mark.parametrize("seed,n_steps", RANDOM_KERNELS)
    def test_wrong_trial_count_rejected(self, seed, n_steps):
        kernel = SharedMemoryKernel(W, _random_steps(seed, n_steps), ("a", "b"))
        shifts = sample_shift_batch("RAS", W, TRIALS, as_generator(seed))
        program = kernel.program_batch(shifts)
        machine = kernel.make_batched_machine(TRIALS + 1)
        with pytest.raises(ValueError, match=f"program stages {TRIALS} trials"):
            machine.run(program)
        with pytest.raises(ValueError, match=f"program stages {TRIALS} trials"):
            machine.time(program)


class TestStagedFlatAddressing:
    def test_stride_mismatch_rejected(self):
        """A staged program carries the stride it was baked for; running
        it on a machine with a different memory stride must fail loudly
        instead of reading other trials' words."""
        rng = as_generator(5)
        shifts = sample_shift_batch("RAP", W, 2, rng)
        kernel = build_app_program("transpose_crsw", RAWMapping(W), seed=SEED)
        staged = kernel.program_batch(shifts)
        machine = kernel.make_batched_machine(trials=2)
        bigger = BatchedDMM(
            W, latency=1, memory_size=machine.memory.size + 7, trials=2
        )
        with pytest.raises(ValueError, match="stride"):
            bigger.run(staged)
        with pytest.raises(ValueError, match="stride"):
            bigger.time(staged)


# ---------------------------------------------------------------------------
# the time-only path's blocked congestion count
# ---------------------------------------------------------------------------


def _app(app):
    return lambda mapping: build_app_program(app, mapping, seed=SEED)


def _random_kernel(seed, n_steps):
    steps = _random_steps(seed, n_steps)
    return lambda mapping: SharedMemoryKernel(W, steps, ("a", "b"), mapping)


def _scalar_times(make_kernel, family, shifts, latency):
    """Each trial's completion time on the scalar machine."""
    times = []
    for row in shifts:
        kernel = make_kernel(mapping_from_shifts(family, row))
        machine = kernel.make_machine(latency=latency)
        times.append(machine.run(kernel.program()).time_units)
    return times


#: (id, kernel factory, family, trials, plan-staged).  The random
#: kernel masks one whole warp in every step; stencil_row has no
#: dynamic step; the plan-staged fft has resolved, coset and residual
#: steps.
BLOCK_CASES = [
    ("sort-RAS", _app("sort"), "RAS", TRIALS, False),
    ("sort-RAP", _app("sort"), "RAP", TRIALS, False),
    ("fft-RAS", _app("fft"), "RAS", TRIALS, False),
    ("fft-RAP", _app("fft"), "RAP", TRIALS, False),
    ("fft-RAS-plan", _app("fft"), "RAS", TRIALS, True),
    ("stencil_row-RAP", _app("stencil_row"), "RAP", TRIALS, False),
    ("random-RAS", _random_kernel(43, 12), "RAS", TRIALS, False),
    ("sort-RAP-T1", _app("sort"), "RAP", 1, False),
]


class TestBlockedCounting:
    """:meth:`BatchedDMM.time` counts the dynamic warps of many steps
    per sort; where the blocks fall must never show in the times."""

    # One warp per block (every multi-warp step straddles blocks), a
    # few warps per block, and one block for the whole program.
    @pytest.mark.parametrize("budget", [1, 3 * TRIALS * W, 1 << 40])
    @pytest.mark.parametrize(
        "case", BLOCK_CASES, ids=[case[0] for case in BLOCK_CASES]
    )
    def test_time_is_exact_wherever_blocks_fall(self, monkeypatch, budget, case):
        import repro.dmm.batched as batched
        from repro.analysis.plan import compile_plan

        _, make_kernel, family, trials, planned = case
        kernel = make_kernel(RAWMapping(W))
        plan = compile_plan(kernel, family) if planned else None
        if planned:
            # (resolved, coset) per step: resolved, coset and residual.
            kinds = {
                (s.congestions is not None, s.recipe is not None) for s in plan.steps
            }
            assert kinds == {(True, False), (False, True), (False, False)}
        shifts = sample_shift_batch(family, W, trials, as_generator(SEED))
        program = kernel.program_batch(shifts, plan=plan)
        want = kernel.make_batched_machine(trials, 3).run(program).time_units
        monkeypatch.setattr(batched, "_BLOCK_ADDRESSES", budget)
        got = kernel.make_batched_machine(trials, 3).time(program)
        assert got.dtype == np.int64 and got.shape == (trials,)
        assert np.array_equal(got, want)
        assert got.tolist() == _scalar_times(make_kernel, family, shifts, 3)

    @staticmethod
    def _count_rows(monkeypatch):
        import repro.dmm.batched as batched

        rows = []
        count = batched.max_run_lengths

        def counted(keys):
            rows.append(len(keys))
            return count(keys)

        monkeypatch.setattr(batched, "max_run_lengths", counted)
        return rows

    @pytest.mark.parametrize("planned", [False, True])
    @pytest.mark.parametrize("app", ["fft", "sort", "stencil_row"])
    def test_every_dynamic_warp_is_one_row(self, monkeypatch, app, planned):
        from repro.analysis.plan import compile_plan

        kernel = build_app_program(app, RAWMapping(W), seed=SEED)
        plan = compile_plan(kernel, "RAS") if planned else None
        shifts = sample_shift_batch("RAS", W, TRIALS, as_generator(SEED))
        program = kernel.program_batch(shifts, plan=plan)
        rows = self._count_rows(monkeypatch)
        kernel.make_batched_machine(TRIALS).time(program)
        dynamic = sum(
            step.dynamic_warps.size
            for step in program.steps
            if step.dynamic_warps is not None
        )
        assert sum(rows) == TRIALS * dynamic

    def test_a_sweep_shard_takes_few_calls(self, monkeypatch):
        """A 13-trial sort shard at w=32, as ``app_time_sweep`` runs it:
        one kernel call per block of keys, not one per step."""
        import repro.dmm.batched as batched

        w, trials = 32, 13
        kernel = build_app_program("sort", RAWMapping(w), seed=SEED)
        program = kernel.program_batch(
            sample_shift_batch("RAP", w, trials, as_generator(SEED))
        )
        rows = self._count_rows(monkeypatch)
        kernel.make_batched_machine(trials).time(program)
        dynamic = [step.dynamic_warps.size for step in program.steps]
        keys = trials * sum(dynamic) * w
        assert sum(rows) * w == keys
        assert max(rows) * w <= batched._BLOCK_ADDRESSES
        assert len(rows) <= -(-keys // batched._BLOCK_ADDRESSES) + 1
        assert len(rows) < sum(1 for n in dynamic if n) // 2


# ---------------------------------------------------------------------------
# staging: the shift boundary, the memoized static half, streamed gathers
# ---------------------------------------------------------------------------


def _entry_points(kernel):
    """The three public staging boundaries, each as ``shifts -> times``."""
    from repro.analysis.plan import compile_plan

    def staged(shifts):
        program = kernel.program_batch(shifts)
        return kernel.make_batched_machine(program.trials).run(program).time_units

    plan = compile_plan(kernel, "RAS")
    return {
        "program_batch": staged,
        "run_batch": lambda s: kernel.run_batch(s).time_units,
        "run_plan": lambda s: kernel.run_plan(s, plan).time_units,
    }


class TestShiftBoundary:
    @pytest.fixture(scope="class")
    def fft(self):
        return build_app_program("fft", RAWMapping(W), seed=SEED)

    @pytest.mark.parametrize("entry", ["program_batch", "run_batch", "run_plan"])
    def test_float_shifts_are_a_type_error(self, fft, entry):
        # Once truncated to shift 0 and timed as RAW ([432 432] for fft).
        with pytest.raises(TypeError, match="shifts must be integers, got dtype float64"):
            _entry_points(fft)[entry](np.full((2, W), 0.9))

    @pytest.mark.parametrize("entry", ["program_batch", "run_batch", "run_plan"])
    def test_integer_array_likes_are_accepted(self, fft, entry):
        shifts = sample_shift_batch("RAS", W, 3, as_generator(SEED))
        run = _entry_points(fft)[entry]
        assert np.array_equal(run(shifts.tolist()), run(shifts))
        assert np.array_equal(run(shifts.astype(np.uint8)), run(shifts))

    @pytest.mark.parametrize("entry", ["program_batch", "run_batch", "run_plan"])
    @pytest.mark.parametrize("bad", [W, -1])
    def test_out_of_range_shifts_rejected(self, fft, entry, bad):
        shifts = np.zeros((2, W), dtype=np.int64)
        shifts[1, 3] = bad
        with pytest.raises(ValueError, match=rf"shifts must lie in \[0, {W}\)"):
            _entry_points(fft)[entry](shifts)

    @pytest.mark.parametrize("entry", ["program_batch", "run_batch", "run_plan"])
    def test_zero_trials_rejected(self, fft, entry):
        with pytest.raises(ValueError, match="at least one trial"):
            _entry_points(fft)[entry](np.zeros((0, W), dtype=np.int64))

    @pytest.mark.parametrize("shape", [(W,), (2, W + 1), (2, 1, W)])
    def test_wrong_shape_rejected(self, fft, shape):
        with pytest.raises(ValueError, match=rf"shifts must be \(trials, {W}\)"):
            fft.program_batch(np.zeros(shape, dtype=np.int64))

    def test_bool_shifts_are_not_integers(self, fft):
        with pytest.raises(TypeError, match="dtype bool"):
            fft.run_batch(np.zeros((2, W), dtype=bool))


class TestStaticStaging:
    def test_steps_are_a_tuple(self):
        kernel = build_app_program("sort", RAWMapping(W), seed=SEED)
        assert isinstance(kernel.steps, tuple)

    def test_static_half_is_computed_once_per_kernel(self, monkeypatch):
        from repro.analysis.plan import compile_plan
        from repro.gpu.kernel import SharedMemoryKernel

        calls = []
        stage_block = SharedMemoryKernel._stage_block

        def counted(self, step):
            calls.append(step)
            return stage_block(self, step)

        monkeypatch.setattr(SharedMemoryKernel, "_stage_block", counted)
        kernel = build_app_program("sort", RAWMapping(W), seed=SEED)
        rng = as_generator(SEED)
        for trials in (1, 3, 7, 2):
            kernel.program_batch(sample_shift_batch("RAS", W, trials, rng))
        plan = compile_plan(kernel, "RAP")
        kernel.run_plan(sample_shift_batch("RAP", W, 5, rng), plan)
        # One staging per distinct grid: sort revisits its grids.
        distinct = {step.grid_key for step in kernel.steps}
        assert len(distinct) < len(kernel.steps)
        staged = [step.grid_key for step in calls]
        assert len(staged) == len(distinct)
        assert set(staged) == distinct

    @pytest.mark.parametrize("mapping_name", MAPPING_NAMES)
    @pytest.mark.parametrize("app", sorted(BUILTIN_PROGRAMS))
    def test_reused_kernel_matches_a_fresh_one(self, app, mapping_name):
        """Runs on one kernel leave nothing behind: a later run is
        bit-identical to the same run on a freshly built kernel, with and
        without a plan (masked, immediate and duplicate-address steps
        included)."""
        from repro.analysis.plan import compile_plan

        rng = as_generator(SEED)
        warm = sample_shift_batch(mapping_name, W, TRIALS + 3, rng)
        shifts = sample_shift_batch(mapping_name, W, TRIALS, rng)
        reused = build_app_program(app, RAWMapping(W), seed=SEED)
        reused.run_batch(warm, latency=2)
        reused.run_plan(warm, compile_plan(reused, mapping_name), latency=2)
        for run in (
            lambda k: k.run_batch(shifts, latency=2),
            lambda k: k.run_plan(shifts, compile_plan(k, mapping_name), latency=2),
        ):
            fresh = run(build_app_program(app, RAWMapping(W), seed=SEED))
            again = run(reused)
            assert np.array_equal(again.time_units, fresh.time_units)
            for at, ft in zip(again.traces, fresh.traces):
                assert np.array_equal(at.congestions, ft.congestions)
            assert set(again.registers) == set(fresh.registers)
            for reg, values in fresh.registers.items():
                assert np.array_equal(again.registers[reg], values)
            assert np.array_equal(again.memory.store, fresh.memory.store)


class TestGatheredProgram:
    @pytest.fixture(scope="class")
    def staged(self):
        kernel = build_app_program("stencil_row", RAWMapping(W), seed=SEED)
        shifts = sample_shift_batch("RAP", W, TRIALS, as_generator(SEED))
        return kernel, kernel.program_batch(shifts)

    def test_max_address_comes_from_the_static_half(self, staged):
        kernel, program = staged
        p = W * W
        top = max(kernel.bases[step.array] for step in kernel.steps) + p - 1
        assert program.max_address() == top
        stride = program.flat_stride
        for instr in program:
            local = instr.addresses - np.arange(TRIALS)[:, None] * stride
            assert local[local != INACTIVE].max() <= top

    def test_instructions_gather_what_iteration_yields(self, staged):
        _, program = staged
        listed = program.instructions
        assert len(listed) == len(program) == len(program.steps)
        for a, b in zip(listed, program):
            assert a.op == b.op and a.register == b.register
            assert np.array_equal(a.addresses, b.addresses)
            assert a.addresses.shape == (TRIALS, W * W)

    def test_unpooled_steps_get_their_own_blocks(self, staged):
        _, program = staged
        blocks = [instr.addresses for instr in program]
        assert len({id(b) for b in blocks}) == len(blocks)

    def test_plan_pooled_steps_share_one_block(self):
        from repro.analysis.plan import compile_plan

        kernel = build_app_program("sort", RAWMapping(W), seed=SEED)
        plan = compile_plan(kernel, "RAP")
        shifts = sample_shift_batch("RAP", W, TRIALS, as_generator(SEED))
        listed = kernel.program_batch(shifts, plan=plan).instructions
        by_table: dict[int, set[int]] = {}
        for sp, instr in zip(plan.steps, listed):
            by_table.setdefault(sp.table, set()).add(id(instr.addresses))
        assert len(by_table) == plan.tables < len(listed)
        assert all(len(ids) == 1 for ids in by_table.values())


# ---------------------------------------------------------------------------
# engine + experiments wiring
# ---------------------------------------------------------------------------


class TestTrialBatchSharding:
    def test_results_identical_for_any_worker_count(self):
        from repro.sim.engine import MonteCarloEngine
        from repro.sim.experiments import _app_time_shard

        params = ("scan", "RAP", W, 1, True, SEED)
        with MonteCarloEngine(workers=1, cache=False) as serial, MonteCarloEngine(
            workers=3, cache=False
        ) as parallel:
            a = serial.map_trial_batches(_app_time_shard, params, 11, seed=42)
            b = parallel.map_trial_batches(_app_time_shard, params, 11, seed=42)
        assert np.array_equal(np.concatenate(a), np.concatenate(b))

    def test_shard_plan_concatenates_to_trials(self):
        from repro.sim.engine import MonteCarloEngine

        def sizes(params, n, rng):
            return np.full(n, params[0])

        chunks = MonteCarloEngine(cache=False).map_trial_batches(
            sizes, (1,), 11, seed=0
        )
        assert sum(c.size for c in chunks) == 11

    def test_app_sweep_builds_each_skeleton_once(self, monkeypatch):
        import repro.sim.experiments as experiments

        built = []
        build = experiments.build_app_program

        def counted(app, mapping, seed=None):
            built.append(app)
            return build(app, mapping, seed=seed)

        monkeypatch.setattr(experiments, "build_app_program", counted)
        experiments._app_skeleton.cache_clear()
        try:
            experiments.app_time_sweep(
                apps=("scan", "fft"), w=W, trials=11, seed=3
            )
        finally:
            experiments._app_skeleton.cache_clear()
        assert built == ["scan", "fft"]

    def test_app_time_sweep_batched_equals_scalar(self):
        from repro.sim.experiments import app_time_sweep

        batched = app_time_sweep(
            apps=("transpose_crsw",), mappings=("RAS", "RAP"), w=W,
            trials=9, seed=3,
        )
        scalar = app_time_sweep(
            apps=("transpose_crsw",), mappings=("RAS", "RAP"), w=W,
            trials=9, seed=3, batched=False,
        )
        for key, res in batched.items():
            assert np.array_equal(res.time_units, scalar[key].time_units)
            assert res.trials == 9
            assert res.mean_time == pytest.approx(res.time_units.mean())


class TestSweepArgumentsFailAtTheBoundary:
    """Deterministically bad arguments raise the shard's own one-line
    error at the call, and are never retried as shard faults."""

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            (dict(w=24), "mapping width must be a power of two, got 24"),
            (dict(latency=0), "latency must be >= 1, got 0"),
            (dict(apps=("nope",)), "unknown program 'nope'; expected one of"),
            (dict(mappings=("XOR",)), "unknown mapping 'XOR'; expected one of"),
        ],
    )
    def test_app_time_sweep(self, kwargs, message):
        from repro.sim.engine import MonteCarloEngine
        from repro.sim.experiments import app_time_sweep

        engine = MonteCarloEngine(cache=False)
        with pytest.raises(ValueError) as excinfo:
            app_time_sweep(trials=4, engine=engine, **kwargs)
        assert type(excinfo.value) is ValueError
        assert str(excinfo.value).startswith(message)
        assert "\n" not in str(excinfo.value)
        assert engine.collector.retries == []

    def test_table3(self):
        from repro.sim.engine import MonteCarloEngine
        from repro.sim.experiments import table3

        engine = MonteCarloEngine(cache=False)
        with pytest.raises(ValueError) as excinfo:
            table3(trials=2, latency=0, engine=engine)
        assert type(excinfo.value) is ValueError
        assert str(excinfo.value) == "latency must be >= 1, got 0"
        assert engine.collector.retries == []
        assert engine.collector.shards == []


# ---------------------------------------------------------------------------
# bench-dmm CLI
# ---------------------------------------------------------------------------


class TestBenchDmmCLI:
    def test_smoke_and_gate(self, capsys, tmp_path):
        import json

        from repro.cli import main

        out = tmp_path / "bench.json"
        code = main(
            [
                "bench-dmm", "--apps", "transpose_drdw", "--w", "8",
                "--trials", "4", "--repeats", "1",
                "--json", str(out), "--min-speedup", "0.0001",
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["mode"] == "batched"
        (entry,) = payload["rows"]
        assert entry["app"] == "transpose_drdw"
        assert (entry["baseline"], entry["candidate"]) == ("scalar", "batched")
        assert entry["speedup"] == pytest.approx(
            entry["baseline_s"] / entry["candidate_s"], rel=0.01
        )
        assert "speedup" in capsys.readouterr().out

    def test_floor_failure_exits_nonzero(self, capsys):
        from repro.cli import main

        code = main(
            [
                "bench-dmm", "--apps", "transpose_drdw", "--w", "8",
                "--trials", "4", "--repeats", "1", "--min-speedup", "1e9",
            ]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["--w", "0"], "argument --w:"),
            (["--w", "16", "-1"], "argument --w:"),
            (["--w", "12", "--apps", "fft"], "'fft'"),
            (["--w", "16", "12", "--apps", "stencil_row", "sort"], "'sort'"),
            (["--min-speedup", "nan"], "argument --min-speedup:"),
            (["--min-speedup", "inf"], "argument --min-speedup:"),
            (["--min-speedup", "0"], "argument --min-speedup:"),
            (["--min-speedup", "-2"], "argument --min-speedup:"),
            (["--min-speedup", "fast"], "argument --min-speedup:"),
            (["--repeats", "0"], "argument --repeats:"),
            (["--latency", "0"], "argument --latency:"),
        ],
    )
    def test_bad_width_is_a_usage_error(self, argv, needle, capsys):
        """Checked before any benchmark runs: exit 2, one error line
        naming the flag or the app, no traceback."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["bench-dmm", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = [ln for ln in err.splitlines() if "error:" in ln]
        assert needle in line


class TestBenchResultEdges:
    """Zero-duration and invalid-input behavior of BenchRow rates."""

    @staticmethod
    def _result(scalar_s, batched_s, trials=4):
        from repro.sim.bench import BenchRow

        return BenchRow(
            app="transpose_drdw", w=8, steps=2, trials=trials,
            baseline="scalar", candidate="batched",
            baseline_s=scalar_s, candidate_s=batched_s,
        )

    def test_zero_batched_duration_saturates_to_inf(self):
        import math

        r = self._result(scalar_s=0.5, batched_s=0.0)
        assert r.speedup == math.inf
        assert r.candidate_trials_per_s == math.inf
        assert r.baseline_trials_per_s == pytest.approx(8.0)

    def test_both_zero_durations_mean_no_measured_difference(self):
        import math

        r = self._result(scalar_s=0.0, batched_s=0.0)
        assert r.speedup == 1.0
        assert r.baseline_trials_per_s == math.inf
        assert r.candidate_trials_per_s == math.inf

    def test_zero_work_in_zero_time_is_zero_rate(self):
        r = self._result(scalar_s=0.0, batched_s=0.0, trials=0)
        assert r.baseline_trials_per_s == 0.0
        assert r.candidate_trials_per_s == 0.0

    def test_as_dict_stays_strict_json(self):
        import json

        r = self._result(scalar_s=0.5, batched_s=0.0)
        payload = r.as_dict()
        assert payload["speedup"] is None
        assert payload["candidate_trials_per_s"] is None
        assert payload["baseline_trials_per_s"] == pytest.approx(8.0)
        json.dumps(payload, allow_nan=False)  # no bare inf/nan leaks

    def test_ordinary_durations_unchanged(self):
        r = self._result(scalar_s=1.0, batched_s=0.25)
        assert r.speedup == pytest.approx(4.0)
        assert r.as_dict()["speedup"] == pytest.approx(4.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1])
    def test_nonfinite_or_negative_durations_rejected(self, bad):
        with pytest.raises(ValueError, match="finite non-negative"):
            self._result(scalar_s=bad, batched_s=0.5)
        with pytest.raises(ValueError, match="finite non-negative"):
            self._result(scalar_s=0.5, batched_s=bad)

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            self._result(scalar_s=0.5, batched_s=0.5, trials=-1)

    def test_untimed_candidate_has_no_speedup_or_rate(self):
        import json

        r = self._result(scalar_s=0.5, batched_s=None)
        assert r.speedup is None and r.candidate_trials_per_s is None
        payload = r.as_dict()
        assert payload["candidate_s"] is None and payload["speedup"] is None
        json.dumps(payload, allow_nan=False)


class TestBenchLoop:
    """The one timing loop behind every ``bench-dmm`` mode."""

    @staticmethod
    def _mode(baseline, *candidates):
        from repro.sim.bench import Mode

        return Mode("stub", baseline, candidates, ("transpose_drdw",), True)

    @staticmethod
    def _stub(name, clock, cost, times=(3, 3, 3, 3)):
        """A path that records its calls and advances the fake clock by
        ``cost[0]`` on its first call (a one-time cost), ``cost[1]`` after."""
        import numpy as np

        from repro.sim.bench import Path

        calls = []

        def run(case):
            calls.append(case)
            clock[0] += cost[0] if len(calls) == 1 else cost[1]
            return np.array(times), None

        return Path(name, run), calls

    def test_first_call_is_an_untimed_warm_up(self, monkeypatch):
        from repro.sim import bench

        clock = [0.0]
        monkeypatch.setattr(bench, "perf_counter", lambda: clock[0])
        base, base_calls = self._stub("base", clock, (100.0, 2.0))
        cand, cand_calls = self._stub("cand", clock, (100.0, 1.0))
        (row,) = bench.bench_app(
            "transpose_drdw", self._mode(base, cand), w=8, trials=4, repeats=3
        )
        # one warm-up plus three timed calls each; the warm-up's one-time
        # cost never reaches the reported best-of time.
        assert len(base_calls) == len(cand_calls) == 4
        assert (row.baseline_s, row.candidate_s, row.speedup) == (2.0, 1.0, 2.0)
        assert all(c.shifts.shape == (4, 8) for c in base_calls + cand_calls)

    @pytest.mark.parametrize("slow_from", [1, 2, 3, 4, 5])
    def test_a_slow_spell_does_not_skew_the_ratio(self, monkeypatch, slow_from):
        """The host runs 3x slower for four consecutive calls, the length
        of one path's warm-up plus repeats; wherever that spell falls,
        each path keeps one fast timed run, so the ratio stays 2."""
        import numpy as np

        from repro.sim import bench

        clock, calls = [0.0], []
        monkeypatch.setattr(bench, "perf_counter", lambda: clock[0])

        def path(name, cost):
            def run(case):
                slow = slow_from <= len(calls) < slow_from + 4
                calls.append(name)
                clock[0] += cost * (3.0 if slow else 1.0)
                return np.array([3, 3, 3, 3]), None

            return bench.Path(name, run)

        mode = self._mode(path("base", 2.0), path("cand", 1.0))
        (row,) = bench.bench_app("transpose_drdw", mode, w=8, trials=4, repeats=3)
        assert (row.baseline_s, row.candidate_s, row.speedup) == (2.0, 1.0, 2.0)
        assert calls == ["base", "cand"] * 4

    def test_disagreement_is_an_error(self, monkeypatch):
        from repro.sim import bench

        clock = [0.0]
        base, _ = self._stub("base", clock, (1.0, 1.0))
        cand, _ = self._stub("cand", clock, (1.0, 1.0), times=(3, 3, 3, 4))
        with pytest.raises(AssertionError, match="cand disagrees with base"):
            bench.bench_app("transpose_drdw", self._mode(base, cand), w=8, trials=4)

    def test_unrunnable_candidate_is_reported_not_timed(self):
        from repro.sim import bench

        clock = [0.0]
        base, _ = self._stub("base", clock, (1.0, 1.0))
        missing = bench.Path("plan:missing", None, available=False, note="not here")
        (row,) = bench.bench_app(
            "transpose_drdw", self._mode(base, missing), w=8, trials=4, repeats=1
        )
        assert row.candidate_s is None and not row.available
        assert row.note == "not here"

    def test_gate_skips_unavailable_rows_and_fails_slow_ones(self, capsys):
        from repro.sim.bench import BenchRow, gate

        def row(candidate_s, available=True):
            return BenchRow(
                "fft", 8, 52, 10, "plan:numpy", "plan:numba", 1.0, candidate_s,
                available=available, note=None if available else "fell back",
            )

        assert gate([row(0.25), row(None, False), row(2.0, False)], 2.0) == 0
        err = capsys.readouterr().err
        assert "gate skipped for 2 row(s)" in err and "FAIL" not in err
        assert gate([row(0.25), row(0.8), row(None, False)], 2.0) == 1
        err = capsys.readouterr().err
        (fail,) = [ln for ln in err.splitlines() if ln.startswith("FAIL")]
        assert "plan:numba speedup 1.2x < required 2.0x" in fail
