"""Tests for the pluggable plan-execution backends.

Two load-bearing contracts:

* **Selection never surprises**: the registry resolves names,
  ``auto`` picks the fastest available backend, and an explicitly
  requested backend that cannot run here degrades gracefully to numpy
  with an explanatory note — never an exception.
* **Every backend is bit-identical** to the scalar machine: per-step
  congestion tuples, dispatch sets, timing, final registers, final
  memory.  The numba backend's kernels are additionally pinned to the
  numpy primitives one by one, with the plain-python kernel set, so
  the logic is exercised even in environments without numba.
"""

import numpy as np
import pytest

from repro.analysis.plan import (
    PLAN_FAMILIES,
    compile_plan,
    run_compiled,
    stage_compiled,
)
from repro.apps import build_app_program
from repro.core.mappings import RAWMapping, mapping_from_shifts, sample_shift_batch
from repro.dmm.backends import (
    AUTO_ORDER,
    BACKEND_CHOICES,
    BackendUnavailable,
    NumbaBackend,
    NumpyBackend,
    Resolution,
    available_backends,
    backend_names,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.dmm.backends.kernels import PYTHON_KERNELS, load_kernels
from repro.dmm.batched import warp_congestion_block
from repro.util.rng import as_generator

W = 8
TRIALS = 4
SEED = 123

#: residual-heavy apps: the backend's hot primitives actually run.
BACKEND_APPS = ("fft", "sort", "gather")


def _python_numba_backend():
    return NumbaBackend(kernels=dict(PYTHON_KERNELS))


def _run_plan_on(app, family, backend, latency=4):
    shifts = sample_shift_batch(family, W, TRIALS, as_generator(SEED))
    kernel = build_app_program(app, RAWMapping(W), seed=SEED)
    plan = compile_plan(kernel, family, app)
    return kernel.run_plan(shifts, plan, latency=latency, backend=backend), shifts


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


class _StubBackend:
    """An always-unavailable backend for registry tests."""

    name = "stub"

    def available(self):
        return False

    def unavailable_reason(self):
        return "stub is never available"

    def stage(self, machine, program):  # pragma: no cover - never staged
        raise AssertionError("stub cannot stage")

    def execute(self, staged):  # pragma: no cover - never executed
        raise AssertionError("stub cannot execute")


# ---------------------------------------------------------------------------
# registry and resolution
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert backend_names() == ("numpy", "numba")
        assert BACKEND_CHOICES == ("auto", "numpy", "numba")
        assert set(AUTO_ORDER) == set(backend_names())

    def test_numpy_always_available(self):
        assert "numpy" in available_backends()
        assert get_backend("numpy").available()
        assert get_backend("numpy").unavailable_reason() is None

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError, match="unknown backend 'tpu'"):
            get_backend("tpu")
        with pytest.raises(KeyError, match="unknown backend"):
            resolve_backend("tpu")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend(NumpyBackend())

    def test_stub_registration_roundtrip(self):
        from repro.dmm import backends as reg

        stub = _StubBackend()
        register_backend(stub)
        try:
            assert get_backend("stub") is stub
            assert "stub" not in available_backends()
        finally:
            del reg._REGISTRY["stub"]
        with pytest.raises(KeyError):
            get_backend("stub")


class TestResolution:
    def test_none_is_auto(self):
        r = resolve_backend(None)
        assert r.requested == "auto"
        assert r.backend.available()
        assert not r.fell_back

    def test_auto_picks_first_available_in_order(self):
        r = resolve_backend("auto")
        expected = next(
            name for name in AUTO_ORDER if get_backend(name).available()
        )
        assert r.backend.name == expected
        assert not r.fell_back

    def test_instance_passthrough(self):
        nb = _python_numba_backend()
        r = resolve_backend(nb)
        assert r.backend is nb
        assert r.note is None
        assert not r.fell_back

    def test_numpy_resolves_to_itself(self):
        r = resolve_backend("numpy")
        assert r.backend.name == "numpy"
        assert r.note is None
        assert not r.fell_back

    def test_unavailable_backend_falls_back_to_numpy(self):
        from repro.dmm import backends as reg

        register_backend(_StubBackend())
        try:
            r = resolve_backend("stub")
        finally:
            del reg._REGISTRY["stub"]
        assert r.backend.name == "numpy"
        assert r.fell_back
        assert "stub" in r.note and "falling back to numpy" in r.note
        assert "stub is never available" in r.note

    def test_resolution_dataclass_fields(self):
        r = Resolution(backend=get_backend("numpy"), requested="numpy")
        assert not r.fell_back
        r2 = Resolution(backend=get_backend("numpy"), requested="numba")
        assert r2.fell_back


# ---------------------------------------------------------------------------
# kernel-by-kernel equivalence against the numpy primitives
# ---------------------------------------------------------------------------


class TestKernelEquivalence:
    def _bank_keys(self, rng, warps):
        # Per-lane keys as program_batch stages them: bank in [0, w)
        # for active lanes, unique sentinel w + lane for inactive ones.
        keys = rng.integers(0, W, size=(warps, W))
        inactive = rng.random((warps, W)) < 0.3
        lane = np.arange(W)
        return np.where(inactive, W + lane[None, :], keys).astype(np.int64)

    def test_hist_congestion_matches_sorted_runs(self):
        rng = as_generator(7)
        keys = self._bank_keys(rng, 60)
        out = np.empty(keys.shape[0], dtype=np.int64)
        PYTHON_KERNELS["hist_congestion"](keys, W, out)
        assert np.array_equal(out, warp_congestion_block(keys.ravel(), W))

    def test_hist_congestion_all_sentinel_row(self):
        keys = (W + np.arange(W, dtype=np.int64))[None, :]
        out = np.empty(1, dtype=np.int64)
        PYTHON_KERNELS["hist_congestion"](keys, W, out)
        assert out.tolist() == [1]
        assert warp_congestion_block(keys.ravel(), W).tolist() == [1]

    def test_gather_flat_matches_fancy_indexing_with_negatives(self):
        rng = as_generator(8)
        store = rng.random(TRIALS * 10)
        idx = rng.integers(0, store.size, size=(TRIALS, 12))
        idx[0, 3] = -1  # INACTIVE passthrough wraps like numpy's
        out = np.empty(idx.shape, dtype=store.dtype)
        PYTHON_KERNELS["gather_flat"](store, idx, out)
        assert np.array_equal(out, store[idx])

    def test_scatter_flat_is_last_lane_wins(self):
        rng = as_generator(10)
        size = TRIALS * 10
        idx = rng.integers(0, size, size=(TRIALS, 16))  # dense duplicates
        values = rng.random((TRIALS, 16))
        ref = np.zeros(size)
        ref[idx] = values  # numpy CRCW: last occurrence wins
        got = np.zeros(size)
        PYTHON_KERNELS["scatter_flat"](got, idx, values)
        assert np.array_equal(got, ref)

    def test_scatter_row_variants_broadcast_one_row(self):
        rng = as_generator(11)
        stride = 9
        size = TRIALS * stride
        addr = rng.integers(0, stride - 1, size=(TRIALS, 5))
        row = rng.random(5)
        offsets = (np.arange(TRIALS) * stride)[:, None]
        ref = np.zeros(size)
        ref[addr + offsets] = np.broadcast_to(row, addr.shape)
        got_flat = np.zeros(size)
        PYTHON_KERNELS["scatter_flat_row"](got_flat, addr + offsets, row)
        assert np.array_equal(got_flat, ref)

    def test_masked_assign_matches_copyto(self):
        rng = as_generator(12)
        reg = rng.random((TRIALS, 10))
        values = rng.random((TRIALS, 10))
        row_mask = rng.random(10) < 0.5
        ref_row = reg.copy()
        np.copyto(ref_row, values, where=row_mask)
        got_row = reg.copy()
        PYTHON_KERNELS["masked_assign_row"](got_row, values, row_mask)
        assert np.array_equal(got_row, ref_row)

    def test_load_kernels_python_fallback(self):
        kernels = load_kernels(jit=False)
        assert set(kernels) == set(PYTHON_KERNELS) == {
            "hist_congestion",
            "gather_flat",
            "scatter_flat",
            "scatter_flat_row",
            "masked_assign_row",
        }


# ---------------------------------------------------------------------------
# the exactness contract, per backend
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", PLAN_FAMILIES)
@pytest.mark.parametrize("app", BACKEND_APPS)
def test_python_kernel_numba_backend_matches_scalar(app, family):
    """The numba backend's full logic (python kernels) vs the scalar
    machine: congestions, dispatch, timing, registers, memory."""
    res, shifts = _run_plan_on(app, family, _python_numba_backend())
    for t in range(TRIALS):
        mapping = mapping_from_shifts(family, shifts[t])
        scalar_kernel = build_app_program(app, mapping, seed=SEED)
        machine = scalar_kernel.make_machine(latency=4)
        scalar_result = machine.run(scalar_kernel.program())
        _assert_trial_matches(res, t, scalar_result, machine)


@pytest.mark.parametrize("name", ["numba"])
@pytest.mark.parametrize("family", PLAN_FAMILIES)
def test_real_backend_matches_numpy_reference(name, family):
    """Real numba (when installed): identical results to numpy."""
    backend = get_backend(name)
    if not backend.available():
        pytest.skip(f"{name} unavailable: {backend.unavailable_reason()}")
    for app in BACKEND_APPS:
        ref, _ = _run_plan_on(app, family, "numpy")
        res, _ = _run_plan_on(app, family, backend)
        assert np.array_equal(ref.time_units, res.time_units)
        for rt, bt in zip(ref.traces, res.traces):
            assert np.array_equal(rt.congestions, bt.congestions)
            assert np.array_equal(rt.time_units, bt.time_units)
        assert set(ref.registers) == set(res.registers)
        for reg in ref.registers:
            assert np.array_equal(ref.registers[reg], res.registers[reg])
        assert np.array_equal(ref.memory.store, res.memory.store)


def test_numpy_backend_is_default_path():
    """execute_plan(backend="numpy") is the same computation as the
    default (backend=None) path."""
    for app in ("fft", "shearsort"):
        ref, _ = _run_plan_on(app, "RAP", None)
        res, _ = _run_plan_on(app, "RAP", "numpy")
        assert np.array_equal(ref.time_units, res.time_units)
        for rt, bt in zip(ref.traces, res.traces):
            assert np.array_equal(rt.congestions, bt.congestions)
        assert np.array_equal(ref.memory.store, res.memory.store)


def test_unavailable_request_still_executes_via_fallback():
    """A named-but-unavailable backend must not break execution."""
    res, _ = _run_plan_on("gather", "RAP", "numba")
    ref, _ = _run_plan_on("gather", "RAP", None)
    assert np.array_equal(ref.time_units, res.time_units)


# ---------------------------------------------------------------------------
# stage/execute contract
# ---------------------------------------------------------------------------


class TestStageExecuteContract:
    def _staged(self, backend):
        shifts = sample_shift_batch("RAP", W, TRIALS, as_generator(SEED))
        kernel = build_app_program("gather", RAWMapping(W), seed=SEED)
        plan = compile_plan(kernel, "RAP", "gather")
        machine = kernel.make_batched_machine(TRIALS, 1)
        return backend.stage(machine, kernel.program_batch(shifts, plan=plan))

    def test_cross_backend_execute_rejected(self):
        numpy_backend = get_backend("numpy")
        staged = self._staged(numpy_backend)
        nb = _python_numba_backend()
        with pytest.raises(ValueError, match="belongs to backend 'numpy'"):
            nb.execute(staged)

    def test_stage_validates_program(self):
        from repro.dmm.batched import BatchedDMM

        shifts = sample_shift_batch("RAP", W, TRIALS, as_generator(SEED))
        kernel = build_app_program("gather", RAWMapping(W), seed=SEED)
        wrong = BatchedDMM(W, latency=1, memory_size=4, trials=TRIALS)
        with pytest.raises(IndexError, match="memory size"):
            get_backend("numpy").stage(wrong, kernel.program_batch(shifts))

    def test_numba_stage_without_numba_raises(self):
        backend = NumbaBackend()  # no injected kernels
        if backend.available():
            pytest.skip("numba is installed here")
        with pytest.raises(BackendUnavailable, match="numba backend cannot stage"):
            self._staged(backend)

    def test_staged_plan_reexecutes(self):
        """Staging once and executing twice is legal and idempotent in
        timing (memory effects replay on the same machine)."""
        nb = _python_numba_backend()
        staged = self._staged(nb)
        first = nb.execute(staged)
        second = nb.execute(staged)
        assert np.array_equal(first.time_units, second.time_units)


# ---------------------------------------------------------------------------
# the plan.py staging handoff
# ---------------------------------------------------------------------------


class TestStagingHandoff:
    def test_stage_compiled_returns_resolution_and_staged(self):
        shifts = sample_shift_batch("RAP", W, TRIALS, as_generator(SEED))
        kernel = build_app_program("fft", RAWMapping(W), seed=SEED)
        plan = compile_plan(kernel, "RAP", "fft")
        resolution, staged = stage_compiled(kernel, shifts, plan, backend="numpy")
        assert resolution.backend.name == "numpy"
        assert staged.backend == "numpy"
        res = resolution.backend.execute(staged)
        ref = kernel.run_plan(shifts, plan)
        assert np.array_equal(res.time_units, ref.time_units)

    def test_run_compiled_auto_matches_reference(self):
        shifts = sample_shift_batch("RAS", W, TRIALS, as_generator(SEED))
        kernel = build_app_program("sort", RAWMapping(W), seed=SEED)
        plan = compile_plan(kernel, "RAS", "sort")
        res = run_compiled(kernel, shifts, plan)
        ref = kernel.run_plan(shifts, plan)
        assert np.array_equal(res.time_units, ref.time_units)

    def test_stage_compiled_rejects_foreign_family_draw(self):
        kernel = build_app_program("fft", RAWMapping(W), seed=SEED)
        plan = compile_plan(kernel, "RAW", "fft")
        ras = sample_shift_batch("RAS", W, TRIALS, as_generator(SEED))
        with pytest.raises(ValueError, match="RAW"):
            stage_compiled(kernel, ras, plan)

    def test_stage_compiled_rejects_width_mismatch(self):
        kernel = build_app_program("fft", RAWMapping(W), seed=SEED)
        plan = compile_plan(kernel, "RAP", "fft")
        other = build_app_program("fft", RAWMapping(16), seed=SEED)
        shifts = sample_shift_batch("RAP", 16, TRIALS, as_generator(SEED))
        with pytest.raises(ValueError, match="compiled at w=8"):
            stage_compiled(other, shifts, plan)


# ---------------------------------------------------------------------------
# bench CLI integration
# ---------------------------------------------------------------------------


class TestBackendBenchCLI:
    def test_backend_requires_plan(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["bench-dmm", "--backend", "numba", "--apps", "fft", "--w", "8"])

    def test_backend_and_compare_mutually_exclusive(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(
                [
                    "bench-dmm", "--plan", "--backend", "numba",
                    "--compare-backends",
                ]
            )

    def test_backend_gate_passes_via_fallback_or_speedup(self, capsys, tmp_path):
        """The CI command shape: in a bare env the gate is skipped with
        a warning (exit 0); with numba installed the floor applies."""
        import json

        from repro.cli import main

        out = tmp_path / "backend.json"
        argv = [
            "bench-dmm", "--plan", "--backend", "numba", "--apps", "fft",
            "--w", "8", "--trials", "4", "--repeats", "1",
            "--json", str(out), "--min-speedup", "0.0001",
        ]
        assert main(argv) == 0
        payload = json.loads(out.read_text())
        assert payload["mode"] == "plan-backend"
        (entry,) = payload["rows"]
        assert entry["app"] == "fft"
        assert (entry["baseline"], entry["candidate"]) == ("plan:numpy", "plan:numba")
        numba_here = get_backend("numba").available()
        assert entry["available"] == numba_here
        assert entry["candidate_s"] is not None  # a fallback is still timed
        err = capsys.readouterr().err
        if not numba_here:
            assert "falling back to numpy" in err
            assert "gate skipped" in err

    def test_compare_backends_smoke(self, capsys, tmp_path):
        import json

        from repro.cli import main

        out = tmp_path / "compare.json"
        argv = [
            "bench-dmm", "--plan", "--compare-backends", "--apps", "gather",
            "--w", "8", "--trials", "4", "--repeats", "1", "--json", str(out),
        ]
        assert main(argv) == 0
        payload = json.loads(out.read_text())
        assert payload["mode"] == "backend-compare"
        rows = payload["rows"]
        assert {r["baseline"] for r in rows} == {"plan:numpy"}
        backends_seen = {"numpy"} | {r["candidate"].split(":")[1] for r in rows}
        assert backends_seen == set(backend_names())
        assert all(r["baseline_s"] is not None for r in rows)
        for row in rows:
            name = row["candidate"].split(":")[1]
            assert row["available"] == get_backend(name).available()
            if not row["available"]:
                assert row["candidate_s"] is None and row["speedup"] is None
                assert row["note"]
        assert "plan:numpy" in capsys.readouterr().out

    def test_multi_width_results_keyed_by_width(self, tmp_path):
        import json

        from repro.cli import main

        out = tmp_path / "widths.json"
        argv = [
            "bench-dmm", "--plan", "--apps", "gather", "--w", "8", "16",
            "--trials", "4", "--repeats", "1", "--json", str(out),
        ]
        assert main(argv) == 0
        payload = json.loads(out.read_text())
        assert payload["widths"] == [8, 16]
        assert [(r["app"], r["w"]) for r in payload["rows"]] == [
            ("gather", 8), ("gather", 16),
        ]
