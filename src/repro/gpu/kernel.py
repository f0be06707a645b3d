"""Shared-memory kernel abstraction — CUDA-block-shaped programs.

A :class:`SharedMemoryKernel` is the library's stand-in for a CUDA
kernel operating on matrices in one streaming multiprocessor's shared
memory: a grid of ``p = w^2`` threads, named matrices laid out under
one address mapping, and a straight-line list of logical read/write
steps.  It compiles to a :class:`~repro.dmm.trace.MemoryProgram`, runs
on the cycle-accurate DMM, and feeds the
:class:`~repro.gpu.timing.GPUTimingModel` to produce a nanosecond
estimate — the full Table III path, but open to *user-defined* access
patterns too (see ``examples/custom_kernel.py``).

This is where a downstream user gets the paper's punchline as an API:
write your kernel against logical indices, pick
``mapping="RAP"``, and bank conflicts are handled for you.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

import numpy as np
import numpy.typing as npt

from repro.core.mappings import AddressMapping, mapping_by_name
from repro.dmm.batched import (
    BatchedDMM,
    BatchedExecutionResult,
    BatchedProgram,
    StaticInstruction,
    TimingLayout,
)
from repro.dmm.machine import DiscreteMemoryMachine, ExecutionResult
from repro.dmm.trace import INACTIVE, MemoryProgram, read, write
from repro.dmm.warp import duplicate_lanes, warp_classes, warp_count
from repro.gpu.timing import GPUTimingModel
from repro.util.rng import SeedLike

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.absint import CosetRecipe
    from repro.analysis.plan import CompiledPlan
    from repro.analysis.verify import VerificationReport
    from repro.dmm.backends import PlanBackend

__all__ = [
    "KernelStep",
    "KernelReport",
    "SharedMemoryKernel",
    "check_shifts",
    "transpose_kernel",
]


def check_shifts(shifts: "npt.ArrayLike", w: int) -> np.ndarray:
    """``shifts`` as a contiguous int64 ``(T, w)`` matrix with ``T >= 1``.

    Accepts any integer array-like (nested lists included).  Raises a
    one-line :class:`TypeError` for non-integer entries — a float draw
    would otherwise be truncated silently — and :class:`ValueError`
    for a wrong shape, zero trials, or a shift outside ``[0, w)``.
    """
    arr = np.asarray(shifts)
    if not np.issubdtype(arr.dtype, np.integer):
        raise TypeError(f"shifts must be integers, got dtype {arr.dtype}")
    if arr.ndim != 2 or arr.shape[1] != w:
        raise ValueError(f"shifts must be (trials, {w}), got {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError("shifts must hold at least one trial, got 0")
    if ((arr < 0) | (arr >= w)).any():
        raise ValueError(f"shifts must lie in [0, {w})")
    return np.ascontiguousarray(arr, dtype=np.int64)


def _sentinels(w: int) -> np.ndarray:
    """Per-lane congestion sentinels ``w + lane mod w``, in ``[w, 2w)``."""
    return w + np.arange(w * w, dtype=np.int64) % w


@dataclass(frozen=True)
class KernelStep:
    """One SIMD step: every thread reads or writes one logical element.

    Attributes
    ----------
    op:
        ``"read"`` or ``"write"``.
    array:
        Name of the shared-memory matrix this step touches.
    ii, jj:
        ``(w, w)`` logical index grids — axis 0 is the warp, axis 1 the
        lane (same convention as :mod:`repro.access.patterns`).  All
        entries must lie in ``[0, w)``; out-of-range grids are rejected
        here, at construction, instead of failing deep inside address
        mapping or DMM execution.
    register:
        Per-thread register carrying the value between steps.
    mask:
        Optional ``(w, w)`` boolean grid of active lanes; masked-out
        lanes compile to the :data:`~repro.dmm.trace.INACTIVE` sentinel
        (index values under a ``False`` mask entry are ignored).
    immediate:
        Writes only: the written values are computed host-side between
        steps rather than taken from ``register`` (the value itself is
        irrelevant to the DMM cost model, so the access skeleton stays
        statically analysable).  Immediate steps compile with distinct
        per-lane sentinel values, so the static race check stays sound.
    """

    op: str
    array: str
    ii: np.ndarray
    jj: np.ndarray
    register: str = "r0"
    mask: Optional[np.ndarray] = None
    immediate: bool = False

    def __post_init__(self) -> None:
        if self.op not in ("read", "write"):
            raise ValueError(f"op must be 'read' or 'write', got {self.op!r}")
        label = f"KernelStep({self.op} {self.array!r})"
        ii = np.ascontiguousarray(self.ii, dtype=np.int64)
        jj = np.ascontiguousarray(self.jj, dtype=np.int64)
        if ii.shape != jj.shape or ii.ndim != 2:
            raise ValueError(
                f"{label}: ii/jj must be matching 2-D grids, "
                f"got {ii.shape} and {jj.shape}"
            )
        if ii.shape[0] != ii.shape[1]:
            raise ValueError(
                f"{label}: index grids must be square (w, w), got {ii.shape}"
            )
        w = ii.shape[0]
        mask = self.mask
        if mask is not None:
            mask = np.ascontiguousarray(mask, dtype=bool)
            if mask.shape != ii.shape:
                raise ValueError(
                    f"{label}: mask shape {mask.shape} must match the "
                    f"index grids {ii.shape}"
                )
            if mask.all():
                mask = None  # a full mask is no mask
        live = mask if mask is not None else slice(None)
        for name, grid in (("ii", ii), ("jj", jj)):
            vals = grid[live]
            if vals.size and ((vals < 0) | (vals >= w)).any():
                bad = int(vals[(vals < 0) | (vals >= w)][0])
                raise ValueError(
                    f"{label}: {name} entries must lie in [0, {w}), "
                    f"found {bad}"
                )
        if self.immediate and self.op != "write":
            raise ValueError(f"{label}: immediate=True is only valid for writes")
        object.__setattr__(self, "ii", ii)
        object.__setattr__(self, "jj", jj)
        object.__setattr__(self, "mask", mask)

    @property
    def w(self) -> int:
        """Grid side length (warp width the step was built for)."""
        return self.ii.shape[0]

    @property
    def grid_key(self) -> tuple:
        """Hashable identity of the elements the step touches: its
        array, index grids and mask.  Steps with equal keys address the
        same words under every mapping, so they share one staging and
        one plan address table."""
        return (
            self.array,
            self.ii.tobytes(),
            self.jj.tobytes(),
            None if self.mask is None else self.mask.tobytes(),
        )

    @classmethod
    def from_positions(
        cls,
        op: str,
        array: str,
        positions: np.ndarray,
        w: int,
        register: str = "r0",
        immediate: bool = False,
    ) -> "KernelStep":
        """Lift flat logical positions into a ``(w, w)`` step.

        ``positions`` holds up to ``w^2`` row-major element positions in
        ``[0, w^2)`` — thread ``t`` touches element
        ``(positions[t] // w, positions[t] % w)``.  Entries of ``-1``
        mark inactive lanes, and short vectors are padded with inactive
        lanes, mirroring how the app kernels pad partial steps.
        """
        positions = np.asarray(positions, dtype=np.int64).ravel()
        p = w * w
        if positions.size > p:
            raise ValueError(
                f"KernelStep({op} {array!r}): {positions.size} positions "
                f"exceed the w^2 = {p} thread grid"
            )
        full = np.full(p, -1, dtype=np.int64)
        full[: positions.size] = positions
        if (full < -1).any() or (full >= p).any():
            bad = int(full[(full < -1) | (full >= p)][0])
            raise ValueError(
                f"KernelStep({op} {array!r}): positions must lie in "
                f"[0, {p}) or be -1 (inactive), found {bad}"
            )
        mask = (full >= 0).reshape(w, w)
        safe = np.where(full >= 0, full, 0)
        return cls(
            op,
            array,
            (safe // w).reshape(w, w),
            (safe % w).reshape(w, w),
            register=register,
            mask=None if mask.all() else mask,
            immediate=immediate,
        )


@dataclass(frozen=True)
class KernelReport:
    """Everything measured from one kernel execution.

    Attributes
    ----------
    time_units:
        Exact DMM completion time (with the machine's latency).
    total_stages:
        Total pipeline stages occupied (the timing model's regressor).
    overhead_ops:
        Address-computation ALU ops implied by the mapping.
    predicted_ns:
        Timing-model estimate, if a model was supplied.
    execution:
        Full per-instruction machine trace.
    """

    time_units: int
    total_stages: int
    overhead_ops: int
    predicted_ns: Optional[float]
    execution: ExecutionResult


class SharedMemoryKernel:
    """A CUDA-like kernel over mapped shared-memory matrices.

    Parameters
    ----------
    w:
        Matrix side == warp width (``p = w^2`` threads).
    steps:
        The logical access steps, executed in order.
    arrays:
        Names of the shared matrices; each gets ``w^2`` words, packed
        consecutively in the address space in the order given.
    mapping:
        An :class:`~repro.core.mappings.AddressMapping` instance, or a
        name (``"RAW"``/``"RAS"``/``"RAP"``) to draw one.
    seed:
        Seed used when ``mapping`` is a name.
    inputs:
        Arrays assumed preloaded (via :meth:`load_array`) before the
        kernel runs; reads of anything else must be preceded by a
        write, or :meth:`verify` reports an uninitialized read.
        ``None`` (the default) infers the inputs: every array whose
        first access is a read is assumed preloaded.
    """

    def __init__(
        self,
        w: int,
        steps: Sequence[KernelStep],
        arrays: Sequence[str] = ("a", "b"),
        mapping: AddressMapping | str = "RAW",
        seed: SeedLike = None,
        inputs: Optional[Sequence[str]] = None,
    ) -> None:
        if isinstance(mapping, str):
            mapping = mapping_by_name(mapping, w, seed)
        if mapping.w != w:
            raise ValueError(f"mapping width {mapping.w} != kernel width {w}")
        self.w = w
        self.mapping = mapping
        self.arrays = tuple(arrays)
        if len(set(self.arrays)) != len(self.arrays):
            raise ValueError(f"duplicate array names in {self.arrays}")
        words = self.mapping.storage_words
        self.bases = {name: idx * words for idx, name in enumerate(self.arrays)}
        # A tuple: program_batch memoizes its static staging per kernel.
        self.steps = tuple(steps)
        for step in self.steps:
            self._check(step)
        self._static: Optional[
            tuple[tuple[StaticInstruction, ...], TimingLayout]
        ] = None
        if inputs is None:
            self.inputs = self._inferred_inputs()
        else:
            self.inputs = tuple(inputs)
            for name in self.inputs:
                if name not in self.bases:
                    raise ValueError(
                        f"input array {name!r} not declared; arrays: {self.arrays}"
                    )

    def _inferred_inputs(self) -> tuple[str, ...]:
        """Arrays whose first access is a read: assumed preloaded."""
        first_op: dict[str, str] = {}
        for step in self.steps:
            first_op.setdefault(step.array, step.op)
        return tuple(n for n in self.arrays if first_op.get(n) == "read")

    def _check(self, step: KernelStep) -> None:
        if step.array not in self.bases:
            raise ValueError(
                f"step touches unknown array {step.array!r}; declared: {self.arrays}"
            )
        if step.ii.shape != (self.w, self.w):
            raise ValueError(
                f"step index grids must be ({self.w}, {self.w}), got {step.ii.shape}"
            )

    # -- compilation / execution ----------------------------------------
    def program(self, verify: bool = False) -> MemoryProgram:
        """Compile the steps into a DMM memory program.

        With ``verify=True`` the sanitizer of
        :mod:`repro.analysis.verify` runs first and a
        :class:`~repro.analysis.verify.VerificationError` is raised if
        it reports any diagnostic — compile-time checking in place of
        an undefined run.
        """
        if verify:
            from repro.analysis.verify import VerificationError

            report = self.verify(certify=False)
            if not report.ok:
                raise VerificationError(report.sanitizer)
        p = self.w * self.w
        prog = MemoryProgram(p=p)
        for step in self.steps:
            addr = self.bases[step.array] + self.mapping.address(step.ii, step.jj)
            flat = addr.ravel()
            if step.mask is not None:
                flat = np.where(step.mask.ravel(), flat, INACTIVE)
            if step.op == "read":
                prog.append(read(flat, register=step.register))
            elif step.immediate:
                # Host-computed values are unknown statically; distinct
                # per-lane sentinels keep the CRCW race check sound.
                prog.append(write(flat, values=np.arange(p, dtype=np.float64)))
            else:
                prog.append(write(flat, register=step.register))
        return prog

    def program_batch(
        self, shifts: np.ndarray, plan: Optional[object] = None
    ) -> BatchedProgram:
        """Stage the kernel under ``T`` shift draws for the batched DMM.

        ``shifts`` is a ``(T, w)`` integer matrix (one
        :class:`~repro.core.mappings.ShiftedRowMapping` shift vector
        per trial, e.g. from
        :func:`~repro.core.mappings.sample_shift_batch`); trial ``t``
        is the kernel compiled under ``mapping_from_shifts(name,
        shifts[t])`` — the kernel's own mapping supplies only the array
        bases, which every shifted-row mapping shares.  Non-integer
        shifts raise :class:`TypeError`; shifts outside ``[0, w)`` or
        zero trials raise :class:`ValueError`.

        Staging has two halves:

        * a *static* half, computed on the first call and memoized on
          the kernel: each step's address-table columns, mask, CRCW
          duplicate-merge drop set, static congestions, dynamic warps
          and bank-key columns.  Whether two
          lanes of a warp collide on an *address* depends only on
          their logical indices (``i*w + (j+s) mod w`` is injective
          per trial), so the merge structure — and the sentinel at
          every merged or inactive lane — is the same for every draw;
        * a *per-draw* half: a ``(T, 2p)`` table of the banks
          ``(j + shifts[t, i]) mod w`` plus the lane sentinels (built
          only when some step counts bank keys), and a ``(T, p)``
          matrix of flat store indices from which the program builds a
          ``(T, p + 1)`` table per array on the first gather from it.

        The static half also yields the steps'
        :class:`~repro.dmm.batched.TimingLayout`, which
        :meth:`~repro.dmm.batched.BatchedDMM.time` counts congestion
        from.  The result is a :class:`~repro.dmm.batched.BatchedProgram`:
        each instruction's ``(T, p)`` address block and bank keys are
        gathered from the tables only as the executor reaches it, so a
        run holds one instruction's block at a time, and a time-only run
        gathers no address at all.

        With ``plan`` (a :class:`~repro.analysis.plan.CompiledPlan` or
        its step sequence, compiled from this kernel), the plan's
        verdicts are overlaid on the memoized static half, with two
        further wins:

        * steps the plan *resolved* carry the certified per-warp
          congestion vector and an empty dynamic-warp set — no
          duplicate-merge pass, no bank-key gather, and
          :meth:`~repro.dmm.batched.BatchedDMM.execute_plan` settles
          their timing in closed form; absint-resolved steps instead
          carry their :class:`~repro.analysis.absint.CosetRecipe`,
          evaluated per draw against ``shifts`` (one sort over rows,
          not addresses) as a pre-planned ``(T, n_warps)`` congestion
          matrix; and
        * steps sharing a plan ``table`` id (same array, same index
          grids, same mask) share one static staging and one planned
          matrix.

        ``shifts`` must be draws of the plan's family — that contract
        is checked by :meth:`run_plan`, not here.
        """
        shifts = check_shifts(shifts, self.w)
        trials = shifts.shape[0]
        w = self.w
        p = w * w
        steps, recipes, layout = self._static_staging(plan)
        # Row i of trial t is the rotation of range(w) by shifts[t, i]:
        # one row lookup in the (w, w) rotation table, no modulo.
        cols = np.arange(w, dtype=np.int64)
        banks = ((cols[:, None] + cols[None, :]) % w)[shifts].reshape(trials, p)
        key_table = None
        if any(s.key_columns is not None and s.key_columns.size for s in steps):
            # Bank values and sentinels both fit comfortably in int16
            # for any realistic width; the narrow dtype roughly halves
            # the cost of the executor's key sort.
            key_dtype = np.int16 if 2 * w <= np.iinfo(np.int16).max else np.int64  # repro: noqa[ADDR001]
            key_table = np.empty((trials, 2 * p), dtype=key_dtype)
            key_table[:, :p] = banks
            key_table[:, p:] = _sentinels(w)
        # The banks become flat store indices in place: each trial's
        # memory offset (stride of the machine make_batched_machine
        # builds) baked in, so an array's address table is one add of
        # its base, and a step's address block one gather from it.
        stride = len(self.arrays) * self.mapping.storage_words + 1
        flat = banks
        flat += (cols * w).repeat(w)  # lane (i, j): row base i*w
        flat += (np.arange(trials, dtype=np.int64) * stride)[:, None]
        # Coset recipes give every draw's per-warp congestion from the
        # shift vectors alone; pooled steps share one recipe, so one
        # evaluation each.
        evaluated: dict[int, np.ndarray] = {}
        planned = []
        for recipe in recipes:
            if recipe is not None and id(recipe) not in evaluated:
                evaluated[id(recipe)] = recipe.congestions(shifts)
            planned.append(None if recipe is None else evaluated[id(recipe)])
        bases = [self.bases[name] for name in self.arrays]
        return BatchedProgram(
            p, trials, steps, flat, bases, key_table, stride, planned, layout
        )

    def _static_staging(self, plan: Optional[object]) -> tuple[
        tuple[StaticInstruction, ...],
        tuple["Optional[CosetRecipe]", ...],
        Optional[TimingLayout],
    ]:
        """The draw-independent staging of every step, its recipes, and
        its timing layout (``None`` under a plan: the program builds its
        own if it is ever timed).

        Each distinct grid's plan-free staging (steps of one
        :attr:`KernelStep.grid_key` share it) and the kernel's layout
        are computed once per kernel and memoized (``steps`` is a tuple,
        so they cannot go stale).  A plan only overlays its verdicts on
        it: resolved steps take the certified congestion vector, coset
        steps their recipe, and steps of one pooled ``table`` share the
        first member's staging.
        """
        if self._static is None:
            blocks: dict[tuple, dict] = {}
            staged = []
            for step in self.steps:
                key = step.grid_key
                if key not in blocks:
                    blocks[key] = self._stage_block(step)
                staged.append(self._static_instruction(step, blocks[key]))
            self._static = (tuple(staged), TimingLayout.of(staged))
        static, layout = self._static
        if plan is None:
            return static, (None,) * len(static), layout
        plan_steps = tuple(getattr(plan, "steps", plan))
        if len(plan_steps) != len(self.steps):
            raise ValueError(
                f"plan has {len(plan_steps)} steps, kernel has "
                f"{len(self.steps)}"
            )
        pooled: dict[int, tuple[dict, "Optional[CosetRecipe]"]] = {}
        steps = []
        recipes = []
        for step_idx, (step, sp) in enumerate(zip(self.steps, plan_steps)):
            if sp.op != step.op or sp.array != step.array:
                raise ValueError(
                    f"plan step {step_idx} is {sp.op} {sp.array!r}, kernel "
                    f"step is {step.op} {step.array!r} — plan was compiled "
                    "from a different kernel"
                )
            if sp.table not in pooled:
                own = static[step_idx]
                block = {
                    "table": own.table,
                    "columns": own.columns,
                    "mask": own.mask,
                    "static_congestions": own.static_congestions,
                    "dynamic_warps": own.dynamic_warps,
                    "key_columns": own.key_columns,
                }
                if sp.congestions is not None:
                    # The plan certified this step's per-warp congestion
                    # for every draw of the family: no bank keys, and
                    # the executor never counts.
                    block["static_congestions"] = np.ascontiguousarray(
                        sp.congestions, dtype=np.int64
                    )
                    block["dynamic_warps"] = np.empty(0, dtype=np.int64)
                    block["key_columns"] = np.empty(0, dtype=np.int64)
                elif sp.recipe is not None:
                    # Absint-resolved: the coset closed form gives every
                    # trial's per-warp congestion from the shift vectors
                    # alone — no bank keys, no address replay.
                    block["static_congestions"] = None
                    block["dynamic_warps"] = None
                    block["key_columns"] = None
                pooled[sp.table] = (block, sp.recipe)
            block, recipe = pooled[sp.table]
            steps.append(self._static_instruction(step, block))
            recipes.append(recipe)
        return tuple(steps), tuple(recipes), None

    def _static_instruction(self, step: KernelStep, block: dict) -> StaticInstruction:
        p = self.w * self.w
        return StaticInstruction(
            op=step.op,
            register=step.register,
            values=(
                np.arange(p, dtype=np.float64)
                if step.op == "write" and step.immediate
                else None
            ),
            max_address=self.bases[step.array] + p - 1,
            **block,
        )

    def _stage_block(self, step: KernelStep) -> dict:
        """One step's lookup columns and congestion machinery."""
        w = self.w
        p = w * w
        lane = np.arange(p, dtype=np.int64)
        iif = step.ii.ravel()
        jjf = step.jj.ravel()
        maskf = None if step.mask is None else step.mask.ravel()
        idx = iif * w + jjf
        # Static duplicate merge: lanes of one warp collide iff they
        # share (i, j) — the mapping is injective per trial — so the
        # merge structure is trial-independent.  Dead lanes get unique
        # keys >= p and can never mark a live lane.
        pos = idx if maskf is None else np.where(maskf, idx, p + lane)
        drop = duplicate_lanes(pos.reshape(-1, w)).ravel()
        if maskf is not None:
            drop = drop | ~maskf
        # Per-warp static congestion: 1 for a row-local warp under
        # *every* shift draw, 0 for a fully inactive one.  Only the
        # remaining warps need per-trial keys.
        any_act, row_local, _ = warp_classes(step.ii, step.jj, step.mask, w)
        static_congestions = (any_act & row_local).astype(np.int64)
        dynamic_warps = np.flatnonzero(any_act & ~row_local)
        # Congestion keys for the dynamic warps only: real bank at
        # counted lanes, sentinel at merged/inactive lanes — one
        # gather, no fixup pass.
        key_cols = np.where(drop, p + lane, idx).reshape(-1, w)
        key_columns = key_cols[dynamic_warps].ravel()
        return {
            "table": self.arrays.index(step.array),
            # Inactive lanes read the scratch column p.
            "columns": idx if maskf is None else np.where(maskf, idx, p),
            "mask": maskf,
            "static_congestions": static_congestions,
            "dynamic_warps": dynamic_warps,
            "key_columns": key_columns,
        }

    def make_batched_machine(self, trials: int, latency: int = 1) -> BatchedDMM:
        """A batched DMM sized for this kernel's arrays."""
        return BatchedDMM(
            self.w,
            latency,
            memory_size=len(self.arrays) * self.mapping.storage_words,
            trials=trials,
        )

    def run_batch(
        self, shifts: np.ndarray, latency: int = 1
    ) -> BatchedExecutionResult:
        """Execute the kernel under ``T`` shift draws at once.

        Stages :meth:`program_batch` and runs it on a fresh
        :meth:`make_batched_machine`; ``result.time_units[t]`` is the
        exact DMM completion time the scalar path would report for
        trial ``t``'s mapping.  ``shifts`` is checked as in
        :meth:`program_batch`.
        """
        program = self.program_batch(shifts)
        return self.make_batched_machine(program.trials, latency).run(program)

    def time_batch(self, shifts: np.ndarray, latency: int = 1) -> np.ndarray:
        """Per-trial completion times under ``T`` shift draws, ``(T,)``.

        ``run_batch(shifts, latency).time_units`` without the data half:
        stages :meth:`program_batch` and times it with
        :meth:`~repro.dmm.batched.BatchedDMM.time` on a fresh
        :meth:`make_batched_machine`, which counts congestion (many steps
        per sort, from the kernel's memoized timing layout) but never
        builds an address table or allocates memory.  ``shifts`` is
        checked as in :meth:`program_batch`.
        """
        program = self.program_batch(shifts)
        return self.make_batched_machine(program.trials, latency).time(program)

    def run_plan(
        self,
        shifts: np.ndarray,
        plan: "CompiledPlan",
        latency: int = 1,
        backend: Union[str, "PlanBackend", None] = None,
    ) -> BatchedExecutionResult:
        """Execute the kernel under a compiled plan (see
        :func:`repro.analysis.plan.compile_plan`).

        Stages :meth:`program_batch` with the plan's static verdicts
        and address pooling, then runs
        :meth:`~repro.dmm.batched.BatchedDMM.execute_plan` — resolved
        steps never replay addresses for congestion counting.  The
        result is bit-identical to :meth:`run_batch` (and to the scalar
        machine per trial); ``shifts`` must be draws of the plan's
        mapping family, which is checked up front.  ``backend`` selects
        the execution backend for the residual steps (``None`` = numpy
        reference; see :func:`repro.dmm.backends.resolve_backend`) —
        every backend is bit-identical, the choice only moves
        wall-clock.
        """
        from repro.analysis.plan import check_family_shifts

        if plan.w != self.w:
            raise ValueError(
                f"plan was compiled at w={plan.w}, kernel has w={self.w}"
            )
        shifts = check_shifts(shifts, self.w)
        check_family_shifts(plan.family, shifts, self.w)
        machine = self.make_batched_machine(shifts.shape[0], latency)
        return machine.execute_plan(
            self.program_batch(shifts, plan=plan), backend=backend
        )

    def verify(self, certify: bool = True) -> "VerificationReport":
        """Statically verify the kernel without executing it.

        Returns a :class:`~repro.analysis.verify.VerificationReport`
        combining the sanitizer diagnostics with (when ``certify``)
        the per-step congestion certificate under this kernel's
        mapping.  See :mod:`repro.analysis.verify`.
        """
        from repro.analysis.verify import verify_kernel

        return verify_kernel(self, certify=certify)

    def make_machine(self, latency: int = 1) -> DiscreteMemoryMachine:
        """A DMM sized for this kernel's arrays."""
        return DiscreteMemoryMachine(
            self.w,
            latency,
            memory_size=len(self.arrays) * self.mapping.storage_words,
        )

    def load_array(
        self, machine: DiscreteMemoryMachine, name: str, matrix: np.ndarray
    ) -> None:
        """Place a logical matrix into the machine under the mapping."""
        machine.load(self.bases[name], self.mapping.apply_layout(matrix))

    def read_array(self, machine: DiscreteMemoryMachine, name: str) -> np.ndarray:
        """Recover a logical matrix from the machine under the mapping."""
        flat = machine.dump(self.bases[name], self.mapping.storage_words)
        return self.mapping.read_layout(flat)

    def overhead_ops(self) -> int:
        """Address-computation ALU ops across all warp issues."""
        issues = len(self.steps) * self.w  # instructions x warps
        return self.mapping.address_overhead_ops * issues

    def run(
        self,
        machine: Optional[DiscreteMemoryMachine] = None,
        latency: int = 1,
        timing_model: Optional[GPUTimingModel] = None,
        host: Optional[Callable[[int, dict], Optional[np.ndarray]]] = None,
    ) -> KernelReport:
        """Execute on the DMM and report stages / time / predicted ns.

        ``host`` interleaves host-side work with the steps:
        ``host(index, registers)`` is called before step ``index`` with
        the register file so far, which persists across steps as inside
        one program.  Before an ``immediate`` write it returns the
        values of the step's active lanes, in lane order; before any
        other step its result is ignored.  Without ``host``, immediate
        writes store the per-lane sentinels of :meth:`program`.  The
        report's ``execution.traces`` hold one trace per step, for
        callers that group congestion by their own phases.
        """
        if machine is None:
            machine = self.make_machine(latency)
        warp_count(self.w * self.w, machine.w)
        execution = ExecutionResult(time_units=0)
        registers = execution.registers
        for index, (step, instr) in enumerate(zip(self.steps, self.program())):
            values = None if host is None else host(index, registers)
            if host is not None and step.immediate:
                if values is None:
                    raise ValueError(f"host gave no values for immediate step {index}")
                lanes = np.zeros(self.w * self.w)
                lanes[slice(None) if step.mask is None else step.mask.ravel()] = values
                instr = write(instr.addresses, values=lanes)
            execution.append(machine.execute(instr, registers))
        total_stages = sum(t.schedule.total_stages for t in execution.traces)
        ops = self.overhead_ops()
        predicted = (
            timing_model.predict_ns(total_stages, ops) if timing_model else None
        )
        return KernelReport(
            time_units=execution.time_units,
            total_stages=total_stages,
            overhead_ops=ops,
            predicted_ns=predicted,
            execution=execution,
        )


def transpose_kernel(
    kind: str, mapping: AddressMapping | str, w: Optional[int] = None, seed: SeedLike = None
) -> SharedMemoryKernel:
    """Build the Table III transpose kernels as SharedMemoryKernels.

    Parameters
    ----------
    kind:
        ``"CRSW"``, ``"SRCW"``, or ``"DRDW"``.
    mapping:
        Mapping instance or name.
    w:
        Width, required when ``mapping`` is a name (default 32).
    seed:
        Seed when drawing a mapping by name.
    """
    from repro.access.transpose import transpose_indices

    if isinstance(mapping, str):
        mapping = mapping_by_name(mapping, 32 if w is None else w, seed)
    (ri, rj), (wi, wj) = transpose_indices(kind, mapping.w)
    steps = [
        KernelStep("read", "a", ri, rj, register="c"),
        KernelStep("write", "b", wi, wj, register="c"),
    ]
    return SharedMemoryKernel(
        mapping.w, steps, arrays=("a", "b"), mapping=mapping, inputs=("a",)
    )
