"""Batched DMM execution: one program skeleton, many mapping draws.

Estimating an app's expected running time under RAS/RAP (Section V)
means executing the *same* access skeleton under many independent
shift draws.  The scalar :class:`~repro.dmm.machine.DiscreteMemoryMachine`
pays the full build-compile-execute pipeline per draw; this module
executes ``T`` draws simultaneously by carrying a leading trial axis
through every array:

* addresses are ``(T, p)`` blocks per instruction (gathered from
  per-draw lookup tables just before the instruction runs, for
  programs :meth:`repro.gpu.kernel.SharedMemoryKernel.program_batch`
  stages — see :class:`GatheredProgram`),
* per-instruction congestion is one :func:`~repro.core.congestion.congestion_batch`
  call over all ``T x warps`` rows (or one sort over pre-staged bank
  keys when the staging layer could separate banks from addresses —
  see :meth:`repro.gpu.kernel.SharedMemoryKernel.program_batch`),
* registers are ``(T, p)`` blocks and memory is a
  :class:`~repro.dmm.memory.BatchedMemory` of ``T`` images,
* :class:`~repro.dmm.mmu.StageSchedule` timing arithmetic runs as
  ``(T,)`` vector ops (:func:`~repro.dmm.mmu.batch_completion_times`).

The contract is exactness, not approximation: for every trial ``t``,
per-step congestions, total time units, final memory, and final
registers equal what the scalar machine produces for trial ``t``'s
mapping (``tests/test_batched_dmm.py`` pins this for every builtin app
under RAW, RAS, and RAP).  Inactive lanes are redirected to a per-trial
scratch cell rather than compressed away, which keeps every memory
operation a single flat gather/scatter; CRCW last-lane-wins write
resolution survives because the flat row-major order preserves each
trial's lane order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence, Union

import numpy as np
import numpy.typing as npt

if TYPE_CHECKING:  # pragma: no cover
    from repro.dmm.backends import PlanBackend

from repro.core.congestion import congestion_batch, max_run_lengths
from repro.dmm.backends.base import NumpyBackend
from repro.dmm.memory import BatchedMemory
from repro.dmm.trace import INACTIVE, MemoryProgram
from repro.util.validation import check_latency, check_positive_int

__all__ = [
    "BatchedInstruction",
    "BatchedProgram",
    "GatheredProgram",
    "StaticInstruction",
    "BatchedInstructionTrace",
    "BatchedExecutionResult",
    "BatchedDMM",
    "stack_programs",
    "warp_congestion_block",
    "instruction_congestions",
]


def warp_congestion_block(bank_keys: np.ndarray, w: int) -> np.ndarray:
    """Congestion of many staged warps at once — the executor's hot path.

    ``bank_keys`` holds one warp per ``w`` consecutive entries: each
    lane's bank in ``[0, w)``, or a per-lane sentinel in ``[w, 2w)``
    for lanes that issue no countable request (inactive lanes and
    CRCW-merged duplicates).  Returns one congestion per warp row —
    the longest run of equal bank values after an in-row sort, which
    is exactly the max-over-banks distinct-address count because
    sentinels are unique per lane and can never form a run.

    This is the kernel both :class:`BatchedDMM` and the adversarial
    pattern search (:mod:`repro.adversary`) score congestion with.
    """
    keys = bank_keys.reshape(-1, w)
    return max_run_lengths(np.sort(keys, axis=1))


def instruction_congestions(
    instr: "BatchedInstruction",
    w: int,
    trials: int,
    count_warps: Callable[[np.ndarray, int], np.ndarray] = warp_congestion_block,
) -> np.ndarray:
    """Per-trial, per-warp congestion of one staged instruction.

    Preference order: ``planned_congestions`` (the plan compiler's
    exact per-trial matrix, already evaluated — absint coset steps
    stage this and nothing else, so it **must** win over the address
    fallback, whose flat pre-baked addresses carry per-trial offsets
    that skew ``addr % w``), then the pre-staged fast path (static
    congestions + bank keys, the dynamic warps counted by
    ``count_warps`` with :func:`warp_congestion_block`'s contract),
    then the inactive-aware address count.  Shape ``(trials, n_warps)``.
    """
    if instr.planned_congestions is not None:
        return instr.planned_congestions
    n_warps = instr.p // w
    if instr.static_congestions is not None:
        cong = np.empty((trials, n_warps), dtype=np.int64)
        cong[:] = instr.static_congestions
        dyn = instr.dynamic_warps
        if dyn.size:
            cong[:, dyn] = count_warps(instr.bank_keys, w).reshape(
                trials, dyn.size
            )
        return cong
    rows = instr.addresses.reshape(-1, w)
    cong = congestion_batch(rows, w, inactive=INACTIVE)
    return cong.reshape(trials, n_warps)


@dataclass
class BatchedInstruction:
    """One SIMD memory instruction staged across ``T`` trials.

    Attributes
    ----------
    op:
        ``"read"`` or ``"write"``.
    addresses:
        Shape ``(T, p)`` integer array; row ``t`` is trial ``t``'s
        per-thread addresses (:data:`~repro.dmm.trace.INACTIVE` for
        lanes that sit the instruction out).
    register:
        Per-thread register read into / written from.
    values:
        Optional immediate values for a write: shape ``(p,)`` (shared
        by every trial, the common case for compiled skeletons) or
        ``(T, p)``.
    static_congestions:
        Optional pre-resolved congestion per warp, shape ``(n_warps,)``:
        the trial-independent part of the fast path.  A warp whose
        active lanes all sit in one matrix row of a shifted-row mapping
        has congestion exactly 1 for *every* shift draw (distinct
        columns of one row land in distinct banks), and a warp with no
        active lane has congestion 0; only the remaining warps need
        per-trial counting.
    dynamic_warps:
        With ``static_congestions``: indices of the warps whose
        congestion is shift-dependent, in warp order.
    bank_keys:
        With ``static_congestions``: pre-staged congestion keys for the
        dynamic warps only, shape ``(T, len(dynamic_warps) * w)``: each
        lane's bank in ``[0, w)``, or a per-lane sentinel in ``[w, 2w)``
        for lanes that issue no countable request (inactive, or
        statically merged duplicates).  The executor then skips the
        address sort entirely — one bank sort and a run-length pass
        give every trial's dynamic-warp congestion.  Produced by
        :meth:`repro.gpu.kernel.SharedMemoryKernel.program_batch`,
        which knows the duplicate structure statically.
    """

    op: str
    addresses: np.ndarray
    register: str = "r0"
    values: Optional[np.ndarray] = None
    static_congestions: Optional[np.ndarray] = None
    dynamic_warps: Optional[np.ndarray] = None
    bank_keys: Optional[np.ndarray] = None
    #: Optional fully evaluated congestion matrix, shape
    #: ``(T, n_warps)``: the plan compiler's exact closed form of the
    #: draw (absint coset steps).  When set it supersedes every other
    #: congestion source — such instructions stage no bank keys, and
    #: their flat pre-baked addresses must never reach the ``% w``
    #: fallback.
    planned_congestions: Optional[np.ndarray] = None
    #: When set, ``addresses`` holds *flat store indices* with each
    #: trial's offset pre-baked (``t * stride + address``; inactive
    #: lanes at ``t * stride - 1``, a scratch cell).  The executor then
    #: skips the per-instruction offset add.  Value is the stride the
    #: staging assumed; the machine refuses a mismatch.
    flat_stride: Optional[int] = None
    #: ``None`` (all lanes active), a ``(p,)`` mask shared by every
    #: trial, or a ``(T, p)`` per-trial mask.  Derived from
    #: ``addresses``; consumers never pass it.
    mask: Optional[np.ndarray] = field(default=None, init=False)
    #: Largest real address staged (across trials), for one bounds
    #: check per run instead of one per access.
    max_address: int = field(default=INACTIVE, init=False)

    def __post_init__(self) -> None:
        if self.op not in ("read", "write"):
            raise ValueError(f"op must be 'read' or 'write', got {self.op!r}")
        addresses = (
            self.addresses
            if isinstance(self.addresses, np.ndarray)
            else np.asarray(self.addresses)
        )
        if not np.issubdtype(addresses.dtype, np.integer):
            raise ValueError(
                f"addresses must be integers, got dtype {addresses.dtype}"
            )
        if addresses.dtype != np.int64 or not addresses.flags.c_contiguous:
            # Normalize narrow staging dtypes up front: at w = 1024 a
            # flat index reaches trials * (2 w^2 + 1), which wraps
            # int16/int32 silently once the per-trial offset is baked
            # in.  One conversion covers layout and width together;
            # contiguous int64 input (the staging hot path) skips the
            # copy entirely.
            addresses = np.ascontiguousarray(addresses, dtype=np.int64)
        if addresses.ndim != 2:
            raise ValueError(
                f"addresses must be (trials, p), got shape {addresses.shape}"
            )
        if (addresses < INACTIVE).any():
            raise ValueError(
                "addresses must be >= 0, or -1 for inactive lanes"
            )
        self.addresses = addresses
        active = addresses != INACTIVE
        if active.all():
            self.mask = None
        elif (active == active[0]).all():
            self.mask = active[0].copy()
        else:
            self.mask = active
        self.max_address = int(addresses.max(initial=INACTIVE))
        if self.values is not None:
            values = np.ascontiguousarray(self.values)
            if self.op == "read":
                raise ValueError("read instructions cannot carry immediate values")
            if values.shape not in (addresses.shape, addresses.shape[1:]):
                raise ValueError(
                    f"values shape {values.shape} must be (p,) or (trials, p) "
                    f"matching addresses {addresses.shape}"
                )
            self.values = values

    @classmethod
    def staged(
        cls,
        op: str,
        addresses: np.ndarray,
        register: str,
        values: Optional[np.ndarray],
        static_congestions: Optional[np.ndarray],
        dynamic_warps: Optional[np.ndarray],
        bank_keys: Optional[np.ndarray],
        mask: Optional[np.ndarray],
        max_address: int,
        flat_stride: Optional[int] = None,
        planned_congestions: Optional[np.ndarray] = None,
    ) -> "BatchedInstruction":
        """Trusted construction for staging layers that guarantee the
        invariants themselves (correct shapes, INACTIVE exactly at
        ``~mask``, ``max_address`` a valid upper bound).

        ``__post_init__`` rescans the full ``(T, p)`` address block to
        derive the mask and maximum; a compiler staging hundreds of
        instructions already knows both, and on the batched hot path
        those scans are a measurable fraction of an instruction's
        execution cost.
        """
        if addresses.dtype != np.int64:
            # Same widening as __post_init__: flat pre-baked indices
            # overflow narrow dtypes at large w x trials, and the
            # trusted path must not be the one place that skips the
            # guard.
            addresses = addresses.astype(np.int64)
        instr = cls.__new__(cls)
        instr.op = op
        instr.addresses = addresses
        instr.register = register
        instr.values = values
        instr.static_congestions = static_congestions
        instr.dynamic_warps = dynamic_warps
        instr.bank_keys = bank_keys
        instr.planned_congestions = planned_congestions
        instr.mask = mask
        instr.max_address = max_address
        instr.flat_stride = flat_stride
        return instr

    @property
    def trials(self) -> int:
        return int(self.addresses.shape[0])

    @property
    def p(self) -> int:
        return int(self.addresses.shape[1])


@dataclass
class BatchedProgram:
    """A straight-line instruction sequence staged across ``T`` trials.

    The batched analogue of :class:`~repro.dmm.trace.MemoryProgram`:
    same ops, registers, and barrier-between-instructions semantics,
    with every instruction carrying a ``(T, p)`` address block.
    """

    p: int
    trials: int
    instructions: list[BatchedInstruction] = field(default_factory=list)

    def __post_init__(self) -> None:
        check_positive_int(self.p, "p")
        check_positive_int(self.trials, "trials")
        for instr in self.instructions:
            self._check(instr)

    def _check(self, instr: BatchedInstruction) -> None:
        if instr.p != self.p or instr.trials != self.trials:
            raise ValueError(
                f"instruction block is {instr.trials}x{instr.p}, program "
                f"is {self.trials}x{self.p}"
            )

    def append(self, instr: BatchedInstruction) -> "BatchedProgram":
        self._check(instr)
        self.instructions.append(instr)
        return self

    def max_address(self) -> int:
        """Largest address staged by any instruction (INACTIVE if none)."""
        return max(
            (instr.max_address for instr in self.instructions),
            default=INACTIVE,
        )

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[BatchedInstruction]:
        return iter(self.instructions)


@dataclass(frozen=True)
class StaticInstruction:
    """The draw-independent half of one table-staged instruction.

    :meth:`repro.gpu.kernel.SharedMemoryKernel.program_batch` computes
    these once per kernel; a :class:`GatheredProgram` pairs them with
    one batch of draws' lookup tables.  Steps sharing a plan address
    table share the arrays.

    Attributes
    ----------
    op, register, values, mask, static_congestions, dynamic_warps:
        As on :class:`BatchedInstruction` (``mask`` is ``(p,)`` or
        ``None``).
    table:
        Index of the address table (the kernel array) the step touches.
    columns:
        ``(p,)`` address-table column of each lane: ``i*w + j`` for a
        lane touching element ``(i, j)``, ``p`` (the scratch column)
        for an inactive lane.
    key_columns:
        Key-table columns of the dynamic warps' bank keys, ``None`` for
        steps counted from a planned congestion matrix.
    max_address:
        Upper bound on the real addresses the step touches.
    """

    op: str
    register: str
    values: Optional[np.ndarray]
    table: int
    columns: np.ndarray
    mask: Optional[np.ndarray]
    static_congestions: Optional[np.ndarray]
    dynamic_warps: Optional[np.ndarray]
    key_columns: Optional[np.ndarray]
    max_address: int


class GatheredProgram(BatchedProgram):
    """A batched program whose address blocks are gathered as it runs.

    Pairs draw-independent :class:`StaticInstruction` steps with one
    batch of ``T`` draws' lookup tables:

    * ``address_tables``, one ``(T, p + 1)`` int64 table per kernel
      array: column ``i*w + j`` holds trial ``t``'s flat store index of
      element ``(i, j)`` (``t * flat_stride`` plus its address), column
      ``p`` the trial's scratch index ``t * flat_stride - 1``;
    * ``key_table``, ``(T, 2p)``: column ``i*w + j`` holds trial
      ``t``'s bank ``(j + s[t, i]) mod w``, column ``p + lane`` the
      lane's sentinel in ``[w, 2w)``; ``None`` when no step counts
      bank keys.

    ``planned`` holds each step's ``(T, n_warps)`` planned congestion
    matrix or ``None``.  Iterating yields one :class:`BatchedInstruction`
    at a time, its ``(T, p)`` address block and bank keys taken from the
    tables just then, so an executor holds one instruction's block, not
    the whole program's.  :attr:`instructions` gathers every step.
    """

    def __init__(
        self,
        p: int,
        trials: int,
        steps: Sequence[StaticInstruction],
        address_tables: Sequence[np.ndarray],
        key_table: Optional[np.ndarray],
        flat_stride: int,
        planned: Sequence[Optional[np.ndarray]],
    ) -> None:
        if len(planned) != len(steps):
            raise ValueError(
                f"{len(planned)} planned matrices for {len(steps)} steps"
            )
        self.p = check_positive_int(p, "p")
        self.trials = check_positive_int(trials, "trials")
        self.steps = tuple(steps)
        self.address_tables = tuple(address_tables)
        self.key_table = key_table
        self.flat_stride = flat_stride
        self.planned = tuple(planned)
        self._no_keys = np.empty((trials, 0), dtype=np.int64)

    @property
    def instructions(self) -> list[BatchedInstruction]:  # type: ignore[override]
        return list(self)

    def append(self, instr: BatchedInstruction) -> "BatchedProgram":
        raise TypeError("a gathered program is complete; stage a new one")

    def max_address(self) -> int:
        return max((step.max_address for step in self.steps), default=INACTIVE)

    def __len__(self) -> int:
        return len(self.steps)

    @staticmethod
    def _block_key(step: StaticInstruction) -> tuple:
        return (step.table, id(step.columns), id(step.key_columns))

    def _gather(
        self, step: StaticInstruction
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """One step's ``(T, p)`` address block and its bank keys."""
        addresses = np.take(self.address_tables[step.table], step.columns, axis=1)
        if step.key_columns is None:
            return addresses, None
        if not step.key_columns.size:
            return addresses, self._no_keys
        return addresses, np.take(self.key_table, step.key_columns, axis=1)

    def __iter__(self) -> Iterator[BatchedInstruction]:
        # Steps of one plan-pooled address table share their static
        # staging, so they share one gathered block too (the executors
        # only ever read it); it lives until the table's last step.
        last_use = {self._block_key(step): i for i, step in enumerate(self.steps)}
        live: dict[tuple, tuple] = {}
        for index, (step, planned) in enumerate(zip(self.steps, self.planned)):
            key = self._block_key(step)
            block = live.pop(key, None) or self._gather(step)
            if last_use[key] > index:
                live[key] = block
            addresses, bank_keys = block
            yield BatchedInstruction.staged(
                op=step.op,
                addresses=addresses,
                register=step.register,
                values=step.values,
                static_congestions=step.static_congestions,
                dynamic_warps=step.dynamic_warps,
                bank_keys=bank_keys,
                mask=step.mask,
                max_address=step.max_address,
                flat_stride=self.flat_stride,
                planned_congestions=planned,
            )


def stack_programs(programs: Sequence[MemoryProgram]) -> BatchedProgram:
    """Stack ``T`` structurally identical scalar programs into one batch.

    The programs must agree on thread count, instruction count, and
    per-instruction ``(op, register, has-values)`` — the usual case of
    one skeleton compiled under ``T`` different mappings.  Addresses
    (and immediate values) may differ freely per trial.
    """
    if not programs:
        raise ValueError("need at least one program to stack")
    first = programs[0]
    for other in programs[1:]:
        if other.p != first.p or len(other) != len(first):
            raise ValueError(
                "programs must share thread and instruction counts to stack"
            )
    batched = BatchedProgram(p=first.p, trials=len(programs))
    for idx in range(len(first)):
        column = [prog.instructions[idx] for prog in programs]
        ops = {instr.op for instr in column}
        regs = {instr.register for instr in column}
        has_values = {instr.values is not None for instr in column}
        if len(ops) > 1 or len(regs) > 1 or len(has_values) > 1:
            raise ValueError(
                f"instruction {idx} differs structurally across programs"
            )
        values = (
            np.stack([instr.values for instr in column])
            if column[0].values is not None
            else None
        )
        batched.append(
            BatchedInstruction(
                op=column[0].op,
                addresses=np.stack([instr.addresses for instr in column]),
                register=column[0].register,
                values=values,
            )
        )
    return batched


@dataclass(frozen=True)
class BatchedInstructionTrace:
    """Timing record of one instruction across all trials.

    Attributes
    ----------
    op:
        ``"read"`` or ``"write"``.
    congestions:
        Shape ``(T, n_warps)`` int array; entry ``[t, r]`` is warp
        ``r``'s congestion in trial ``t``, or 0 when the warp was not
        dispatched.
    time_units:
        Shape ``(T,)`` completion time of the instruction per trial.
    """

    op: str
    congestions: np.ndarray
    time_units: np.ndarray

    def trial_dispatched(self, t: int) -> tuple[int, ...]:
        """Dispatch order of trial ``t`` (warps with congestion > 0)."""
        return tuple(int(r) for r in np.flatnonzero(self.congestions[t]))

    def trial_congestions(self, t: int) -> tuple[int, ...]:
        """Trial ``t``'s per-dispatched-warp congestions, dispatch order."""
        row = self.congestions[t]
        return tuple(int(c) for c in row[row > 0])


@dataclass
class BatchedExecutionResult:
    """Outcome of one batched run.

    Attributes
    ----------
    time_units:
        Shape ``(T,)`` total time units per trial.
    traces:
        One :class:`BatchedInstructionTrace` per instruction.
    registers:
        Final register files, ``registers[name]`` of shape ``(T, p)``.
    memory:
        The machine's :class:`~repro.dmm.memory.BatchedMemory` after
        the run (``memory.trial(t)`` extracts one image).
    """

    time_units: np.ndarray
    traces: list[BatchedInstructionTrace] = field(default_factory=list)
    registers: dict[str, np.ndarray] = field(default_factory=dict)
    memory: Optional[BatchedMemory] = None

    def trial_registers(self, t: int) -> dict[str, np.ndarray]:
        """Trial ``t``'s register file (copies)."""
        return {name: reg[t].copy() for name, reg in self.registers.items()}


class BatchedDMM:
    """A DMM executing ``trials`` independent runs of one skeleton.

    Parameters
    ----------
    w:
        Width: banks == threads per warp (shared by all trials).
    latency:
        Memory pipeline depth ``l``.
    memory_size:
        Addressable words of shared memory *per trial*.
    trials:
        Number of independent trials ``T``.
    dtype:
        Backing-store dtype (default float64, as in the scalar machine).
    """

    def __init__(
        self,
        w: int,
        latency: int,
        memory_size: int,
        trials: int,
        dtype: "npt.DTypeLike" = np.float64,
    ) -> None:
        self.w = check_positive_int(w, "w")
        self.latency = check_latency(latency)
        self.trials = check_positive_int(trials, "trials")
        self.memory = BatchedMemory(w, memory_size, trials, dtype=dtype)

    def load(self, base: int, values: np.ndarray) -> None:
        """Pre-load values (broadcast over trials) starting at ``base``."""
        self.memory.fill_word(base, np.asarray(values))

    # -- execution -------------------------------------------------------
    def _check_program(self, program: BatchedProgram) -> None:
        if program.trials != self.trials:
            raise ValueError(
                f"program stages {program.trials} trials, machine has {self.trials}"
            )
        if program.p % self.w != 0:
            raise ValueError(
                f"p={program.p} is not a multiple of warp width {self.w}"
            )
        top = program.max_address()
        if top >= self.memory.size:
            raise IndexError(
                f"program touches address {top}, memory size {self.memory.size}"
            )

    def run(self, program: BatchedProgram) -> BatchedExecutionResult:
        """Execute the batch; returns per-trial data and exact timing."""
        return _HOST_LOOP.run(self, program)

    def execute_plan(
        self,
        program: BatchedProgram,
        backend: Union[str, "PlanBackend", None] = None,
    ) -> BatchedExecutionResult:
        """Execute a plan-staged batch, skipping resolved-step simulation.

        The plan compiler (:func:`repro.analysis.plan.compile_plan`)
        stages statically resolved instructions with an empty
        ``dynamic_warps`` set: their per-warp congestion is a certified
        constant for every draw of the mapping family, so this path
        settles their congestion tuple and completion time in closed
        form — no bank counting, no key sort, only the data movement
        (which bit-identity requires).  Absint-resolved instructions
        carry ``planned_congestions`` (the coset closed form, already
        evaluated from the shift draws) and take the standard execute
        path, where :func:`instruction_congestions` serves the planned
        matrix without touching the addresses.  Residual instructions
        execute exactly as under :meth:`run`.  The result is
        indistinguishable from :meth:`run` on the same program; the
        saving is wall-clock.

        ``backend`` selects *where* the loop runs: ``None`` keeps the
        numpy reference loop, a registered name (``"numpy"``,
        ``"numba"``, ``"auto"``) or a
        :class:`~repro.dmm.backends.PlanBackend` instance routes through
        :func:`repro.dmm.backends.resolve_backend`.  Every backend is
        bit-identical to the reference; the choice only moves
        wall-clock.
        """
        if backend is None:
            return _HOST_LOOP.run(self, program)
        from repro.dmm.backends import resolve_backend

        chosen = resolve_backend(backend).backend
        return chosen.execute(chosen.stage(self, program))

    def _move_data(
        self, instr: BatchedInstruction, registers: dict[str, np.ndarray]
    ) -> None:
        """The data half of one instruction: gathers, scatters, registers."""
        mask = instr.mask
        # INACTIVE lanes pass straight through: the flat index
        # t*stride - 1 is always *some* trial's scratch cell (see
        # BatchedMemory), so no per-trial redirect pass is needed and
        # active lanes keep their thread order.
        addresses = instr.addresses
        flat = instr.flat_stride is not None
        if flat and instr.flat_stride != self.memory.stride:
            raise ValueError(
                f"instruction staged for memory stride {instr.flat_stride}, "
                f"machine has {self.memory.stride}"
            )
        if instr.op == "read":
            gathered = (
                self.memory.read_flat(addresses)
                if flat
                else self.memory.read(addresses)
            )
            if mask is None:
                registers[instr.register] = gathered
            else:
                reg = registers.setdefault(
                    instr.register,
                    np.zeros((self.trials, instr.p), dtype=self.memory.dtype),
                )
                np.copyto(reg, gathered, where=mask)
        else:
            if instr.values is not None:
                source = instr.values
            else:
                if instr.register not in registers:
                    raise KeyError(
                        f"write from register {instr.register!r} before any read into it"
                    )
                source = registers[instr.register]
            source = np.broadcast_to(source, addresses.shape)
            if flat:
                self.memory.write_flat(addresses, source)
            else:
                self.memory.write(addresses, source)


#: The host instruction loop behind :meth:`BatchedDMM.run` and the
#: default :meth:`BatchedDMM.execute_plan`.
_HOST_LOOP = NumpyBackend()
