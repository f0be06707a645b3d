"""Batched DMM execution: one program skeleton, many mapping draws.

Estimating an app's expected running time under RAS/RAP (Section V)
means executing the *same* access skeleton under many independent
shift draws.  The scalar :class:`~repro.dmm.machine.DiscreteMemoryMachine`
pays the full build-compile-execute pipeline per draw; this module
executes ``T`` draws simultaneously by carrying a leading trial axis
through every array.  Its one program form is the
:class:`BatchedProgram` that
:meth:`repro.gpu.kernel.SharedMemoryKernel.program_batch` stages:

* addresses are ``(T, p)`` blocks of flat store indices per
  instruction, each trial's memory offset baked in, gathered from
  per-draw lookup tables just before the instruction runs,
* per-instruction congestion is the plan compiler's planned matrix
  when it has one, else the step's static per-warp congestions plus
  its dynamic warps' counts from the pre-staged bank keys, all ``T``
  trials at once,
* registers are ``(T, p)`` blocks and memory is a
  :class:`~repro.dmm.memory.BatchedMemory` of ``T`` images,
* :class:`~repro.dmm.mmu.StageSchedule` timing arithmetic runs as
  vector ops (:func:`~repro.dmm.mmu.batch_completion_times`).

Each step has a timing half (:func:`step_timing`) and a data half
(gathers, scatters, registers).  :meth:`BatchedDMM.run` executes both,
one step at a time, counting each step's dynamic warps with one
:func:`warp_congestion_block` sort.  :meth:`BatchedDMM.time`, for
callers that keep only ``time_units``, runs only the timing half, and
for the whole program at once: a step's time depends only on its
per-warp congestions, and staged addresses never depend on data, so it
counts the dynamic warps of many consecutive steps per sort (blocks of
about ``_BLOCK_ADDRESSES`` keys, laid out once per kernel by
:class:`TimingLayout`), never gathers an address block and never
touches memory.  Both apply one timing rule,
:func:`~repro.dmm.mmu.batch_completion_times`.

The contract is exactness, not approximation: for every trial ``t``,
per-step congestions, total time units, final memory, and final
registers equal what the scalar machine produces for trial ``t``'s
mapping, and :meth:`BatchedDMM.time` equals ``run(...).time_units``
(``tests/test_batched_dmm.py`` pins this for every builtin app under
RAW, RAS, and RAP).  Inactive lanes are redirected to a per-trial
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

from repro.core.congestion import _BLOCK_ADDRESSES, max_run_lengths
from repro.dmm.backends.base import NumpyBackend
from repro.dmm.memory import BatchedMemory
from repro.dmm.mmu import batch_completion_times
from repro.dmm.trace import INACTIVE
from repro.util.validation import check_latency, check_positive_int

__all__ = [
    "BatchedInstruction",
    "BatchedProgram",
    "StaticInstruction",
    "TimingLayout",
    "BatchedInstructionTrace",
    "BatchedExecutionResult",
    "BatchedDMM",
    "warp_congestion_block",
    "instruction_congestions",
    "step_timing",
    "write_source",
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
    static_congestions: Optional[np.ndarray],
    dynamic_warps: Optional[np.ndarray],
    bank_keys: Optional[np.ndarray],
    planned: Optional[np.ndarray],
    w: int,
    trials: int,
    count_warps: Callable[[np.ndarray, int], np.ndarray] = warp_congestion_block,
) -> np.ndarray:
    """Per-trial, per-warp congestion of one step, ``(trials, n_warps)``.

    ``planned`` (the plan compiler's exact per-trial matrix, already
    evaluated) wins when set; otherwise ``static_congestions`` is
    broadcast and the ``dynamic_warps`` counted from their
    ``bank_keys`` by ``count_warps``, which has
    :func:`warp_congestion_block`'s contract.  No address is read.
    """
    if planned is not None:
        return planned
    static, dyn, keys = static_congestions, dynamic_warps, bank_keys
    # Staging sets all three on every step without a planned matrix.
    assert static is not None and dyn is not None and keys is not None
    cong = np.empty((trials, static.size), dtype=np.int64)
    cong[:] = static
    if dyn.size:
        cong[:, dyn] = count_warps(keys, w).reshape(trials, dyn.size)
    return cong


def step_timing(
    machine: "BatchedDMM",
    static_congestions: Optional[np.ndarray],
    dynamic_warps: Optional[np.ndarray],
    bank_keys: Optional[np.ndarray],
    planned: Optional[np.ndarray],
    count_warps: Callable[[np.ndarray, int], np.ndarray] = warp_congestion_block,
) -> tuple[np.ndarray, np.ndarray]:
    """The timing half of one step on ``machine``: ``(T, n_warps)``
    congestions and ``(T,)`` completion times.

    A *fully static* step (constant per-warp congestion, empty
    dynamic-warp set — every plan-resolved step, and every step whose
    warps are all row-local or empty) broadcasts its constant
    congestions; every other step counts with
    :func:`instruction_congestions`.  Either way the times are
    :func:`~repro.dmm.mmu.batch_completion_times` of the per-trial
    totals, the rule :meth:`BatchedDMM.time` applies to a whole program.
    """
    trials, latency = machine.trials, machine.latency
    static, dyn = static_congestions, dynamic_warps
    if static is not None and dyn is not None and dyn.size == 0:
        cong = np.broadcast_to(static[None, :], (trials, static.size))
        totals = np.full(trials, static.sum(), dtype=np.int64)
        return cong, batch_completion_times(totals, latency)
    cong = instruction_congestions(
        static, dyn, bank_keys, planned, machine.w, trials, count_warps
    )
    return cong, batch_completion_times(cong.sum(axis=1), latency)


@dataclass(frozen=True)
class StaticInstruction:
    """The draw-independent half of one staged instruction.

    :meth:`repro.gpu.kernel.SharedMemoryKernel.program_batch` computes
    these once per kernel; a :class:`BatchedProgram` pairs them with
    one batch of draws' lookup tables.  Steps sharing a plan address
    table share the arrays.

    Attributes
    ----------
    op, register:
        ``"read"`` or ``"write"``, and the per-thread register read
        into / written from.
    values:
        Immediate values of a write, shape ``(p,)``, shared by every
        trial; ``None`` to write from ``register``.
    table:
        Index of the address table (the kernel array) the step touches.
    columns:
        ``(p,)`` address-table column of each lane: ``i*w + j`` for a
        lane touching element ``(i, j)``, ``p`` (the scratch column)
        for an inactive lane.
    mask:
        ``(p,)`` active lanes, shared by every trial; ``None`` when all
        lanes are active.
    static_congestions:
        Pre-resolved congestion per warp, ``(n_warps,)``: 1 for a warp
        whose active lanes all sit in one matrix row (distinct columns
        of a row land in distinct banks under every shift draw), 0 for
        a warp with no active lane; ``None`` for a step counted from a
        planned congestion matrix.
    dynamic_warps:
        Indices of the warps whose congestion is shift-dependent, in
        warp order (``None`` with ``static_congestions``).
    key_columns:
        Key-table columns of the dynamic warps' bank keys (``None``
        with ``static_congestions``).
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


@dataclass(frozen=True)
class TimingLayout:
    """The draw-independent half of :meth:`BatchedDMM.time`.

    One program's steps as the blocked congestion count reads them; it
    holds arrays only, never the steps, so it keeps no staging alive.
    :meth:`repro.gpu.kernel.SharedMemoryKernel.program_batch` builds it
    once per kernel beside the memoized static staging; a plan-staged
    program builds its own on first use.

    Attributes
    ----------
    static_totals:
        ``(n_steps,)`` summed congestion of each step's static warps
        (0 for a step counted from a planned matrix).
    planned_steps:
        Indices of the steps counted from a planned matrix.
    key_columns:
        Key-table columns of every dynamic warp of every step, in step
        and warp order, ``w`` per warp.
    dynamic_steps:
        Indices of the steps with at least one dynamic warp, in order.
    warp_starts:
        Each dynamic step's first warp among all dynamic warps.
    """

    static_totals: np.ndarray
    planned_steps: tuple[int, ...]
    key_columns: np.ndarray
    dynamic_steps: np.ndarray
    warp_starts: np.ndarray

    @classmethod
    def of(cls, steps: Sequence[StaticInstruction]) -> "TimingLayout":
        static_totals = np.zeros(len(steps), dtype=np.int64)
        planned_steps: list[int] = []
        columns: list[np.ndarray] = []
        dynamic_steps: list[int] = []
        warp_starts: list[int] = []
        n_warps = 0
        for index, step in enumerate(steps):
            static, dyn = step.static_congestions, step.dynamic_warps
            if static is None or dyn is None or step.key_columns is None:
                planned_steps.append(index)
                continue
            # A counted warp's congestion replaces its static entry.
            static_totals[index] = static.sum() - static[dyn].sum()
            if dyn.size:
                columns.append(step.key_columns)
                dynamic_steps.append(index)
                warp_starts.append(n_warps)
                n_warps += dyn.size
        # The layout lives as long as its kernel, beside the steps' own
        # int64 columns: hold it in half the words when it fits (it
        # indexes the key table, never memory).
        top = max((int(c.max()) for c in columns), default=0)
        narrow = np.int32 if top <= np.iinfo(np.int32).max else np.int64  # repro: noqa[ADDR001]
        key_columns = np.concatenate(
            columns or [np.empty(0, dtype=np.int64)],
            dtype=narrow,
            casting="same_kind",
        )
        return cls(
            static_totals=static_totals,
            planned_steps=tuple(planned_steps),
            key_columns=key_columns,
            dynamic_steps=np.array(dynamic_steps, dtype=np.int64),
            warp_starts=np.array(warp_starts, dtype=np.int64),
        )


@dataclass
class BatchedInstruction:
    """One step of a :class:`BatchedProgram`, gathered for all ``T`` trials.

    ``op``, ``register``, ``values``, ``mask``, ``static_congestions``
    and ``dynamic_warps`` are the step's :class:`StaticInstruction`
    fields.  ``addresses`` is the ``(T, p)`` int64 block of flat store
    indices, trial ``t``'s offset ``t * stride`` baked in (inactive
    lanes at ``t * stride - 1``, a scratch cell).  ``bank_keys`` holds
    the dynamic warps' congestion keys, ``(T, len(dynamic_warps) * w)``:
    each lane's bank in ``[0, w)``, or a per-lane sentinel in ``[w, 2w)``
    for a lane that issues no countable request (inactive, or a merged
    CRCW duplicate).  ``planned_congestions`` is the plan compiler's
    ``(T, n_warps)`` closed form of the draw, or ``None``.
    """

    op: str
    addresses: np.ndarray
    register: str
    values: Optional[np.ndarray]
    mask: Optional[np.ndarray]
    static_congestions: Optional[np.ndarray]
    dynamic_warps: Optional[np.ndarray]
    bank_keys: Optional[np.ndarray]
    planned_congestions: Optional[np.ndarray]

    @property
    def p(self) -> int:
        return int(self.addresses.shape[1])


class BatchedProgram:
    """A straight-line program staged across ``T`` trials.

    The batched analogue of :class:`~repro.dmm.trace.MemoryProgram`:
    same ops, registers, and barrier-between-instructions semantics.
    Pairs draw-independent :class:`StaticInstruction` steps with one
    batch of ``T`` draws' lookup tables:

    * ``key_table``, ``(T, 2p)``: column ``i*w + j`` holds trial
      ``t``'s bank ``(j + s[t, i]) mod w``, column ``p + lane`` the
      lane's sentinel in ``[w, 2w)``; ``None`` when no step counts
      bank keys;
    * ``flat_addresses``, ``(T, p)``: trial ``t``'s flat store index of
      element ``(i, j)`` relative to the first array (``t *
      flat_stride`` plus its address), and ``bases``, each kernel
      array's first word.  :meth:`address_table` turns them into one
      ``(T, p + 1)`` int64 table per array — column ``p`` holding the
      trial's scratch index ``t * flat_stride - 1`` — on the first
      gather from that array, so a time-only run builds none.

    ``flat_stride`` is the memory stride the tables assume; a machine
    with another stride refuses the program.  ``planned`` holds each
    step's ``(T, n_warps)`` planned congestion matrix or ``None``, and
    ``layout`` the steps' :class:`TimingLayout` when the stager has one
    (else it is built on first use).  Iterating yields one
    :class:`BatchedInstruction` at a time, its ``(T, p)`` address block
    and bank keys taken from the tables just then
    (:meth:`step_addresses`, :meth:`step_keys`), so an executor holds
    one instruction's block, not the whole program's.
    :attr:`instructions` gathers every step.
    """

    def __init__(
        self,
        p: int,
        trials: int,
        steps: Sequence[StaticInstruction],
        flat_addresses: np.ndarray,
        bases: Sequence[int],
        key_table: Optional[np.ndarray],
        flat_stride: int,
        planned: Sequence[Optional[np.ndarray]],
        layout: Optional[TimingLayout] = None,
    ) -> None:
        if len(planned) != len(steps):
            raise ValueError(
                f"{len(planned)} planned matrices for {len(steps)} steps"
            )
        self.p = check_positive_int(p, "p")
        self.trials = check_positive_int(trials, "trials")
        self.steps = tuple(steps)
        self.flat_addresses = flat_addresses
        self.bases = tuple(bases)
        self.key_table = key_table
        self.flat_stride = flat_stride
        self.planned = tuple(planned)
        self._layout = layout
        self._tables: list[Optional[np.ndarray]] = [None] * len(self.bases)
        self._no_keys = np.empty((trials, 0), dtype=np.int64)

    @property
    def layout(self) -> TimingLayout:
        """The steps' :class:`TimingLayout`, built on first use if the
        stager passed none."""
        if self._layout is None:
            self._layout = TimingLayout.of(self.steps)
        return self._layout

    def address_table(self, index: int) -> np.ndarray:
        """Array ``index``'s ``(T, p + 1)`` flat-index table, built on
        first use."""
        table = self._tables[index]
        if table is None:
            table = np.empty((self.trials, self.p + 1), dtype=np.int64)
            np.add(self.flat_addresses, self.bases[index], out=table[:, : self.p])
            table[:, self.p] = (
                np.arange(self.trials, dtype=np.int64) * self.flat_stride + INACTIVE
            )
            self._tables[index] = table
        return table

    @property
    def address_tables(self) -> tuple[np.ndarray, ...]:
        """Every array's :meth:`address_table`."""
        return tuple(self.address_table(k) for k in range(len(self.bases)))

    @property
    def instructions(self) -> list[BatchedInstruction]:
        return list(self)

    def max_address(self) -> int:
        """Largest address any step touches (INACTIVE if none)."""
        return max((step.max_address for step in self.steps), default=INACTIVE)

    def __len__(self) -> int:
        return len(self.steps)

    @staticmethod
    def _block_key(step: StaticInstruction) -> tuple:
        return (step.table, id(step.columns), id(step.key_columns))

    def step_addresses(self, step: StaticInstruction) -> np.ndarray:
        """One step's ``(T, p)`` address block, gathered from its table."""
        return np.take(self.address_table(step.table), step.columns, axis=1)

    def step_keys(self, step: StaticInstruction) -> Optional[np.ndarray]:
        """One step's dynamic-warp bank keys, ``(T, len(dynamic_warps) * w)``
        (``None`` for a step counted from a planned matrix)."""
        if step.key_columns is None:
            return None
        if not step.key_columns.size:
            return self._no_keys
        return np.take(self.key_table, step.key_columns, axis=1)

    def __iter__(self) -> Iterator[BatchedInstruction]:
        # Steps of one plan-pooled address table share their static
        # staging, so they share one gathered block too (the executors
        # only ever read it); it lives until the table's last step.
        last_use = {self._block_key(step): i for i, step in enumerate(self.steps)}
        live: dict[tuple, tuple] = {}
        for index, (step, planned) in enumerate(zip(self.steps, self.planned)):
            key = self._block_key(step)
            block = live.pop(key, None) or (
                self.step_addresses(step),
                self.step_keys(step),
            )
            if last_use[key] > index:
                live[key] = block
            addresses, bank_keys = block
            yield BatchedInstruction(
                op=step.op,
                addresses=addresses,
                register=step.register,
                values=step.values,
                mask=step.mask,
                static_congestions=step.static_congestions,
                dynamic_warps=step.dynamic_warps,
                bank_keys=bank_keys,
                planned_congestions=planned,
            )


def write_source(
    instr: BatchedInstruction, registers: dict[str, np.ndarray]
) -> np.ndarray:
    """The values a write stores: its immediates, else its register."""
    if instr.values is not None:
        return instr.values
    if instr.register not in registers:
        raise KeyError(
            f"write from register {instr.register!r} before any read into it"
        )
    return registers[instr.register]


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
        self.memory_size = check_positive_int(memory_size, "size")
        self.dtype = np.dtype(dtype)
        self._memory: Optional[BatchedMemory] = None

    @property
    def memory(self) -> BatchedMemory:
        """The ``T`` memory images, allocated on first data use (a
        time-only run never allocates them)."""
        if self._memory is None:
            self._memory = BatchedMemory(
                self.w, self.memory_size, self.trials, dtype=self.dtype
            )
        return self._memory

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
        if top >= self.memory_size:
            raise IndexError(
                f"program touches address {top}, memory size {self.memory_size}"
            )
        # BatchedMemory's stride: each trial's words plus its scratch cell.
        stride = self.memory_size + 1
        if program.flat_stride != stride:
            raise ValueError(
                f"program staged for memory stride {program.flat_stride}, "
                f"machine has {stride}"
            )

    def run(self, program: BatchedProgram) -> BatchedExecutionResult:
        """Execute the batch; returns per-trial data and exact timing."""
        return _HOST_LOOP.run(self, program)

    def time(self, program: BatchedProgram) -> np.ndarray:
        """Per-trial total time units, ``(T,)`` int64: ``run(program).time_units``
        without the data half.

        Under the DMM cost model a step's time depends only on its
        per-warp congestions, and a staged program's addresses — hence
        its bank keys — come from the shift draws alone, never from the
        data.  So after :meth:`run`'s checks the program is timed whole,
        from its :class:`TimingLayout`: a ``(T, n_steps)`` matrix of
        per-step totals starts at the static totals, takes each planned
        step's matrix sums, and adds the dynamic warps' counts.  Those
        are counted in blocks of consecutive warps, about
        ``_BLOCK_ADDRESSES`` keys each, so one block spans many steps:
        per block one gather from the key table, one in-place row sort
        and one :func:`max_run_lengths`; then one ``np.add.reduceat``
        turns the warps' counts into per-step sums.  One
        :func:`~repro.dmm.mmu.batch_completion_times` over the matrix
        and a sum over steps give the times.  No address block is
        gathered, memory is never allocated, read or written, and no
        register is built.
        """
        self._check_program(program)
        layout = program.layout
        w, trials = self.w, self.trials
        totals = np.empty((trials, len(program.steps)), dtype=np.int64)
        totals[:] = layout.static_totals
        for index in layout.planned_steps:
            planned = program.planned[index]
            assert planned is not None  # staging pairs every such step with one
            totals[:, index] = planned.sum(axis=1)
        n_warps = layout.key_columns.size // w
        per_block = max(1, _BLOCK_ADDRESSES // (trials * w))
        key_table = program.key_table
        # Every dynamic warp's congestion, in layout order; a warp
        # congestion is at most w, so 32 bits hold it.
        runs = np.empty((trials, n_warps), dtype=np.int32)  # repro: noqa[ADDR001]
        for first in range(0, n_warps, per_block):
            assert key_table is not None  # staged whenever a warp is dynamic
            last = min(first + per_block, n_warps)
            keys = np.take(key_table, layout.key_columns[first * w : last * w], axis=1)
            rows = keys.reshape(-1, w)
            rows.sort(axis=1)
            runs[:, first:last] = max_run_lengths(rows).reshape(trials, last - first)
        if n_warps:
            totals[:, layout.dynamic_steps] += np.add.reduceat(
                runs, layout.warp_starts, axis=1, dtype=np.int64
            )
        return batch_completion_times(totals, self.latency).sum(axis=1)

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
        """The data half of one instruction: gathers, scatters, registers.

        INACTIVE lanes pass straight through: the flat index
        ``t * stride - 1`` is always *some* trial's scratch cell (see
        :class:`~repro.dmm.memory.BatchedMemory`), so no per-trial
        redirect pass is needed and active lanes keep their thread order.
        """
        if instr.op == "read":
            gathered = self.memory.read_flat(instr.addresses)
            if instr.mask is None:
                registers[instr.register] = gathered
            else:
                reg = registers.setdefault(
                    instr.register,
                    np.zeros((self.trials, instr.p), dtype=self.memory.dtype),
                )
                np.copyto(reg, gathered, where=instr.mask)
        else:
            self.memory.write_flat(instr.addresses, write_source(instr, registers))


#: The host instruction loop behind :meth:`BatchedDMM.run` and the
#: default :meth:`BatchedDMM.execute_plan`.
_HOST_LOOP = NumpyBackend()
