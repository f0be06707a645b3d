"""The Discrete Memory Machine executor (Section II).

:class:`DiscreteMemoryMachine` runs a :class:`~repro.dmm.trace.MemoryProgram`
and returns both the *data* outcome (memory contents, per-thread
registers) and the *timing* outcome (exact time units under the
paper's pipeline rules).

Execution semantics, mapped line-by-line to the paper:

* Threads execute in SIMD fashion: one instruction at a time, all
  threads together; a single instruction is either all-reads or
  all-writes ("if one of them sends a memory read request, none of the
  others can send memory write request").
* Threads partition into warps of ``w``; warps are dispatched in
  round-robin order and a warp with no active thread is skipped.
* Within one warp access, requests to the same address merge;
  requests to distinct addresses in the same bank serialize, giving
  the warp's *congestion* ``c`` and occupying ``c`` pipeline stages.
* A thread cannot issue its next request until the previous one
  completes (latency ``l``), so successive instructions run
  phase-sequentially: ``T = sum_instr (sum_warps c + l - 1)``.

The executor is also the oracle for Lemma 1: running the three
transpose programs of :mod:`repro.access.transpose` reports exactly
``p + p/w + 2(l-1)`` time units for CRSW/SRCW and ``2(p/w + l - 1)``
for DRDW.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt

from repro.core.congestion import congestion_batch
from repro.dmm.memory import BankedMemory
from repro.dmm.mmu import PipelinedMMU, StageSchedule
from repro.dmm.trace import INACTIVE, Instruction, MemoryProgram
from repro.dmm.warp import warp_count
from repro.util.validation import check_latency, check_positive_int

__all__ = ["InstructionTrace", "ExecutionResult", "DiscreteMemoryMachine"]


@dataclass(frozen=True)
class InstructionTrace:
    """Timing record of one executed instruction.

    Attributes
    ----------
    op:
        ``"read"`` or ``"write"``.
    dispatched_warps:
        Warp indices that issued requests, in dispatch order.
    congestions:
        Congestion of each dispatched warp (same order).
    schedule:
        The MMU stage schedule for the batch.
    time_units:
        Completion time of this instruction.
    """

    op: str
    dispatched_warps: tuple[int, ...]
    congestions: tuple[int, ...]
    schedule: StageSchedule
    time_units: int

    @property
    def max_congestion(self) -> int:
        """Worst warp congestion in this instruction (0 if none ran)."""
        return max(self.congestions, default=0)

    @property
    def mean_congestion(self) -> float:
        """Average per-warp congestion (the paper's Table III metric)."""
        if not self.congestions:
            return 0.0
        return sum(self.congestions) / len(self.congestions)


@dataclass
class ExecutionResult:
    """Outcome of running a program on the DMM.

    Attributes
    ----------
    time_units:
        Total time units (sum over phase-sequential instructions).
    traces:
        One :class:`InstructionTrace` per instruction.
    registers:
        Final per-thread register file: ``registers[name][t]``.
    """

    time_units: int
    traces: list[InstructionTrace] = field(default_factory=list)
    registers: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def max_congestion(self) -> int:
        """Worst warp congestion over the whole program."""
        return max((t.max_congestion for t in self.traces), default=0)

    def append(self, trace: InstructionTrace) -> None:
        """Record one more executed instruction."""
        self.traces.append(trace)
        self.time_units += trace.time_units

    def congestion_by_op(self, op: str) -> int:
        """Worst warp congestion over instructions of kind ``op``."""
        return max(
            (t.max_congestion for t in self.traces if t.op == op), default=0
        )


class DiscreteMemoryMachine:
    """A DMM with ``w`` banks, latency ``l``, and a banked memory.

    Parameters
    ----------
    w:
        Width: number of banks == threads per warp.
    latency:
        Memory pipeline depth ``l``.
    memory_size:
        Addressable words of shared memory.
    dtype:
        Backing-store dtype (default float64 — ``double`` in the
        paper's kernels).
    """

    def __init__(
        self,
        w: int,
        latency: int,
        memory_size: int,
        dtype: "npt.DTypeLike" = np.float64,
    ) -> None:
        self.w = check_positive_int(w, "w")
        self.latency = check_latency(latency)
        self.memory = BankedMemory(w, memory_size, dtype=dtype)
        self.mmu = PipelinedMMU(w, latency)

    # -- memory convenience ---------------------------------------------
    def load(self, base: int, values: np.ndarray) -> None:
        """Pre-load ``values`` into memory starting at address ``base``.

        Models data already resident in shared memory before the timed
        kernel begins (the paper times only the transpose proper).
        """
        values = np.asarray(values).ravel()
        if base < 0 or base + values.size > self.memory.size:
            raise IndexError(
                f"load of {values.size} words at base {base} exceeds memory size {self.memory.size}"
            )
        self.memory.store[base : base + values.size] = values

    def dump(self, base: int, count: int) -> np.ndarray:
        """Copy ``count`` words starting at ``base`` out of memory."""
        if base < 0 or base + count > self.memory.size:
            raise IndexError(
                f"dump of {count} words at base {base} exceeds memory size {self.memory.size}"
            )
        return self.memory.store[base : base + count].copy()

    # -- execution -------------------------------------------------------
    def run(self, program: MemoryProgram) -> ExecutionResult:
        """Execute ``program``; returns data and exact timing.

        Thread count ``program.p`` must be a multiple of ``w``.
        Register files are created on first use and persist across
        instructions (they model per-thread local variables).
        """
        warp_count(program.p, self.w)  # validates divisibility
        result = ExecutionResult(time_units=0)
        for instr in program:
            result.append(self.execute(instr, result.registers))
        return result

    def execute(
        self, instr: Instruction, registers: dict[str, np.ndarray]
    ) -> InstructionTrace:
        """Execute one instruction against a caller-held register file.

        ``registers`` is updated in place (a read creates its register
        on first use), so a caller that interleaves host work between
        instructions sees the same register semantics as :meth:`run`.
        """
        addresses = instr.addresses
        grouped = addresses.reshape(-1, self.w)

        # One vectorized pass over every warp: congestion 0 marks the
        # warps that have no active lane and are never dispatched.
        per_warp = congestion_batch(grouped, self.w, inactive=INACTIVE)
        warps = np.flatnonzero(per_warp)
        congestions = [int(c) for c in per_warp[warps]]

        schedule = self.mmu.schedule(congestions)

        mask = instr.active_mask
        if instr.op == "read":
            reg = registers.setdefault(
                instr.register, np.zeros(instr.p, dtype=self.memory.dtype)
            )
            if mask.any():
                reg[mask] = self.memory.read(addresses[mask])
        else:  # write
            if instr.values is not None:
                source = np.asarray(instr.values)
            else:
                if instr.register not in registers:
                    raise KeyError(
                        f"write from register {instr.register!r} before any read into it"
                    )
                source = registers[instr.register]
            if mask.any():
                self.memory.write(addresses[mask], source[mask])

        return InstructionTrace(
            op=instr.op,
            dispatched_warps=tuple(int(widx) for widx in warps),
            congestions=tuple(congestions),
            schedule=schedule,
            time_units=schedule.completion_time,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DiscreteMemoryMachine(w={self.w}, latency={self.latency}, "
            f"memory_size={self.memory.size})"
        )
