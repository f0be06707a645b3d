"""The Unified Memory Machine (Fig. 1) — the global-memory contrast model.

The UMM shares everything with the DMM except the address lines: a
*single* address value is broadcast from the MMU to all banks, so in
one time unit the machine can serve exactly the requests that fall in
one *address group* — the ``w`` consecutive addresses
``[g*w, (g+1)*w)`` whose per-bank rows coincide.  A warp access
therefore occupies as many pipeline stages as it touches **distinct
address groups** (this is CUDA's global-memory coalescing rule), not
distinct same-bank addresses.

The class mirrors :class:`repro.dmm.machine.DiscreteMemoryMachine`'s
interface so that the same :class:`~repro.dmm.trace.MemoryProgram` can
be timed under both models — the paper's Fig. 1 comparison made
executable.  Data semantics (CRCW-arbitrary) are identical.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from repro.dmm.machine import ExecutionResult, InstructionTrace
from repro.dmm.memory import BankedMemory
from repro.dmm.mmu import PipelinedMMU
from repro.dmm.trace import INACTIVE, Instruction, MemoryProgram
from repro.dmm.warp import dispatch_order, warp_count
from repro.util.validation import check_latency, check_positive_int

__all__ = ["coalesced_group_count", "UnifiedMemoryMachine"]


def coalesced_group_count(addresses: np.ndarray, w: int) -> int:
    """Number of distinct address groups a warp access touches.

    An address group is a maximal aligned run of ``w`` consecutive
    addresses (``a // w`` identifies the group).  This is the UMM's
    analogue of congestion: a warp whose requests span ``g`` groups
    occupies ``g`` pipeline stages.

    Returns 0 for an empty request vector.
    """
    check_positive_int(w, "w")
    addresses = np.asarray(addresses)
    if addresses.size == 0:
        return 0
    return int(np.unique(addresses // w).size)


class UnifiedMemoryMachine:
    """A UMM with ``w``-wide broadcast address lines.

    Same constructor and :meth:`run` contract as
    :class:`~repro.dmm.machine.DiscreteMemoryMachine`.
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

    def load(self, base: int, values: np.ndarray) -> None:
        """Pre-load ``values`` into memory starting at address ``base``."""
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

    def run(self, program: MemoryProgram) -> ExecutionResult:
        """Execute ``program`` under UMM (coalescing) timing rules."""
        warp_count(program.p, self.w)
        result = ExecutionResult(time_units=0)
        for instr in program:
            result.append(self._execute(instr, result.registers))
        return result

    def _execute(
        self, instr: Instruction, registers: dict[str, np.ndarray]
    ) -> InstructionTrace:
        addresses = instr.addresses
        warps = dispatch_order(addresses, self.w)
        grouped = addresses.reshape(-1, self.w)

        # Pipeline stages per warp = distinct address groups touched.
        group_counts = []
        for widx in warps:
            row = grouped[widx]
            active = row[row != INACTIVE]
            group_counts.append(coalesced_group_count(active, self.w))

        schedule = self.mmu.schedule(group_counts)

        mask = instr.active_mask
        if instr.op == "read":
            reg = registers.setdefault(
                instr.register, np.zeros(instr.p, dtype=self.memory.dtype)
            )
            if mask.any():
                reg[mask] = self.memory.read(addresses[mask])
        else:
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
            dispatched_warps=tuple(warps),
            congestions=tuple(group_counts),
            schedule=schedule,
            time_units=schedule.completion_time,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"UnifiedMemoryMachine(w={self.w}, latency={self.latency}, "
            f"memory_size={self.memory.size})"
        )
