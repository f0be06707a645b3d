"""The Discrete Memory Machine substrate: memory, warps, pipeline, executor."""

from repro.dmm.batched import (
    BatchedDMM,
    BatchedExecutionResult,
    BatchedInstruction,
    BatchedInstructionTrace,
    BatchedProgram,
)
from repro.dmm.event_sim import EventDrivenDMM, EventExecutionResult
from repro.dmm.machine import (
    DiscreteMemoryMachine,
    ExecutionResult,
    InstructionTrace,
)
from repro.dmm.memory import BankedMemory, BatchedMemory
from repro.dmm.mmu import PipelinedMMU, StageSchedule, batch_completion_times
from repro.dmm.trace import INACTIVE, Instruction, MemoryProgram, read, write
from repro.dmm.umm import UnifiedMemoryMachine, coalesced_group_count
from repro.dmm.validation import InvariantViolation, check_execution_invariants
from repro.dmm.warp import dispatch_order, warp_count, warp_members, warp_slices

__all__ = [
    "DiscreteMemoryMachine",
    "EventDrivenDMM",
    "EventExecutionResult",
    "UnifiedMemoryMachine",
    "ExecutionResult",
    "InstructionTrace",
    "BankedMemory",
    "BatchedMemory",
    "BatchedDMM",
    "BatchedExecutionResult",
    "BatchedInstruction",
    "BatchedInstructionTrace",
    "BatchedProgram",
    "PipelinedMMU",
    "StageSchedule",
    "batch_completion_times",
    "INACTIVE",
    "Instruction",
    "MemoryProgram",
    "read",
    "write",
    "coalesced_group_count",
    "InvariantViolation",
    "check_execution_invariants",
    "dispatch_order",
    "warp_count",
    "warp_members",
    "warp_slices",
]
