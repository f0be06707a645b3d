"""The Discrete Memory Machine substrate: memory, warps, pipeline, executor."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.dmm.machine": [
            "DiscreteMemoryMachine",
            "ExecutionResult",
            "InstructionTrace",
        ],
        "repro.dmm.umm": ["UnifiedMemoryMachine", "coalesced_group_count"],
        "repro.dmm.memory": ["BankedMemory", "BatchedMemory"],
        "repro.dmm.batched": [
            "BatchedDMM",
            "BatchedExecutionResult",
            "BatchedInstruction",
            "BatchedInstructionTrace",
            "BatchedProgram",
        ],
        "repro.dmm.mmu": ["PipelinedMMU", "StageSchedule", "batch_completion_times"],
        "repro.dmm.trace": [
            "INACTIVE",
            "Instruction",
            "MemoryProgram",
            "read",
            "write",
        ],
        "repro.dmm.validation": ["InvariantViolation", "check_execution_invariants"],
        "repro.dmm.warp": [
            "dispatch_order",
            "warp_count",
            "warp_members",
            "warp_slices",
        ],
    },
)
