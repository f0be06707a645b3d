"""The ``PlanBackend`` protocol and the host instruction loop.

A *backend* is an execution strategy for the one batched program form,
the :class:`~repro.dmm.batched.BatchedProgram` that
:meth:`repro.gpu.kernel.SharedMemoryKernel.program_batch` stages (with
or without a compiled plan's static verdicts): ``(T, p)`` blocks of
flat store indices with each trial's offset baked in.  Every backend
implements the same two-phase contract:

``stage(machine, program) -> StagedPlan``
    One-time preparation: validate the program against the machine
    and compile whatever kernels the backend needs.  Staging may be
    paid once and the result executed later.

``execute(staged) -> BatchedExecutionResult``
    Run the staged program.  The result must be **bit-identical** to
    the numpy reference — per-trial congestion matrices, dispatch
    sets, completion times, final registers, and final memory — which
    in turn is pinned to the scalar machine.  A backend is a
    wall-clock transform, never a semantic one.

:class:`NumpyBackend` is the reference and owns the only host
instruction loop: :meth:`~repro.dmm.batched.BatchedDMM.run` and
:meth:`~repro.dmm.batched.BatchedDMM.execute_plan` both execute through
it.  The numba backend subclasses it and replaces only the two hot
primitives (congestion counting and data movement), so the loop — the
statically resolved closed form, the residual congestion count, the
timing arithmetic — exists once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Optional,
    Protocol,
    runtime_checkable,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.dmm.batched import (
        BatchedDMM,
        BatchedExecutionResult,
        BatchedInstruction,
        BatchedProgram,
    )

__all__ = [
    "BackendUnavailable",
    "StagedPlan",
    "PlanBackend",
    "NumpyBackend",
]


class BackendUnavailable(RuntimeError):
    """Raised when a backend is asked to stage/execute without its deps."""


@dataclass
class StagedPlan:
    """A program prepared by one backend, ready to execute.

    Attributes
    ----------
    backend:
        Name of the backend that staged this plan; :meth:`execute`
        refuses a plan staged by a different backend.
    machine:
        The :class:`~repro.dmm.batched.BatchedDMM` holding the run's
        memory and timing parameters.
    program:
        The staged instruction blocks.
    state:
        Backend-private preparation (compiled kernels);
        ``None`` for backends that execute the program in place.
    """

    backend: str
    machine: "BatchedDMM"
    program: "BatchedProgram"
    state: Any = None


@runtime_checkable
class PlanBackend(Protocol):
    """Execution backend for staged batched programs."""

    #: registry name (``"numpy"``, ``"numba"``, ...).
    name: str

    def available(self) -> bool:
        """Can this backend execute here (deps importable)?"""

    def unavailable_reason(self) -> Optional[str]:
        """Why :meth:`available` is False (``None`` when available)."""

    def stage(self, machine: "BatchedDMM", program: "BatchedProgram") -> StagedPlan:
        """Prepare ``program`` for execution on ``machine``."""

    def execute(self, staged: StagedPlan) -> "BatchedExecutionResult":
        """Run a staged plan; bit-identical to the reference path."""


class NumpyBackend:
    """The reference backend: the host instruction loop over numpy.

    For each instruction of the program, in order, the timing half
    (:func:`~repro.dmm.batched.step_timing`: a *fully static*
    instruction's closed form, else its counted congestions and the
    vectorized timing arithmetic) and then the data half.

    Subclasses override :meth:`_count_warps` and :meth:`_move_data` to
    swap in compiled kernels; the loop structure — and therefore the
    exactness contract — stays shared.
    """

    name = "numpy"

    def available(self) -> bool:
        return True

    def unavailable_reason(self) -> Optional[str]:
        return None

    def stage(self, machine: "BatchedDMM", program: "BatchedProgram") -> StagedPlan:
        machine._check_program(program)
        return StagedPlan(
            backend=self.name,
            machine=machine,
            program=program,
            state=self._prepare(machine, program),
        )

    def _prepare(self, machine: "BatchedDMM", program: "BatchedProgram") -> Any:
        """Backend-private staging hook (default: nothing to prepare)."""
        return None

    def run(
        self, machine: "BatchedDMM", program: "BatchedProgram"
    ) -> "BatchedExecutionResult":
        """Stage ``program`` on ``machine`` and execute it."""
        return self.execute(self.stage(machine, program))

    def execute(self, staged: StagedPlan) -> "BatchedExecutionResult":
        from repro.dmm.batched import (
            BatchedExecutionResult,
            BatchedInstructionTrace,
            step_timing,
        )

        if staged.backend != self.name:
            raise ValueError(
                f"staged plan belongs to backend {staged.backend!r}, "
                f"this is {self.name!r}"
            )
        machine = staged.machine
        registers: dict[str, np.ndarray] = {}
        time_units = np.zeros(machine.trials, dtype=np.int64)
        result = BatchedExecutionResult(
            time_units=time_units, registers=registers, memory=machine.memory
        )
        count_warps = self._count_warps(staged)
        for instr in staged.program:
            cong, times = step_timing(
                machine,
                instr.static_congestions,
                instr.dynamic_warps,
                instr.bank_keys,
                instr.planned_congestions,
                count_warps,
            )
            self._move_data(machine, instr, registers, staged)
            result.traces.append(
                BatchedInstructionTrace(
                    op=instr.op, congestions=cong, time_units=times
                )
            )
            time_units += times
        result.time_units = time_units
        return result

    # -- the two hot primitives subclasses replace -----------------------
    def _count_warps(
        self, staged: StagedPlan
    ) -> Callable[[np.ndarray, int], np.ndarray]:
        """The dynamic-warp congestion counter, with
        :func:`~repro.dmm.batched.warp_congestion_block`'s contract."""
        from repro.dmm.batched import warp_congestion_block

        return warp_congestion_block

    def _move_data(
        self,
        machine: "BatchedDMM",
        instr: "BatchedInstruction",
        registers: dict[str, np.ndarray],
        staged: StagedPlan,
    ) -> None:
        machine._move_data(instr, registers)
