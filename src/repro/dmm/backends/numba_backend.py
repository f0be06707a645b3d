"""The numba backend: ``@njit``-compiled residual-step hot loops.

The numpy reference path spends its residual time in three places:
the per-warp bank-key sort behind congestion counting, the fancy
gather/scatter pair behind data movement, and the masked register
merge.  This backend swaps each for a fused compiled loop
(:mod:`repro.dmm.backends.kernels`):

* congestion over pre-baked bank keys becomes a per-warp histogram —
  O(w) per warp instead of a sort, no temporaries;
* gathers/scatters over the staged flat store indices (INACTIVE
  lanes pass through as negative indices, exactly as in numpy) run as
  single loops without the intermediate index arrays, and the masked
  register merge uses the step's one ``(p,)`` mask for every trial;
* CRCW last-lane-wins falls out of the forward store order.

numba is imported lazily, only when the backend is probed or staged;
in environments without it the backend reports unavailable and the
registry falls back to numpy (see
:func:`repro.dmm.backends.resolve_backend`).  Passing an explicit
kernel set (e.g. :data:`~repro.dmm.backends.kernels.PYTHON_KERNELS`)
bypasses the import entirely — the equivalence tests use this to pin
the backend's logic to the reference semantics even without numba.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

import numpy as np

from repro.dmm.backends.base import BackendUnavailable, NumpyBackend, StagedPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.dmm.batched import BatchedDMM, BatchedInstruction, BatchedProgram

__all__ = ["NumbaBackend"]

Kernels = Dict[str, Callable[..., None]]


class NumbaBackend(NumpyBackend):
    """Compiled-kernel backend, bit-identical to the numpy reference.

    Parameters
    ----------
    kernels:
        Optional explicit kernel set (name -> callable).  Default
        ``None`` compiles :data:`~repro.dmm.backends.kernels.KERNEL_NAMES`
        with ``numba.njit`` on first staging; tests pass
        :data:`~repro.dmm.backends.kernels.PYTHON_KERNELS` to exercise
        the identical logic without numba.
    """

    name = "numba"

    def __init__(self, kernels: Optional[Kernels] = None) -> None:
        self._kernels = kernels
        self._avail: Optional[bool] = None
        self._reason: Optional[str] = None

    def available(self) -> bool:
        if self._avail is None:
            try:
                import numba  # noqa: F401

                self._avail, self._reason = True, None
            except Exception as exc:  # ImportError, broken install, ...
                self._avail = False
                self._reason = f"numba not importable ({type(exc).__name__})"
        return self._avail

    def unavailable_reason(self) -> Optional[str]:
        self.available()
        return self._reason

    def _prepare(self, machine: "BatchedDMM", program: "BatchedProgram") -> Kernels:
        if self._kernels is None:
            if not self.available():
                raise BackendUnavailable(
                    f"numba backend cannot stage: {self._reason}"
                )
            from repro.dmm.backends.kernels import load_kernels

            self._kernels = load_kernels(jit=True)
        return self._kernels

    # -- hot primitives ---------------------------------------------------
    def _count_warps(
        self, staged: StagedPlan
    ) -> Callable[[np.ndarray, int], np.ndarray]:
        kernels: Kernels = staged.state

        def hist_block(bank_keys: np.ndarray, w: int) -> np.ndarray:
            keys = bank_keys.reshape(-1, w)
            runs = np.empty(keys.shape[0], dtype=np.int64)
            kernels["hist_congestion"](keys, w, runs)
            return runs

        return hist_block

    def _move_data(
        self,
        machine: "BatchedDMM",
        instr: "BatchedInstruction",
        registers: dict[str, np.ndarray],
        staged: StagedPlan,
    ) -> None:
        from repro.dmm.batched import write_source

        kernels: Kernels = staged.state
        memory = machine.memory
        store = memory.flat_store
        addresses = instr.addresses
        if instr.op == "read":
            gathered = np.empty(addresses.shape, dtype=memory.dtype)
            kernels["gather_flat"](store, addresses, gathered)
            if instr.mask is None:
                registers[instr.register] = gathered
            else:
                reg = registers.setdefault(
                    instr.register,
                    np.zeros((machine.trials, instr.p), dtype=memory.dtype),
                )
                kernels["masked_assign_row"](reg, gathered, instr.mask)
        else:
            source = write_source(instr, registers)
            scatter = "scatter_flat_row" if source.ndim == 1 else "scatter_flat"
            kernels[scatter](store, addresses, source)
