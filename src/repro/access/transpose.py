"""Matrix transpose algorithms as DMM programs (Sections III & VI).

The three algorithms differ only in which logical element thread
``t = i*w + j`` moves:

=========  ===========================  ==========================
algorithm  reads                        writes
=========  ===========================  ==========================
``CRSW``   ``a[i][j]`` (contiguous)     ``b[j][i]`` (stride)
``SRCW``   ``a[j][i]`` (stride)         ``b[i][j]`` (contiguous)
``DRDW``   ``a[j][(i+j) mod w]``        ``b[(i+j) mod w][j]``
=========  ===========================  ==========================

Both matrices live in shared memory under the *same* address mapping
(the paper's kernels reuse one packed shift vector ``r`` for ``a`` and
``b``), and the kernels address them through their *logical* indices —
that is precisely the RAP trick: CRSW's stride write to logical
``b[j][i]`` lands in physical bank ``(i + sigma_j) mod w``, and because
``sigma`` is a permutation those banks are all distinct within a warp.

:func:`~repro.gpu.kernel.transpose_kernel` builds an algorithm as a
two-step kernel (SIMD read, then SIMD write — the DMM forbids mixing),
the skeleton the static certifier sees.  :func:`run_transpose`
executes it on a fresh machine and checks the result against
``numpy.transpose``.  :func:`run_transpose_batch` runs one algorithm
under ``T`` mappings at once: each instruction's addresses for every
trial go through one congestion-kernel call, and the data moves by one
gather and one scatter over all trials' memories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.congestion import congestion_batch
from repro.core.mappings import AddressMapping
from repro.dmm.machine import ExecutionResult
from repro.dmm.mmu import batch_completion_times
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_latency

__all__ = [
    "TRANSPOSE_NAMES",
    "transpose_indices",
    "TransposeOutcome",
    "TransposeBatchOutcome",
    "run_transpose",
    "run_transpose_batch",
]

TRANSPOSE_NAMES = ("CRSW", "SRCW", "DRDW")


def transpose_indices(
    kind: str, w: int
) -> Tuple[Tuple[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]:
    """Logical (read, write) index grids of a transpose algorithm.

    Returns
    -------
    ((ri, rj), (wi, wj)):
        Four ``(w, w)`` arrays: thread ``(i, j)`` reads logical
        ``a[ri, rj]`` and writes logical ``b[wi, wj]``.  Axis 0 is the
        warp index ``i``, axis 1 the lane ``j``.
    """
    ii, jj = np.meshgrid(np.arange(w), np.arange(w), indexing="ij")
    key = kind.upper()
    if key == "CRSW":
        return (ii, jj), (jj, ii)
    if key == "SRCW":
        return (jj, ii), (ii, jj)
    if key == "DRDW":
        diag = (ii + jj) % w
        return (jj, diag), (diag, jj)
    raise ValueError(f"unknown transpose {kind!r}; expected one of {TRANSPOSE_NAMES}")


@dataclass(frozen=True)
class TransposeOutcome:
    """Result of executing one transpose on the DMM.

    Attributes
    ----------
    kind, mapping_name:
        What ran.
    correct:
        Whether the destination equals ``numpy.transpose`` of the
        source (checked through the mapping's layout inverse).
    time_units:
        Exact DMM completion time.
    read_congestion, write_congestion:
        Worst warp congestion of the read and write instruction.
    execution:
        The full machine trace for further inspection.
    """

    kind: str
    mapping_name: str
    correct: bool
    time_units: int
    read_congestion: int
    write_congestion: int
    execution: ExecutionResult


def run_transpose(
    kind: str,
    mapping: AddressMapping,
    latency: int = 1,
    matrix: Optional[np.ndarray] = None,
    seed: SeedLike = None,
) -> TransposeOutcome:
    """Execute a transpose end-to-end on a fresh DMM and verify it.

    Parameters
    ----------
    kind:
        Algorithm name (``"CRSW"``, ``"SRCW"``, ``"DRDW"``).
    mapping:
        Address mapping for both matrices.
    latency:
        DMM pipeline depth ``l``.
    matrix:
        Source matrix (``w x w``); random values are drawn when
        omitted.
    seed:
        RNG seed for the random source matrix.

    Returns
    -------
    TransposeOutcome
    """
    w = mapping.w
    if matrix is None:
        matrix = as_generator(seed).random((w, w))
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape != (w, w):
        raise ValueError(f"matrix must be {w}x{w}, got shape {matrix.shape}")

    from repro.gpu.kernel import transpose_kernel

    kernel = transpose_kernel(kind, mapping)
    machine = kernel.make_machine(latency)
    kernel.load_array(machine, "a", matrix)
    execution = kernel.run(machine).execution
    correct = bool(np.array_equal(kernel.read_array(machine, "b"), matrix.T))

    return TransposeOutcome(
        kind=kind.upper(),
        mapping_name=mapping.name,
        correct=correct,
        time_units=execution.time_units,
        read_congestion=execution.traces[0].max_congestion,
        write_congestion=execution.traces[1].max_congestion,
        execution=execution,
    )


@dataclass(frozen=True)
class TransposeBatchOutcome:
    """Result of executing one transpose under ``T`` mappings at once.

    Row ``t`` of every array is what :func:`run_transpose` reports for
    trial ``t``'s mapping and matrix.

    Attributes
    ----------
    correct:
        ``(T,)`` bool: the destination equals the source's transpose.
    time_units:
        ``(T,)`` exact DMM completion times.
    read_congestions, write_congestions:
        ``(T, w)`` per-warp congestion of the read and write
        instruction, in warp order (every warp of a transpose is
        active, so all ``w`` are dispatched).
    """

    correct: np.ndarray
    time_units: np.ndarray
    read_congestions: np.ndarray
    write_congestions: np.ndarray

    @property
    def total_stages(self) -> np.ndarray:
        """``(T,)`` pipeline stages of both instructions: the summed
        per-warp congestions, the timing model's input."""
        return self.read_congestions.sum(axis=1) + self.write_congestions.sum(axis=1)


def run_transpose_batch(
    kind: str,
    shifts: np.ndarray,
    matrices: np.ndarray,
    latency: int = 1,
) -> TransposeBatchOutcome:
    """Execute a transpose under ``T`` shifted-row mappings at once.

    Trial ``t`` is :func:`run_transpose` of ``kind`` under
    ``mapping_from_shifts(name, shifts[t])`` on ``matrices[t]``.  Each
    instruction's addresses for all trials form ``T * w`` warp rows
    that go through one :func:`~repro.core.congestion.congestion_batch`
    call, the same kernel call (and the same rows) the scalar machine
    makes per trial.  The data moves through a ``(T, 2 w^2)`` image of
    every trial's memory: one gather for the read, one scatter for the
    write.

    Parameters
    ----------
    kind:
        Algorithm name (``"CRSW"``, ``"SRCW"``, ``"DRDW"``).
    shifts:
        ``(T, w)`` integer shift vectors, one per trial, each in
        ``[0, w)`` (checked by :func:`~repro.gpu.kernel.check_shifts`).
    matrices:
        ``(T, w, w)`` source matrices.
    latency:
        DMM pipeline depth ``l``.
    """
    from repro.gpu.kernel import check_shifts

    matrices = np.asarray(matrices, dtype=np.float64)
    if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
        raise ValueError(
            f"matrices must be (trials, w, w), got shape {matrices.shape}"
        )
    w = matrices.shape[1]
    shifts = check_shifts(shifts, w)
    trials = shifts.shape[0]
    if matrices.shape[0] != trials:
        raise ValueError(
            f"matrices hold {matrices.shape[0]} trials, shifts hold {trials}"
        )
    check_latency(latency)
    (ri, rj), (wi, wj) = transpose_indices(kind, w)
    p = w * w
    cols = np.arange(w, dtype=np.int64)
    # rot[s, j] = (j + s) mod w: logical (i, j) of trial t lives at
    # i*w + rot[shifts[t, i], j] within its array.
    rot = (cols[:, None] + cols[None, :]) % w

    def addresses(base: int, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
        return base + ii * w + rot[shifts[:, ii], jj]

    read = addresses(0, ri, rj).reshape(trials, p)
    write = addresses(p, wi, wj).reshape(trials, p)
    read_congestions = congestion_batch(read.reshape(-1, w), w).reshape(trials, w)
    write_congestions = congestion_batch(write.reshape(-1, w), w).reshape(trials, w)
    stages = np.stack(
        [read_congestions.sum(axis=1), write_congestions.sum(axis=1)], axis=1
    )
    time_units = batch_completion_times(stages, latency).sum(axis=1)

    # Every trial's memory, a at [0, p) and b at [p, 2p), flattened so
    # one fancy index reaches all trials.
    offsets = (np.arange(trials, dtype=np.int64) * 2 * p)[:, None]
    layout = (rot[shifts] + (cols * w)[:, None]).reshape(trials, p) + offsets
    memory = np.zeros(trials * 2 * p)
    memory[layout] = matrices.reshape(trials, p)
    memory[write + offsets] = memory[read + offsets]
    b = memory[layout + p].reshape(trials, w, w)
    correct = (b == matrices.transpose(0, 2, 1)).all(axis=(1, 2))

    return TransposeBatchOutcome(
        correct=correct,
        time_units=time_units,
        read_congestions=read_congestions,
        write_congestions=write_congestions,
    )
