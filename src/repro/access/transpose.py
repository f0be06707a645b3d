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
``numpy.transpose``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.mappings import AddressMapping
from repro.dmm.machine import ExecutionResult
from repro.util.rng import SeedLike, as_generator

__all__ = [
    "TRANSPOSE_NAMES",
    "transpose_indices",
    "TransposeOutcome",
    "run_transpose",
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
