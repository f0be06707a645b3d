"""Large-matrix transpose through global memory — the hierarchical picture.

The paper's motivation for ``w x w`` tiles (Section I) comes from its
companion work on the *Hierarchical Memory Machine*: big matrices live
in the global memory (a UMM — broadcast address lines, so performance
demands coalescing), and algorithms stage ``w x w`` tiles through each
SM's shared memory (a DMM — banked, so performance demands conflict
freedom).  A large transpose therefore faces both hazards at once:

``direct``
    Read the ``N x N`` global matrix row-major, write column-major.
    Every write warp touches ``w`` distinct address groups —
    uncoalesced, ``w``-fold serialized on the UMM.
``tiled``
    For each ``w x w`` tile: coalesced global read into shared memory,
    *transpose inside shared memory*, coalesced global write of the
    transposed tile to the mirrored position.  Global traffic is
    perfectly coalesced — but the shared-memory transpose is the
    paper's CRSW, so under a RAW tile layout it serializes ``w``-fold
    *there* instead.  The RAP layout removes that last hazard.

This module executes all of it faithfully: global phases run on a
:class:`~repro.dmm.umm.UnifiedMemoryMachine` holding the full matrix,
shared phases on a per-tile :class:`~repro.dmm.machine.DiscreteMemoryMachine`,
with the data actually flowing through both memories and the result
checked against ``numpy.transpose``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.mappings import AddressMapping, RAWMapping
from repro.dmm.trace import MemoryProgram, read, write
from repro.dmm.umm import UnifiedMemoryMachine
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_positive_int

__all__ = [
    "GLOBAL_STRATEGIES",
    "GlobalTransposeOutcome",
    "build_program",
    "run_global_transpose",
]

GLOBAL_STRATEGIES = ("direct", "tiled")


def build_program(mapping: AddressMapping, seed: SeedLike = None):
    """The tiled transpose's *shared-memory phase* as a certifiable kernel.

    Four shared-memory steps: store the tile contiguously (values
    arriving from global memory — an ``immediate`` write), the CRSW
    transpose read/write pair into the second tile, and the contiguous
    read-out.  :func:`run_global_transpose` runs this kernel once per
    tile, so the certified program is the one that runs.  All four
    grids are affine — the CRSW write is the paper's headline stride
    case.  ``seed`` is accepted for registry uniformity; the skeleton
    is deterministic.
    """
    w = mapping.w
    from repro.gpu.kernel import KernelStep, SharedMemoryKernel

    ii, jj = np.meshgrid(np.arange(w), np.arange(w), indexing="ij")
    steps = [
        KernelStep("write", "a", ii, jj, immediate=True),
        KernelStep("read", "a", ii, jj, register="c"),
        KernelStep("write", "b", jj, ii, register="c"),
        KernelStep("read", "b", ii, jj, register="o"),
    ]
    return SharedMemoryKernel(
        w, steps, arrays=("a", "b"), mapping=mapping, inputs=()
    )


@dataclass(frozen=True)
class GlobalTransposeOutcome:
    """Result of one large-matrix transpose.

    Attributes
    ----------
    n, w:
        Matrix side and tile/warp width.
    strategy, mapping_name:
        ``"direct"`` (mapping unused) or ``"tiled"`` + tile layout.
    correct:
        Element-wise equality with ``numpy.transpose``.
    global_time, shared_time:
        Time units spent in the global (UMM) and shared (DMM) phases.
    total_time:
        Sum of the two.
    """

    n: int
    w: int
    strategy: str
    mapping_name: str
    correct: bool
    global_time: int
    shared_time: int

    @property
    def total_time(self) -> int:
        return self.global_time + self.shared_time


def _direct(n: int, w: int, latency: int, matrix: np.ndarray) -> GlobalTransposeOutcome:
    """One-step global transpose: contiguous read, strided write."""
    gmem = UnifiedMemoryMachine(w, latency, memory_size=2 * n * n)
    gmem.load(0, matrix.ravel())
    src = np.arange(n * n, dtype=np.int64)
    i, j = src // n, src % n
    dst = n * n + (j * n + i)
    prog = MemoryProgram(p=n * n)
    prog.append(read(src, register="v"))
    prog.append(write(dst, register="v"))
    result = gmem.run(prog)
    out = gmem.dump(n * n, n * n).reshape(n, n)
    return GlobalTransposeOutcome(
        n=n,
        w=w,
        strategy="direct",
        mapping_name="-",
        correct=bool(np.array_equal(out, matrix.T)),
        global_time=result.time_units,
        shared_time=0,
    )


def _tiled(
    n: int,
    w: int,
    latency: int,
    matrix: np.ndarray,
    mapping: AddressMapping,
) -> GlobalTransposeOutcome:
    """Stage w x w tiles through shared memory; transpose there."""
    gmem = UnifiedMemoryMachine(w, latency, memory_size=2 * n * n)
    gmem.load(0, matrix.ravel())
    kernel = build_program(mapping)
    tiles = n // w
    global_time = 0
    shared_time = 0

    ti, tj = np.meshgrid(np.arange(w), np.arange(w), indexing="ij")

    for bi in range(tiles):
        for bj in range(tiles):
            # -- global read of tile (bi, bj), row-major: coalesced ----
            rows = bi * w + ti
            cols = bj * w + tj
            src = (rows * n + cols).ravel()
            prog = MemoryProgram(p=w * w, instructions=[read(src, register="t")])
            result = gmem.run(prog)
            global_time += result.time_units
            tile_vals = result.registers["t"]

            # -- shared phase: the skeleton (store, CRSW, read-out) ----
            report = kernel.run(
                latency=latency, host=lambda index, registers: tile_vals
            )
            shared_time += report.time_units
            out_vals = report.execution.registers["o"]

            # -- global write to the mirrored tile, row-major: coalesced
            drows = bj * w + ti
            dcols = bi * w + tj
            dst = n * n + (drows * n + dcols).ravel()
            prog = MemoryProgram(
                p=w * w, instructions=[write(dst, values=out_vals)]
            )
            global_time += gmem.run(prog).time_units

    out = gmem.dump(n * n, n * n).reshape(n, n)
    return GlobalTransposeOutcome(
        n=n,
        w=w,
        strategy="tiled",
        mapping_name=mapping.name,
        correct=bool(np.array_equal(out, matrix.T)),
        global_time=global_time,
        shared_time=shared_time,
    )


def run_global_transpose(
    n: int,
    strategy: str = "tiled",
    mapping: AddressMapping | None = None,
    w: int = 32,
    latency: int = 1,
    matrix: np.ndarray | None = None,
    seed: SeedLike = None,
) -> GlobalTransposeOutcome:
    """Transpose an ``n x n`` matrix resident in global memory.

    Parameters
    ----------
    n:
        Matrix side; must be a multiple of ``w``.
    strategy:
        ``"direct"`` or ``"tiled"``.
    mapping:
        Shared-tile layout for the tiled strategy (default RAW — the
        layout whose shared-stage serialization the comparison is
        about).
    w:
        Tile side == warp width == bank count, for both memories.
    latency:
        Pipeline depth of both memories (kept equal so the stage
        counts, not the depths, drive the comparison).
    matrix:
        Input (random when omitted).
    seed:
        RNG seed.
    """
    check_positive_int(n, "n")
    check_positive_int(w, "w")
    if n % w != 0:
        raise ValueError(f"n={n} must be a multiple of w={w}")
    if strategy not in GLOBAL_STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of {GLOBAL_STRATEGIES}"
        )
    if matrix is None:
        matrix = as_generator(seed).random((n, n))
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape != (n, n):
        raise ValueError(f"matrix must be {n}x{n}")

    if strategy == "direct":
        return _direct(n, w, latency, matrix)
    if mapping is None:
        mapping = RAWMapping(w)
    if mapping.w != w:
        raise ValueError(f"mapping width {mapping.w} != w={w}")
    return _tiled(n, w, latency, matrix, mapping)
