"""5-point stencil iteration on a shared-memory tile.

Stencils are the workload where *thread assignment* — not the data
structure — decides the bank behaviour.  Each thread updates one cell
from its four periodic neighbours:

``row`` assignment (warp = matrix row)
    every neighbour read is a row access — conflict-free under plain
    RAW; the layout does not matter.
``column`` assignment (warp = matrix column)
    the same five reads become column accesses — congestion ``w``
    under RAW.  Real kernels end up here whenever the surrounding
    algorithm (e.g. a line solver along columns) fixes the thread
    order.

RAP makes the assignment irrelevant: both versions run conflict-free,
which is the paper's "developers need not analyse their access
patterns" claim on a workload with *five* reads per thread.  Results
verify against a numpy ``roll``-based reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.mappings import AddressMapping
from repro.util.rng import SeedLike, as_generator

__all__ = ["STENCIL_ASSIGNMENTS", "StencilOutcome", "build_program", "run_stencil"]

STENCIL_ASSIGNMENTS = ("row", "column")


def build_program(
    mapping: AddressMapping, assignment: str = "row", seed: SeedLike = None
):
    """The 5-point stencil as a kernel skeleton: what :func:`run_stencil` executes.

    Six steps under the chosen thread ``assignment``: five neighbour
    reads from the input tile and one write to the output tile, whose
    averaged values :func:`run_stencil` computes host-side.  All six
    grids are affine, so the whole sweep certifies symbolically under
    every builtin mapping.  ``seed`` is accepted for registry
    uniformity; the skeleton is deterministic.
    """
    if assignment not in STENCIL_ASSIGNMENTS:
        raise ValueError(
            f"unknown assignment {assignment!r}; expected one of {STENCIL_ASSIGNMENTS}"
        )
    w = mapping.w
    from repro.gpu.kernel import KernelStep, SharedMemoryKernel

    ii, jj = np.meshgrid(np.arange(w), np.arange(w), indexing="ij")
    if assignment == "column":
        ii, jj = jj.copy(), ii.copy()
    steps = [
        KernelStep("read", "in", ii, jj, register="c"),
        KernelStep("read", "in", (ii - 1) % w, jj, register="u"),
        KernelStep("read", "in", (ii + 1) % w, jj, register="d"),
        KernelStep("read", "in", ii, (jj - 1) % w, register="l"),
        KernelStep("read", "in", ii, (jj + 1) % w, register="r"),
        KernelStep("write", "out", ii, jj, immediate=True),
    ]
    return SharedMemoryKernel(
        w, steps, arrays=("in", "out"), mapping=mapping, inputs=("in",)
    )


@dataclass(frozen=True)
class StencilOutcome:
    """Result of one stencil sweep on the DMM.

    Attributes
    ----------
    assignment, mapping_name:
        Thread assignment and layout.
    correct:
        Agreement with the numpy reference update.
    time_units, total_stages:
        DMM cost of the five reads + one write.
    max_congestion:
        Worst warp congestion over the six instructions.
    """

    assignment: str
    mapping_name: str
    correct: bool
    time_units: int
    total_stages: int
    max_congestion: int


def run_stencil(
    mapping: AddressMapping,
    assignment: str = "row",
    latency: int = 1,
    tile: np.ndarray | None = None,
    seed: SeedLike = None,
) -> StencilOutcome:
    """One Jacobi-style 5-point update of a ``w x w`` periodic tile.

    ``out[i][j] = (self + up + down + left + right) / 5``.

    Parameters
    ----------
    mapping:
        Layout of the input and output tiles.
    assignment:
        ``"row"`` (thread ``(i, j)`` updates cell ``(i, j)``) or
        ``"column"`` (thread ``(i, j)`` updates cell ``(j, i)``).
    latency:
        DMM pipeline depth.
    tile:
        Input tile (random when omitted).
    seed:
        RNG seed.
    """
    kernel = build_program(mapping, assignment)
    w = mapping.w
    if tile is None:
        tile = as_generator(seed).random((w, w))
    tile = np.asarray(tile, dtype=np.float64)
    if tile.shape != (w, w):
        raise ValueError(f"tile must be {w}x{w}")

    machine = kernel.make_machine(latency)
    kernel.load_array(machine, "in", tile)

    def average(index: int, regs: dict[str, np.ndarray]):
        # Steps 0-4 read the cell and its neighbours; step 5 writes.
        if index == 5:
            return (regs["c"] + regs["u"] + regs["d"] + regs["l"] + regs["r"]) / 5.0
        return None

    report = kernel.run(machine, host=average)
    out = kernel.read_array(machine, "out")
    reference = (
        tile
        + np.roll(tile, 1, axis=0)
        + np.roll(tile, -1, axis=0)
        + np.roll(tile, 1, axis=1)
        + np.roll(tile, -1, axis=1)
    ) / 5.0
    correct = bool(np.allclose(out, reference, rtol=1e-12, atol=1e-12))

    return StencilOutcome(
        assignment=assignment,
        mapping_name=mapping.name,
        correct=correct,
        time_units=report.time_units,
        total_stages=report.total_stages,
        max_congestion=report.execution.max_congestion,
    )
