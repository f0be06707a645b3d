"""ELL sparse matrix-vector multiply — structured-irregular access.

SpMV sits between the dense kernels (statically analysable) and the
pure gather (fully data-dependent): the column indices are data, but
real sparse matrices have *structure*, and that structure decides the
bank behaviour of reading ``x[col]``:

``banded``
    diagonals at offsets ``{0, ±1, ±d}``: entry ``(i, i+off)`` reads
    ``x[(i+off) mod n]`` — lane-distinct within a warp, conflict-free
    everywhere (the stencil case in sparse clothing);
``column_block``
    all rows draw their neighbours from one narrow column block (the
    supernode/community pattern): within a warp each entry slot reads
    nearby columns that collide mod ``w`` under RAW when the block is
    ``w``-aligned — this is where the layout matters;
``random``
    uniform sparsity — the balls-in-bins floor, layout-invariant.

The multiply runs entry-slot by entry-slot (``k`` gather instructions
for an ELL width of ``k``), accumulating host-side as everywhere in
this library; ``y`` is verified against the dense ``A @ x`` reference.
The vector ``x`` (length ``w^2``) lives in a mapped shared tile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.mappings import AddressMapping
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_positive_int

__all__ = [
    "SPMV_STRUCTURES",
    "EllMatrix",
    "build_program",
    "make_ell",
    "SpmvOutcome",
    "run_spmv",
]

SPMV_STRUCTURES = ("banded", "column_block", "random")


@dataclass(frozen=True)
class EllMatrix:
    """A sparse matrix in ELLPACK form.

    Attributes
    ----------
    n:
        Square dimension.
    cols:
        Shape ``(n, k)`` int64 column indices; ``-1`` marks padding.
    values:
        Shape ``(n, k)`` float64 entry values (0 where padded).
    """

    n: int
    cols: np.ndarray
    values: np.ndarray

    @property
    def k(self) -> int:
        """Entries per row (the ELL width)."""
        return self.cols.shape[1]

    def dense(self) -> np.ndarray:
        """Densify for reference computations.

        Duplicate ``(row, col)`` entries accumulate (``np.add.at`` —
        plain fancy ``+=`` would silently drop them).
        """
        out = np.zeros((self.n, self.n))
        rows, slots = np.nonzero(self.cols >= 0)
        np.add.at(out, (rows, self.cols[rows, slots]), self.values[rows, slots])
        return out


def make_ell(
    n: int, structure: str = "banded", k: int = 4, seed: SeedLike = None
) -> EllMatrix:
    """Build an ELL matrix of a named sparsity structure.

    Parameters
    ----------
    n:
        Dimension (the vector ``x`` must fit the shared tile, so use
        ``n = w^2``).
    structure:
        ``"banded"``, ``"column_block"``, or ``"random"``.
    k:
        Entries per row.
    seed:
        RNG seed for values (and columns, where random).
    """
    check_positive_int(n, "n")
    check_positive_int(k, "k")
    if structure not in SPMV_STRUCTURES:
        raise ValueError(
            f"unknown structure {structure!r}; expected one of {SPMV_STRUCTURES}"
        )
    rng = as_generator(seed)
    rows = np.arange(n, dtype=np.int64)[:, None]
    if structure == "banded":
        # Offsets 0, +1, -1, +d, -d, ... up to k diagonals.
        w = max(2, int(round(n**0.5)))
        offsets = [0, 1, -1, w, -w, 2, -2, 2 * w, -2 * w]
        cols = np.stack(
            [(rows[:, 0] + offsets[s]) % n for s in range(k)], axis=1
        ).astype(np.int64)
    elif structure == "column_block":
        # Entry slot s of row i reads tile column s at tile row
        # (i mod w): within any warp the lanes' addresses are
        # w-strided — distinct positions, one bank per slot under RAW.
        w = max(2, int(round(n**0.5)))
        tile_row = rows[:, 0] % w
        cols = (
            tile_row[:, None] * w + np.arange(k, dtype=np.int64)[None, :]
        ) % n
    else:
        cols = rng.integers(0, n, size=(n, k), dtype=np.int64)
    values = rng.random((n, k))
    return EllMatrix(n=n, cols=cols, values=values)


@dataclass(frozen=True)
class SpmvOutcome:
    """Result of one SpMV on the DMM.

    Attributes
    ----------
    structure, mapping_name:
        What ran.
    correct:
        ``y`` equals the dense reference product to 1e-9.
    time_units, total_stages:
        DMM cost of the ``k`` gather instructions.
    worst_gather_congestion:
        Worst warp congestion over all entry slots.
    """

    structure: str
    mapping_name: str
    correct: bool
    time_units: int
    total_stages: int
    worst_gather_congestion: int


def _spmv_kernel(mapping: AddressMapping, matrix: EllMatrix):
    """One gather step per ELL entry slot, padding as masked-out lanes."""
    w = mapping.w
    from repro.gpu.kernel import KernelStep, SharedMemoryKernel

    steps = [
        KernelStep.from_positions(
            "read", "x", matrix.cols[:, slot], w, register="xv"
        )
        for slot in range(matrix.k)
    ]
    return SharedMemoryKernel(
        w, steps, arrays=("x",), mapping=mapping, inputs=("x",)
    )


def build_program(
    mapping: AddressMapping,
    structure: str = "banded",
    k: int = 4,
    seed: SeedLike = None,
):
    """The ELL SpMV's kernel skeleton over a matrix of ``structure``.

    One read step per entry slot (``k`` gathers of ``x[cols[:, s]]``),
    the steps :func:`run_spmv` executes.  The column indices are
    matrix data, so the steps generally enumerate — which is the
    point: the certifier handles data-dependent programs by exact
    counting and labels them honestly.
    """
    n = mapping.w * mapping.w
    return _spmv_kernel(mapping, make_ell(n, structure=structure, k=k, seed=seed))


def run_spmv(
    mapping: AddressMapping,
    matrix: EllMatrix | None = None,
    structure: str = "banded",
    latency: int = 1,
    seed: SeedLike = None,
) -> SpmvOutcome:
    """Compute ``y = A @ x`` with ``x`` in a mapped shared tile.

    Thread ``i`` owns row ``i``; entry slots are processed as ``k``
    SIMD gather instructions (lane ``i`` reads ``x[cols[i][s]]`` at
    slot ``s``), with the multiply-accumulate host-side.

    Parameters
    ----------
    mapping:
        Layout of the ``x`` tile (``n`` must equal ``w^2``).
    matrix:
        An :class:`EllMatrix`; built from ``structure`` when omitted.
    structure:
        Sparsity structure for the default matrix.
    latency:
        DMM pipeline depth.
    seed:
        RNG seed.
    """
    w = mapping.w
    n = w * w
    rng = as_generator(seed)
    if matrix is None:
        matrix = make_ell(n, structure=structure, seed=rng)
    if matrix.n != n:
        raise ValueError(f"matrix dimension {matrix.n} != w^2 = {n}")

    x = rng.random(n)
    kernel = _spmv_kernel(mapping, matrix)
    machine = kernel.make_machine(latency)
    kernel.load_array(machine, "x", x.reshape(w, w))

    y = np.zeros(n)

    def accumulate(slot: int, regs: dict[str, np.ndarray]) -> None:
        # The host runs before each step, so slot s's gather is
        # accumulated before step s + 1 — or after the run, for the last.
        if slot:
            active = matrix.cols[:, slot - 1] >= 0
            y[active] += matrix.values[active, slot - 1] * regs["xv"][active]

    report = kernel.run(machine, host=accumulate)
    accumulate(matrix.k, report.execution.registers)

    reference = matrix.dense() @ x
    correct = bool(np.allclose(y, reference, rtol=1e-9, atol=1e-9))
    return SpmvOutcome(
        structure=structure,
        mapping_name=mapping.name,
        correct=correct,
        time_units=report.time_units,
        total_stages=report.total_stages,
        worst_gather_congestion=report.execution.max_congestion,
    )
