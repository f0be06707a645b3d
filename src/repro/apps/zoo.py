"""Conflict-free algorithm zoo — provably congestion-1 sort and permute.

Afshani–Sitchinava ("Sorting and Permuting without Bank Conflicts on
GPUs") and Sitchinava–Weichert ("Bank Conflict Free Comparison-based
Sorting On GPUs") show that the classic shared-memory primitives can
be *scheduled* so that no step ever serializes on a bank.  This module
reproduces the two access skeletons on the DMM:

``shearsort``
    A comparison sort of the ``w x w`` matrix into snake order:
    ``ceil(log2 w) + 1`` row-sort passes interleaved with column-sort
    passes, each pass being ``w`` odd-even-transposition rounds.  Every
    round touches the full grid in either row orientation (contiguous —
    congestion 1 under *any* shifted-row mapping) or column orientation
    (stride — congestion 1 under RAP by the permutation-coset theorem).
    Both orientations are affine, so ``repro certify`` proves the whole
    program symbolically: worst congestion 1 under RAP on every one of
    its steps, no address ever enumerated.

``cf_permute``
    The three-phase conflict-free permutation: routing ``w^2`` elements
    to arbitrary destinations decomposes into column-permute /
    row-permute / column-permute, where the intermediate row of each
    element is its color in a proper ``w``-edge-coloring of the
    ``w``-regular source-column x destination-column multigraph
    (:func:`repro.routing.coloring.edge_color_euler` — König's
    theorem).  The three reads are affine (two strides, one contiguous)
    and certify symbolically; the three writes are data-dependent but
    touch distinct rows of one column (or distinct columns of one row)
    per warp, so they enumerate to worst congestion 1 under RAP.

Both programs are registered in ``apps.BUILTIN_PROGRAMS`` and covered
by the scalar-vs-batched exactness suite and the certificate soundness
suite like every other builtin app.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.mappings import AddressMapping
from repro.routing.coloring import edge_color_euler
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_positive_int

__all__ = [
    "ShearsortOutcome",
    "CfPermuteOutcome",
    "shearsort_schedule",
    "build_shearsort_program",
    "run_shearsort",
    "route_permutation",
    "build_cf_permute_program",
    "run_cf_permute",
]


# ---------------------------------------------------------------------------
# shearsort
# ---------------------------------------------------------------------------


def shearsort_schedule(w: int) -> tuple[str, ...]:
    """The pass schedule of shearsort on a ``w x w`` mesh.

    ``ceil(log2 w) + 1`` row passes with a column pass between each
    consecutive pair — the 0-1-principle bound under which snake order
    is guaranteed.  Returns orientation labels in execution order,
    e.g. ``("row", "column", "row")`` for ``w = 2``.
    """
    check_positive_int(w, "w")
    row_passes = max(1, math.ceil(math.log2(w))) + 1 if w > 1 else 1
    schedule: list[str] = []
    for k in range(row_passes):
        if k:
            schedule.append("column")
        schedule.append("row")
    return tuple(schedule)


def _orientation_grids(w: int, orientation: str):
    """Index grids of one full-grid pass in the given orientation.

    Row orientation: warp ``i`` owns matrix row ``i`` (contiguous).
    Column orientation: warp ``i`` owns matrix column ``i`` (stride).
    """
    ii, jj = np.meshgrid(
        np.arange(w, dtype=np.int64), np.arange(w, dtype=np.int64), indexing="ij"
    )
    if orientation == "row":
        return ii, jj
    if orientation == "column":
        return jj, ii
    raise ValueError(f"orientation must be 'row' or 'column', got {orientation!r}")


def build_shearsort_program(mapping: AddressMapping, seed: SeedLike = None):
    """Shearsort as a kernel skeleton, executed by :func:`run_shearsort`.

    Every odd-even-transposition round is two steps — read the full
    grid into a register, write the compared values back
    (``immediate``: the comparison is host-side and free, and
    :func:`run_shearsort` supplies the values).  Both steps of every
    round are unmasked affine grids, so the certifier closes the entire
    program symbolically: contiguous rounds are congestion 1 under any
    shifted-row mapping, stride rounds exactly 1 under RAP (Theorem 1)
    and ``w`` under RAW.  The schedule is fixed by ``w``; ``seed`` is
    accepted for registry uniformity and ignored.
    """
    w = mapping.w
    from repro.gpu.kernel import KernelStep, SharedMemoryKernel

    steps = []
    for orientation in shearsort_schedule(w):
        ii, jj = _orientation_grids(w, orientation)
        for _round in range(w):
            steps.append(KernelStep("read", "keys", ii, jj, register="v"))
            steps.append(KernelStep("write", "keys", ii, jj, immediate=True))
    return SharedMemoryKernel(
        w, steps, arrays=("keys",), mapping=mapping, inputs=("keys",)
    )


@dataclass(frozen=True)
class ShearsortOutcome:
    """Result of one shearsort run on the DMM.

    Attributes
    ----------
    w, mapping_name:
        Mesh side and buffer layout.
    correct:
        Snake-order readout equals ``numpy.sort`` of the input.
    time_units, total_stages:
        DMM cost over all transposition rounds.
    max_congestion:
        Worst warp congestion anywhere in the sort.
    rounds:
        Total odd-even-transposition rounds executed.
    """

    w: int
    mapping_name: str
    correct: bool
    time_units: int
    total_stages: int
    max_congestion: int
    rounds: int


def _transposition_round(grid: np.ndarray, parity: int, ascending: np.ndarray):
    """One odd-even compare-exchange round along axis 1, in place."""
    w = grid.shape[1]
    k = np.arange(parity, w - 1, 2)
    a, b = grid[:, k], grid[:, k + 1]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    asc = ascending[:, None]
    grid[:, k] = np.where(asc, lo, hi)
    grid[:, k + 1] = np.where(asc, hi, lo)


def run_shearsort(
    mapping: AddressMapping,
    latency: int = 1,
    keys: np.ndarray | None = None,
    seed: SeedLike = None,
) -> ShearsortOutcome:
    """Sort ``w^2`` keys into snake order on the DMM under ``mapping``.

    Parameters
    ----------
    mapping:
        2-D buffer layout.
    latency:
        DMM pipeline depth.
    keys:
        Input keys, length ``w^2`` (random when omitted).
    seed:
        RNG seed for random keys.
    """
    kernel = build_shearsort_program(mapping)
    w = mapping.w
    n = w * w
    if keys is None:
        keys = as_generator(seed).random(n)
    keys = np.asarray(keys, dtype=np.float64)
    if keys.shape != (n,):
        raise ValueError(f"keys must have length {n}")

    machine = kernel.make_machine(latency)
    kernel.load_array(machine, "keys", keys.reshape(w, w))

    # Round r is steps 2r (read) and 2r + 1 (write back).
    rounds = [
        (orientation, parity)
        for orientation in shearsort_schedule(w)
        for parity in range(w)
    ]
    snake_ascending = np.arange(w) % 2 == 0
    all_ascending = np.ones(w, dtype=bool)

    def compare(index: int, regs: dict[str, np.ndarray]):
        round_, k = divmod(index, 2)
        if k == 0:
            return None
        orientation, parity = rounds[round_]
        ascending = snake_ascending if orientation == "row" else all_ascending
        # Warp i's lanes hold row i (row passes) or column i (column
        # passes); compare-exchange is free host work.
        grid = regs["v"].reshape(w, w).copy()
        _transposition_round(grid, parity % 2, ascending)
        return grid.ravel()

    report = kernel.run(machine, host=compare)

    snake = kernel.read_array(machine, "keys")
    snake[1::2] = snake[1::2, ::-1]
    correct = bool(np.array_equal(snake.ravel(), np.sort(keys)))

    return ShearsortOutcome(
        w=w,
        mapping_name=mapping.name,
        correct=correct,
        time_units=report.time_units,
        total_stages=report.total_stages,
        max_congestion=report.execution.max_congestion,
        rounds=len(rounds),
    )


# ---------------------------------------------------------------------------
# conflict-free permutation
# ---------------------------------------------------------------------------


def route_permutation(perm: np.ndarray, w: int) -> np.ndarray:
    """Intermediate-row assignment of the three-phase permutation route.

    ``perm`` sends source flat position ``s`` to destination flat
    position ``perm[s]`` on the row-major ``w x w`` grid.  Each element
    induces one edge ``(s mod w, perm[s] mod w)`` of the ``w``-regular
    source-column x destination-column bipartite multigraph; a proper
    ``w``-edge-coloring (König) assigns element ``s`` the intermediate
    row ``colors[s]``: phase 1 moves it within its source column to
    that row, phase 2 within that row to its destination column, phase
    3 within that column to its destination row.  Properness is
    exactly what makes each phase a permutation of its column (or
    row).  Returns the ``(w^2,)`` color vector.
    """
    check_positive_int(w, "w")
    perm = np.asarray(perm, dtype=np.int64).ravel()
    n = w * w
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        raise ValueError(f"perm must be a permutation of range({n})")
    edges = list(zip((np.arange(n) % w).tolist(), (perm % w).tolist()))
    return np.asarray(edge_color_euler(edges, w), dtype=np.int64)


def _routing_grids(perm: np.ndarray, w: int):
    """The six ``(w, w)`` index-grid pairs of the three routing phases."""
    n = w * w
    colors = route_permutation(perm, w)
    s = np.arange(n, dtype=np.int64)
    ii, jj = np.meshgrid(
        np.arange(w, dtype=np.int64), np.arange(w, dtype=np.int64), indexing="ij"
    )
    # Phase 1 — warp i owns source column i; lane j holds element
    # s = j*w + i and parks it on its color row.
    s1 = jj * w + ii
    # Phase 2 — warp i owns intermediate row i; the element at
    # (color, source column) slides to its destination column.
    s2 = np.empty((w, w), dtype=np.int64)
    s2[colors, s % w] = s
    # Phase 3 — warp i owns destination column i; the element at
    # (color, destination column) drops to its destination row.
    s3 = np.empty((w, w), dtype=np.int64)
    s3[colors, perm % w] = s
    return (
        ((jj, ii), (colors[s1], ii)),  # read a stride, write b by color
        ((ii, jj), (ii, perm[s2] % w)),  # read b contiguous, write a in-row
        ((jj, ii), (perm[s3[jj, ii]] // w, ii)),  # read a stride, write b
    )


def _cf_permute_kernel(mapping: AddressMapping, perm: np.ndarray):
    """Assemble the six routing steps into a double-buffered kernel."""
    w = mapping.w
    from repro.gpu.kernel import KernelStep, SharedMemoryKernel

    phases = _routing_grids(perm, w)
    sources = ("a", "b", "a")
    targets = ("b", "a", "b")
    steps = []
    for k, ((ri, rj), (wi, wj)) in enumerate(phases):
        steps.append(KernelStep("read", sources[k], ri, rj, register="v"))
        steps.append(KernelStep("write", targets[k], wi, wj, register="v"))
    return SharedMemoryKernel(
        w, steps, arrays=("a", "b"), mapping=mapping, inputs=("a",)
    )


def build_cf_permute_program(mapping: AddressMapping, seed: SeedLike = None):
    """The three-phase conflict-free permutation as a certifiable kernel.

    Six steps over double-buffered arrays ``a``/``b``: each phase reads
    a full grid into a register and writes it routed one axis further.
    The reads are affine — two strides and one contiguous — and certify
    symbolically (worst 1 under RAP); the writes depend on the edge
    coloring, so they enumerate, but every warp writes distinct rows of
    one column or distinct columns of one row, which is congestion 1
    under any permutation of row shifts.  ``seed`` draws the routed
    permutation.
    """
    perm = as_generator(seed).permutation(mapping.w * mapping.w).astype(np.int64)
    return _cf_permute_kernel(mapping, perm)


@dataclass(frozen=True)
class CfPermuteOutcome:
    """Result of one three-phase permutation on the DMM.

    Attributes
    ----------
    w, mapping_name:
        Grid side and buffer layout.
    correct:
        Every element landed on its destination.
    time_units, total_stages:
        DMM cost over all six steps.
    max_congestion:
        Worst warp congestion anywhere in the routing.
    """

    w: int
    mapping_name: str
    correct: bool
    time_units: int
    total_stages: int
    max_congestion: int


def run_cf_permute(
    mapping: AddressMapping,
    latency: int = 1,
    values: np.ndarray | None = None,
    perm: np.ndarray | None = None,
    seed: SeedLike = None,
) -> CfPermuteOutcome:
    """Route ``w^2`` values to permuted destinations on the DMM.

    Parameters
    ----------
    mapping:
        2-D buffer layout for both arrays.
    latency:
        DMM pipeline depth.
    values:
        Input payload, length ``w^2`` (random when omitted).
    perm:
        Destination assignment: the value at flat position ``s`` of
        ``a`` ends at flat position ``perm[s]`` of ``b`` (drawn from
        ``seed`` when omitted).
    seed:
        RNG seed for omitted ``values``/``perm``.
    """
    w = mapping.w
    n = w * w
    rng = as_generator(seed)
    if perm is None:
        perm = rng.permutation(n).astype(np.int64)
    perm = np.asarray(perm, dtype=np.int64).ravel()
    if values is None:
        values = rng.random(n)
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (n,):
        raise ValueError(f"values must have length {n}")

    kernel = _cf_permute_kernel(mapping, perm)
    machine = kernel.make_machine(latency)
    kernel.load_array(machine, "a", values.reshape(w, w))
    report = kernel.run(machine)
    out = kernel.read_array(machine, "b").ravel()
    correct = bool(np.array_equal(out[perm], values))

    return CfPermuteOutcome(
        w=w,
        mapping_name=mapping.name,
        correct=correct,
        time_units=report.time_units,
        total_stages=report.total_stages,
        max_congestion=report.execution.max_congestion,
    )
