"""Irregular gather — data-dependent access, the case RAP was built for.

The paper's closing advice says to use RAP when "addresses accessed by
threads are not known beforehand".  The primitive behind that
situation is the gather: ``y[t] = x[idx[t]]`` for an index vector that
only exists at run time (graph neighbours, hash probes, permutation
lookups).  What the gather costs depends entirely on how ``idx``
clusters:

``uniform``
    independent random indices — the balls-in-bins floor under every
    layout (layouts cannot beat or worsen true randomness);
``same_bank``
    the pathology: indices that are distinct but congruent mod ``w``
    (e.g. neighbour lists that stride a row-major grid) — congestion
    ``w`` under RAW, randomized to ~``log w/log log w`` by RAP;
``hotspot``
    many threads reading a few popular entries — and here the CRCW
    *merge* rule makes the hot reads nearly free: duplicate addresses
    collapse before they ever reach a bank.  Hot gathers are cheap on
    this machine; it is the distinct-address-same-bank case that
    hurts, and that is the one RAP fixes.

Data is verified element-wise (``y == x[idx]``) on every run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.mappings import AddressMapping
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_positive_int

__all__ = [
    "GATHER_DISTRIBUTIONS",
    "GatherOutcome",
    "build_program",
    "make_indices",
    "run_gather",
]

GATHER_DISTRIBUTIONS = ("uniform", "same_bank", "hotspot")


def make_indices(
    w: int, distribution: str = "uniform", seed: SeedLike = None
) -> np.ndarray:
    """An index vector of length ``w^2`` with a named clustering.

    Parameters
    ----------
    w:
        Width; the source array has ``w^2`` entries.
    distribution:
        ``"uniform"`` (i.i.d. over the array), ``"same_bank"`` (lane
        ``j`` of every warp reads a *distinct* entry congruent to the
        warp index mod ``w`` — all of one warp's loads in one RAW
        bank), or ``"hotspot"`` (80 % of threads read one of ``w``
        popular entries).
    seed:
        RNG seed.
    """
    check_positive_int(w, "w")
    n = w * w
    rng = as_generator(seed)
    if distribution == "uniform":
        return rng.integers(0, n, size=n, dtype=np.int64)
    if distribution == "same_bank":
        # Warp i's lane j reads entry j*w + i: distinct rows, one
        # column — the RAW-bank pathology.
        ii, jj = np.meshgrid(np.arange(w), np.arange(w), indexing="ij")
        return (jj * w + ii).ravel().astype(np.int64)
    if distribution == "hotspot":
        hot = rng.integers(0, n, size=w, dtype=np.int64)
        idx = rng.integers(0, n, size=n, dtype=np.int64)
        mask = rng.random(n) < 0.8
        idx[mask] = hot[rng.integers(0, w, size=int(mask.sum()))]
        return idx
    raise ValueError(
        f"unknown distribution {distribution!r}; expected one of {GATHER_DISTRIBUTIONS}"
    )


@dataclass(frozen=True)
class GatherOutcome:
    """Result of one gather on the DMM.

    Attributes
    ----------
    distribution, mapping_name:
        What ran.
    correct:
        ``y == x[idx]`` element-wise.
    time_units, total_stages:
        DMM cost (gather read + contiguous write-back).
    gather_congestion:
        Worst warp congestion of the gather instruction itself.
    """

    distribution: str
    mapping_name: str
    correct: bool
    time_units: int
    total_stages: int
    gather_congestion: int


def _gather_kernel(mapping: AddressMapping, indices: np.ndarray):
    """The gather ``y[t] = x[indices[t]]`` as a two-step kernel."""
    w = mapping.w
    from repro.gpu.kernel import KernelStep, SharedMemoryKernel

    steps = [
        KernelStep.from_positions("read", "x", indices, w, register="v"),
        KernelStep.from_positions(
            "write", "y", np.arange(w * w, dtype=np.int64), w, register="v"
        ),
    ]
    return SharedMemoryKernel(
        w, steps, arrays=("x", "y"), mapping=mapping, inputs=("x",)
    )


def build_program(
    mapping: AddressMapping,
    distribution: str = "same_bank",
    seed: SeedLike = None,
):
    """The gather's kernel skeleton over indices drawn from ``distribution``.

    Two steps, the ones :func:`run_gather` executes: the
    data-dependent read ``x[idx[t]]`` and the contiguous write-back to
    ``y``.  The default ``same_bank`` index clustering is the
    deterministic pathology the paper targets — and it is itself affine
    (lane ``j`` reads row ``j``), so *both* steps certify symbolically:
    worst congestion ``w`` under RAW, exactly 1 under RAP.  Random
    distributions (``"uniform"``, ``"hotspot"``) enumerate the read.
    """
    return _gather_kernel(mapping, make_indices(mapping.w, distribution, seed))


def run_gather(
    mapping: AddressMapping,
    indices: np.ndarray | None = None,
    distribution: str = "uniform",
    latency: int = 1,
    seed: SeedLike = None,
) -> GatherOutcome:
    """Execute ``y[t] = x[idx[t]]`` over ``w^2`` threads under ``mapping``.

    The source ``x`` lives in one mapped tile; the destination ``y``
    is written back contiguously into a second tile.

    Parameters
    ----------
    mapping:
        Layout of both tiles.
    indices:
        Explicit index vector (length ``w^2``); drawn from
        ``distribution`` when omitted.
    distribution:
        Named index clustering (see :func:`make_indices`).
    latency:
        DMM pipeline depth.
    seed:
        RNG seed for indices and data.
    """
    w = mapping.w
    n = w * w
    rng = as_generator(seed)
    if indices is None:
        indices = make_indices(w, distribution, rng)
    indices = np.asarray(indices, dtype=np.int64)
    if indices.shape != (n,):
        raise ValueError(f"indices must have length {n}")
    if ((indices < 0) | (indices >= n)).any():
        raise IndexError(f"indices must lie in [0, {n})")

    x = rng.random(n)
    kernel = _gather_kernel(mapping, indices)
    machine = kernel.make_machine(latency)
    kernel.load_array(machine, "x", x.reshape(w, w))
    report = kernel.run(machine)
    y = kernel.read_array(machine, "y").ravel()
    return GatherOutcome(
        distribution=distribution,
        mapping_name=mapping.name,
        correct=bool(np.array_equal(y, x[indices])),
        time_units=report.time_units,
        total_stages=report.total_stages,
        gather_congestion=report.execution.traces[0].max_congestion,
    )
