"""Shared-memory histogramming — where CRCW semantics bite back.

Histogramming is the classic *data-dependent* shared-memory workload:
thread ``t`` increments ``hist[bin(t)]``.  On the DMM it exposes a
hazard none of the other workloads have: the CRCW-arbitrary write rule
**merges** same-address writes, so a naive "read counter, add one,
write back" kernel silently loses every colliding vote (real GPUs need
atomics here for exactly this reason).  The standard cure is
*privatization*: each lane owns a private copy of the histogram
(``hist[bin][lane]``), votes without ever sharing an address, and a
reduction pass folds the ``w`` copies.

This module implements both, with honest outcomes:

``naive``
    One read-modify-write per vote round.  Produces *wrong counts*
    whenever two lanes of a warp vote the same bin (the run reports
    ``correct=False`` and how many votes were lost) — the negative
    result, demonstrated rather than assumed.
``privatized``
    Per-lane columns; every vote round is conflict-free by
    construction under RAW (bank = lane).  The final fold reads each
    bin's row (contiguous — free) and the *transposed* access variant
    of the fold (bin-major threads) is stride access: ``w``-way
    serialized under RAW, congestion 1 under RAP.

Data is drawn from a configurable skew (uniform or power-law) since
skew drives the naive variant's loss rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.mappings import AddressMapping, RAWMapping
from repro.dmm.machine import DiscreteMemoryMachine
from repro.dmm.trace import MemoryProgram, read, write
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_positive_int

__all__ = [
    "HISTOGRAM_STRATEGIES",
    "HistogramOutcome",
    "build_program",
    "make_votes",
    "run_histogram",
]

HISTOGRAM_STRATEGIES = ("naive", "privatized")


def make_votes(
    n: int, bins: int, skew: float = 0.0, seed: SeedLike = None
) -> np.ndarray:
    """Draw ``n`` bin indices; ``skew=0`` is uniform, larger is zipfier.

    Uses a power-law over ranked bins: ``P(bin k) ~ (k+1)^-skew``.
    """
    check_positive_int(n, "n")
    check_positive_int(bins, "bins")
    if skew < 0:
        raise ValueError(f"skew must be >= 0, got {skew}")
    rng = as_generator(seed)
    weights = (np.arange(1, bins + 1, dtype=float)) ** (-skew)
    weights /= weights.sum()
    return rng.choice(bins, size=n, p=weights).astype(np.int64)


@dataclass(frozen=True)
class HistogramOutcome:
    """Result of one histogram build on the DMM.

    Attributes
    ----------
    strategy, mapping_name:
        What ran.
    correct:
        Whether the final counts equal ``numpy.bincount``.
    lost_votes:
        Votes dropped by CRCW write merging (0 for privatized).
    time_units, total_stages:
        DMM cost, voting + fold phases.
    fold_congestion:
        Worst warp congestion of the fold phase (privatized only;
        0 for naive).
    """

    strategy: str
    mapping_name: str
    correct: bool
    lost_votes: int
    time_units: int
    total_stages: int
    fold_congestion: int


def build_program(
    mapping: AddressMapping,
    skew: float = 0.0,
    fold_assignment: str = "column",
    seed: SeedLike = None,
):
    """The privatized histogram's access skeleton as a certifiable kernel.

    Two read steps over the ``hist[bin][lane]`` table:

    * the *voting* traffic — warp ``r`` carries voting round ``r``, so
      thread ``(r, j)`` touches ``hist[votes[r*w+j]][j]`` (the read
      half of the per-round read-modify-write; the write half hits the
      identical addresses, so its congestion is certified by the same
      step);
    * the *fold* — bin-major (``"row"``, contiguous) or lane-major
      (``"column"``, stride: the variant RAP rescues).

    Voting addresses are data-dependent (drawn from ``seed``), so that
    step enumerates; the fold is affine and certifies symbolically.
    """
    if fold_assignment not in ("row", "column"):
        raise ValueError("fold_assignment must be 'row' or 'column'")
    w = mapping.w
    from repro.gpu.kernel import KernelStep, SharedMemoryKernel

    votes = make_votes(w * w, w, skew=skew, seed=seed)
    lanes = np.broadcast_to(np.arange(w, dtype=np.int64), (w, w)).copy()
    bi, li = np.meshgrid(np.arange(w), np.arange(w), indexing="ij")
    if fold_assignment == "column":
        bi, li = li.copy(), bi.copy()
    steps = [
        KernelStep("read", "hist", votes.reshape(w, w), lanes, register="c"),
        KernelStep("read", "hist", bi, li, register="v"),
    ]
    return SharedMemoryKernel(
        w, steps, arrays=("hist",), mapping=mapping, inputs=("hist",)
    )


def _vote(
    machine: DiscreteMemoryMachine,
    votes: np.ndarray,
    address: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> tuple[int, int]:
    """One read-modify-write round per warp of votes; returns (time, stages).

    The lanes of a round increment the counters at ``address(bins,
    lanes)``; lanes past the last vote are inactive.  The read and the
    write run as separate programs, so a round's colliding writes merge
    under CRCW exactly as a non-atomic increment would.
    """
    w = machine.w
    time_units = 0
    total_stages = 0
    for lo in range(0, votes.size, w):
        chunk = votes[lo : lo + w]
        addrs = np.full(w, -1, dtype=np.int64)
        addrs[: chunk.size] = address(chunk, np.arange(chunk.size))
        load = machine.run(MemoryProgram(p=w, instructions=[read(addrs, register="c")]))
        counts = load.registers["c"] + 1.0
        store = machine.run(MemoryProgram(p=w, instructions=[write(addrs, values=counts)]))
        for result in (load, store):
            time_units += result.time_units
            total_stages += sum(t.schedule.total_stages for t in result.traces)
    return time_units, total_stages


def _run_naive(
    votes: np.ndarray, w: int, latency: int
) -> HistogramOutcome:
    """Voting on a one-row table addressed by bin: lossy under CRCW."""
    machine = DiscreteMemoryMachine(w, latency, memory_size=w)
    time_units, total_stages = _vote(machine, votes, lambda bins, lanes: bins)
    final = machine.dump(0, w).astype(np.int64)
    expected = np.bincount(votes, minlength=w)
    lost = int(expected.sum() - final.sum())
    return HistogramOutcome(
        strategy="naive",
        mapping_name="RAW",
        correct=bool(np.array_equal(final, expected)),
        lost_votes=lost,
        time_units=time_units,
        total_stages=total_stages,
        fold_congestion=0,
    )


def _run_privatized(
    votes: np.ndarray,
    w: int,
    latency: int,
    mapping: AddressMapping,
    fold_assignment: str,
) -> HistogramOutcome:
    """Per-lane private histograms + a fold pass under ``mapping``."""
    bins = w
    machine = DiscreteMemoryMachine(w, latency, memory_size=mapping.storage_words)
    machine.load(0, mapping.apply_layout(np.zeros((bins, w))))
    # Each lane votes into its own column, hist[bin][lane].
    time_units, total_stages = _vote(machine, votes, mapping.address)

    # Fold: thread grid w x w reads hist[bin][lane].
    bi, li = np.meshgrid(np.arange(bins), np.arange(w), indexing="ij")
    if fold_assignment == "column":
        bi, li = li.copy(), bi.copy()  # warp walks a lane-column: stride
    fold_addr = mapping.address(bi, li).ravel()
    prog = MemoryProgram(p=bins * w, instructions=[read(fold_addr, register="v")])
    result = machine.run(prog)
    time_units += result.time_units
    total_stages += sum(t.schedule.total_stages for t in result.traces)
    fold_congestion = result.max_congestion
    partials = result.registers["v"].reshape(bins, w) if fold_assignment == "row" else (
        result.registers["v"].reshape(w, bins).T
    )
    final = partials.sum(axis=1).astype(np.int64)

    expected = np.bincount(votes, minlength=bins)
    return HistogramOutcome(
        strategy="privatized",
        mapping_name=mapping.name,
        correct=bool(np.array_equal(final, expected)),
        lost_votes=0,
        time_units=time_units,
        total_stages=total_stages,
        fold_congestion=fold_congestion,
    )


def run_histogram(
    votes: np.ndarray,
    strategy: str = "privatized",
    w: int = 32,
    latency: int = 1,
    mapping: AddressMapping | str | None = None,
    fold_assignment: str = "row",
    seed: SeedLike = None,
) -> HistogramOutcome:
    """Build a ``w``-bin histogram of ``votes`` in shared memory.

    Parameters
    ----------
    votes:
        Bin indices in ``[0, w)`` (see :func:`make_votes`).
    strategy:
        ``"naive"`` (lossy under CRCW — the negative result) or
        ``"privatized"``.
    w:
        Bin count == warp width.
    latency:
        DMM pipeline depth.
    mapping:
        Layout of the privatized table: an
        :class:`~repro.core.mappings.AddressMapping` instance, a name
        (``"RAW"``/``"RAS"``/``"RAP"`` — drawn from ``seed``), or
        ``None`` for RAW.
    fold_assignment:
        ``"row"`` (warp reads a bin's partials — contiguous) or
        ``"column"`` (warp walks a lane's column — stride; the variant
        RAP rescues).
    seed:
        Seed used when ``mapping`` is given by name, so randomized
        layouts are reproducible end to end (the other ``run_*`` entry
        points already follow this contract; ``repro lint`` enforces
        it).
    """
    votes = np.asarray(votes, dtype=np.int64)
    if votes.ndim != 1 or votes.size == 0:
        raise ValueError("votes must be a non-empty 1-D array")
    if ((votes < 0) | (votes >= w)).any():
        raise ValueError(f"votes must lie in [0, {w})")
    if strategy not in HISTOGRAM_STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of {HISTOGRAM_STRATEGIES}"
        )
    if fold_assignment not in ("row", "column"):
        raise ValueError("fold_assignment must be 'row' or 'column'")
    if strategy == "naive":
        return _run_naive(votes, w, latency)
    if mapping is None:
        mapping = RAWMapping(w)
    elif isinstance(mapping, str):
        from repro.core.mappings import mapping_by_name

        mapping = mapping_by_name(mapping, w, seed)
    if mapping.w != w:
        raise ValueError(f"mapping width {mapping.w} != w={w}")
    return _run_privatized(votes, w, latency, mapping, fold_assignment)
