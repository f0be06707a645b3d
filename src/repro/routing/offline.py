"""Offline permutation on the DMM — the application the paper grew from.

*Offline permutation*: the permutation ``pi`` is known in advance, and
data word ``a[s]`` must move to ``b[pi(s)]`` inside shared memory.
The paper's introduction recounts two prior approaches it builds on:

* the **naive** algorithm — thread ``t`` copies ``a[t] -> b[pi(t)]``
  in one step — whose congestion is whatever ``pi`` induces (up to
  ``w`` for hostile permutations under RAW);
* the **conflict-free** algorithm of their references [8]/[13] — a
  graph-coloring schedule that splits the moves into exactly ``w``
  rounds, each provably congestion-1 (see
  :mod:`repro.routing.coloring`).

This module implements both, plus the RAP shortcut the paper argues
for: keep the naive one-step algorithm and let the RAP layout
randomize the congestion down to the ``O(log w / log log w)`` class —
no per-permutation scheduling work at all.

All three run on the cycle-accurate DMM and are verified element-wise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.mappings import AddressMapping, RAWMapping
from repro.dmm.machine import DiscreteMemoryMachine
from repro.dmm.trace import INACTIVE, MemoryProgram, read, write
from repro.routing.coloring import edge_color_euler
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_positive_int

__all__ = [
    "random_data_permutation",
    "hostile_permutation",
    "naive_permutation_program",
    "scheduled_permutation_program",
    "OfflinePermutationOutcome",
    "run_offline_permutation",
]


def random_data_permutation(w: int, seed: SeedLike = None) -> np.ndarray:
    """A uniform random permutation of the ``w^2`` data positions."""
    check_positive_int(w, "w")
    return as_generator(seed).permutation(w * w).astype(np.int64)


def hostile_permutation(w: int) -> np.ndarray:
    """A worst-case permutation for the naive algorithm under RAW.

    Sends position ``(i, j)`` to ``(j, i)`` — the transpose
    permutation, whose one-step write is pure stride access: every
    warp's ``w`` writes land in one bank.
    """
    check_positive_int(w, "w")
    idx = np.arange(w * w, dtype=np.int64)
    i, j = idx // w, idx % w
    return j * w + i


def _position_addresses(mapping: AddressMapping, positions: np.ndarray) -> np.ndarray:
    """Physical addresses of logical flat positions under ``mapping``."""
    i, j = positions // mapping.w, positions % mapping.w
    return mapping.address(i, j)


def naive_permutation_program(
    perm: np.ndarray, mapping: AddressMapping, a_base: int = 0, b_base: int | None = None
) -> MemoryProgram:
    """One-step algorithm: thread ``t`` performs ``b[pi(t)] <- a[t]``.

    Positions are logical; the mapping decides the physical banks, so
    the identical program has wildly different congestion under RAW
    and RAP.
    """
    w = mapping.w
    n = w * w
    perm = np.ascontiguousarray(perm, dtype=np.int64)
    if perm.shape != (n,) or sorted(perm.tolist()) != list(range(n)):
        raise ValueError(f"perm must be a permutation of 0..{n - 1}")
    if b_base is None:
        b_base = a_base + n
    prog = MemoryProgram(p=n)
    prog.append(read(a_base + _position_addresses(mapping, np.arange(n)), register="v"))
    prog.append(write(b_base + _position_addresses(mapping, perm), register="v"))
    return prog


def scheduled_permutation_program(
    perm: np.ndarray,
    w: int,
    a_base: int = 0,
    b_base: int | None = None,
) -> MemoryProgram:
    """The conflict-free ``w``-round schedule of the paper's refs [8]/[13].

    Builds the source-bank x destination-bank multigraph of the moves
    (RAW layout: position ``s`` is in bank ``s mod w``), edge-colors it
    with ``w`` colors, and emits one read+write instruction pair per
    color.  Every round touches each source bank at most once and each
    destination bank at most once, so *every* instruction of the
    program has congestion exactly 1 — deterministically, for any
    ``pi``.

    The program uses ``p = w`` threads (one warp); inactive lanes pad
    rounds whose color class is smaller than ``w`` (only possible if
    the caller passes a non-full permutation — never for ``w^2``
    moves).
    """
    check_positive_int(w, "w")
    n = w * w
    perm = np.ascontiguousarray(perm, dtype=np.int64)
    if perm.shape != (n,) or sorted(perm.tolist()) != list(range(n)):
        raise ValueError(f"perm must be a permutation of 0..{n - 1}")
    if b_base is None:
        b_base = a_base + n

    sources = np.arange(n, dtype=np.int64)
    destinations = perm
    edges = list(zip((sources % w).tolist(), (destinations % w).tolist()))
    colors = edge_color_euler(edges, degree=w)

    prog = MemoryProgram(p=w)
    for color in range(w):
        members = np.flatnonzero(np.asarray(colors) == color)
        reads = np.full(w, INACTIVE, dtype=np.int64)
        writes = np.full(w, INACTIVE, dtype=np.int64)
        # Lane assignment: by source bank, which is unique in a round.
        for s_idx in members:
            lane = int(sources[s_idx] % w)
            reads[lane] = a_base + sources[s_idx]
            writes[lane] = b_base + destinations[s_idx]
        prog.append(read(reads, register="v"))
        prog.append(write(writes, register="v"))
    return prog


@dataclass(frozen=True)
class OfflinePermutationOutcome:
    """Result of one offline-permutation run on the DMM.

    Attributes
    ----------
    algorithm:
        ``"naive"`` or ``"scheduled"``.
    mapping_name:
        Layout under which the naive program ran (scheduled always
        uses RAW — its guarantee is layout-independent).
    correct:
        Element-wise verification of ``b[pi(s)] == a[s]``.
    time_units:
        Exact DMM completion time.
    max_congestion:
        Worst warp congestion over the whole program.
    total_stages:
        Total pipeline stages (the latency-independent cost).
    """

    algorithm: str
    mapping_name: str
    correct: bool
    time_units: int
    max_congestion: int
    total_stages: int


def run_offline_permutation(
    perm: np.ndarray,
    algorithm: str = "naive",
    mapping: AddressMapping | None = None,
    w: int | None = None,
    latency: int = 1,
    seed: SeedLike = None,
) -> OfflinePermutationOutcome:
    """Execute an offline permutation end-to-end and verify it.

    Parameters
    ----------
    perm:
        Permutation of ``0..w^2-1`` (logical data positions).
    algorithm:
        ``"naive"`` (one step through ``mapping``) or ``"scheduled"``
        (the ``w``-round conflict-free schedule; ignores ``mapping``).
    mapping:
        Layout for the naive algorithm (default RAW).
    w:
        Width; inferred from ``mapping`` or required for scheduled
        runs without one.
    latency:
        DMM pipeline depth.
    seed:
        Seed for the random payload data.
    """
    if mapping is None:
        if w is None:
            raise ValueError("pass a mapping or an explicit w")
        mapping = RAWMapping(w)
    w = mapping.w
    n = w * w

    data = as_generator(seed).random(n)
    machine = DiscreteMemoryMachine(w, latency, memory_size=2 * n)

    if algorithm == "naive":
        layout = mapping.apply_layout(data.reshape(w, w))
        machine.load(0, layout)
        prog = naive_permutation_program(perm, mapping)
        result = machine.run(prog)
        out = mapping.read_layout(machine.dump(n, n)).ravel()
    elif algorithm == "scheduled":
        machine.load(0, data)  # scheduled rounds address RAW positions
        prog = scheduled_permutation_program(perm, w)
        result = machine.run(prog)
        out = machine.dump(n, n)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")

    expected = np.empty(n)
    expected[perm] = data
    correct = bool(np.array_equal(out, expected))

    return OfflinePermutationOutcome(
        algorithm=algorithm,
        mapping_name=mapping.name if algorithm == "naive" else "RAW",
        correct=correct,
        time_units=result.time_units,
        max_congestion=result.max_congestion,
        total_stages=sum(t.schedule.total_stages for t in result.traces),
    )
