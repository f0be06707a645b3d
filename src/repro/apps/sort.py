"""Bitonic sort in shared memory — the compare-exchange network.

Bitonic sort is the canonical shared-memory sorting network on GPUs:
``log2(n) * (log2(n)+1) / 2`` compare-exchange stages, each pairing
element ``t`` with ``t XOR j`` for a power-of-two ``j``.  Like the FFT
butterfly it sweeps every power-of-two distance, so its bank behaviour
cycles through the whole stride spectrum: partners ``j < w`` permute
lanes inside a row (conflict-free under RAW), while the *pair-leader*
gather of larger ``j`` strides across rows.

The implementation runs the full network for ``n = w^2`` keys on the
cycle-accurate DMM — every stage reads both partners, compares
host-side (arithmetic is free, as everywhere in this library), and
writes both back — and verifies the output against ``numpy.sort``.
Per-stage congestion is reported for the layout comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.mappings import AddressMapping
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_power_of_two

__all__ = ["SortOutcome", "bitonic_pairs", "build_program", "run_bitonic_sort"]


def bitonic_pairs(n: int) -> list[tuple[int, int, np.ndarray]]:
    """The compare-exchange schedule of a bitonic network on ``n`` keys.

    Returns a list of ``(k, j, direction)`` stages: at stage ``(k, j)``
    the pair leaders are the indices ``t`` with ``t & j == 0`` whose
    partner is ``t | j``; ``direction[t] == 1`` sorts the pair
    ascending, ``0`` descending (the classic ``t & k`` rule).
    """
    check_power_of_two(n, "n")
    stages = []
    k = 2
    while k <= n:
        j = k // 2
        while j >= 1:
            t = np.arange(n, dtype=np.int64)
            leaders = (t & j) == 0
            ascending = (t & k) == 0
            stages.append((k, j, np.where(leaders, ascending, False)))
            j //= 2
        k *= 2
    return stages


@dataclass(frozen=True)
class SortOutcome:
    """Result of one bitonic sort on the DMM.

    Attributes
    ----------
    n, mapping_name:
        Problem size and buffer layout.
    correct:
        Output equals ``numpy.sort`` of the input.
    time_units, total_stages:
        DMM cost over all compare-exchange stages.
    max_congestion:
        Worst warp congestion anywhere in the network.
    """

    n: int
    mapping_name: str
    correct: bool
    time_units: int
    total_stages: int
    max_congestion: int


def build_program(mapping: AddressMapping, seed: SeedLike = None):
    """The bitonic network as a kernel skeleton, run by :func:`run_bitonic_sort`.

    Every compare-exchange stage is four steps — read both partners,
    write both back — with the pair-leader half-warps as step masks.
    The compare is host-side, so the writes are ``immediate`` and
    :func:`run_bitonic_sort` supplies their values.  The schedule is
    fixed by ``n``, so the keys (and ``seed``, accepted for registry
    uniformity) do not affect the access stream.
    """
    w = mapping.w
    check_power_of_two(w, "mapping width")
    n = w * w
    from repro.gpu.kernel import KernelStep, SharedMemoryKernel

    steps = []
    t = np.arange(n, dtype=np.int64)
    for _, j, _ascending in bitonic_pairs(n):
        leaders = np.flatnonzero((t & j) == 0)
        partners = leaders | j
        steps.append(
            KernelStep.from_positions("read", "keys", leaders, w, register="a")
        )
        steps.append(
            KernelStep.from_positions("read", "keys", partners, w, register="b")
        )
        steps.append(
            KernelStep.from_positions("write", "keys", leaders, w, immediate=True)
        )
        steps.append(
            KernelStep.from_positions("write", "keys", partners, w, immediate=True)
        )
    return SharedMemoryKernel(
        w, steps, arrays=("keys",), mapping=mapping, inputs=("keys",)
    )


def run_bitonic_sort(
    mapping: AddressMapping,
    latency: int = 1,
    keys: np.ndarray | None = None,
    seed: SeedLike = None,
) -> SortOutcome:
    """Sort ``n = w^2`` keys in shared memory under ``mapping``.

    Parameters
    ----------
    mapping:
        2-D buffer layout (width must be a power of two so the network
        has integral stages).
    latency:
        DMM pipeline depth.
    keys:
        Input keys (random when omitted).
    seed:
        RNG seed for random keys.
    """
    kernel = build_program(mapping)
    w = mapping.w
    n = w * w
    if keys is None:
        keys = as_generator(seed).random(n)
    keys = np.asarray(keys, dtype=np.float64)
    if keys.shape != (n,):
        raise ValueError(f"keys must have length {n}")

    machine = kernel.make_machine(latency)
    kernel.load_array(machine, "keys", keys.reshape(w, w))

    # Stage s is steps 4s..4s+3: read leaders, read partners, write
    # leaders, write partners; the n/2 leaders are the active lanes.
    schedule = bitonic_pairs(n)
    t = np.arange(n, dtype=np.int64)

    def compare(index: int, regs: dict[str, np.ndarray]):
        stage, k = divmod(index, 4)
        if k < 2:
            return None
        _, j, ascending = schedule[stage]
        asc = ascending[(t & j) == 0]
        a_val = regs["a"][: n // 2]
        b_val = regs["b"][: n // 2]
        lo = np.minimum(a_val, b_val)
        hi = np.maximum(a_val, b_val)
        return np.where(asc, lo, hi) if k == 2 else np.where(asc, hi, lo)

    report = kernel.run(machine, host=compare)
    out_keys = kernel.read_array(machine, "keys").ravel()
    correct = bool(np.array_equal(out_keys, np.sort(keys)))

    return SortOutcome(
        n=n,
        mapping_name=mapping.name,
        correct=correct,
        time_units=report.time_units,
        total_stages=report.total_stages,
        max_congestion=report.execution.max_congestion,
    )
