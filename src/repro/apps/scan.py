"""Blelloch exclusive prefix sum in shared memory — the scan workload.

The work-efficient scan is the canonical victim of the stride-doubling
bank-conflict law: both its up-sweep and down-sweep touch elements
``(2j+1)·2^k − 1`` and ``(2j+2)·2^k − 1``, so at level ``k`` the
active lanes' addresses are ``2^{k+1}`` apart and the RAW congestion
doubles per level until it saturates at ``w``.  (CUDA's classic scan
chapter devotes a whole section — "avoiding bank conflicts" — to
index-mangling this away by hand.)

This module runs the complete two-phase scan of ``n = w^2`` elements
on the cycle-accurate DMM, verifies against ``numpy.cumsum``, and
reports per-level congestion, so the hand-mangling can be compared
with simply storing the buffer under RAP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.mappings import AddressMapping
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_power_of_two

__all__ = ["ScanOutcome", "build_program", "run_scan"]


@dataclass(frozen=True)
class ScanOutcome:
    """Result of one exclusive scan on the DMM.

    Attributes
    ----------
    n:
        Input length (``w^2``).
    mapping_name:
        Buffer layout.
    correct:
        Element-wise agreement with the exclusive ``numpy.cumsum``.
    time_units, total_stages:
        DMM cost.
    level_congestion:
        Worst warp congestion per level, up-sweep then down-sweep.
    """

    n: int
    mapping_name: str
    correct: bool
    time_units: int
    total_stages: int
    level_congestion: tuple[int, ...]


def build_program(mapping: AddressMapping, seed: SeedLike = None):
    """The Blelloch scan as a kernel skeleton: what :func:`run_scan` executes.

    Per up-sweep level two reads and one write, the root clear, per
    down-sweep level two reads and two writes, with the partial warps
    as step masks.  The sums are host-side, so every write is
    ``immediate``; :func:`run_scan` supplies the values.  ``seed`` is
    accepted for registry uniformity; the skeleton is deterministic.
    """
    w = mapping.w
    check_power_of_two(w, "mapping width")
    n = w * w
    from repro.gpu.kernel import KernelStep, SharedMemoryKernel

    steps = []
    levels = n.bit_length() - 1
    for k in range(levels):
        active = n >> (k + 1)
        j = np.arange(active, dtype=np.int64)
        left = (2 * j + 1) * (1 << k) - 1
        right = (2 * j + 2) * (1 << k) - 1
        steps.append(KernelStep.from_positions("read", "buf", left, w, register="lv"))
        steps.append(KernelStep.from_positions("read", "buf", right, w, register="rv"))
        steps.append(
            KernelStep.from_positions("write", "buf", right, w, immediate=True)
        )

    steps.append(
        KernelStep.from_positions(
            "write", "buf", np.array([n - 1]), w, immediate=True
        )
    )

    for k in range(levels - 1, -1, -1):
        active = n >> (k + 1)
        j = np.arange(active, dtype=np.int64)
        left = (2 * j + 1) * (1 << k) - 1
        right = (2 * j + 2) * (1 << k) - 1
        steps.append(KernelStep.from_positions("read", "buf", left, w, register="lv"))
        steps.append(KernelStep.from_positions("read", "buf", right, w, register="rv"))
        steps.append(
            KernelStep.from_positions("write", "buf", left, w, immediate=True)
        )
        steps.append(
            KernelStep.from_positions("write", "buf", right, w, immediate=True)
        )
    return SharedMemoryKernel(
        w, steps, arrays=("buf",), mapping=mapping, inputs=("buf",)
    )


def run_scan(
    mapping: AddressMapping,
    latency: int = 1,
    data: np.ndarray | None = None,
    seed: SeedLike = None,
) -> ScanOutcome:
    """Exclusive prefix-sum of ``w^2`` values under ``mapping``.

    Parameters
    ----------
    mapping:
        2-D layout of the scan buffer (width must be a power of two so
        the tree has integral levels).
    latency:
        DMM pipeline depth.
    data:
        Input values (random when omitted).
    seed:
        RNG seed for random input.
    """
    kernel = build_program(mapping)
    w = mapping.w
    n = w * w
    if data is None:
        data = as_generator(seed).random(n)
    data = np.asarray(data, dtype=np.float64)
    if data.shape != (n,):
        raise ValueError(f"data must have length {n}")

    machine = kernel.make_machine(latency)
    kernel.load_array(machine, "buf", data.reshape(w, w))

    # Up-sweep level k is steps 3k..3k+2 (read left, read right, write
    # right); step 3L clears the root; down-sweep level k is the four
    # steps from 3L + 1 + 4(L-1-k) (read left, read right, write left,
    # write right).  Level k has n >> (k + 1) active lanes.
    levels = n.bit_length() - 1
    up = 3 * levels

    def sums(index: int, regs: dict[str, np.ndarray]):
        if index == up:
            return np.zeros(1)
        if index < up:
            level, k = divmod(index, 3)
            active = n >> (level + 1)
            if k == 2:
                return regs["lv"][:active] + regs["rv"][:active]
            return None
        level, k = divmod(index - up - 1, 4)
        active = n >> (levels - level)
        if k == 2:
            return regs["rv"][:active]
        if k == 3:
            return regs["rv"][:active] + regs["lv"][:active]
        return None

    report = kernel.run(machine, host=sums)
    traces = report.execution.traces
    bounds = [*range(0, up + 1, 3), *range(up + 1, len(traces) + 1, 4)]
    congestion = [
        max(t.max_congestion for t in traces[lo:hi])
        for lo, hi in zip(bounds, bounds[1:])
    ]

    result = kernel.read_array(machine, "buf").ravel()
    reference = np.concatenate([[0.0], np.cumsum(data)[:-1]])
    correct = bool(np.allclose(result, reference, rtol=1e-12, atol=1e-9))

    return ScanOutcome(
        n=n,
        mapping_name=mapping.name,
        correct=correct,
        time_units=report.time_units,
        total_stages=report.total_stages,
        level_congestion=tuple(congestion),
    )
