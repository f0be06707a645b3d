"""Radix-2 FFT in shared memory — a full multi-stage workload on the DMM.

FFT is *the* historical motivation for banked-memory conflict analysis:
an in-place radix-2 butterfly network walks the array with strides
``1, 2, 4, ..., n/2``, and its bit-reversal prologue is a hostile data
permutation.  This module runs a complete ``n = w^2``-point FFT on the
cycle-accurate DMM:

1. **bit-reversal** — a one-step offline permutation (read ``x[i]``,
   write ``x[rev(i)]``);
2. **log2(n) butterfly stages** — each stage reads both butterfly
   inputs (real and imaginary planes), applies the twiddle factors
   host-side (arithmetic is free in the DMM cost model, as in
   :mod:`repro.gpu.matmul`), and writes both outputs back.

The result is verified against ``numpy.fft.fft`` to ~1e-9, and the
per-stage congestion profile is reported: under RAW the early stages
conflict (the stride-``2^s`` law) and the bit-reversal is brutal, while
RAP flattens every stage to the randomized floor without touching the
FFT's indexing.

Complex data is stored as two real planes (``re`` at base 0, ``im``
after it), each overlaid on the mapping's ``w x w`` matrix in
row-major order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.mappings import AddressMapping
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_power_of_two

__all__ = ["FFTOutcome", "bit_reverse_indices", "build_program", "run_fft"]


def bit_reverse_indices(n: int) -> np.ndarray:
    """The bit-reversal permutation of ``0..n-1`` (``n`` a power of two)."""
    check_power_of_two(n, "n")
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros_like(idx)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    return rev


@dataclass(frozen=True)
class FFTOutcome:
    """Result of one FFT run on the DMM.

    Attributes
    ----------
    n:
        Transform length (``w^2``).
    mapping_name:
        Layout of the two data planes.
    correct:
        ``numpy.allclose`` agreement with ``numpy.fft.fft``.
    time_units:
        Total DMM time (bit-reversal + all stages).
    total_stages:
        Latency-independent pipeline stages.
    stage_congestion:
        Worst warp congestion per phase: index 0 is the bit-reversal,
        then one entry per butterfly stage.
    """

    n: int
    mapping_name: str
    correct: bool
    time_units: int
    total_stages: int
    stage_congestion: tuple[int, ...]


def build_program(mapping: AddressMapping, seed: SeedLike = None):
    """The FFT as a kernel skeleton: the definition :func:`run_fft` executes.

    The bit-reversal read/write on both planes, then every butterfly
    stage's four reads and four writes with half the lanes active.
    The twiddle arithmetic is host-side, so the stage writes are
    ``immediate``: :func:`run_fft` supplies their values, and
    :func:`repro.analysis.certificates.certify_kernel` certifies the
    same addresses and masks the run executes.  ``seed`` is accepted
    for registry uniformity; the skeleton is deterministic.
    """
    w = mapping.w
    check_power_of_two(w, "mapping width")
    n = w * w
    from repro.gpu.kernel import KernelStep, SharedMemoryKernel

    steps = []
    rev = bit_reverse_indices(n)
    src = np.arange(n, dtype=np.int64)
    for plane in ("re", "im"):
        steps.append(KernelStep.from_positions("read", plane, src, w, register="t"))
        steps.append(KernelStep.from_positions("write", plane, rev, w, register="t"))

    stages = n.bit_length() - 1
    half = n // 2
    lanes = np.arange(half, dtype=np.int64)
    for s in range(stages):
        block = lanes >> s
        offset = lanes & ((1 << s) - 1)
        a_pos = (block << (s + 1)) | offset
        b_pos = a_pos + (1 << s)
        for plane, reg, pos in (
            ("re", "ar", a_pos),
            ("im", "ai", a_pos),
            ("re", "br", b_pos),
            ("im", "bi", b_pos),
        ):
            steps.append(
                KernelStep.from_positions("read", plane, pos, w, register=reg)
            )
        for plane, pos in (
            ("re", a_pos),
            ("im", a_pos),
            ("re", b_pos),
            ("im", b_pos),
        ):
            steps.append(
                KernelStep.from_positions("write", plane, pos, w, immediate=True)
            )
    return SharedMemoryKernel(
        w, steps, arrays=("re", "im"), mapping=mapping, inputs=("re", "im")
    )


def run_fft(
    mapping: AddressMapping,
    latency: int = 1,
    signal: np.ndarray | None = None,
    seed: SeedLike = None,
) -> FFTOutcome:
    """Run an ``n = w^2``-point radix-2 FFT under ``mapping``.

    Parameters
    ----------
    mapping:
        2-D address mapping for both the real and imaginary plane
        (width must make ``w^2`` a power of two, i.e. ``w`` itself a
        power of two).
    latency:
        DMM pipeline depth.
    signal:
        Complex input of length ``w^2`` (random when omitted).
    seed:
        RNG seed for the random signal.
    """
    kernel = build_program(mapping)
    w = mapping.w
    n = w * w
    if signal is None:
        rng = as_generator(seed)
        signal = rng.random(n) + 1j * rng.random(n)
    signal = np.asarray(signal, dtype=np.complex128)
    if signal.shape != (n,):
        raise ValueError(f"signal must have length {n}")

    machine = kernel.make_machine(latency)
    kernel.load_array(machine, "re", signal.real.reshape(w, w))
    kernel.load_array(machine, "im", signal.imag.reshape(w, w))

    # Steps 0-3 are the bit reversal; butterfly stage s is the eight
    # steps from 4 + 8s: four reads, then writes of top.re, top.im,
    # bot.re, bot.im for the n/2 active lanes.
    half = n // 2
    outputs: list[np.ndarray] = []

    def butterfly(index: int, regs: dict[str, np.ndarray]):
        stage, k = divmod(index - 4, 8)
        if index < 4 or k < 4:
            return None
        if k == 4:
            offset = np.arange(half, dtype=np.int64) & ((1 << stage) - 1)
            twiddle = np.exp(-2j * np.pi * offset / (1 << (stage + 1)))
            a_val = regs["ar"][:half] + 1j * regs["ai"][:half]
            b_val = (regs["br"][:half] + 1j * regs["bi"][:half]) * twiddle
            top = a_val + b_val
            bot = a_val - b_val
            outputs[:] = (top.real, top.imag, bot.real, bot.imag)
        return outputs[k - 4]

    report = kernel.run(machine, host=butterfly)
    traces = report.execution.traces
    congestions = [max(t.max_congestion for t in traces[:4])] + [
        max(t.max_congestion for t in traces[i : i + 8])
        for i in range(4, len(traces), 8)
    ]

    result = (
        kernel.read_array(machine, "re").ravel()
        + 1j * kernel.read_array(machine, "im").ravel()
    )
    reference = np.fft.fft(signal)
    correct = bool(np.allclose(result, reference, rtol=1e-9, atol=1e-9))

    return FFTOutcome(
        n=n,
        mapping_name=mapping.name,
        correct=correct,
        time_units=report.time_units,
        total_stages=report.total_stages,
        stage_congestion=tuple(congestions),
    )
