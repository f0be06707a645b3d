"""Ablation benchmarks for the design choices called out in DESIGN.md.

1. ``perm_vs_iid`` — the paper's core claim: swapping the permutation
   for i.i.d. shifts (RAP -> RAS) re-introduces stride conflicts.
2. ``merge_semantics`` — disabling CRCW merging raises random-access
   congestion to the stride-RAS level (3.44 -> 3.53 at w=32).
3. ``half_warp`` — the Theorem 2 proof device: half-warp congestion is
   strictly smaller, and the full warp is bounded by twice it.
4. ``overhead_term`` — zeroing the GPU model's address-computation
   cost visibly distorts the RAS/RAP cells of Table III.
5. ``umm_vs_dmm`` — the same transpose programs under the
   global-memory (coalescing) model rank differently.
"""

import numpy as np
import pytest

from repro.access.patterns import pattern_addresses
from repro.core.congestion import bank_loads_batch, congestion_batch
from repro.core.mappings import RAPMapping, RASMapping, RAWMapping
from repro.dmm.umm import UnifiedMemoryMachine
from repro.dmm.machine import DiscreteMemoryMachine
from repro.gpu.kernel import transpose_kernel
from repro.gpu.timing import PAPER_TABLE3_NS, GPUTimingModel
from repro.sim.congestion_sim import simulate_matrix_congestion
from repro.util.rng import as_generator

from .conftest import BENCH_SEED


def test_ablation_perm_vs_iid(benchmark):
    """RAP's permutation is load-bearing: with i.i.d. shifts the
    stride guarantee evaporates (1.0 -> ~3.5)."""

    def measure():
        rap = simulate_matrix_congestion("RAP", "stride", 32, trials=400, seed=BENCH_SEED)
        ras = simulate_matrix_congestion("RAS", "stride", 32, trials=400, seed=BENCH_SEED)
        return rap, ras

    rap, ras = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(f"\nstride congestion: permutation={rap.mean:.2f}  iid={ras.mean:.2f}")
    assert rap.maximum == 1
    assert ras.mean > 3.0


def test_ablation_merge_semantics(benchmark):
    """Without CRCW merging, random access matches the balls-in-bins
    value (~3.53); with it, duplicates collapse (~3.44)."""
    w, trials = 32, 6000

    def measure():
        rng = as_generator(BENCH_SEED)
        addrs = rng.integers(0, w * w, size=(trials, w))
        merged = congestion_batch(addrs, w).mean()
        # Unmerged: count every request, duplicates included.
        rows = np.broadcast_to(np.arange(trials)[:, None], addrs.shape)
        keys = rows.ravel() * w + (addrs % w).ravel()
        loads = np.bincount(keys, minlength=trials * w).reshape(trials, w)
        unmerged = loads.max(axis=1).mean()
        return float(merged), float(unmerged)

    merged, unmerged = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(f"\nrandom access: merged={merged:.3f}  unmerged={unmerged:.3f}")
    assert merged < unmerged
    assert merged == pytest.approx(3.44, abs=0.08)
    assert unmerged == pytest.approx(3.53, abs=0.08)


def test_ablation_half_warp(benchmark):
    """The proof decomposition: E[full warp] <= 2 E[half warp]."""
    w, trials = 32, 3000

    def measure():
        rng = as_generator(BENCH_SEED)
        base = np.broadcast_to(np.arange(w, dtype=np.int64), (trials, w))
        sigma = rng.permuted(base, axis=1)
        rows = np.arange(w)
        # Diagonal warp — the pattern RAP actually pays for: lane j
        # touches (row j, column j), landing in bank (j + sigma_j) % w.
        banks = (rows + sigma) % w
        addresses = rows * w + banks
        full = congestion_batch(addresses, w).mean()
        half = bank_loads_batch(addresses[:, : w // 2], w).max(axis=1).mean()
        return float(full), float(half)

    full, half = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(f"\ncongestion: full warp={full:.3f}  half warp={half:.3f}")
    assert half < full
    assert full <= 2 * half


def test_ablation_overhead_term(benchmark):
    """Zeroing gamma degrades the RAS fit: the address-computation
    term carries real signal in Table III."""

    def fit_both():
        fitted = GPUTimingModel.fit_to_paper()
        zeroed = GPUTimingModel(
            fitted.alpha_ns_per_stage, fitted.beta_ns, gamma_ns_per_op=0.0
        )
        return fitted, zeroed

    fitted, zeroed = benchmark.pedantic(fit_both, rounds=1, iterations=1)

    def rms(model):
        errs = [
            model.predict_ns(
                stages,
                {"RAW": 0.0, "RAS": 192.0, "RAP": 192.0}[key[1]],
            )
            - PAPER_TABLE3_NS[key]
            for key, stages in {
                k: v for k, v in _stage_table().items()
            }.items()
        ]
        return float(np.sqrt(np.mean(np.square(errs))))

    fitted_rms, zeroed_rms = rms(fitted), rms(zeroed)
    print(f"\nRMS error: with gamma={fitted_rms:.1f}ns  gamma=0={zeroed_rms:.1f}ns")
    assert fitted_rms < zeroed_rms


def _stage_table():
    from repro.gpu.timing import _EXPECTED_STAGES

    return _EXPECTED_STAGES


def test_ablation_umm_vs_dmm(benchmark):
    """Under the UMM (global-memory coalescing), DRDW loses its edge:
    diagonal access spans w address groups."""
    w = 16
    mapping = RAWMapping(w)

    def measure():
        out = {}
        for kind in ("CRSW", "DRDW"):
            prog = transpose_kernel(kind, mapping).program()
            dmm = DiscreteMemoryMachine(w, 1, 2 * w * w)
            dmm.load(0, mapping.apply_layout(np.zeros((w, w))))
            umm = UnifiedMemoryMachine(w, 1, 2 * w * w)
            umm.load(0, mapping.apply_layout(np.zeros((w, w))))
            out[kind] = (dmm.run(prog).time_units, umm.run(prog).time_units)
        return out

    times = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(f"\n(DMM, UMM) time units: {times}")
    # On the DMM, DRDW crushes CRSW; on the UMM both pay the
    # scattered-row phase, so the gap closes.
    dmm_gap = times["CRSW"][0] / times["DRDW"][0]
    umm_gap = times["CRSW"][1] / times["DRDW"][1]
    assert dmm_gap > umm_gap


def test_ablation_rap_seed_insensitivity(benchmark):
    """RAP's guarantees hold for every drawn permutation, not on
    average: 50 seeds, zero stride conflicts."""

    def measure():
        worst = 0
        for seed in range(50):
            m = RAPMapping.random(32, seed)
            c = congestion_batch(pattern_addresses(m, "stride"), 32).max()
            worst = max(worst, int(c))
        return worst

    worst = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert worst == 1
