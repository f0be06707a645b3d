"""repro — Random Address Permute-Shift (RAP) for GPU shared memory.

A from-scratch Python reproduction of

    Koji Nakano, Susumu Matsumae, Yasuaki Ito,
    "Random Address Permute-Shift Technique for the Shared Memory on
    GPUs", Proc. ICPP 2014.

The library provides:

* the Discrete Memory Machine (DMM) and Unified Memory Machine (UMM)
  executors — cycle-accurate models of GPU shared/global memory
  (:mod:`repro.dmm`);
* the RAW / RAS / RAP address mappings and their 4-D extensions
  (:mod:`repro.core`);
* access patterns, matrix transpose programs, and a CUDA-like kernel
  abstraction with a calibrated GPU timing model (:mod:`repro.access`,
  :mod:`repro.gpu`);
* Monte-Carlo congestion simulation and the full experiment registry
  regenerating every table and figure of the paper (:mod:`repro.sim`,
  :mod:`repro.report`).

Quickstart::

    import repro

    mapping = repro.RAPMapping.random(32, seed=7)
    outcome = repro.run_transpose("CRSW", mapping)
    print(outcome.write_congestion)   # 1 — the stride write is conflict-free

Run ``python -m repro table2`` (or any other experiment id) to
regenerate the paper's evaluation.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        __name__: ["__version__"],
        # mappings
        "repro.core.mappings": [
            "MAPPING_NAMES",
            "AddressMapping",
            "RAWMapping",
            "RASMapping",
            "RAPMapping",
            "mapping_by_name",
        ],
        "repro.core.padded": ["PaddedMapping"],
        "repro.core.swizzle": ["XORSwizzleMapping"],
        "repro.core.higher_dim": [
            "ND_MAPPING_NAMES",
            "NDMapping",
            "RAW4D",
            "RAS4D",
            "OneP",
            "RepeatedOneP",
            "ThreeP",
            "WSquaredP",
            "OnePWRandom",
            "nd_mapping_by_name",
        ],
        "repro.core.permutation": ["random_permutation"],
        # congestion & theory
        "repro.core.congestion": ["bank_loads", "warp_congestion", "congestion_batch"],
        "repro.core.theory": ["lemma4_threshold", "theorem2_expectation_bound"],
        "repro.core.exact": ["exact_expected_max_load"],
        # machines
        "repro.dmm.memory": ["BankedMemory"],
        "repro.dmm.machine": ["DiscreteMemoryMachine"],
        "repro.dmm.umm": ["UnifiedMemoryMachine"],
        "repro.dmm.mmu": ["PipelinedMMU"],
        "repro.dmm.trace": ["MemoryProgram", "read", "write"],
        # access & kernels
        "repro.access.patterns": ["PATTERN_NAMES", "pattern_logical", "pattern_addresses"],
        "repro.access.transpose": [
            "TRANSPOSE_NAMES",
            "TransposeOutcome",
            "run_transpose",
        ],
        "repro.gpu.kernel": ["SharedMemoryKernel", "transpose_kernel"],
        "repro.gpu.matmul": ["run_matmul"],
        "repro.gpu.timing": ["GPUTimingModel"],
        # application workloads
        "repro.apps.fft": ["run_fft"],
        "repro.apps.scan": ["run_scan"],
        "repro.apps.stencil": ["run_stencil"],
        "repro.apps.global_transpose": ["run_global_transpose"],
        "repro.apps.sort": ["run_bitonic_sort"],
        "repro.apps.histogram": ["run_histogram"],
        "repro.apps.gather": ["run_gather"],
        # offline permutation
        "repro.routing.offline": [
            "hostile_permutation",
            "random_data_permutation",
            "run_offline_permutation",
        ],
        # experiments
        "repro.sim.congestion_sim": [
            "simulate_matrix_congestion",
            "simulate_nd_congestion",
        ],
        "repro.sim.experiments": ["table1", "table2", "table3", "table4"],
    },
)
