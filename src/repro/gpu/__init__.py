"""GPU kernel abstraction and the calibrated timing model (Table III)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.gpu.analyzer": [
            "KernelDiagnosis",
            "StepDiagnosis",
            "analyze_kernel",
            "default_candidates",
        ],
        "repro.gpu.kernel": [
            "KernelReport",
            "KernelStep",
            "SharedMemoryKernel",
            "transpose_kernel",
        ],
        "repro.gpu.matmul": ["MATMUL_VARIANTS", "MatmulOutcome", "run_matmul"],
        "repro.gpu.occupancy": [
            "SHARED_MEMORY_BYTES_GTX_TITAN",
            "TileBudget",
            "occupancy_report",
            "sm_throughput",
            "tiles_that_fit",
        ],
        "repro.gpu.timing": ["PAPER_TABLE3_NS", "GPUTimingModel"],
    },
)
