"""Access patterns and transpose algorithms built on the DMM substrate."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.access.patterns": [
            "PATTERN_NAMES",
            "contiguous_logical",
            "stride_logical",
            "diagonal_logical",
            "random_logical",
            "malicious_logical",
            "pattern_logical",
            "pattern_addresses",
        ],
        "repro.access.patterns_nd": [
            "ND_PATTERN_NAMES",
            "contiguous_nd",
            "stride_nd",
            "random_nd",
            "malicious_r1p",
            "malicious_accesses",
            "nd_pattern_logical",
            "nd_pattern_addresses",
        ],
        "repro.access.strided": [
            "butterfly_positions",
            "raw_stride_congestion",
            "reduction_positions",
            "scan_positions",
            "strided_addresses",
        ],
        "repro.access.transpose": [
            "TRANSPOSE_NAMES",
            "TransposeOutcome",
            "run_transpose",
            "transpose_indices",
        ],
    },
)
