"""Shared utilities: RNG handling and argument validation."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.util.rng": [
            "as_generator",
            "as_seed_sequence",
            "seed_fingerprint",
            "spawn_generators",
            "spawn_seed_sequences",
        ],
        "repro.util.validation": [
            "check_bank_count",
            "check_latency",
            "check_nonnegative_int",
            "check_positive_int",
            "check_power_of_two",
        ],
    },
)
