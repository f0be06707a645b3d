"""The paper's core contribution: mappings, congestion, and theory.

Re-exports the public surface of the :mod:`repro.core` subpackage; see
the individual modules for the detailed model documentation.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.congestion": [
            "bank_loads",
            "bank_loads_batch",
            "congestion_batch",
            "merge_requests",
            "warp_congestion",
        ],
        "repro.core.exact": [
            "exact_expected_max_load",
            "exact_max_load_cdf",
            "exact_max_load_pmf",
        ],
        "repro.core.padded": ["PaddedMapping", "antidiagonal_logical"],
        "repro.core.swizzle": ["XORSwizzleMapping", "xor_adversarial_logical"],
        "repro.core.serialize": [
            "dumps_mapping",
            "loads_mapping",
            "mapping_from_dict",
            "mapping_to_dict",
        ],
        "repro.core.mappings": [
            "MAPPING_NAMES",
            "AddressMapping",
            "ShiftedRowMapping",
            "RAWMapping",
            "RASMapping",
            "RAPMapping",
            "mapping_by_name",
        ],
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
        "repro.core.permutation": [
            "random_permutation",
            "random_shifts",
            "is_permutation",
            "require_permutation",
            "identity_permutation",
            "rotation_permutation",
            "invert_permutation",
            "compose_permutations",
        ],
        "repro.core.register_pack": [
            "pack_shifts",
            "unpack_shift",
            "unpack_all",
            "required_words",
            "values_per_word",
        ],
        "repro.core.theory": [
            "chernoff_upper_tail",
            "lemma4_threshold",
            "lemma4_tail_bound",
            "theorem2_expectation_bound",
            "log_over_loglog",
            "expected_max_load",
            "pairwise_conflict_probability",
        ],
    },
)
