"""Offline permutation routing: the graph-coloring schedule vs RAP."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.routing.coloring": ["edge_color_euler", "validate_coloring"],
        "repro.routing.offline": [
            "OfflinePermutationOutcome",
            "hostile_permutation",
            "naive_permutation_program",
            "random_data_permutation",
            "run_offline_permutation",
            "scheduled_permutation_program",
        ],
    },
)
