"""Adversarial access-pattern search — Theorem 2's tail, measured.

Theorem 2 bounds the expected congestion of *any* fixed access pattern
under RAP by ``O(log w / log log w)``; the builtin apps only exercise
well-behaved patterns.  This package hunts for the worst pattern a
mapping family admits: deterministic random-restart greedy local
search over warp index grids, scored by the batched congestion kernel
of :mod:`repro.dmm.batched` (:func:`~repro.dmm.batched.warp_congestion_block`).
The restarts run as shards of the Monte-Carlo engine
(:meth:`~repro.sim.engine.MonteCarloEngine.map_seeded`), with the
retries, leases and fault injection of every other sweep; the grid
sweep is :func:`repro.sim.experiments.adversary_table`.

The found-worst patterns double as a fuzzer corpus: they are dense,
non-affine, duplicate-free worst cases that stress the large-``w``
fast paths of the batched executor, the prover's enumeration
fallback, and the certifier.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.adversary.search": [
            "BUDGET_NAMES",
            "AdversaryResult",
            "AdversarySweep",
            "SearchBudget",
            "assemble_pattern",
            "expected_worst_congestion",
            "find_worst_pattern",
            "pattern_congestions",
        ],
    },
)
