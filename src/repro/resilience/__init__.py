"""Fault-tolerant execution layer for the Monte-Carlo engine.

The paper bounds congestion under *malicious* access patterns; this
package bounds the damage of *execution-level* faults — crashed or
killed workers, hung shards, torn cache writes, interrupted sweeps —
while preserving the repository's load-bearing contract:

> a fixed seed produces bit-identical results for every worker count,
> every cache state, **and every recoverable fault schedule**.

Modules
-------
:mod:`repro.resilience.policy`
    :class:`RetryPolicy` — retries, per-attempt timeouts, exponential
    backoff with deterministic jitter; :class:`ShardFailure` when a
    shard spends its budget.
:mod:`repro.resilience.supervisor`
    :class:`ShardSupervisor` — the default supervisor of
    :class:`repro.sim.engine.MonteCarloEngine`: the one lease loop of
    :class:`repro.fabric.FabricSupervisor` on ``--workers N`` local
    workers.
:mod:`repro.resilience.faults`
    The deterministic chaos harness: :class:`FaultPlan` schedules and
    the builtin plans the property tests run.
:mod:`repro.resilience.journal`
    :class:`SweepJournal` — checksummed checkpoint/resume journal for
    long sweeps (``--resume``).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.resilience.faults": [
            "BUILTIN_FAULT_PLANS",
            "BUILTIN_WORKER_FAULT_PLANS",
            "FaultPlan",
            "InjectedCrash",
            "InjectedFault",
            "ShardFault",
            "SimulatedTimeout",
            "WorkerFault",
            "WorkerKilled",
            "builtin_fault_plan",
            "builtin_worker_fault_plan",
        ],
        "repro.resilience.journal": [
            "JournalError",
            "JournalMismatch",
            "JournalReport",
            "SweepJournal",
            "record_checksum",
            "tail_records",
            "verify_journal",
        ],
        "repro.resilience.policy": ["RetryPolicy", "ShardFailure", "deterministic_jitter"],
        "repro.resilience.supervisor": ["ShardSupervisor"],
    },
)
