"""The engine's default shard supervisor.

:class:`ShardSupervisor` is the lease loop of
:class:`repro.fabric.supervisor.FabricSupervisor` on ``workers`` local
workers: one in-process worker when ``workers == 1``, one
single-process pool per worker otherwise.  It is the same loop, with
the same single fault-injection point
(:func:`repro.fabric.workers.execute_fabric_call`), that ``--fabric``
runs: per-attempt timeouts measured from submission, bounded retries
with deterministic backoff, a dead worker out for the rest of its task,
and an in-process fallback when every worker has died.

Results are collected **in shard order** and each retry re-derives its
stream from the shard's own ``SeedSequence``, so a run that survives N
faults is bit-identical to a fault-free run — the engine's determinism
contract is also its *recovery* contract.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.fabric.supervisor import FabricSpec, FabricSupervisor
from repro.resilience.faults import FaultPlan
from repro.resilience.policy import RetryPolicy, ShardFailure

if TYPE_CHECKING:  # pragma: no cover
    from repro.report.run_stats import RunStatsCollector

__all__ = ["ShardFailure", "ShardSupervisor"]


class ShardSupervisor(FabricSupervisor):
    """The fabric loop on ``workers`` local workers (the engine default).

    Parameters
    ----------
    workers:
        Worker count (``>= 1``): ``1`` runs shards in-process, more
        give each worker its own subprocess.
    policy:
        The :class:`RetryPolicy` driving timeouts/retries/backoff.
    collector:
        :class:`RunStatsCollector` receiving retry and per-worker
        events (pure bookkeeping, never results).
    plan:
        Optional :class:`FaultPlan` for chaos runs; its shard and
        worker faults both apply.
    """

    def __init__(
        self,
        workers: int,
        policy: RetryPolicy,
        collector: "RunStatsCollector",
        plan: FaultPlan | None = None,
    ) -> None:
        backend = "inproc" if workers == 1 else "pool"
        super().__init__(
            FabricSpec(workers=workers, backend=backend), policy, collector, plan
        )

    # The same function, bound in this class's own namespace so that
    # ShardSupervisor.run and FabricSupervisor.run can be traced apart.
    run = FabricSupervisor.run
