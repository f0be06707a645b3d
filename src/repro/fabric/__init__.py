"""The shard supervisor: N pluggable workers, lease-based stealing.

Every shard the engine runs goes through
:class:`~repro.fabric.supervisor.FabricSupervisor`: N independent
workers behind the :class:`~repro.fabric.workers.Worker` protocol —
in-process and one-subprocess-pool-per-worker — coordinated through a
lease-based shard queue with heartbeat failure detection, work
stealing, epoch fencing, poisoned-shard quarantine, an in-process
fallback, and journal checkpointing.  The load-bearing contract:

> any schedule of worker crashes, stalls, blackouts, and corrupt
> results yields results **bit-identical** to a fault-free run, at
> every worker count — and a killed coordinator resumes from its
> journal byte-for-byte.

``MonteCarloEngine(workers=N)`` runs it as
:class:`repro.resilience.ShardSupervisor`; an explicit spec comes from
``MonteCarloEngine(fabric="workers=4,backend=pool")`` or ``--fabric``
on the CLI.  See ``docs/ENGINE.md`` ("Fault tolerance: one shard
supervisor").
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.fabric.supervisor": [
            "CoordinatorKilled",
            "CorruptResult",
            "FabricSpec",
            "FabricStalled",
            "FabricSupervisor",
            "LeaseLost",
            "ShardQuarantined",
            "parse_fabric_spec",
        ],
        "repro.fabric.workers": [
            "FabricCall",
            "InProcessWorker",
            "PoolWorker",
            "WORKER_BACKENDS",
            "Worker",
            "decode_result",
            "encode_result",
            "execute_fabric_call",
            "open_envelope",
            "seal_envelope",
        ],
    },
)
