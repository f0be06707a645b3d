"""Distributed sweep fabric: N pluggable workers, lease-based stealing.

PR 5 made a *single* process pool fault-tolerant; this package
generalizes that to a fabric of N independent workers behind the
:class:`~repro.fabric.workers.Worker` protocol — in-process and
one-subprocess-pool-per-worker — coordinated by :class:`~repro.fabric.supervisor.FabricSupervisor`
through a lease-based shard queue with heartbeat failure detection,
work stealing, epoch fencing, poisoned-shard quarantine, and
journal checkpointing.  The load-bearing contract is unchanged:

> any schedule of worker crashes, stalls, blackouts, and corrupt
> results yields results **bit-identical** to a fault-free run, at
> every worker count — and a killed coordinator resumes from its
> journal byte-for-byte.

Select it via ``MonteCarloEngine(fabric="workers=4,backend=pool")`` or
``--fabric`` on the CLI; see ``docs/ENGINE.md`` ("The sweep fabric").
"""

from repro.fabric.supervisor import (
    CoordinatorKilled,
    CorruptResult,
    FabricSpec,
    FabricStalled,
    FabricSupervisor,
    LeaseLost,
    ShardQuarantined,
    parse_fabric_spec,
)
from repro.fabric.workers import (
    WORKER_BACKENDS,
    FabricCall,
    InProcessWorker,
    PoolWorker,
    Worker,
    decode_result,
    encode_result,
    execute_fabric_call,
    open_envelope,
    seal_envelope,
)

__all__ = [
    "CoordinatorKilled",
    "CorruptResult",
    "FabricCall",
    "FabricSpec",
    "FabricStalled",
    "FabricSupervisor",
    "InProcessWorker",
    "LeaseLost",
    "PoolWorker",
    "ShardQuarantined",
    "WORKER_BACKENDS",
    "Worker",
    "decode_result",
    "encode_result",
    "execute_fabric_call",
    "open_envelope",
    "parse_fabric_spec",
    "seal_envelope",
]
