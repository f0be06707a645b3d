"""Deterministic chaos harness: injectable fault plans.

A :class:`FaultPlan` is a *static, picklable schedule* of faults —
"shard 1 crashes on its first two attempts", "the write of cache entry
0 is torn mid-JSON" — that the execution layer consults at well-defined
points.  Because the schedule is data (not probabilistic monkey
patching), a chaos run is exactly as reproducible as a fault-free run,
which is what lets the property tests assert the recovery contract:

> for every fault schedule that eventually lets work complete, the
> final :class:`~repro.sim.congestion_sim.CongestionStats` are
> **bit-identical** to the fault-free run, at every worker count.

Shard and worker faults are injected at one point,
:func:`repro.fabric.workers.execute_fabric_call`, which every shard
attempt passes through (in the worker's subprocess for ``pool``
workers, in the coordinator's process for ``inproc`` ones); cache
faults are injected by :meth:`repro.sim.cache.ResultCache.put`.

Fault kinds
-----------
``crash``
    The shard raises :class:`InjectedCrash` before doing any work.
``delay``
    The shard sleeps ``delay`` seconds before doing its work.  On a
    ``pool`` worker this trips the supervisor's real timeout; an
    in-process worker (which cannot be preempted) raises
    :class:`SimulatedTimeout` instead of sleeping when the delay is
    longer than the policy timeout, so the retry schedule is identical
    across worker counts.
``break_pool``
    The worker process exits hard (``os._exit``), breaking that
    worker's single-process pool: the supervisor declares the worker
    dead and retries the shard elsewhere.  An in-process worker has no
    pool to break, so the fault is a no-op there.

Cache faults are put-indexed (the Nth ``put`` of the cache instance):
``tear_puts`` simulates a torn non-atomic write (a truncated JSON file
appears under the entry's real name, plus an orphaned ``.tmp``);
``corrupt_puts`` flips the entry's bytes after a successful write.

Worker faults
-------------
The shard supervisor (:mod:`repro.fabric`) adds a second fault
coordinate system: *workers*.  A :class:`WorkerFault` targets a
worker id and/or a shard, in the supervisor's deterministic virtual
time:

``kill_worker``
    The worker dies permanently when it executes the matching shard
    (``os._exit`` for subprocess-backed workers, :class:`WorkerKilled`
    for in-process ones).  Its leases are orphaned and stolen.
``blackout``
    The worker misses heartbeats for ``ticks`` virtual ticks starting
    at ``at_tick`` and cannot deliver results while partitioned.  The
    coordinator declares it dead, steals its leases, and *fences* the
    stale result it delivers after rejoining.
``slow_worker``
    The matching attempt costs ``ticks`` virtual ticks instead of one;
    past the lease deadline the shard is stolen and the slow worker's
    eventual result is fenced.
``corrupt_result``
    The matching attempt's result envelope is corrupted after its
    checksum is computed; the coordinator's per-record checksum
    validation detects it and the shard is re-executed.

A plan may also set ``kill_coordinator_after``: the coordinator itself
raises :class:`~repro.fabric.CoordinatorKilled` after that many shard
completions — the resume-from-journal chaos case.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

__all__ = [
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
    "inject_shard_fault",
]


class InjectedFault(RuntimeError):
    """Base class for faults raised by the chaos harness."""


class InjectedCrash(InjectedFault):
    """A scheduled shard crash (fault kind ``crash``)."""


class SimulatedTimeout(InjectedFault):
    """A scheduled delay surfacing as a timeout on an in-process worker."""


class WorkerKilled(InjectedFault):
    """A scheduled worker death (fault kind ``kill_worker``) for
    workers that execute in the coordinator's own process; subprocess
    workers die for real via ``os._exit``."""


@dataclass(frozen=True)
class ShardFault:
    """One scheduled fault against one (shard, attempt) coordinate.

    Attributes
    ----------
    kind:
        ``"crash"``, ``"delay"``, or ``"break_pool"``.
    shard:
        Shard index the fault targets (the engine's fixed shard plan
        makes this stable across worker counts).
    attempts:
        Attempt numbers (0-based) on which the fault fires.  An
        eventually-recoverable plan leaves at least one attempt within
        the retry budget fault-free.
    delay:
        Sleep duration in seconds (``delay`` faults only).
    """

    kind: str
    shard: int
    attempts: tuple[int, ...] = (0,)
    delay: float = 0.0

    _KINDS = ("crash", "delay", "break_pool")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; one of {self._KINDS}")
        if self.shard < 0:
            raise ValueError(f"shard must be >= 0, got {self.shard}")
        if any(a < 0 for a in self.attempts):
            raise ValueError(f"attempts must be >= 0, got {self.attempts}")
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")

    def matches(self, shard: int, attempt: int) -> bool:
        return shard == self.shard and attempt in self.attempts


@dataclass(frozen=True)
class WorkerFault:
    """One scheduled fault against a fabric worker and/or shard.

    Attributes
    ----------
    kind:
        ``"kill_worker"``, ``"blackout"``, ``"slow_worker"``, or
        ``"corrupt_result"`` (see the module docstring for semantics).
    worker:
        Target fabric worker id; ``None`` matches any worker.  A plan
        targeting a worker id that does not exist at the current worker
        count is a no-op there (mirroring ``break_pool`` on an
        in-process worker), which is what keeps one plan usable at
        every count.
    shard:
        Target shard index; ``None`` matches any shard.
    attempts:
        Attempt numbers the fault fires on; ``None`` matches every
        attempt (used to build poisoned shards for quarantine tests).
    at_tick:
        Virtual tick a ``blackout`` starts on (1-based; the fabric's
        clock starts at tick 1).
    ticks:
        ``blackout``: how many ticks the worker is partitioned.
        ``slow_worker``: the matching attempt's cost in ticks (a cost
        beyond the lease duration forces a steal).
    """

    kind: str
    worker: int | None = None
    shard: int | None = None
    attempts: tuple[int, ...] | None = (0,)
    at_tick: int = 1
    ticks: int = 0

    _KINDS = ("kill_worker", "blackout", "slow_worker", "corrupt_result")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; one of {self._KINDS}")
        if self.worker is not None and self.worker < 0:
            raise ValueError(f"worker must be >= 0, got {self.worker}")
        if self.shard is not None and self.shard < 0:
            raise ValueError(f"shard must be >= 0, got {self.shard}")
        if self.attempts is not None and any(a < 0 for a in self.attempts):
            raise ValueError(f"attempts must be >= 0, got {self.attempts}")
        if self.at_tick < 1:
            raise ValueError(f"at_tick must be >= 1, got {self.at_tick}")
        if self.ticks < 0:
            raise ValueError(f"ticks must be >= 0, got {self.ticks}")

    def matches(self, worker: int, shard: int, attempt: int) -> bool:
        """Does this fault fire for ``worker`` running ``(shard, attempt)``?"""
        if self.worker is not None and worker != self.worker:
            return False
        if self.shard is not None and shard != self.shard:
            return False
        if self.attempts is not None and attempt not in self.attempts:
            return False
        return True


@dataclass(frozen=True)
class FaultPlan:
    """A complete, picklable fault schedule for one supervised run.

    Attributes
    ----------
    name:
        Display name (builtin plans use their registry key).
    shard_faults:
        Faults applied to shard execution, matched by
        ``(shard, attempt)``.  The plan applies to every supervised
        task the engine runs (each task restarts attempt counting).
    tear_puts:
        0-based cache ``put`` indices whose write is torn: a truncated
        JSON file is left under the entry's final name and the ``.tmp``
        staging file is orphaned, as a crashed non-atomic writer would.
    corrupt_puts:
        0-based cache ``put`` indices whose entry is overwritten with
        garbage bytes *after* a successful atomic write.
    worker_faults:
        Worker-level faults consumed by the shard supervisor
        (:mod:`repro.fabric`), with or without a ``fabric`` spec.
    kill_coordinator_after:
        When set, the fabric coordinator raises
        :class:`~repro.fabric.CoordinatorKilled` after this many shard
        completions of one task — the journal-resume chaos case.
    """

    name: str = "custom"
    shard_faults: tuple[ShardFault, ...] = ()
    tear_puts: tuple[int, ...] = ()
    corrupt_puts: tuple[int, ...] = ()
    worker_faults: tuple[WorkerFault, ...] = ()
    kill_coordinator_after: int | None = None

    def fault_for(self, shard: int, attempt: int) -> ShardFault | None:
        """First scheduled fault matching ``(shard, attempt)``, if any."""
        for fault in self.shard_faults:
            if fault.matches(shard, attempt):
                return fault
        return None

    def tears_put(self, index: int) -> bool:
        return index in self.tear_puts

    def corrupts_put(self, index: int) -> bool:
        return index in self.corrupt_puts

    # -- worker-fault queries (fabric coordinate system) ------------------

    def _worker_fault_for(
        self, kind: str, worker: int, shard: int, attempt: int
    ) -> WorkerFault | None:
        for fault in self.worker_faults:
            if fault.kind == kind and fault.matches(worker, shard, attempt):
                return fault
        return None

    def kills_worker(self, worker: int, shard: int, attempt: int) -> bool:
        """Does ``worker`` die executing ``(shard, attempt)``?"""
        return self._worker_fault_for("kill_worker", worker, shard, attempt) is not None

    def corrupts_result(self, worker: int, shard: int, attempt: int) -> bool:
        """Is the result envelope of ``(shard, attempt)`` corrupted?"""
        return (
            self._worker_fault_for("corrupt_result", worker, shard, attempt)
            is not None
        )

    def blacked_out(self, worker: int, tick: int) -> bool:
        """Is ``worker`` heartbeat-partitioned at virtual ``tick``?"""
        for fault in self.worker_faults:
            if (
                fault.kind == "blackout"
                and (fault.worker is None or fault.worker == worker)
                and fault.at_tick <= tick < fault.at_tick + fault.ticks
            ):
                return True
        return False

    def attempt_cost(self, worker: int, shard: int, attempt: int) -> int:
        """Virtual-tick cost of one attempt (1 unless a slow fault hits)."""
        fault = self._worker_fault_for("slow_worker", worker, shard, attempt)
        if fault is None:
            return 1
        return max(1, fault.ticks)


def inject_shard_fault(
    plan: FaultPlan | None,
    shard: int,
    attempt: int,
    in_pool: bool,
    timeout: float | None,
) -> None:
    """Apply the scheduled fault for ``(shard, attempt)``, if any.

    Called by :func:`repro.fabric.workers.execute_fabric_call`
    immediately before the shard body runs — in the worker's
    subprocess for ``pool`` workers (``in_pool=True``), in-process
    otherwise.  See the module docstring for per-kind semantics.
    """
    if plan is None:
        return
    fault = plan.fault_for(shard, attempt)
    if fault is None:
        return
    if fault.kind == "crash":
        raise InjectedCrash(
            f"injected crash: plan={plan.name!r} shard={shard} attempt={attempt}"
        )
    if fault.kind == "delay":
        if not in_pool and timeout is not None and fault.delay > timeout:
            raise SimulatedTimeout(
                f"injected timeout: plan={plan.name!r} shard={shard} "
                f"attempt={attempt} (delay {fault.delay}s > timeout {timeout}s)"
            )
        time.sleep(fault.delay)
        return
    # break_pool: only a pool can break.  An in-process worker has no
    # process to kill, so the fault degrades to a no-op there.
    if in_pool:
        os._exit(13)


#: Builtin fault schedules exercised by the chaos property tests
#: (``tests/test_chaos.py``) and the CI ``chaos`` job.  Every plan is
#: eventually recoverable under the default retry budget.
BUILTIN_FAULT_PLANS: dict[str, FaultPlan] = {
    "shard-crash-x2": FaultPlan(
        name="shard-crash-x2",
        shard_faults=(ShardFault(kind="crash", shard=1, attempts=(0, 1)),),
    ),
    # Pair with a policy whose per-attempt timeout is < 2.5s (the chaos
    # tests use timeout=1.0): a pool worker trips the real timeout, an
    # in-process worker raises the simulated one.
    "shard-timeout": FaultPlan(
        name="shard-timeout",
        shard_faults=(ShardFault(kind="delay", shard=2, attempts=(0,), delay=2.5),),
    ),
    "broken-pool": FaultPlan(
        name="broken-pool",
        shard_faults=(ShardFault(kind="break_pool", shard=0, attempts=(0,)),),
    ),
    "torn-cache-write": FaultPlan(name="torn-cache-write", tear_puts=(0,)),
    "corrupt-cache-entry": FaultPlan(name="corrupt-cache-entry", corrupt_puts=(0,)),
}


def builtin_fault_plan(name: str) -> FaultPlan:
    """Look up a builtin plan by name (KeyError lists the options)."""
    try:
        return BUILTIN_FAULT_PLANS[name]
    except KeyError:
        raise KeyError(
            f"unknown fault plan {name!r}; builtin plans: "
            f"{', '.join(sorted(BUILTIN_FAULT_PLANS))}"
        ) from None


#: Builtin *worker*-fault schedules for the fabric chaos tests and the
#: CI ``chaos`` matrix.  Faults are shard-keyed wherever a counter must
#: be worker-count-independent; worker-keyed faults target worker 1 so
#: the plan degrades to a no-op at ``workers=1`` (worker 0 only), the
#: same convention ``break_pool`` uses on an in-process worker.
BUILTIN_WORKER_FAULT_PLANS: dict[str, FaultPlan] = {
    "kill-worker": FaultPlan(
        name="kill-worker",
        worker_faults=(WorkerFault(kind="kill_worker", worker=1, shard=1),),
    ),
    "kill-two-workers": FaultPlan(
        name="kill-two-workers",
        worker_faults=(
            WorkerFault(kind="kill_worker", worker=1, shard=1),
            WorkerFault(kind="kill_worker", worker=2, shard=2),
        ),
    ),
    "worker-blackout": FaultPlan(
        name="worker-blackout",
        worker_faults=(
            WorkerFault(kind="blackout", worker=1, at_tick=1, ticks=4),
        ),
    ),
    # Cost 6 > the coordinator's lease of 4 ticks: the shard is stolen
    # and the slow worker's late delivery is fenced.
    "slow-worker": FaultPlan(
        name="slow-worker",
        worker_faults=(
            WorkerFault(kind="slow_worker", worker=1, shard=1, ticks=6),
        ),
    ),
    # Shard-keyed (any worker): the retry counter must not depend on
    # which worker drew shard 3.
    "corrupt-result": FaultPlan(
        name="corrupt-result",
        worker_faults=(
            WorkerFault(kind="corrupt_result", shard=3, attempts=(0,)),
        ),
    ),
    "kill-coordinator": FaultPlan(
        name="kill-coordinator",
        kill_coordinator_after=3,
    ),
}


def builtin_worker_fault_plan(name: str) -> FaultPlan:
    """Look up a builtin worker-fault plan (KeyError lists the options)."""
    try:
        return BUILTIN_WORKER_FAULT_PLANS[name]
    except KeyError:
        raise KeyError(
            f"unknown worker fault plan {name!r}; builtin plans: "
            f"{', '.join(sorted(BUILTIN_WORKER_FAULT_PLANS))}"
        ) from None
