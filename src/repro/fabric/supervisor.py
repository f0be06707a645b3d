"""The shard supervisor: lease-based coordination over N pluggable workers.

:class:`FabricSupervisor` holds the only shard-execution loop in the
package.  ``run(body, payloads, label)`` drives N independent
:class:`Worker` backends through a lease-based shard queue; the
engine's default :class:`repro.resilience.supervisor.ShardSupervisor`
is this loop on ``--workers N`` local workers (one in-process worker
for ``N == 1``, one single-process pool per worker otherwise).

* **Leases.** A worker claims the lowest pending shard in its own
  partition (``shard % len(slots) == position``) first, then *steals*
  the lowest pending shard overall.  Every claim bumps the shard's
  **epoch** and grants a lease that expires ``lease_ticks`` later.
* **Heartbeats and failure detection.**  Each virtual tick, live
  workers heartbeat; a worker silent for ``heartbeat_ticks`` is
  declared dead and its leases expire immediately.  Workers whose
  backend raises (``BrokenProcessPool``, an injected
  :class:`~repro.resilience.faults.WorkerKilled`) are declared dead on
  the spot and stay out for the rest of the task.
* **Timeouts.**  ``policy.timeout`` is measured from each attempt's
  submission.  An attempt that overruns it is retried as a
  ``"timeout"``, its hung backend is dropped (and replaced), so the
  late result is never merged.
* **Fencing.**  A delivery is accepted only if the shard is still
  leased to that worker *at the same epoch* and the attempt was never
  orphaned.  A zombie — a stale worker finishing after its lease was
  stolen — is fenced: its envelope is discarded, never merged.
* **Retry budgets and quarantine.**  Every failed attempt consumes
  the shard's :class:`~repro.resilience.policy.RetryPolicy` budget
  (with the policy's deterministic backoff).  Failures *caused by the
  shard itself* (crashes, timeouts, corrupt results — not worker
  deaths) are attributed to the worker they ran on; a shard that fails
  on ``quarantine_after`` distinct workers is poisoned and raises
  :class:`ShardQuarantined` instead of being retried forever.
* **Fallback.**  If every worker has died, one in-process fallback
  slot (id ``spec.workers``) joins the same tick loop and finishes the
  task — the run still completes.

Determinism
-----------
All coordination — lease grants, heartbeat deadlines, steal choices,
fault injection — runs in **virtual time**: an integer tick counter,
never the wall clock.  A fault-free attempt costs one tick; ``slow``
faults cost more; blackout windows are tick intervals.  The schedule
is therefore a pure function of ``(shards, spec, plan, policy)``,
which is what makes the chaos suite's counter assertions meaningful.
Real execution is dispatched when an attempt's virtual cost elapses:
every attempt completing on the same tick is submitted to its backend
first and collected in worker-id order, so subprocess backends still
run in parallel.  Results themselves never depend on any of this —
each shard re-derives its stream from its own ``SeedSequence``, so any
schedule of crashes, stalls, steals, and fenced zombies yields results
bit-identical to a fault-free run at any worker count (enforced by
``tests/test_fabric.py`` and ``tests/test_chaos.py``).

Checkpointing
-------------
With a :class:`~repro.resilience.journal.SweepJournal` attached, every
accepted shard result is recorded under ``{label}/shard={i}`` before
the run proceeds; a coordinator killed mid-run (including via the
``kill_coordinator_after`` chaos fault) resumes by replaying recorded
shards and recomputing only the remainder — byte-identically, because
replayed and recomputed shards carry the same bits.
"""

from __future__ import annotations

import re
import time
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Sequence

from repro.fabric.workers import (
    WORKER_BACKENDS,
    FabricCall,
    InProcessWorker,
    Worker,
    decode_result,
    encode_result,
    open_envelope,
)
from repro.resilience.faults import FaultPlan, SimulatedTimeout, WorkerKilled
from repro.resilience.policy import RetryPolicy, ShardFailure

if TYPE_CHECKING:  # pragma: no cover
    from repro.report.run_stats import RunStatsCollector
    from repro.resilience.journal import SweepJournal

__all__ = [
    "CoordinatorKilled",
    "CorruptResult",
    "FabricSpec",
    "FabricStalled",
    "FabricSupervisor",
    "LeaseLost",
    "ShardQuarantined",
    "parse_fabric_spec",
]


class CoordinatorKilled(RuntimeError):
    """The coordinator died mid-run (the ``kill_coordinator_after``
    chaos fault).  Everything completed so far is in the journal; a
    rerun against the same journal resumes byte-identically."""

    def __init__(self, label: str, completions: int):
        super().__init__(
            f"coordinator killed after {completions} shard completion(s) of "
            f"task {label!r} (resume from the journal to continue)"
        )
        self.label = label
        self.completions = completions


class FabricStalled(RuntimeError):
    """The coordinator's tick budget ran out — a scheduling bug, not a
    recoverable fault (every recoverable schedule terminates well
    inside the budget)."""


class CorruptResult(RuntimeError):
    """A result envelope failed its checksum and was rejected."""


class LeaseLost(RuntimeError):
    """A shard's lease expired (worker death or deadline overrun); the
    attempt is accounted as failed and the shard requeued."""


class ShardQuarantined(ShardFailure):
    """A poisoned shard: it failed on ``quarantine_after`` distinct
    workers, so the fault travels with the shard, not the worker.
    Reported (with the workers it failed on) instead of burning the
    whole retry budget on every worker in turn.

    Attributes
    ----------
    failed_workers:
        Sorted ids of the workers the shard failed on.
    """

    def __init__(
        self,
        label: str,
        shard: int,
        attempts: int,
        failed_workers: list[int],
        cause: BaseException,
    ):
        super().__init__(label, shard, attempts, cause)
        self.failed_workers = failed_workers
        self.args = (
            f"shard {shard} of task {label!r} quarantined: failed on "
            f"{len(failed_workers)} distinct workers {failed_workers} "
            f"({attempts} attempt(s)); last error: {cause!r}",
        )


@dataclass(frozen=True)
class FabricSpec:
    """Shape of one fabric: how many workers, which backend, what leases.

    Attributes
    ----------
    workers:
        Number of fabric workers (each one backend instance).
    backend:
        Backend name from
        :data:`repro.fabric.workers.WORKER_BACKENDS`.
    lease_ticks:
        Virtual ticks a lease lasts before the shard may be stolen.
    heartbeat_ticks:
        Missed-heartbeat threshold (in ticks) before a worker is
        declared dead.
    quarantine_after:
        Distinct workers a shard must fail on to be quarantined.
    """

    workers: int = 2
    backend: str = "inproc"
    lease_ticks: int = 4
    heartbeat_ticks: int = 2
    quarantine_after: int = 3

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.backend not in WORKER_BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; one of "
                f"{', '.join(sorted(WORKER_BACKENDS))}"
            )
        for name in ("lease_ticks", "heartbeat_ticks", "quarantine_after"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


_SPEC_KEYS = {
    "workers": ("workers", int),
    "backend": ("backend", str),
    "lease": ("lease_ticks", int),
    "heartbeat": ("heartbeat_ticks", int),
    "quarantine": ("quarantine_after", int),
}


def parse_fabric_spec(text: str | None) -> FabricSpec:
    """Parse a ``--fabric`` spec string into a :class:`FabricSpec`.

    Accepts ``"workers=4"``, ``"workers=4,backend=pool"``, a bare
    worker count (``"4"``), or empty/None for the defaults.  Keys:
    ``workers``, ``backend``, ``lease``, ``heartbeat``, ``quarantine``.
    """
    if text is None or not text.strip():
        return FabricSpec()
    text = text.strip()
    if re.fullmatch(r"\d+", text):
        return FabricSpec(workers=int(text))
    fields: dict = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or key not in _SPEC_KEYS:
            raise ValueError(
                f"bad fabric spec item {part!r}; expected key=value with key "
                f"one of {', '.join(sorted(_SPEC_KEYS))}"
            )
        attr, cast = _SPEC_KEYS[key]
        try:
            fields[attr] = cast(value.strip())
        except ValueError:
            raise ValueError(f"bad fabric spec value {part!r}") from None
    return FabricSpec(**fields)


# -- internal per-run state ------------------------------------------------

_PENDING, _LEASED, _DONE = "pending", "leased", "done"


@dataclass
class _Shard:
    index: int
    status: str = _PENDING
    attempts: int = 0
    epoch: int = 0
    owner: int | None = None
    deadline: int | None = None
    failed_workers: set = field(default_factory=set)


@dataclass
class _Inflight:
    shard: int
    attempt: int
    epoch: int
    remaining: int
    live: bool = True
    due: float | None = None  # time.monotonic() deadline, set on submit


@dataclass
class _Slot:
    id: int
    backend: Worker
    alive: bool = True
    killed: bool = False
    last_heartbeat: int = 0
    inflight: _Inflight | None = None


def _without_kills(plan: FaultPlan | None) -> FaultPlan | None:
    """``plan`` minus its ``kill_worker`` faults (the fallback's plan:
    there is no fabric left to kill)."""
    if plan is None or not plan.worker_faults:
        return plan
    return replace(
        plan,
        worker_faults=tuple(f for f in plan.worker_faults if f.kind != "kill_worker"),
    )


class FabricSupervisor:
    """The lease/steal coordinator (see the module docstring).

    :class:`repro.sim.engine.MonteCarloEngine` runs every task
    (congestion cells, ``map_seeded``, ``map_trial_batches``) through
    :meth:`run`: on this class when built with a ``fabric`` spec, on
    its :class:`~repro.resilience.supervisor.ShardSupervisor` subclass
    otherwise.

    Parameters
    ----------
    spec:
        The :class:`FabricSpec` (worker count, backend, lease shape).
    policy:
        Per-shard retry/backoff/timeout budget; ``policy.timeout`` is
        also the *real* wall-clock budget of each attempt, measured
        from its submission.
    collector:
        :class:`~repro.report.run_stats.RunStatsCollector` receiving
        retries, quarantines, fallbacks, and per-worker events
        (shards, steals, lease expiries, fencings, deaths, rejoins).
    plan:
        Optional chaos :class:`~repro.resilience.faults.FaultPlan`.
    journal:
        Optional :class:`~repro.resilience.journal.SweepJournal`;
        accepted shard results checkpoint under ``{label}/shard={i}``.
    """

    def __init__(
        self,
        spec: FabricSpec,
        policy: RetryPolicy,
        collector: "RunStatsCollector",
        plan: FaultPlan | None = None,
        journal: "SweepJournal | None" = None,
    ) -> None:
        self.spec = spec
        self.policy = policy
        self.collector = collector
        self.plan = plan
        self.journal = journal
        self._backends: dict[int, Worker] = {}

    # -- lifecycle --------------------------------------------------------

    def _backend(self, worker_id: int) -> Worker:
        if worker_id not in self._backends:
            self._backends[worker_id] = WORKER_BACKENDS[self.spec.backend](worker_id)
            self.collector.fabric_worker(worker_id, self.spec.backend)
        return self._backends[worker_id]

    def _drop_backend(self, worker_id: int) -> None:
        backend = self._backends.pop(worker_id, None)
        if backend is not None:
            backend.close()

    def close(self) -> None:
        """Close every worker backend (idempotent)."""
        for worker_id in list(self._backends):
            self._drop_backend(worker_id)

    # -- public -----------------------------------------------------------

    def run(self, body: Callable, payloads: Sequence, label: str) -> list:
        """Execute every payload through ``body``, in shard order.

        Returns the per-shard results as a list indexed like
        ``payloads``; raises
        :class:`~repro.resilience.policy.ShardFailure` (or
        :class:`ShardQuarantined`) when a shard cannot complete.
        """
        try:
            return self._run(body, payloads, label)
        except BaseException:
            # An aborted task can leave calls pending on its backends;
            # the next task starts on fresh ones.
            self.close()
            raise

    def _run(self, body: Callable, payloads: Sequence, label: str) -> list:
        n = len(payloads)
        if n == 0:
            return []
        plan = self.plan
        timeout = self.policy.timeout
        shards = [_Shard(i) for i in range(n)]
        results: dict[int, object] = {}

        # Journal replay: shards checkpointed by an earlier (killed)
        # coordinator are loaded, not re-executed.
        if self.journal is not None:
            for shard in shards:
                recorded = self.journal.get(self._journal_key(label, shard.index))
                if recorded is not None:
                    results[shard.index] = decode_result(recorded)
                    shard.status = _DONE

        slots = [_Slot(w, self._backend(w)) for w in range(self.spec.workers)]
        completions = 0
        tick = 0
        # Generous stall budget: every recoverable schedule terminates
        # in O(shards * attempts * max-cost) ticks plus blackouts.
        max_ticks = 1000 + 64 * n * (self.policy.max_retries + 2)

        def requeue(slot: _Slot, fl: _Inflight) -> _Shard | None:
            """Void a lost attempt; the shard (if still ours) goes back
            to pending and is returned for failure accounting."""
            fl.live = False
            shard = shards[fl.shard]
            if (
                shard.status == _LEASED
                and shard.owner == slot.id
                and shard.epoch == fl.epoch
            ):
                shard.status = _PENDING
                shard.owner = None
                shard.deadline = None
                return shard
            return None

        def fail(
            slot: _Slot,
            fl: _Inflight,
            reason: str,
            exc: BaseException,
            fault_worker: int | None = None,
        ) -> None:
            """Requeue a failed attempt and account it.  Without a
            ``fault_worker`` the worker, not the shard, is to blame:
            the worker loses the lease and the shard takes no strike."""
            shard = requeue(slot, fl)
            if shard is None:
                return
            if fault_worker is None:
                self.collector.record_lease_expiry(slot.id)
            self._account_failure(label, shard, reason, exc, fault_worker)

        def expire_lease(slot: _Slot, reason: str, exc: BaseException) -> None:
            fl = slot.inflight
            if fl is not None and fl.live:
                fail(slot, fl, reason, exc)

        def kill_slot(slot: _Slot) -> None:
            slot.killed = True
            slot.alive = False
            self.collector.record_worker_death(slot.id)
            self._drop_backend(slot.id)

        def claim_for(slot: _Slot, position: int) -> _Shard | None:
            def eligible(shard: _Shard) -> bool:
                if slot.id not in shard.failed_workers:
                    return True
                # Last resort: no other live worker is left that this
                # shard has not already failed on.
                return not any(
                    other.id != slot.id
                    and other.alive
                    and not other.killed
                    and other.id not in shard.failed_workers
                    for other in slots
                )

            pending = [s for s in shards if s.status == _PENDING and eligible(s)]
            for shard in pending:
                if shard.index % len(slots) == position:
                    return shard
            return pending[0] if pending else None

        def accept(slot: _Slot, fl: _Inflight, value: object) -> None:
            nonlocal completions
            shard = shards[fl.shard]
            shard.status = _DONE
            shard.owner = None
            shard.deadline = None
            results[shard.index] = value
            self.collector.record_fabric_shard(slot.id)
            if self.journal is not None:
                self.journal.record(
                    self._journal_key(label, shard.index), encode_result(value)
                )
            completions += 1
            if (
                plan is not None
                and plan.kill_coordinator_after is not None
                and completions >= plan.kill_coordinator_after
            ):
                raise CoordinatorKilled(label, completions)

        def collect(slot: _Slot, fl: _Inflight, error: BaseException | None) -> None:
            try:
                if error is not None:
                    raise error
                budget = None if fl.due is None else max(0.0, fl.due - time.monotonic())
                envelope = slot.backend.result(timeout=budget)
            except (BrokenExecutor, WorkerKilled) as exc:
                # The *worker* died: not the shard's fault.  A dead pool
                # raises BrokenProcessPool, a BrokenExecutor.
                kill_slot(slot)
                fail(slot, fl, "worker-died", exc)
                return
            except FutureTimeout as exc:
                # The attempt overran its budget.  Drop the hung backend
                # so its late result can never be merged.
                self._drop_backend(slot.id)
                slot.backend = self._backend(slot.id)
                fail(slot, fl, "timeout", exc, fault_worker=slot.id)
                return
            except Exception as exc:
                # The shard's own execution failed on this worker.
                reason = "timeout" if isinstance(exc, SimulatedTimeout) else "crash"
                fail(slot, fl, reason, exc, fault_worker=slot.id)
                return
            ok, value = open_envelope(envelope)
            if not ok:
                fail(
                    slot,
                    fl,
                    "corrupt-result",
                    CorruptResult(
                        f"shard {fl.shard} attempt {fl.attempt} from worker "
                        f"{slot.id}: envelope failed checksum"
                    ),
                    fault_worker=slot.id,
                )
                return
            shard = shards[fl.shard]
            if (
                not fl.live
                or shard.status != _LEASED
                or shard.owner != slot.id
                or shard.epoch != fl.epoch
            ):
                # Zombie delivery: the lease moved on. Fence it.
                self.collector.record_fenced(slot.id)
                return
            accept(slot, fl, value)

        while len(results) < n:
            tick += 1
            if tick > max_ticks:
                raise FabricStalled(
                    f"task {label!r} stalled after {tick} ticks with "
                    f"{n - len(results)} shard(s) unfinished"
                )

            # Fall back when the whole fabric is gone: one in-process
            # slot joins this same loop, with nothing left to kill.
            if all(slot.killed for slot in slots):
                self.collector.record_degraded()
                plan = _without_kills(plan)
                fallback = self.spec.workers
                self.collector.fabric_worker(fallback, "inproc-fallback")
                slots = [
                    _Slot(fallback, InProcessWorker(fallback), last_heartbeat=tick)
                ]

            # 1. Heartbeats (blacked-out workers stay silent) + rejoin.
            for slot in slots:
                if slot.killed:
                    continue
                if plan is not None and plan.blacked_out(slot.id, tick):
                    continue
                slot.last_heartbeat = tick
                if not slot.alive:
                    slot.alive = True
                    self.collector.record_worker_rejoin(slot.id)

            # 2. Failure detection: missed heartbeats => declared dead,
            #    leases orphaned (the worker may still be computing — a
            #    partition, not a crash — so its delivery gets fenced).
            for slot in slots:
                if slot.killed or not slot.alive:
                    continue
                if tick - slot.last_heartbeat >= self.spec.heartbeat_ticks:
                    slot.alive = False
                    self.collector.record_worker_death(slot.id)
                    expire_lease(
                        slot,
                        "worker-died",
                        LeaseLost(
                            f"worker {slot.id} missed heartbeats at tick {tick}"
                        ),
                    )

            # 3. Lease-deadline expiry for live-but-overrunning workers.
            for slot in slots:
                fl = slot.inflight
                if fl is None or not fl.live:
                    continue
                shard = shards[fl.shard]
                if (
                    shard.status == _LEASED
                    and shard.owner == slot.id
                    and shard.deadline is not None
                    and tick > shard.deadline
                ):
                    expire_lease(
                        slot,
                        "lease-expired",
                        LeaseLost(
                            f"lease on shard {shard.index} expired at tick {tick} "
                            f"(worker {slot.id} overran)"
                        ),
                    )

            # 4. Assignment: idle live workers claim their own partition
            #    (by position in ``slots``) first, then steal the lowest
            #    pending shard.
            for position, slot in enumerate(slots):
                if slot.killed or not slot.alive or slot.inflight is not None:
                    continue
                shard = claim_for(slot, position)
                if shard is None:
                    continue
                if shard.index % len(slots) != position:
                    self.collector.record_steal(slot.id)
                shard.status = _LEASED
                shard.owner = slot.id
                shard.epoch += 1
                shard.deadline = tick + self.spec.lease_ticks
                cost = (
                    plan.attempt_cost(slot.id, shard.index, shard.attempts)
                    if plan is not None
                    else 1
                )
                slot.inflight = _Inflight(
                    shard.index, shard.attempts, shard.epoch, remaining=cost
                )

            # 5. Progress + delivery: submit every attempt completing
            #    this tick (so subprocess backends overlap), then
            #    collect in worker-id order — deterministic accounting,
            #    real parallelism.
            completing: list[tuple[_Slot, _Inflight]] = []
            for slot in slots:
                fl = slot.inflight
                if fl is None:
                    continue
                if fl.remaining > 0:
                    fl.remaining -= 1
                if fl.remaining == 0 and not (
                    plan is not None and plan.blacked_out(slot.id, tick)
                ):
                    completing.append((slot, fl))
            submit_errors: dict[int, BaseException] = {}
            for slot, fl in completing:
                call = FabricCall(
                    body=body,
                    payload=payloads[fl.shard],
                    shard=fl.shard,
                    attempt=fl.attempt,
                    worker=slot.id,
                    plan=plan,
                    timeout=timeout,
                )
                if timeout is not None:
                    fl.due = time.monotonic() + timeout
                try:
                    slot.backend.submit(call)
                except (OSError, RuntimeError) as exc:  # incl. BrokenProcessPool
                    submit_errors[slot.id] = exc
            for slot, fl in completing:
                slot.inflight = None
                collect(slot, fl, submit_errors.get(slot.id))

        return [results[i] for i in range(n)]

    # -- shared accounting -------------------------------------------------

    @staticmethod
    def _journal_key(label: str, shard: int) -> str:
        return f"{label}/shard={shard}"

    def _account_failure(
        self,
        label: str,
        shard: _Shard,
        reason: str,
        exc: BaseException,
        fault_worker: int | None = None,
    ) -> None:
        """Record one failed attempt; raise when a limit is crossed.

        ``fault_worker`` attributes the failure to the shard itself (a
        quarantine strike on that worker); worker deaths pass ``None``
        so a flaky *fabric* never quarantines a healthy shard.
        """
        failed_attempt = shard.attempts
        shard.attempts += 1
        if fault_worker is not None:
            shard.failed_workers.add(fault_worker)
            if len(shard.failed_workers) >= self.spec.quarantine_after:
                self.collector.record_quarantine(label, shard.index)
                raise ShardQuarantined(
                    label,
                    shard.index,
                    shard.attempts,
                    sorted(shard.failed_workers),
                    exc,
                ) from exc
        if shard.attempts > self.policy.max_retries:
            raise ShardFailure(label, shard.index, shard.attempts, exc) from exc
        self.collector.record_retry(label, shard.index, reason)
        self.policy.wait(label, shard.index, failed_attempt)
