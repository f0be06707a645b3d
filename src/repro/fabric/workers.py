"""Pluggable fabric workers and checksummed result envelopes.

A fabric worker is anything that can execute one :class:`FabricCall`
at a time and hand back a **sealed envelope** — the shard result
pickled to bytes and bound to its ``(shard, attempt, worker)``
coordinates by the same truncated-SHA-256 primitive the sweep journal
uses (:func:`repro.resilience.journal.record_checksum`).  The
coordinator verifies every envelope before accepting it, so a worker
that silently returns garbage is indistinguishable from one that
crashed: the shard is simply re-executed.

Two backends implement the :class:`Worker` protocol:

``inproc`` — :class:`InProcessWorker`
    Executes in the coordinator's process at ``result()`` time.  The
    engine's default at ``--workers 1``, and the fallback when every
    other worker has died.
``pool`` — :class:`PoolWorker`
    One single-process ``ProcessPoolExecutor`` per worker (the
    engine's default at ``--workers N > 1``), so a ``kill_worker``
    fault (``os._exit`` in the subprocess) kills *that worker only*,
    and every call and envelope crosses a process boundary by
    pickling — the coordinator shares no memory with it.

Both backends funnel through module-level
:func:`execute_fabric_call`, the package's one fault-injection point:
worker-level faults (``kill_worker``, ``corrupt_result``) and the
shard faults of :mod:`repro.resilience.faults` are injected there,
which is what makes chaos schedules uniform across worker counts and
backends.
"""

from __future__ import annotations

import base64
import os
import pickle
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Protocol, runtime_checkable

from repro.resilience.faults import FaultPlan, WorkerKilled, inject_shard_fault
from repro.resilience.journal import record_checksum
from repro.util.heap import retain_heap

if TYPE_CHECKING:  # pragma: no cover
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
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
]


def encode_result(value: Any) -> str:
    """Pickle + base64 a shard result into a JSON-safe string."""
    return base64.b64encode(pickle.dumps(value)).decode("ascii")


def decode_result(text: str) -> Any:
    """Inverse of :func:`encode_result`."""
    return pickle.loads(base64.b64decode(text.encode("ascii")))


@dataclass(frozen=True)
class FabricCall:
    """One shard attempt, addressed to one worker.

    Picklable in full (``body`` must be a module-level callable) so
    either backend — in-process or subprocess — receives the identical
    work description.

    Attributes
    ----------
    body, payload:
        The shard body and its payload, exactly as
        :meth:`repro.fabric.supervisor.FabricSupervisor.run` received
        them.
    shard, attempt, worker:
        The fault-injection coordinates; also sealed into the result
        envelope so a mis-delivered result fails verification.
    plan:
        The chaos schedule consulted by :func:`execute_fabric_call`
        (``None`` in production).
    timeout:
        The policy's per-shard budget, forwarded so injected delays can
        convert to simulated timeouts in-process.
    """

    body: Callable
    payload: Any
    shard: int
    attempt: int
    worker: int
    plan: FaultPlan | None = None
    timeout: float | None = None


def seal_envelope(call: FabricCall, value: Any) -> dict:
    """Wrap a shard result in a checksummed, JSON-shaped envelope.

    The checksum covers the coordinates *and* the encoded body; if the
    call's plan schedules a ``corrupt_result`` fault for these
    coordinates, the body is mangled **after** sealing — exactly the
    bit-rot-in-transit failure the coordinator must catch.
    """
    record = {
        "shard": call.shard,
        "attempt": call.attempt,
        "worker": call.worker,
        "body": encode_result(value),
    }
    envelope = {**record, "sha": record_checksum(record)}
    if call.plan is not None and call.plan.corrupts_result(
        call.worker, call.shard, call.attempt
    ):
        envelope["body"] = "corrupt!" + envelope["body"]
    return envelope


def open_envelope(envelope: dict) -> tuple[bool, Any]:
    """Verify and unpack an envelope: ``(ok, value)``.

    ``(False, None)`` for anything that does not verify — wrong shape,
    failed checksum, undecodable body.  The coordinator treats that as
    a retriable shard failure, never as data.
    """
    try:
        record = {
            "shard": envelope["shard"],
            "attempt": envelope["attempt"],
            "worker": envelope["worker"],
            "body": envelope["body"],
        }
    except (TypeError, KeyError):
        return False, None
    if envelope.get("sha") != record_checksum(record):
        return False, None
    try:
        return True, decode_result(record["body"])
    except Exception:
        return False, None


def execute_fabric_call(call: FabricCall, in_subprocess: bool) -> dict:
    """Run one fabric call and seal its result — the single choke point.

    Worker faults fire first: a matching ``kill_worker`` exits the
    subprocess hard (breaking its pool, as a real worker death would)
    or raises :class:`~repro.resilience.faults.WorkerKilled` for
    backends living in the coordinator's process.  Then the shard
    faults are injected, then the body runs, and the result is sealed
    (which is where ``corrupt_result`` faults apply).
    """
    plan = call.plan
    if plan is not None and plan.kills_worker(call.worker, call.shard, call.attempt):
        if in_subprocess:
            os._exit(13)
        raise WorkerKilled(
            f"injected worker death: plan={plan.name!r} worker={call.worker} "
            f"shard={call.shard} attempt={call.attempt}"
        )
    inject_shard_fault(
        plan, call.shard, call.attempt, in_pool=in_subprocess, timeout=call.timeout
    )
    return seal_envelope(call, call.body(call.payload))


@runtime_checkable
class Worker(Protocol):
    """What the coordinator requires of a fabric worker backend.

    One outstanding call at a time: ``submit`` hands the worker a
    :class:`FabricCall`, ``result`` blocks until its envelope is
    available (raising on worker death or timeout), ``close`` releases
    any resources.  The coordinator never assumes shared memory — all
    it sees are picklable calls going out and envelopes coming back.
    """

    worker_id: int
    kind: str

    def submit(self, call: FabricCall) -> None:
        """Accept one call (the previous one must have been collected)."""
        ...  # pragma: no cover

    def result(self, timeout: float | None = None) -> dict:
        """Block for the outstanding call's envelope."""
        ...  # pragma: no cover

    def close(self) -> None:
        """Release the backend's resources (idempotent)."""
        ...  # pragma: no cover


class InProcessWorker:
    """Executes calls in the coordinator's process (also the fallback)."""

    kind = "inproc"

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self._pending: FabricCall | None = None

    def submit(self, call: FabricCall) -> None:
        """Queue one call for execution at :meth:`result` time."""
        if self._pending is not None:
            raise RuntimeError(f"worker {self.worker_id} already has a pending call")
        self._pending = call

    def result(self, timeout: float | None = None) -> dict:
        """Execute the pending call now and return its envelope."""
        if self._pending is None:
            raise RuntimeError(f"worker {self.worker_id} has no pending call")
        call, self._pending = self._pending, None
        return execute_fabric_call(call, in_subprocess=False)

    def close(self) -> None:
        """Drop any pending call (nothing else to release)."""
        self._pending = None


class PoolWorker:
    """One isolated single-process pool per worker.

    A hard crash (``os._exit``, OOM kill, native segfault) breaks only
    this worker's pool — ``result`` raises ``BrokenProcessPool`` and
    the coordinator declares *this* worker dead while the rest keep
    running, which is the failure-isolation shape of a multi-host
    deployment.
    """

    kind = "pool"

    def __init__(self, worker_id: int) -> None:
        # Imported here so that in-process runs never load the
        # process-pool machinery.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        self.worker_id = worker_id
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else None)
        self._pool: ProcessPoolExecutor | None = ProcessPoolExecutor(
            max_workers=1, mp_context=context, initializer=retain_heap
        )
        self._future = None

    def submit(self, call: FabricCall) -> None:
        """Dispatch one call to the worker subprocess."""
        if self._pool is None:
            raise RuntimeError(f"worker {self.worker_id} is closed")
        if self._future is not None:
            raise RuntimeError(f"worker {self.worker_id} already has a pending call")
        self._future = self._pool.submit(execute_fabric_call, call, True)

    def result(self, timeout: float | None = None) -> dict:
        """Block for the subprocess's envelope (raises on death/timeout)."""
        if self._future is None:
            raise RuntimeError(f"worker {self.worker_id} has no pending call")
        future, self._future = self._future, None
        return future.result(timeout=timeout)

    def close(self) -> None:
        """Shut the subprocess pool down without draining its queue."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None


#: Backend name -> constructor, the registry ``--fabric backend=...``
#: selects from.
WORKER_BACKENDS: dict[str, Callable[[int], Worker]] = {
    "inproc": InProcessWorker,
    "pool": PoolWorker,
}
