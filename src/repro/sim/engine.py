"""Parallel Monte-Carlo execution engine with result caching.

The table generators and sweeps all reduce to the same shape of work:
*estimate the expected congestion of one (mapping, pattern, width)
cell from ``trials`` independent mapping redraws*.  The engine turns
each such task into a deterministic shard plan:

1. The task's trials are split into a **fixed number of shards**
   (default :data:`DEFAULT_SHARDS`, independent of the worker count).
2. Each shard gets its own child :class:`~numpy.random.SeedSequence`
   via ``SeedSequence.spawn`` — non-overlapping streams by
   construction, picklable across process boundaries.
3. Shards run on one in-process worker (``workers == 1``) or on
   ``workers`` single-process pools (``workers > 1``).
4. Per-shard :class:`~repro.sim.congestion_sim.RunningStats` partials
   are merged **in shard order** with Chan's exact pairwise combine.

Because the shard plan, the per-shard streams, and the merge order
depend only on ``(task, trials, seed, shards)`` — never on the worker
count or on which process ran which shard — a fixed seed produces
**bit-identical** :class:`~repro.sim.congestion_sim.CongestionStats`
for any ``workers``.  The on-disk :class:`~repro.sim.cache.ResultCache`
stores the finished stats losslessly, so cache-warm results are
bit-identical to cache-cold ones as well; both invariants are enforced
by ``tests/test_engine.py``.

Shards execute under the one shard supervisor,
:class:`repro.fabric.FabricSupervisor`: lease-based work stealing,
per-attempt timeouts, bounded retries with deterministic backoff,
quarantine, and an in-process fallback when every worker has died.
Without a ``fabric`` spec the engine runs it as
:class:`~repro.resilience.supervisor.ShardSupervisor` on ``workers``
local workers.  A retried shard re-derives its stream from its own
spawned ``SeedSequence``, so a run that survives faults stays
bit-identical to a fault-free run — the determinism contract doubles
as a *recovery* contract (``tests/test_chaos.py``,
``tests/test_fabric.py``).  The supervisor is an execution detail:
results are bit-identical for every worker count and fabric spec.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.fabric.supervisor import FabricSpec, FabricSupervisor
    from repro.resilience.journal import SweepJournal

from repro.report.run_stats import RunStatsCollector
from repro.resilience.faults import FaultPlan
from repro.resilience.policy import RetryPolicy
from repro.sim.cache import ResultCache
from repro.sim.congestion_sim import (
    CongestionStats,
    RunningStats,
    _accumulate_matrix,
    _accumulate_nd_fast,
)
from repro.util.rng import SeedLike, as_generator, seed_fingerprint, spawn_seed_sequences
from repro.util.validation import check_positive_int

__all__ = ["DEFAULT_SHARDS", "MonteCarloEngine", "resolve_workers"]

#: Shards per task.  Fixed (not ``= workers``) so the RNG stream
#: partition — and therefore every result bit — is identical whether
#: the shards run on 1 worker or 16.  Small enough that per-shard
#: chunking still amortizes, large enough to keep 8 cores busy.
DEFAULT_SHARDS = 8

#: The in-process simulator bodies, by task kind.  Each maps
#: ``(params..., trials, rng) -> RunningStats``.
_SHARD_BODIES: dict[str, Callable[..., RunningStats]] = {
    "matrix": _accumulate_matrix,
    "nd_fast": _accumulate_nd_fast,
}


def resolve_workers(workers: int | None) -> int:
    """Normalize a worker-count request (``None``/``0`` -> all cores)."""
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0 or None, got {workers}")
    return workers


def _run_shard(task: tuple) -> tuple[RunningStats, float]:
    """Worker entry point: run one shard, return (partial, wall time).

    Module-level so it pickles under every multiprocessing start
    method; the wall time is measured here, inside the worker, so the
    instrumentation reports simulation cost rather than dispatch latency.
    """
    kind, params, trials, seed_seq = task
    start = perf_counter()
    stats = _SHARD_BODIES[kind](*params, trials, as_generator(seed_seq))
    return stats, perf_counter() - start


def _shard_sizes(trials: int, shards: int) -> list[int]:
    """Balanced shard sizes: ``shards`` parts of ``trials`` (no zeros)."""
    k = min(trials, shards)
    base, extra = divmod(trials, k)
    return [base + (1 if i < extra else 0) for i in range(k)]


class MonteCarloEngine:
    """Executes congestion-simulation tasks over supervised workers + cache.

    Parameters
    ----------
    workers:
        Worker count.  ``1`` (default) runs shards on one in-process
        worker — no subprocess — but through the *same* shard plan, so
        results match any other worker count bit for bit.  More
        workers each get their own subprocess.  ``None`` or ``0`` uses
        every core.
    cache:
        A :class:`ResultCache`, ``True`` for one rooted at the default
        directory, or ``None``/``False`` to disable caching.
    shards:
        Shards per task (default :data:`DEFAULT_SHARDS`).  Part of the
        result's RNG identity: changing it changes the streams, so it
        is folded into the cache key.
    collector:
        Optional :class:`RunStatsCollector`; one is created if omitted.
    policy:
        Optional :class:`~repro.resilience.policy.RetryPolicy` for the
        shard supervisor (retries, per-attempt timeout, backoff).
        Defaults cover transient worker loss without affecting results.
    faults:
        Optional :class:`~repro.resilience.faults.FaultPlan` — the
        deterministic chaos harness.  Production runs leave this
        ``None``.
    fabric:
        Optional :class:`~repro.fabric.FabricSpec` (or a spec string
        like ``"workers=4,backend=pool"``) shaping the supervisor's
        fabric explicitly; ``workers`` is then ignored.  The shard
        plan, streams, and merge order are unchanged, so results are
        bit-identical either way.
    fabric_journal:
        Optional :class:`~repro.resilience.journal.SweepJournal` the
        fabric checkpoints accepted shards into (per-shard resume for
        a killed coordinator).  Ignored without ``fabric``.

    Examples
    --------
    >>> engine = MonteCarloEngine(workers=2, cache=False)
    >>> stats = engine.matrix_congestion("RAS", "stride", 32, trials=100, seed=7)
    >>> engine.close()
    """

    def __init__(
        self,
        workers: int | None = 1,
        cache: ResultCache | bool | None = None,
        shards: int | None = None,
        collector: RunStatsCollector | None = None,
        policy: RetryPolicy | None = None,
        faults: FaultPlan | None = None,
        fabric: "FabricSpec | str | None" = None,
        fabric_journal: "SweepJournal | None" = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        if cache is True:
            cache = ResultCache()
        elif cache is False:
            cache = None
        self.cache = cache
        self.shards = check_positive_int(shards or DEFAULT_SHARDS, "shards")
        self.collector = collector if collector is not None else RunStatsCollector()
        self.policy = policy if policy is not None else RetryPolicy()
        self.faults = faults
        self._supervisor: FabricSupervisor
        if fabric is None:
            from repro.resilience.supervisor import ShardSupervisor

            self.fabric = None
            self._supervisor = ShardSupervisor(
                self.workers, self.policy, self.collector, self.faults
            )
        else:
            from repro.fabric.supervisor import FabricSupervisor, parse_fabric_spec

            if isinstance(fabric, str):
                fabric = parse_fabric_spec(fabric)
            self.fabric = fabric
            self._supervisor = FabricSupervisor(
                spec=fabric,
                policy=self.policy,
                collector=self.collector,
                plan=self.faults,
                journal=fabric_journal,
            )

    def close(self) -> None:
        """Shut the supervisor's worker backends down (idempotent)."""
        self._supervisor.close()

    def __enter__(self) -> "MonteCarloEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- public task API -------------------------------------------------

    def matrix_congestion(
        self,
        mapping_name: str,
        pattern: str,
        w: int,
        trials: int = 2000,
        seed: SeedLike = None,
    ) -> CongestionStats:
        """Parallel/cached :func:`~repro.sim.congestion_sim.simulate_matrix_congestion`."""
        check_positive_int(w, "w")
        check_positive_int(trials, "trials")
        return self._run("matrix", (mapping_name, pattern, w), trials, seed)

    def nd_congestion(
        self,
        scheme: str,
        pattern: str,
        w: int,
        trials: int = 500,
        seed: SeedLike = None,
    ) -> CongestionStats:
        """Parallel/cached Table IV sampler (the vectorized fast path)."""
        check_positive_int(w, "w")
        check_positive_int(trials, "trials")
        return self._run("nd_fast", (scheme, pattern, w), trials, seed)

    def map_trial_batches(
        self,
        func: Callable,
        params: tuple,
        trials: int,
        seed: SeedLike,
    ) -> list:
        """Run ``func(params, n, rng)`` over the fixed shard plan of ``trials``.

        The trial-batch sibling of :meth:`map_seeded`, for worker
        bodies that vectorize over whole trial blocks (e.g. the batched
        DMM app-timing sweep).  ``trials`` is split with the same fixed
        shard plan as the congestion tasks, each shard gets its own
        spawned child stream, and the per-shard return values come back
        **in shard order** — concatenating them yields a result that is
        bit-identical for every worker count.  ``func`` must be a
        module-level callable (picklable) and is invoked as
        ``func(params, n, rng)`` with ``n`` the shard's trial count.
        Not cached: arbitrary callables have no stable cache identity.
        """
        check_positive_int(trials, "trials")
        sizes = _shard_sizes(trials, self.shards)
        seqs = spawn_seed_sequences(seed, len(sizes))
        payloads = [(func, params, size, seq) for size, seq in zip(sizes, seqs)]
        # Supervised, in shard order: part of the bit-identity contract
        # shared with _run.
        label = f"batches:{getattr(func, '__name__', '?')}"
        return self._supervisor.run(_call_trial_batch, payloads, label)

    def map_seeded(
        self,
        func: Callable,
        items: Sequence,
        seed: SeedLike,
    ) -> list:
        """Run ``func(item, rng)`` per item with independent child streams.

        Escape hatch for task shapes the congestion API does not cover
        (e.g. Table III's DMM transposes).  ``func`` must be a
        module-level callable and its results picklable; items are
        dispatched to the workers and results return in item order, so
        output is worker-count-independent as long as ``func`` itself
        is deterministic given its rng.  Not cached:
        arbitrary callables have no stable cache identity.
        """
        seqs = spawn_seed_sequences(seed, len(items))
        payloads = [(func, item, seq) for item, seq in zip(items, seqs)]
        label = f"seeded:{getattr(func, '__name__', '?')}"
        return self._supervisor.run(_call_seeded, payloads, label)

    # -- core ------------------------------------------------------------

    def _run(
        self, kind: str, params: tuple, trials: int, seed: SeedLike
    ) -> CongestionStats:
        label = f"{kind}:{'/'.join(map(str, params[:-1]))}/w={params[-1]}"
        seed_fp = seed_fingerprint(seed)

        key = None
        if self.cache is not None and seed_fp is not None:
            key = ResultCache.make_key(kind, params, trials, seed_fp, self.shards)
            cached = self.cache.get(key)
            self.collector.record_cache(hit=cached is not None)
            if cached is not None:
                return cached

        sizes = _shard_sizes(trials, self.shards)
        seqs = spawn_seed_sequences(seed, len(sizes))
        tasks = [
            (kind, params, size, seq) for size, seq in zip(sizes, seqs)
        ]

        # Supervised execution, collected in shard order: merge order is
        # part of the bit-identity contract, and a retried shard
        # re-derives the same stream from its own SeedSequence, so the
        # contract survives faults too.
        partials = self._supervisor.run(_run_shard, tasks, label)

        merged = RunningStats()
        for partial, seconds in partials:
            merged.merge(partial)
            self.collector.record_shard(label, partial.trials, seconds)
        stats = merged.finish()

        if key is not None:
            self.cache.put(key, stats)
        return stats


def _call_seeded(payload: tuple) -> object:
    """Shard body for :meth:`MonteCarloEngine.map_seeded`."""
    func, item, seq = payload
    return func(item, as_generator(seq))


def _call_trial_batch(payload: tuple) -> object:
    """Shard body for :meth:`MonteCarloEngine.map_trial_batches`."""
    func, params, n, seq = payload
    return func(params, n, as_generator(seq))
