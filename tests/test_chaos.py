"""Chaos property tests: recovered runs are bit-identical to fault-free.

Every builtin :class:`~repro.resilience.faults.FaultPlan` is driven
through the full engine at workers 1, 2 and 4, and the recovered
:class:`CongestionStats` must equal the fault-free baseline *bit for
bit* — the engine's determinism contract doubling as its recovery
contract.  Retry accounting must also be worker-count-independent,
except for ``"worker-died"`` retries: worker deaths (and
``degraded_runs``) are infrastructure events that depend on which
workers exist, so they are asserted separately.
"""

from __future__ import annotations

import pytest

from repro.resilience import (
    BUILTIN_FAULT_PLANS,
    FaultPlan,
    RetryPolicy,
    ShardFault,
    builtin_fault_plan,
)
from repro.sim.cache import ResultCache
from repro.sim.engine import MonteCarloEngine

WORKER_COUNTS = (1, 2, 4)

#: Chaos runs use a short real timeout (the builtin shard-timeout
#: plan's delay of 2.5s must exceed it) and a no-op sleep so backoff
#: schedules are exercised without slowing the suite.
def chaos_policy(**overrides) -> RetryPolicy:
    return RetryPolicy(timeout=1.0, sleep=lambda s: None, **overrides)


TASK = dict(mapping_name="RAP", pattern="diagonal", w=16, trials=64, seed=777)


@pytest.fixture(scope="module")
def baseline():
    """Fault-free serial reference stats for the chaos task."""
    with MonteCarloEngine(workers=1, cache=None) as engine:
        return engine.matrix_congestion(**TASK)


def run_with_plan(plan: FaultPlan, workers: int, cache_root=None, policy=None):
    """One chaos run; returns (stats, collector, cache)."""
    cache = ResultCache(root=cache_root, faults=plan) if cache_root else None
    engine = MonteCarloEngine(
        workers=workers,
        cache=cache,
        policy=policy or chaos_policy(),
        faults=plan,
    )
    with engine:
        stats = engine.matrix_congestion(**TASK)
    return stats, engine.collector, cache


@pytest.mark.parametrize("plan_name", sorted(BUILTIN_FAULT_PLANS))
def test_builtin_plan_recovers_bit_identically(plan_name, baseline, tmp_path):
    """stats == fault-free baseline at every worker count, and the
    execution-fault retry schedule is worker-count-independent."""
    plan = builtin_fault_plan(plan_name)
    retry_counts = {}
    for workers in WORKER_COUNTS:
        stats, collector, _ = run_with_plan(
            plan, workers, cache_root=tmp_path / f"cache-w{workers}"
        )
        assert stats == baseline, (
            f"plan {plan_name!r} at workers={workers} diverged from baseline"
        )
        retry_counts[workers] = {
            reason: n
            for reason, n in collector.retry_counts.items()
            if reason != "worker-died"
        }
        assert collector.degraded_runs == 0
    assert retry_counts[1] == retry_counts[2] == retry_counts[4], (
        f"plan {plan_name!r}: retry accounting depends on worker count: "
        f"{retry_counts}"
    )


@pytest.mark.parametrize("plan_name", sorted(BUILTIN_FAULT_PLANS))
def test_chaos_cache_contents_worker_count_independent(plan_name, tmp_path):
    """After recovery the set of valid cache entries is the same for
    every worker count (quarantine wreckage aside)."""
    plan = builtin_fault_plan(plan_name)
    entries = {}
    for workers in WORKER_COUNTS:
        root = tmp_path / f"cache-w{workers}"
        run_with_plan(plan, workers, cache_root=root)
        audit = ResultCache(root=root)
        audit.verify(quarantine=True)
        entries[workers] = sorted(p.name for p in root.glob("*.json"))
    assert entries[1] == entries[2] == entries[4]


def deaths(collector) -> int:
    return sum(w.deaths for w in collector.fabric_workers.values())


def test_broken_pool_respawns_only_with_a_pool(baseline):
    """A broken pool kills only the worker it belongs to; the shard is
    retried on another worker.  An in-process worker has no pool."""
    plan = builtin_fault_plan("broken-pool")
    _, serial_collector, _ = run_with_plan(plan, workers=1)
    assert deaths(serial_collector) == 0  # no pool to break
    assert serial_collector.retry_counts == {}
    stats, pooled_collector, _ = run_with_plan(plan, workers=2)
    assert stats == baseline
    assert deaths(pooled_collector) == 1
    assert pooled_collector.retry_counts == {"worker-died": 1}


def test_repeated_pool_breaks_degrade_to_serial(baseline):
    """Once every worker is dead the run finishes on the in-process
    fallback — and still matches the baseline bit for bit."""
    plan = FaultPlan(
        name="pool-breaker",
        shard_faults=(ShardFault(kind="break_pool", shard=0, attempts=(0, 1, 2)),),
    )
    stats, collector, _ = run_with_plan(plan, workers=2)
    assert stats == baseline
    assert deaths(collector) == 2
    assert collector.degraded_runs == 1
    # An in-process worker has no pool: the same plan is a clean run.
    stats, collector, _ = run_with_plan(plan, workers=1)
    assert stats == baseline
    assert deaths(collector) == 0 and collector.degraded_runs == 0


@pytest.mark.parametrize("plan_name", ["torn-cache-write", "corrupt-cache-entry"])
def test_poisoned_cache_recovers_on_next_run(plan_name, baseline, tmp_path):
    """A cache poisoned by a chaos run quarantines and recomputes
    cleanly on the next (fault-free) run over the same directory."""
    plan = builtin_fault_plan(plan_name)
    run_with_plan(plan, workers=1, cache_root=tmp_path)
    clean_cache = ResultCache(root=tmp_path)
    with MonteCarloEngine(workers=1, cache=clean_cache) as engine:
        stats = engine.matrix_congestion(**TASK)
    assert stats == baseline
    assert clean_cache.hits == 0  # the poisoned entry never served
    assert clean_cache.quarantined >= 1
    assert ResultCache(root=tmp_path).verify().clean
