"""Chaos property tests for the distributed sweep fabric.

The fabric's contract extends the engine's: for every builtin
worker-fault plan and every worker count, results must be **bit
identical** to a fault-free serial run, and the retry/steal/quarantine
accounting must be worker-count-independent wherever the plan is
(worker-keyed faults target worker 1, so they are defined to no-op at
``workers=1`` — the ``break_pool`` precedent).  On top of that the
fabric adds lease fencing, quarantine, degradation, and
coordinator-kill resume, each pinned here.
"""

from __future__ import annotations

import pytest

from repro.fabric import (
    CoordinatorKilled,
    FabricSpec,
    FabricSupervisor,
    InProcessWorker,
    PoolWorker,
    ShardQuarantined,
    FabricCall,
    open_envelope,
    parse_fabric_spec,
    seal_envelope,
)
from repro.resilience import (
    BUILTIN_WORKER_FAULT_PLANS,
    FaultPlan,
    RetryPolicy,
    ShardFault,
    WorkerFault,
    builtin_worker_fault_plan,
)
from repro.resilience.journal import SweepJournal
from repro.sim.engine import MonteCarloEngine

WORKER_COUNTS = (1, 2, 4)

TASK = dict(mapping_name="RAP", pattern="diagonal", w=16, trials=64, seed=777)


def chaos_policy(**overrides) -> RetryPolicy:
    return RetryPolicy(timeout=30.0, sleep=lambda s: None, **overrides)


@pytest.fixture(scope="module")
def baseline():
    """Fault-free serial reference stats for the chaos task."""
    with MonteCarloEngine(workers=1, cache=None) as engine:
        return engine.matrix_congestion(**TASK)


def run_fabric(
    plan: FaultPlan | None,
    workers: int,
    backend: str = "inproc",
    policy: RetryPolicy | None = None,
    journal: SweepJournal | None = None,
    **spec_overrides,
):
    """One fabric chaos run; returns (stats, collector)."""
    engine = MonteCarloEngine(
        cache=None,
        policy=policy or chaos_policy(),
        faults=plan,
        fabric=FabricSpec(workers=workers, backend=backend, **spec_overrides),
        fabric_journal=journal,
    )
    with engine:
        stats = engine.matrix_congestion(**TASK)
    return stats, engine.collector


# -- bit-identity across plans, worker counts, backends --------------------


@pytest.mark.parametrize("plan_name", sorted(BUILTIN_WORKER_FAULT_PLANS))
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_builtin_worker_plan_recovers_bit_identically(plan_name, workers, baseline):
    """Every builtin worker-fault plan, every worker count: the fabric
    result equals the fault-free serial baseline bit for bit."""
    plan = builtin_worker_fault_plan(plan_name)
    if plan.kill_coordinator_after is not None:
        pytest.skip("coordinator-kill needs a journal; covered below")
    stats, _ = run_fabric(plan, workers)
    assert stats == baseline, (
        f"plan {plan_name!r} at workers={workers} diverged from baseline"
    )


@pytest.mark.parametrize("backend", ["inproc", "pool"])
def test_backends_bit_identical(backend, baseline):
    """Both worker backends produce the same bits (``pool`` also proves
    the envelope survives pickling across a process boundary)."""
    stats, collector = run_fabric(None, workers=2, backend=backend)
    assert stats == baseline
    assert all(w.backend == backend for w in collector.fabric_workers.values())


def test_fabric_matches_shard_supervisor_engine(baseline):
    """An explicit fabric and the default ``--workers`` engine agree
    bit for bit — the spec shapes execution, not the experiment."""
    with MonteCarloEngine(workers=2, cache=None) as engine:
        pooled = engine.matrix_congestion(**TASK)
    fabric, _ = run_fabric(None, workers=4)
    assert pooled == baseline == fabric


# -- accounting invariance -------------------------------------------------


def test_shard_keyed_retry_accounting_is_worker_count_independent(baseline):
    """``corrupt-result`` is keyed by shard, not worker: its retry
    schedule must be identical at every worker count."""
    plan = builtin_worker_fault_plan("corrupt-result")
    counts = {}
    for workers in WORKER_COUNTS:
        stats, collector = run_fabric(plan, workers)
        assert stats == baseline
        counts[workers] = collector.retry_counts
    assert counts[1] == counts[2] == counts[4] == {"corrupt-result": 1}


def test_worker_keyed_plans_noop_at_one_worker():
    """Plans targeting worker 1 cannot fire with a single worker 0 —
    same convention as ``break_pool`` in serial mode."""
    for plan_name in ("kill-worker", "kill-two-workers", "worker-blackout",
                      "slow-worker"):
        _, collector = run_fabric(builtin_worker_fault_plan(plan_name), workers=1)
        assert collector.retry_counts == {}, plan_name
        assert all(
            w.deaths == w.fenced == w.lease_expiries == 0
            for w in collector.fabric_workers.values()
        ), plan_name


def test_kill_worker_accounted_as_worker_death_not_shard_fault(baseline):
    """A killed worker is a fabric failure: one ``worker-died`` retry,
    one recorded death, and *no* quarantine strike on the shard."""
    plan = builtin_worker_fault_plan("kill-worker")
    for workers in (2, 4):
        stats, collector = run_fabric(plan, workers)
        assert stats == baseline
        assert collector.retry_counts == {"worker-died": 1}
        assert sum(w.deaths for w in collector.fabric_workers.values()) == 1
        assert collector.quarantined == []


def test_slow_worker_lease_expires_and_zombie_is_fenced(baseline):
    """An overrunning worker loses its lease (the shard is re-leased
    elsewhere) and its late delivery is fenced, never merged."""
    plan = builtin_worker_fault_plan("slow-worker")
    stats, collector = run_fabric(plan, workers=2)
    assert stats == baseline
    assert collector.retry_counts == {"lease-expired": 1}
    assert sum(w.fenced for w in collector.fabric_workers.values()) == 1
    assert sum(w.steals for w in collector.fabric_workers.values()) >= 1


def test_blackout_death_and_rejoin(baseline):
    """A heartbeat-partitioned worker is declared dead, its lease
    orphaned; when the partition heals it rejoins and serves again."""
    plan = builtin_worker_fault_plan("worker-blackout")
    stats, collector = run_fabric(plan, workers=2)
    assert stats == baseline
    target = collector.fabric_workers[1]
    assert target.deaths == 1
    assert target.rejoins == 1
    assert target.shards > 0  # it works again after rejoining


def test_timeout_is_measured_from_submission(baseline):
    """Attempts completing on one tick are collected in worker order,
    but each one's budget runs from its own submission: shard 1 (1.5 s)
    times out although shard 0 (0.8 s) is collected first, and its late
    result is never merged."""
    plan = FaultPlan(
        name="two-slow-shards",
        shard_faults=(
            ShardFault(kind="delay", shard=0, attempts=(0,), delay=0.8),
            ShardFault(kind="delay", shard=1, attempts=(0,), delay=1.5),
        ),
    )
    policy = RetryPolicy(timeout=1.0, sleep=lambda s: None)
    stats, collector = run_fabric(plan, workers=2, backend="pool", policy=policy)
    assert stats == baseline
    assert collector.retry_counts == {"timeout": 1}


# -- quarantine ------------------------------------------------------------


def test_poisoned_shard_quarantines_after_k_distinct_workers():
    """A shard that crashes everywhere is the shard's fault: after
    failing on ``quarantine_after`` distinct workers it is quarantined
    instead of burning the whole retry budget."""
    plan = FaultPlan(
        name="poisoned-shard",
        shard_faults=(
            ShardFault(kind="crash", shard=1, attempts=tuple(range(12))),
        ),
    )
    with pytest.raises(ShardQuarantined) as exc_info:
        run_fabric(plan, workers=4, policy=chaos_policy(max_retries=10))
    assert exc_info.value.shard == 1
    assert len(exc_info.value.failed_workers) == 3  # default quarantine_after


def test_worker_deaths_never_quarantine_a_healthy_shard(baseline):
    """Two worker kills on the same shard are fabric failures — the
    shard must complete, not quarantine."""
    plan = FaultPlan(
        name="unlucky-shard",
        # Shard-keyed wildcard: whichever worker runs shard 1's first
        # two attempts dies — two distinct workers by construction.
        worker_faults=(
            WorkerFault(kind="kill_worker", shard=1, attempts=(0, 1)),
        ),
    )
    stats, collector = run_fabric(plan, workers=4)
    assert stats == baseline
    assert collector.quarantined == []
    assert collector.retry_counts == {"worker-died": 2}


# -- degradation -----------------------------------------------------------


def test_all_workers_dead_degrades_to_inprocess_fallback(baseline):
    """When the whole fabric dies the run finishes on the in-process
    fallback — and still matches the baseline bit for bit."""
    plan = FaultPlan(
        name="kill-all",
        worker_faults=(WorkerFault(kind="kill_worker", attempts=(0,)),),
    )
    stats, collector = run_fabric(plan, workers=2)
    assert stats == baseline
    assert collector.degraded_runs == 1
    fallback = collector.fabric_workers[2]  # spec.workers == 2 -> id 2
    assert fallback.backend == "inproc-fallback"
    assert fallback.shards > 0
    assert fallback.steals == 0  # the lone fallback owns every partition


# -- coordinator kill + journal resume ------------------------------------


def test_coordinator_kill_resumes_byte_identically(baseline, tmp_path):
    """Kill the coordinator after every 3 completions; each rerun over
    the same journal replays checkpointed shards and finishes the rest.
    The final stats equal the fault-free baseline bit for bit."""
    plan = builtin_worker_fault_plan("kill-coordinator")
    path = tmp_path / "fabric.journal"
    header = {"experiment": "fabric-chaos"}
    kills = 0
    while True:
        journal = SweepJournal(path, header=header, resume=True)
        try:
            stats, _ = run_fabric(plan, workers=2, journal=journal)
            break
        except CoordinatorKilled:
            kills += 1
            assert kills < 10, "journal resume is not making progress"
    assert kills >= 1  # the fault actually fired
    assert stats == baseline


def test_journal_resume_skips_completed_shards(baseline, tmp_path):
    """A fault-free run against a journal populated by a previous run
    replays every shard (zero new executions) and returns the bits."""
    path = tmp_path / "fabric.journal"
    header = {"experiment": "fabric-replay"}
    run_fabric(None, workers=2, journal=SweepJournal(path, header=header))
    stats, collector = run_fabric(
        None, workers=2, journal=SweepJournal(path, header=header, resume=True)
    )
    assert stats == baseline
    assert all(w.shards == 0 for w in collector.fabric_workers.values())


# -- spec parsing and validation ------------------------------------------


def test_parse_fabric_spec_forms():
    assert parse_fabric_spec(None) == FabricSpec()
    assert parse_fabric_spec("") == FabricSpec()
    assert parse_fabric_spec("4") == FabricSpec(workers=4)
    spec = parse_fabric_spec("workers=3,backend=pool,lease=9,heartbeat=5,quarantine=2")
    assert spec == FabricSpec(
        workers=3, backend="pool", lease_ticks=9, heartbeat_ticks=5,
        quarantine_after=2,
    )


@pytest.mark.parametrize("text", ["bogus", "workers", "workers=x", "depth=3"])
def test_parse_fabric_spec_rejects_garbage(text):
    with pytest.raises(ValueError):
        parse_fabric_spec(text)


@pytest.mark.parametrize(
    "kwargs",
    [dict(workers=0), dict(backend="teleport"), dict(lease_ticks=0),
     dict(heartbeat_ticks=0), dict(quarantine_after=0)],
)
def test_fabric_spec_validates(kwargs):
    with pytest.raises(ValueError):
        FabricSpec(**kwargs)


def test_worker_fault_validates():
    with pytest.raises(ValueError):
        WorkerFault(kind="meteor-strike")
    with pytest.raises(ValueError):
        WorkerFault(kind="blackout", at_tick=0)
    with pytest.raises(ValueError):
        WorkerFault(kind="slow_worker", ticks=-1)


# -- envelope integrity ----------------------------------------------------


def _shard_body(payload):
    return payload * 2


def test_envelope_roundtrip_and_tamper_detection():
    call = FabricCall(body=_shard_body, payload=21, shard=3, attempt=0, worker=1)
    envelope = seal_envelope(call, 42)
    ok, value = open_envelope(envelope)
    assert ok and value == 42
    tampered = dict(envelope, body="x" + envelope["body"])
    ok, _ = open_envelope(tampered)
    assert not ok
    relabeled = dict(envelope, shard=4)
    ok, _ = open_envelope(relabeled)
    assert not ok


def test_worker_protocol_backends():
    """Both backends execute a call and deliver a valid envelope."""
    call = FabricCall(body=_shard_body, payload=5, shard=0, attempt=0, worker=0)
    for cls in (InProcessWorker, PoolWorker):
        worker = cls(0)
        try:
            worker.submit(call)
            ok, value = open_envelope(worker.result(timeout=60.0))
            assert ok and value == 10, cls.__name__
        finally:
            worker.close()


# -- supervisor unit behaviour --------------------------------------------


def test_supervisor_empty_payloads_short_circuits():
    from repro.report.run_stats import RunStatsCollector

    sup = FabricSupervisor(
        spec=FabricSpec(workers=2), policy=chaos_policy(),
        collector=RunStatsCollector(),
    )
    try:
        assert sup.run(_shard_body, [], "noop") == []
    finally:
        sup.close()


def test_supervisor_preserves_shard_order():
    from repro.report.run_stats import RunStatsCollector

    sup = FabricSupervisor(
        spec=FabricSpec(workers=3), policy=chaos_policy(),
        collector=RunStatsCollector(),
    )
    try:
        assert sup.run(_shard_body, list(range(8)), "order") == [
            i * 2 for i in range(8)
        ]
    finally:
        sup.close()


def test_run_stats_summary_renders_fabric_table(baseline):
    _, collector = run_fabric(builtin_worker_fault_plan("kill-worker"), workers=2)
    summary = collector.summary()
    assert "Fabric workers" in summary
    assert "deaths" in summary
