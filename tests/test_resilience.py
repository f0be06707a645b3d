"""Unit tests for the fault-tolerance layer: policy, journal, cache,
supervisor.

The end-to-end recovery properties (bit-identical stats under chaos,
resumed == fresh) live in ``test_chaos.py`` and ``test_resume.py``;
this file pins the building blocks those properties rest on.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.report.run_stats import RunStatsCollector
from repro.resilience import (
    FaultPlan,
    JournalError,
    JournalMismatch,
    RetryPolicy,
    ShardFailure,
    ShardFault,
    ShardSupervisor,
    SweepJournal,
    builtin_fault_plan,
    deterministic_jitter,
)
from repro.sim.cache import ResultCache, _entry_checksum
from repro.sim.congestion_sim import CongestionStats


# -- policy ---------------------------------------------------------------


def test_jitter_is_deterministic_and_bounded():
    values = {deterministic_jitter("t", s, a) for s in range(8) for a in range(4)}
    assert all(0.0 <= v < 1.0 for v in values)
    assert len(values) == 32  # distinct coordinates spread out
    assert deterministic_jitter("t", 3, 1) == deterministic_jitter("t", 3, 1)


def test_backoff_grows_and_caps():
    policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0, backoff_max=1.0)
    delays = [policy.backoff("task", 0, a) for a in range(8)]
    # Jitter scales into [raw/2, raw), so the cap bounds everything.
    assert all(d < 1.0 for d in delays)
    assert delays[3] > delays[0]
    # Bit-reproducible: same inputs, same schedule.
    assert delays == [policy.backoff("task", 0, a) for a in range(8)]


def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(timeout=0.0)


def test_policy_wait_uses_injectable_sleep():
    slept = []
    policy = RetryPolicy(backoff_base=0.5, sleep=slept.append)
    policy.wait("task", 1, 0)
    assert slept == [policy.backoff("task", 1, 0)]


# -- fault plans ----------------------------------------------------------


def test_fault_plan_validation_and_lookup():
    with pytest.raises(ValueError):
        ShardFault(kind="meteor", shard=0)
    with pytest.raises(ValueError):
        ShardFault(kind="crash", shard=-1)
    plan = FaultPlan(shard_faults=(ShardFault(kind="crash", shard=1, attempts=(0, 1)),))
    assert plan.fault_for(1, 0) is not None
    assert plan.fault_for(1, 2) is None
    assert plan.fault_for(0, 0) is None
    with pytest.raises(KeyError, match="builtin plans"):
        builtin_fault_plan("nope")


# -- journal --------------------------------------------------------------

HEADER = {"experiment": "unit", "seed": "int:1", "code": "abc"}


def test_journal_roundtrip(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = SweepJournal(path, HEADER, resume=False)
    journal.record("a", 1.5)
    journal.record("b", {"mean": 2.0})
    reloaded = SweepJournal(path, HEADER, resume=True)
    assert reloaded.completed == {"a": 1.5, "b": {"mean": 2.0}}
    assert "a" in reloaded and len(reloaded) == 2
    assert reloaded.get("missing") is None


def test_journal_torn_tail_is_skipped(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = SweepJournal(path, HEADER, resume=False)
    journal.record("a", 1.0)
    journal.record("b", 2.0)
    text = path.read_text()
    path.write_text(text[: len(text) - 10])  # tear the last line mid-record
    reloaded = SweepJournal(path, HEADER, resume=True)
    assert reloaded.completed == {"a": 1.0}
    assert reloaded.skipped_lines == 1


def test_journal_corrupt_middle_line_is_skipped(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = SweepJournal(path, HEADER, resume=False)
    journal.record("a", 1.0)
    journal.record("b", 2.0)
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace("1.0", "9.9")  # payload no longer matches sha
    path.write_text("\n".join(lines) + "\n")
    reloaded = SweepJournal(path, HEADER, resume=True)
    assert reloaded.completed == {"b": 2.0}
    assert reloaded.skipped_lines == 1


def test_journal_header_mismatch_raises(tmp_path):
    path = tmp_path / "j.jsonl"
    SweepJournal(path, HEADER, resume=False)
    with pytest.raises(JournalMismatch, match="different run"):
        SweepJournal(path, {**HEADER, "seed": "int:2"}, resume=True)


def test_journal_non_journal_file_raises(tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_text("just some text\n")
    with pytest.raises(JournalError, match="not a sweep journal"):
        SweepJournal(path, HEADER, resume=True)


def test_journal_resume_false_truncates(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = SweepJournal(path, HEADER, resume=False)
    journal.record("a", 1.0)
    fresh = SweepJournal(path, HEADER, resume=False)
    assert len(fresh) == 0
    assert "a" not in SweepJournal(path, HEADER, resume=True)


# -- cache integrity ------------------------------------------------------

STATS = CongestionStats(
    mean=2.5, std=0.5, minimum=1, maximum=4, n_samples=64, n_trials=16
)


def test_cache_roundtrip_counts_hit(tmp_path):
    cache = ResultCache(root=tmp_path)
    cache.put("k1", STATS)
    assert cache.get("k1") == STATS
    assert (cache.hits, cache.misses, cache.quarantined) == (1, 0, 0)


def test_cache_absent_key_is_plain_miss(tmp_path):
    cache = ResultCache(root=tmp_path)
    assert cache.get("nope") is None
    assert (cache.hits, cache.misses, cache.quarantined) == (0, 1, 0)
    assert not cache.quarantine_dir.exists()


def test_cache_foreign_schema_is_miss_not_error(tmp_path):
    """Well-formed JSON from another tool must not raise or count a hit."""
    cache = ResultCache(root=tmp_path)
    (tmp_path / "alien.json").write_text(json.dumps({"version": 99, "data": [1]}))
    assert cache.get("alien") is None
    assert (cache.hits, cache.misses, cache.quarantined) == (0, 1, 1)
    assert (cache.quarantine_dir / "alien.json").exists()


def test_cache_torn_json_is_quarantined(tmp_path):
    cache = ResultCache(root=tmp_path)
    cache.put("k1", STATS)
    path = tmp_path / "k1.json"
    path.write_text(path.read_text()[:20])
    assert cache.get("k1") is None
    assert cache.quarantined == 1
    assert not path.exists()  # moved aside, not left to fail again


def test_cache_checksum_binds_key(tmp_path):
    """An entry copied under a different name must not validate."""
    cache = ResultCache(root=tmp_path)
    cache.put("k1", STATS)
    os.replace(tmp_path / "k1.json", tmp_path / "k2.json")
    assert cache.get("k2") is None
    assert cache.quarantined == 1


def test_cache_tampered_stats_fail_checksum(tmp_path):
    cache = ResultCache(root=tmp_path)
    cache.put("k1", STATS)
    path = tmp_path / "k1.json"
    payload = json.loads(path.read_text())
    payload["stats"]["mean"] = 99.0
    path.write_text(json.dumps(payload))
    assert cache.get("k1") is None
    assert cache.quarantined == 1


def test_cache_clear_sweeps_aged_tmp_keeps_young(tmp_path):
    cache = ResultCache(root=tmp_path, tmp_grace=3600.0)
    cache.put("k1", STATS)
    old = tmp_path / "dead.tmp"
    old.write_text("{")
    two_hours_ago = old.stat().st_mtime - 7200
    os.utime(old, (two_hours_ago, two_hours_ago))
    young = tmp_path / "live.tmp"
    young.write_text("{")
    removed = cache.clear()
    assert removed == 2  # the entry + the aged orphan
    assert not old.exists()
    assert young.exists()  # may belong to a live concurrent writer


def test_cache_clear_empties_quarantine(tmp_path):
    cache = ResultCache(root=tmp_path)
    (tmp_path / "bad.json").write_text("not json")
    assert cache.get("bad") is None
    assert len(list(cache.quarantine_dir.glob("*"))) == 1
    cache.clear()
    assert len(list(cache.quarantine_dir.glob("*"))) == 0


def test_quarantine_prune_ages_out_old_evidence(tmp_path):
    cache = ResultCache(root=tmp_path, tmp_grace=3600.0)
    (tmp_path / "bad.json").write_text("not json")
    assert cache.get("bad") is None
    entry = cache.quarantine_dir / "bad.json"
    assert entry.exists()
    # Fresh evidence survives an explicit prune.
    assert cache.prune_quarantine() == 0
    # Aged past the grace period, the next prune removes it.
    old = entry.stat().st_mtime - 7200
    os.utime(entry, (old, old))
    assert cache.prune_quarantine() == 1
    assert not entry.exists()


def test_quarantine_growth_bounded_by_opportunistic_prune(tmp_path):
    """Each new quarantine prunes aged-out wreckage, so the directory
    is bounded by the corruption *rate*, not the cache's lifetime."""
    cache = ResultCache(root=tmp_path)
    (tmp_path / "old.json").write_text("not json")
    assert cache.get("old") is None
    aged = cache.quarantine_dir / "old.json"
    past = aged.stat().st_mtime - 7200
    os.utime(aged, (past, past))
    (tmp_path / "new.json").write_text("still not json")
    assert cache.get("new") is None
    assert not aged.exists()  # swept by the second quarantine
    assert (cache.quarantine_dir / "new.json").exists()


def test_quarantine_restarts_age_clock(tmp_path):
    """A corrupt entry carrying an ancient mtime must not age out the
    moment it lands — the grace period runs from quarantine time."""
    cache = ResultCache(root=tmp_path)
    bad = tmp_path / "ancient.json"
    bad.write_text("not json")
    past = bad.stat().st_mtime - 7200
    os.utime(bad, (past, past))
    assert cache.get("ancient") is None
    assert (cache.quarantine_dir / "ancient.json").exists()
    assert cache.prune_quarantine() == 0


def test_cache_verify_reports_and_quarantines(tmp_path):
    cache = ResultCache(root=tmp_path)
    cache.put("good", STATS)
    (tmp_path / "bad.json").write_text("{{{")
    audit = ResultCache(root=tmp_path)
    report = audit.verify(quarantine=False)
    assert (report.checked, report.ok, report.quarantined) == (2, 1, 0)
    assert report.corrupt == ["bad.json"] and not report.clean
    assert (tmp_path / "bad.json").exists()  # no-quarantine left it alone
    report = audit.verify(quarantine=True)
    assert report.quarantined == 1
    assert audit.verify().clean  # second audit comes back clean


def test_cache_stats_snapshot(tmp_path):
    cache = ResultCache(root=tmp_path)
    cache.put("k1", STATS)
    (tmp_path / "bad.json").write_text("junk")
    cache.get("bad")  # quarantines
    snapshot = cache.stats()
    assert snapshot["entries"] == 1
    assert snapshot["quarantined"] == 1
    assert snapshot["bytes"] > 0
    assert snapshot["root"] == str(tmp_path)


def test_entry_checksum_covers_key_and_payload():
    payload = STATS.to_payload()
    assert _entry_checksum("a", payload) != _entry_checksum("b", payload)
    assert _entry_checksum("a", payload) != _entry_checksum("a", {**payload, "mean": 0})


# -- supervisor -----------------------------------------------------------


def _double(payload):
    return payload * 2


def _fast_policy(**overrides) -> RetryPolicy:
    return RetryPolicy(timeout=1.0, sleep=lambda s: None, **overrides)


def test_supervisor_serial_retries_then_succeeds():
    plan = FaultPlan(shard_faults=(ShardFault(kind="crash", shard=1, attempts=(0, 1)),))
    collector = RunStatsCollector()
    supervisor = ShardSupervisor(
        workers=1, policy=_fast_policy(), collector=collector, plan=plan
    )
    assert supervisor.run(_double, [1, 2, 3], "unit") == [2, 4, 6]
    assert collector.retry_counts == {"crash": 2}
    assert [r.shard for r in collector.retries] == [1, 1]


def test_supervisor_exhausted_retries_raise_shard_failure():
    plan = FaultPlan(
        shard_faults=(ShardFault(kind="crash", shard=0, attempts=(0, 1, 2)),)
    )
    collector = RunStatsCollector()
    supervisor = ShardSupervisor(
        workers=1, policy=_fast_policy(max_retries=2), collector=collector, plan=plan
    )
    with pytest.raises(ShardFailure) as info:
        supervisor.run(_double, [1, 2], "unit")
    assert info.value.shard == 0
    assert info.value.attempts == 3  # initial + 2 retries, all spent


def test_supervisor_serial_simulated_timeout_counts_as_timeout():
    plan = FaultPlan(
        shard_faults=(ShardFault(kind="delay", shard=0, attempts=(0,), delay=5.0),)
    )
    collector = RunStatsCollector()
    supervisor = ShardSupervisor(
        workers=1, policy=_fast_policy(), collector=collector, plan=plan
    )
    assert supervisor.run(_double, [7], "unit") == [14]
    assert collector.retry_counts == {"timeout": 1}


def _double_non_negative(payload):
    if payload < 0:
        raise ValueError(f"negative payload {payload}")
    return payload * 2


def test_supervisor_runs_cleanly_after_a_failed_task():
    """A task that fails while another worker's call is still pending
    must not leave that call behind for the next task to trip over."""
    collector = RunStatsCollector()
    supervisor = ShardSupervisor(
        workers=2, policy=_fast_policy(max_retries=0), collector=collector
    )
    try:
        with pytest.raises(ShardFailure):
            supervisor.run(_double_non_negative, [-1, 1], "fails")
        assert supervisor.run(_double_non_negative, [1, 2], "again") == [2, 4]
        assert collector.retry_counts == {}
    finally:
        supervisor.close()


def test_supervisor_empty_payloads():
    supervisor = ShardSupervisor(
        workers=1, policy=_fast_policy(), collector=RunStatsCollector()
    )
    assert supervisor.run(_double, [], "unit") == []


def test_cache_tmp_aging_survives_clock_skew(tmp_path, monkeypatch):
    """A fresh .tmp must not look old when the client clock runs ahead.

    Ages compare st_mtime values stamped by the cache filesystem, so
    the "now" side must come from the same clock (a probe-file stat),
    not the client's time.time().  Simulate an NFS client running an
    hour ahead: were the wall clock consulted, the fresh staging file
    would appear past the grace period and be swept.
    """
    import time as _time

    cache = ResultCache(root=tmp_path, tmp_grace=600.0)
    fresh = tmp_path / "live.tmp"
    fresh.write_text("{")
    skewed = _time.time() + 3600.0
    monkeypatch.setattr("repro.sim.cache.time.time", lambda: skewed)
    cache.clear()
    assert fresh.exists()


def test_cache_fs_now_tracks_file_timestamps(tmp_path):
    """_fs_now agrees with the clock that stamps cache files."""
    cache = ResultCache(root=tmp_path)
    probe = tmp_path / "stamp.tmp"
    probe.write_text("x")
    assert abs(cache._fs_now() - probe.stat().st_mtime) < 60.0
    assert list(tmp_path.glob("*.probe")) == []  # probe cleaned up


def test_cache_clear_spares_tmp_touched_between_scan_and_sweep(
    tmp_path, monkeypatch
):
    """A candidate rewritten after the scan belongs to a live writer."""
    cache = ResultCache(root=tmp_path, tmp_grace=0.0)
    busy = tmp_path / "busy.tmp"
    busy.write_text("{")
    stale_stat = busy.stat()
    # Between scan and sweep, the writer appends and re-stamps.
    busy.write_text('{"more": 1}')
    monkeypatch.setattr(
        cache, "_tmp_candidates", lambda: [(busy, stale_stat)]
    )
    removed = cache.clear()
    assert busy.exists()
    assert removed == 0


def test_cache_clear_sweeps_unchanged_aged_tmp(tmp_path):
    """The aged orphan whose stat is unchanged is still removed."""
    cache = ResultCache(root=tmp_path, tmp_grace=0.0)
    dead = tmp_path / "dead.tmp"
    dead.write_text("{")
    hour_ago = dead.stat().st_mtime - 3600
    os.utime(dead, (hour_ago, hour_ago))
    assert cache.clear() == 1
    assert not dead.exists()
