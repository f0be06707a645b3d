"""On-disk result cache for Monte-Carlo congestion runs.

Repeated table/benchmark regenerations redo the exact same
``(experiment, mapping, pattern, w, trials, seed)`` cells; at the
paper's widths a single Table II column costs seconds of address
staging.  This cache memoizes the *finished* :class:`CongestionStats`
of each engine task so a warm rerun is near-instant.

Design notes
------------
* **Keying.**  The key hashes the full task identity — simulator kind,
  parameters, width, trial count, shard layout, the seed's
  reproducible fingerprint (:func:`repro.util.rng.seed_fingerprint`) —
  plus a *code fingerprint* of the simulation sources, so editing the
  estimator silently invalidates every stale entry instead of serving
  results from old code.
* **Exactness.**  Entries are JSON; Python's ``repr``-based float
  serialization round-trips IEEE doubles exactly, so a cache hit is
  bit-identical to the stats that were stored (the engine's
  determinism tests assert cold == warm).
* **Safety.**  Tasks whose seed has no reproducible fingerprint
  (``None`` / live ``Generator`` seeds) are never cached.  Writes go
  through a temp file + ``os.replace`` so concurrent workers can share
  one cache directory without torn entries.
* **Integrity.**  Every entry embeds a truncated SHA-256 over its
  stats payload *and its own key*, so a lookup detects torn files,
  bit rot, foreign schemas, and entries copied under the wrong name.
  Invalid entries are **quarantined** (moved to ``quarantine/``) and
  reported as misses — the cache never raises into experiment code and
  never serves garbage.  ``repro cache verify`` audits a directory the
  same way; the chaos suite (``tests/test_chaos.py``) drives torn and
  corrupted writes through :class:`~repro.resilience.faults.FaultPlan`.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.sim.congestion_sim import CongestionStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.faults import FaultPlan

__all__ = [
    "CacheVerifyReport",
    "ResultCache",
    "code_fingerprint",
    "default_cache_dir",
]

#: Bump to invalidate every existing cache entry on a format change.
#: v2: entries embed a key-bound integrity checksum (``"sha"``).
_SCHEMA_VERSION = 2

#: Seconds a ``.tmp`` staging file must be untouched before sweeps
#: treat it as an orphan of a crashed writer (vs a live concurrent one).
DEFAULT_TMP_GRACE = 3600.0

#: Modules whose source defines what a cached number means.  A change
#: to any of them changes the code fingerprint and thus every key.
_FINGERPRINT_MODULES = (
    "repro.sim.congestion_sim",
    "repro.sim.engine",
    "repro.core.congestion",
    "repro.core.higher_dim",
    "repro.access.patterns",
    "repro.access.patterns_nd",
)

_code_fingerprint_cache: str | None = None


def code_fingerprint() -> str:
    """Hash of the simulation-defining sources (memoized per process)."""
    global _code_fingerprint_cache
    if _code_fingerprint_cache is None:
        digest = hashlib.sha256()
        digest.update(f"schema:{_SCHEMA_VERSION}".encode())
        for name in _FINGERPRINT_MODULES:
            module = __import__(name, fromlist=["__file__"])
            path = getattr(module, "__file__", None)
            digest.update(name.encode())
            if path and os.path.exists(path):
                digest.update(Path(path).read_bytes())
        _code_fingerprint_cache = digest.hexdigest()[:20]
    return _code_fingerprint_cache


def default_cache_dir() -> Path:
    """Cache root: ``$REPRO_CACHE_DIR`` or a per-user temp directory."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path(tempfile.gettempdir()) / f"repro-rap-cache-{os.getuid()}"


def _entry_checksum(key: str, stats_payload: dict) -> str:
    """Key-bound integrity checksum of one entry's stats payload."""
    body = json.dumps({"key": key, "stats": stats_payload}, sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()[:16]


class _IntegrityError(ValueError):
    """An entry's bytes do not match its embedded checksum."""


@dataclass
class CacheVerifyReport:
    """Result of auditing a cache directory (``repro cache verify``).

    Attributes
    ----------
    checked:
        Entries examined.
    ok:
        Entries whose payload and checksum validated.
    corrupt:
        Filenames (not paths) of invalid entries found.
    quarantined:
        How many invalid entries were moved to ``quarantine/``.
    tmp_orphans:
        ``.tmp`` staging files older than the grace period.
    """

    checked: int = 0
    ok: int = 0
    corrupt: list[str] = field(default_factory=list)
    quarantined: int = 0
    tmp_orphans: int = 0

    @property
    def clean(self) -> bool:
        return not self.corrupt


class ResultCache:
    """Directory of memoized :class:`CongestionStats`, one JSON per key.

    Parameters
    ----------
    root:
        Cache directory (created lazily).  Defaults to
        :func:`default_cache_dir`.  A path that is, or lies under, an
        existing non-directory raises :class:`NotADirectoryError` here,
        before any work whose result could not be stored.
    faults:
        Optional :class:`~repro.resilience.faults.FaultPlan`; its
        ``tear_puts`` / ``corrupt_puts`` schedules sabotage writes for
        the chaos suite.  Production code leaves this ``None``.
    tmp_grace:
        Age in seconds before an orphaned ``.tmp`` file is swept by
        :meth:`clear` / reported by :meth:`verify` (younger files may
        belong to a live concurrent writer).

    Attributes
    ----------
    hits, misses:
        Lookup counters for this instance (surfaced by the engine's
        run-stats report).
    quarantined:
        Invalid entries this instance moved aside instead of serving.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        faults: "FaultPlan | None" = None,
        tmp_grace: float = DEFAULT_TMP_GRACE,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        # The root itself is made on the first put; a path that can
        # never become a directory is refused now, before any work.
        existing = next(p for p in (self.root, *self.root.parents) if p.exists())
        if not existing.is_dir():
            raise NotADirectoryError(f"cache root {self.root} is not a directory")
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self.faults = faults
        self.tmp_grace = tmp_grace
        self._puts = 0

    # -- keying ----------------------------------------------------------

    @staticmethod
    def make_key(
        kind: str,
        params: tuple,
        trials: int,
        seed_fp: str,
        shards: int,
    ) -> str:
        """Hash a task identity into a filesystem-safe key."""
        identity = json.dumps(
            {
                "kind": kind,
                "params": list(params),
                "trials": trials,
                "seed": seed_fp,
                "shards": shards,
                "code": code_fingerprint(),
            },
            sort_keys=True,
        )
        return hashlib.sha256(identity.encode()).hexdigest()[:32]

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    # -- lookup / store --------------------------------------------------

    @staticmethod
    def _decode(key: str, payload: dict) -> CongestionStats:
        """Validate one entry payload; raises on any integrity problem.

        Raises ``KeyError`` for missing fields (including well-formed
        JSON written by a foreign/future schema), ``TypeError``/
        ``ValueError`` for wrong shapes, :class:`_IntegrityError` for
        checksum mismatches.
        """
        if not isinstance(payload, dict):
            raise TypeError(f"cache entry is {type(payload).__name__}, not object")
        stats_payload = payload["stats"]
        if payload["sha"] != _entry_checksum(key, stats_payload):
            raise _IntegrityError(f"checksum mismatch for cache entry {key}")
        return CongestionStats.from_payload(stats_payload)

    def get(self, key: str) -> CongestionStats | None:
        """Return the cached stats for ``key``, or ``None`` on a miss.

        Validation happens *before* the hit is counted; any invalid
        entry — torn JSON, missing fields from a foreign schema,
        checksum mismatch — is quarantined and reported as a miss.
        The cache never raises into experiment code.
        """
        path = self._path(key)
        try:
            payload = json.loads(path.read_text())
        except OSError:
            self.misses += 1
            return None
        except ValueError:
            self._quarantine(path)
            self.misses += 1
            return None
        try:
            stats = self._decode(key, payload)
        except (KeyError, TypeError, ValueError):
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return stats

    def put(self, key: str, stats: CongestionStats) -> None:
        """Store ``stats`` under ``key`` (atomic replace)."""
        self.root.mkdir(parents=True, exist_ok=True)
        stats_payload = stats.to_payload()
        payload = {
            "schema": _SCHEMA_VERSION,
            "stats": stats_payload,
            "sha": _entry_checksum(key, stats_payload),
        }
        text = json.dumps(payload)
        path = self._path(key)
        put_index = self._puts
        self._puts += 1
        if self.faults is not None and self.faults.tears_put(put_index):
            self._tear_write(path, text)
            return
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        if self.faults is not None and self.faults.corrupts_put(put_index):
            # Flip the entry's bytes post-write (simulated bit rot).
            path.write_text("{" + text[: len(text) // 2])

    def _tear_write(self, path: Path, text: str) -> None:
        """Chaos harness: simulate a crashed non-atomic writer.

        Leaves a truncated entry under the final name *and* an orphaned
        ``.tmp`` staging file — exactly the wreckage a kill -9 between
        ``write`` and ``replace`` of a non-atomic implementation would
        produce.  Deterministic: the truncation point depends only on
        the payload.
        """
        path.write_text(text[: max(1, len(text) // 2)])
        fd, _tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            handle.write(text[: len(text) // 3])

    def _quarantine(self, path: Path) -> None:
        """Move an invalid entry aside (never delete evidence).

        Each quarantine also prunes quarantined files past the grace
        period, so the directory's growth is bounded by the corruption
        *rate* instead of the cache's lifetime — old evidence ages out
        exactly like orphaned ``.tmp`` staging files do.
        """
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            dest = self.quarantine_dir / path.name
            os.replace(path, dest)
        except OSError:
            try:
                path.unlink()
            except OSError:
                return
        else:
            # Restart the age clock: the grace period runs from the
            # *quarantine*, not from whenever the corrupt bytes landed.
            try:
                os.utime(dest)
            except OSError:
                pass
        self.quarantined += 1
        self.prune_quarantine()

    # -- auditing / maintenance ------------------------------------------

    def _fs_now(self) -> float:
        """The cache filesystem's idea of "now".

        Ages are judged by comparing ``st_mtime`` values, which the
        *file server's* clock stamps; reading the wall clock here would
        re-introduce client/server skew (an NFS server lagging the
        client makes every fresh ``.tmp`` look old).  Stat-ing a probe
        file written this instant yields a timestamp from the same
        clock as the files being aged, so the comparison is skew-free.
        """
        try:
            fd, probe = tempfile.mkstemp(dir=self.root, suffix=".probe")
            try:
                os.close(fd)
                return os.stat(probe).st_mtime
            finally:
                os.unlink(probe)
        except OSError:
            # Probe failed (read-only dir mid-teardown, ...): the wall
            # clock is the only reference left.
            return time.time()  # repro: noqa[TIME001] — file-age fallback

    def _tmp_candidates(self) -> list[tuple[Path, os.stat_result]]:
        """Staging files past the grace period, with the stat that aged them."""
        if not self.root.is_dir():
            return []
        now = self._fs_now()
        candidates = []
        for path in self.root.glob("*.tmp"):
            try:
                st = path.stat()
            except OSError:
                continue
            if now - st.st_mtime >= self.tmp_grace:
                candidates.append((path, st))
        return candidates

    def _tmp_orphans(self) -> list[Path]:
        """Staging files older than the grace period."""
        return [path for path, _ in self._tmp_candidates()]

    def verify(self, quarantine: bool = True) -> CacheVerifyReport:
        """Audit every entry; optionally quarantine the invalid ones.

        Returns a :class:`CacheVerifyReport`; ``report.clean`` is the
        pass/fail the ``repro cache verify`` CLI turns into an exit
        code.  With ``quarantine=True`` (default) invalid entries are
        moved to ``quarantine/`` so the next audit comes back clean.
        """
        report = CacheVerifyReport()
        if not self.root.is_dir():
            return report
        for path in sorted(self.root.glob("*.json")):
            report.checked += 1
            key = path.stem
            try:
                self._decode(key, json.loads(path.read_text()))
            except (OSError, KeyError, TypeError, ValueError):
                report.corrupt.append(path.name)
                if quarantine:
                    self._quarantine(path)
                    report.quarantined += 1
                continue
            report.ok += 1
        report.tmp_orphans = len(self._tmp_orphans())
        return report

    def stats(self) -> dict:
        """Directory snapshot for ``repro cache stats``."""
        entries = list(self.root.glob("*.json")) if self.root.is_dir() else []
        quarantined = (
            sum(1 for _ in self.quarantine_dir.glob("*.json"))
            if self.quarantine_dir.is_dir()
            else 0
        )
        total_bytes = 0
        for path in entries:
            try:
                total_bytes += path.stat().st_size
            except OSError:
                pass
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": total_bytes,
            "tmp_orphans": len(self._tmp_orphans()),
            "quarantined": quarantined,
        }

    def prune_quarantine(self, grace: float | None = None) -> int:
        """Age out quarantined entries; returns how many were deleted.

        Quarantine preserves corrupt entries as *evidence*, but
        evidence nobody inspected within the grace period (default: the
        same ``tmp_grace`` hour used for orphaned ``.tmp`` files) is
        just disk growth.  Ages are judged against the cache
        filesystem's own clock (:meth:`_fs_now`), so client/server
        skew cannot age out a just-quarantined entry.
        """
        if grace is None:
            grace = self.tmp_grace
        if not self.quarantine_dir.is_dir():
            return 0
        now = self._fs_now()
        removed = 0
        for path in self.quarantine_dir.glob("*"):
            try:
                if now - path.stat().st_mtime >= grace:
                    path.unlink()
                    removed += 1
            except OSError:
                pass
        return removed

    def clear(self) -> int:
        """Delete every entry; returns how many were removed.

        Also sweeps ``.tmp`` files orphaned by crashed writers —
        skipping any younger than ``tmp_grace`` (ages are measured
        against the cache filesystem's own clock, see :meth:`_fs_now`,
        so client/server skew cannot make a fresh staging file look
        old) — and empties the quarantine directory.  Each ``.tmp``
        candidate is re-stat-ed immediately before the unlink and
        spared if it changed since the scan: a writer that touched the
        file between scan and sweep is alive, not crashed.
        """
        removed = 0
        if self.root.is_dir():
            doomed = list(self.root.glob("*.json"))
            if self.quarantine_dir.is_dir():
                doomed += list(self.quarantine_dir.glob("*"))
            for path in doomed:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            for path, seen in self._tmp_candidates():
                try:
                    st = path.stat()
                    if (st.st_mtime_ns, st.st_size) != (
                        seen.st_mtime_ns,
                        seen.st_size,
                    ):
                        continue  # live writer touched it since the scan
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json")) if self.root.is_dir() else 0
