"""Retry/timeout/backoff policy for supervised shard execution.

The shard supervisor (:mod:`repro.fabric.supervisor`) is driven by one
frozen :class:`RetryPolicy`: how many times a shard may be retried,
how long an attempt may run before it is abandoned, and how long to
back off between attempts.  A shard that spends its budget raises
:class:`ShardFailure`.

Backoff jitter is **deterministic**: it is derived by hashing
``(label, shard, attempt)``, never from a live RNG or the clock, so a
supervised run's retry schedule — like its results — is a pure
function of its inputs.  (The *results* never depend on the schedule
at all: a retried shard re-derives the same spawned stream and returns
the same bits; see ``docs/ENGINE.md``.)
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["RetryPolicy", "ShardFailure", "deterministic_jitter"]


class ShardFailure(RuntimeError):
    """A shard exhausted its retry budget.

    Attributes
    ----------
    label, shard, attempts:
        Which task's shard failed and how many attempts it consumed.
    """

    def __init__(self, label: str, shard: int, attempts: int, cause: BaseException):
        super().__init__(
            f"shard {shard} of task {label!r} failed {attempts} attempt(s); "
            f"last error: {cause!r}"
        )
        self.label = label
        self.shard = shard
        self.attempts = attempts


def deterministic_jitter(label: str, shard: int, attempt: int) -> float:
    """A reproducible jitter fraction in ``[0, 1)`` for one retry.

    Hash-derived so that concurrent retries of different shards spread
    out (the usual thundering-herd argument for jitter) while the
    schedule stays bit-reproducible across runs and worker counts.
    """
    digest = hashlib.sha256(f"{label}|{shard}|{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class RetryPolicy:
    """How the supervisor reacts to shard failures.

    Attributes
    ----------
    max_retries:
        Retries allowed per shard *beyond* its first attempt.  A shard
        that fails ``max_retries + 1`` times raises
        :class:`ShardFailure`.
    timeout:
        Per-attempt wall-clock budget in seconds, measured from
        submission.  ``None`` disables timeouts.  Enforced on ``pool``
        workers by abandoning the hung worker process; in-process
        workers cannot be preempted, so only *injected* delays are
        converted into simulated timeouts there (keeping chaos
        schedules uniform across worker counts).
    backoff_base, backoff_factor, backoff_max:
        Exponential backoff: attempt ``a`` waits
        ``min(backoff_max, backoff_base * backoff_factor**a)`` seconds,
        scaled into ``[1/2, 1)`` of itself by the deterministic jitter.
    sleep:
        Injectable sleep function (tests pass a no-op so chaos suites
        finish instantly).
    """

    max_retries: int = 3
    timeout: float | None = 300.0
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive or None, got {self.timeout}")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff durations must be >= 0")

    def backoff(self, label: str, shard: int, attempt: int) -> float:
        """Backoff before retry number ``attempt`` of ``shard`` (seconds)."""
        raw = min(self.backoff_max, self.backoff_base * self.backoff_factor**attempt)
        return raw * (0.5 + 0.5 * deterministic_jitter(label, shard, attempt))

    def wait(self, label: str, shard: int, attempt: int) -> None:
        """Sleep out the backoff for one retry (via the injectable sleep)."""
        delay = self.backoff(label, shard, attempt)
        if delay > 0:
            self.sleep(delay)
