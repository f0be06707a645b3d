"""The pipelined memory management unit (Sections I-II, Fig. 3).

The MMU moves memory requests to their banks through an ``l``-stage
pipeline.  The timing rules distilled from the paper:

* A warp access with congestion ``c`` occupies ``c`` consecutive
  pipeline stages (its requests to one bank serialize; requests to
  distinct banks ride the same stage).
* Stages issued by successive dispatched warps follow each other
  back-to-back, so a batch of warp accesses with congestions
  ``c_0, c_1, ..`` issues for ``sum(c_i)`` time units and the last
  request completes ``l - 1`` time units later:
  ``T = sum(c_i) + l - 1``.

This reproduces every closed form in the paper: contiguous access by
``p`` threads costs ``p/w + l - 1`` (each of ``p/w`` warps has
congestion 1), stride access costs ``p + l - 1`` (congestion ``w``
each), and the Fig. 3 example — congestions ``(2, 1)`` with ``l = 5``
— costs ``3 + 5 - 1 = 7``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.util.validation import check_latency, check_positive_int

__all__ = ["StageSchedule", "PipelinedMMU", "batch_completion_times"]


def batch_completion_times(total_stages: np.ndarray, latency: int) -> np.ndarray:
    """Vectorized :attr:`StageSchedule.completion_time`, elementwise.

    Each entry of ``total_stages`` is one instruction's summed warp
    congestions in one trial; its completion time is ``total + l - 1``,
    or 0 where nothing was issued (no warp dispatched).  The batched DMM
    executor (:mod:`repro.dmm.batched`) applies it to a ``(T,)`` vector
    per instruction and to a ``(T, n_steps)`` matrix per program, so the
    timing rule is written once and never leaves numpy.
    """
    check_latency(latency)
    total_stages = np.asarray(total_stages)
    return np.where(total_stages > 0, total_stages + latency - 1, 0)


@dataclass(frozen=True)
class StageSchedule:
    """Pipeline occupancy of one batch of warp accesses.

    Attributes
    ----------
    congestions:
        Per-warp congestion, in dispatch order.
    issue_stage:
        Stage index at which each warp's first request issues (the
        cumulative sum of preceding congestions).
    total_stages:
        Total stages occupied (``sum(congestions)``).
    latency:
        Pipeline depth ``l``.
    """

    congestions: tuple[int, ...]
    issue_stage: tuple[int, ...]
    total_stages: int
    latency: int

    @property
    def completion_time(self) -> int:
        """Time units until the last request completes.

        ``total_stages + latency - 1``, or 0 when nothing was issued
        (a warp with no requests is never dispatched).
        """
        if self.total_stages == 0:
            return 0
        return self.total_stages + self.latency - 1


class PipelinedMMU:
    """Timing model of the ``l``-stage memory pipeline.

    Parameters
    ----------
    w:
        Number of banks (used only for validation of congestions).
    latency:
        Pipeline depth ``l >= 1``; a single isolated request takes
        ``l`` time units.
    """

    def __init__(self, w: int, latency: int) -> None:
        self.w = check_positive_int(w, "w")
        self.latency = check_latency(latency)

    def schedule(self, congestions: Sequence[int]) -> StageSchedule:
        """Lay a batch of warp accesses out on the pipeline.

        Parameters
        ----------
        congestions:
            Congestion of each dispatched warp, in round-robin order.
            Values must lie in ``[1, w]`` — a warp with congestion 0
            should simply not be dispatched.

        Returns
        -------
        StageSchedule
            Issue stages and total completion time for the batch.
        """
        cong = tuple(int(c) for c in congestions)
        for c in cong:
            if not 1 <= c <= self.w:
                raise ValueError(
                    f"warp congestion must lie in [1, {self.w}], got {c}"
                )
        issue = tuple(int(s) for s in np.cumsum((0,) + cong[:-1])) if cong else ()
        return StageSchedule(
            congestions=cong,
            issue_stage=issue,
            total_stages=sum(cong),
            latency=self.latency,
        )

    def access_time(self, congestions: Sequence[int]) -> int:
        """Completion time of one SIMD instruction's warp accesses.

        ``sum(congestions) + l - 1`` — the paper's pipelined cost.
        """
        return self.schedule(congestions).completion_time

    def sequential_time(self, instruction_congestions: Sequence[Sequence[int]]) -> int:
        """Total time of dependent instructions run phase-sequentially.

        Each instruction must fully complete before the next issues
        (threads may not hold two outstanding requests — Section II),
        so the costs add: ``sum_i (sum(c_i) + l - 1)``.
        """
        return sum(self.access_time(c) for c in instruction_congestions)
