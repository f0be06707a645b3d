"""Warp partitioning and round-robin dispatch (Section II).

``p`` threads ``T(0) .. T(p-1)`` are partitioned into ``p/w`` warps of
``w`` consecutive threads: ``W(i) = { T(i*w) .. T((i+1)*w - 1) }``.
Warps are dispatched for memory access in round-robin order, and a
warp none of whose threads requests memory is skipped entirely.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.dmm.trace import INACTIVE
from repro.util.validation import check_positive_int

__all__ = [
    "warp_count",
    "warp_slices",
    "warp_members",
    "dispatch_order",
    "duplicate_lanes",
    "warp_classes",
]


def warp_count(p: int, w: int) -> int:
    """Number of warps for ``p`` threads of width ``w`` (must divide)."""
    check_positive_int(p, "p")
    check_positive_int(w, "w")
    if p % w != 0:
        raise ValueError(f"thread count p={p} must be a multiple of warp width w={w}")
    return p // w


def warp_slices(p: int, w: int) -> list[slice]:
    """Slice of thread indices belonging to each warp, in warp order."""
    n = warp_count(p, w)
    return [slice(i * w, (i + 1) * w) for i in range(n)]


def warp_members(p: int, w: int) -> np.ndarray:
    """Thread-index matrix of shape ``(p/w, w)``: row ``i`` is warp ``W(i)``."""
    n = warp_count(p, w)
    return np.arange(p, dtype=np.int64).reshape(n, w)


def dispatch_order(addresses: np.ndarray, w: int) -> list[int]:
    """Warps dispatched for one SIMD instruction, in round-robin order.

    A warp is dispatched iff at least one of its threads requests
    memory (address != :data:`~repro.dmm.trace.INACTIVE`).

    Parameters
    ----------
    addresses:
        Shape ``(p,)`` per-thread address vector of the instruction.
    w:
        Warp width.

    Returns
    -------
    list of int
        Indices of dispatched warps, ascending (round-robin from W(0)).
    """
    addresses = np.asarray(addresses)
    if addresses.ndim != 1:
        raise ValueError(f"addresses must be 1-D, got shape {addresses.shape}")
    n = warp_count(addresses.size, w)
    active = (addresses.reshape(n, w) != INACTIVE).any(axis=1)
    return [int(i) for i in np.flatnonzero(active)]


def duplicate_lanes(keys: np.ndarray) -> np.ndarray:
    """Lanes whose key repeats an earlier lane's key in the same row.

    ``keys`` is ``(rows, w)``; the boolean result of the same shape
    marks every lane but the first of each group of equal keys.  Keyed
    by the flat logical index ``i*w + j`` of a warp's lanes, these are
    the requests that CRCW-merge into an earlier lane's and issue no
    memory request of their own — under every shifted-row mapping,
    which is injective per draw.
    """
    order = np.argsort(keys, axis=1, kind="stable")
    rows = np.arange(keys.shape[0])[:, None]
    srt = keys[rows, order]
    dup_sorted = np.zeros_like(srt, dtype=bool)
    dup_sorted[:, 1:] = srt[:, 1:] == srt[:, :-1]
    dup = np.zeros_like(dup_sorted)
    dup[rows, order] = dup_sorted
    return dup


def warp_classes(
    ii: np.ndarray, jj: np.ndarray, mask: Optional[np.ndarray], w: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-warp ``(any_active, row_local, column_local)`` of an index grid.

    ``ii``/``jj`` give each lane's logical ``(row, column)``, ``w``
    consecutive lanes per warp, and ``mask`` its active lanes (``None``:
    all active).  A warp is row-local (column-local) when its active
    lanes all sit in one matrix row (column); a warp with no active
    lane is both.  A row-local warp has congestion 1 under every
    shifted-row draw, since distinct columns of a row land in distinct
    banks.
    """
    ii_w = ii.reshape(-1, w)
    jj_w = jj.reshape(-1, w)
    n_warps = ii_w.shape[0]
    act = (
        np.ones((n_warps, w), dtype=bool)
        if mask is None
        else mask.reshape(n_warps, w)
    )
    first = act.argmax(axis=1)
    rows = np.arange(n_warps)
    row_local = (~act | (ii_w == ii_w[rows, first][:, None])).all(axis=1)
    col_local = (~act | (jj_w == jj_w[rows, first][:, None])).all(axis=1)
    return act.any(axis=1), row_local, col_local
