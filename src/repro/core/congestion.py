"""Memory-access congestion (Section II of the paper).

For one warp of ``w`` threads issuing one address each, the
*congestion* is the maximum, over banks, of the number of **distinct**
addresses destined for that bank.  Two rules from the DMM definition
matter:

* Requests to the *same address* are merged and served as one request
  (CRCW semantics), so ``w`` threads reading one address cost 1.
* Requests to *different addresses in the same bank* serialize, so
  ``w`` threads striding down one column of a RAW-mapped matrix cost
  ``w``.

The distinction is observable in the paper's Table II: random access
(3.44 at ``w = 32``) sits *below* RAS stride access (3.53) precisely
because random addresses occasionally coincide and merge, while stride
addresses are always distinct.

The batched implementations are fully vectorized so that the
Monte-Carlo simulation in :mod:`repro.sim.congestion_sim` and the
batched DMM executor in :mod:`repro.dmm.batched` can run millions of
warp accesses without a Python-level loop, following the
vectorize-don't-iterate idiom of scientific-Python optimization.
Both batch functions sort each row once to merge duplicates, then
histogram the banks of the merged requests with one bincount over
``row * w + bank`` — the bank-load view of a warp access.  Rows are
processed in blocks of about 32K addresses so every temporary stays
in cache, sorted as uint16 when the batch arrives in 16 bits, else as
int32 when the block's addresses fit.

Both batch functions accept ``inactive=<sentinel>`` so the executors
can feed whole instructions through one call: lanes holding the
sentinel contribute no request, and a row of only-sentinel lanes has
congestion 0 (the warp is never dispatched).
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_positive_int

_I32 = np.iinfo(np.int32)
#: Addresses (and histogram bins) per block of the batch kernels.
_BLOCK_ADDRESSES = 1 << 15

__all__ = [
    "merge_requests",
    "bank_loads",
    "warp_congestion",
    "congestion_batch",
    "bank_loads_batch",
    "max_run_lengths",
]


def merge_requests(addresses: np.ndarray) -> np.ndarray:
    """Deduplicate one warp's address requests (CRCW merge rule).

    Parameters
    ----------
    addresses:
        1-D integer array of the addresses requested by the warp's
        threads.

    Returns
    -------
    numpy.ndarray
        Sorted unique addresses — the requests that actually enter the
        memory pipeline.
    """
    addresses = np.asarray(addresses)
    if addresses.ndim != 1:
        raise ValueError(f"expected a 1-D address vector, got shape {addresses.shape}")
    return np.unique(addresses)


def bank_loads(addresses: np.ndarray, w: int) -> np.ndarray:
    """Per-bank count of distinct requested addresses for one warp.

    Parameters
    ----------
    addresses:
        1-D integer array of requested addresses (pre-merge).
    w:
        Number of banks; bank of address ``a`` is ``a mod w``.

    Returns
    -------
    numpy.ndarray
        Shape ``(w,)`` int64 array; ``loads[b]`` is the number of
        pipeline slots bank ``b`` must serve.
    """
    check_positive_int(w, "w")
    unique = merge_requests(addresses)
    return np.bincount(unique % w, minlength=w).astype(np.int64)


def warp_congestion(addresses: np.ndarray, w: int) -> int:
    """Congestion of a single warp access (max over banks).

    Returns 0 for an empty request vector (a warp in which no thread
    accesses memory is simply not dispatched): with no merged request,
    every bank load is 0.
    """
    return int(bank_loads(addresses, w).max())


def _check_batch(addresses: np.ndarray, w: int) -> np.ndarray:
    check_positive_int(w, "w")
    addresses = np.asarray(addresses)
    if addresses.ndim != 2:
        raise ValueError(f"expected shape (n, k), got {addresses.shape}")
    if addresses.size and not np.issubdtype(addresses.dtype, np.integer):
        raise TypeError(f"expected integer addresses, got {addresses.dtype}")
    return addresses


def _bank_load_blocks(addresses: np.ndarray, w: int, inactive: int | None):
    """Yield ``(start, loads)`` per block of rows of a non-empty batch.

    ``loads`` is the ``(b, w)`` int64 bank histogram of rows
    ``start:start + b``.  A block holds about :data:`_BLOCK_ADDRESSES`
    addresses and histogram bins, so its temporaries stay in cache.
    Each row is sorted once to find its first occurrences (the merged
    requests); their banks, offset by ``row * w``, feed one bincount.
    A uint16 batch (the Monte-Carlo sampler stages Table II that way)
    stays in 16 bits through the sort, the bank mask and the row
    offsets, whose ``b * w`` bins number at most
    :data:`_BLOCK_ADDRESSES` when ``w`` does; other blocks are sorted
    as int32 when their addresses and bins fit, else as int64.
    """
    n, k = addresses.shape
    block = max(1, _BLOCK_ADDRESSES // max(k, w))
    fits = np.can_cast(addresses.dtype, np.int32)
    keep16 = addresses.dtype == np.uint16 and w <= _BLOCK_ADDRESSES
    for start in range(0, n, block):
        rows = addresses[start:start + block]
        b = rows.shape[0]
        if keep16:
            staged = np.uint16
        elif b * w <= _I32.max and (
            fits or (rows.min() >= _I32.min and rows.max() <= _I32.max)
        ):
            staged = np.int32
        else:
            staged = np.int64
        srt = rows.astype(staged)
        srt.sort(axis=1)
        fresh = np.empty(srt.shape, dtype=bool)
        fresh[:, 0] = True
        np.not_equal(srt[:, 1:], srt[:, :-1], out=fresh[:, 1:])
        if inactive is not None:
            fresh &= srt != inactive
        if w & (w - 1):
            srt %= w
        else:
            srt &= w - 1
        srt += np.arange(0, b * w, w, dtype=srt.dtype)[:, None]
        yield start, np.bincount(srt[fresh], minlength=b * w).reshape(b, w)


def bank_loads_batch(
    addresses: np.ndarray, w: int, inactive: int | None = None
) -> np.ndarray:
    """Per-bank loads for a batch of warp accesses, vectorized.

    Parameters
    ----------
    addresses:
        Shape ``(n, k)`` integer array — ``n`` independent warp
        accesses of ``k`` requests each.  Duplicate addresses within a
        row are merged per the CRCW rule.
    w:
        Number of banks.
    inactive:
        Optional sentinel value (e.g. :data:`repro.dmm.trace.INACTIVE`)
        marking lanes that issue no request; those lanes contribute to
        no bank.

    Returns
    -------
    numpy.ndarray
        Shape ``(n, w)`` int64 array of bank loads per warp access.
    """
    addresses = _check_batch(addresses, w)
    loads = np.zeros((addresses.shape[0], w), dtype=np.int64)
    if addresses.size:
        for start, block in _bank_load_blocks(addresses, w, inactive):
            loads[start:start + len(block)] = block
    return loads


def max_run_lengths(keys: np.ndarray) -> np.ndarray:
    """Longest run of equal adjacent values in each row, vectorized.

    ``keys`` must be row-sorted (or at least have equal values
    adjacent).  After sorting a warp's bank values, the congestion is
    exactly the longest run of one bank; the batched DMM executor and
    the abstract interpreter pre-stage such bank keys and skip the
    address sort entirely.
    """
    n, k = keys.shape
    flat = keys.reshape(-1)
    boundary = np.empty(n * k, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=boundary[1:])
    # Every row start is a boundary, so no run spans two rows and the
    # whole batch is one run-length pass: boundary positions -> diff ->
    # per-row maximum via reduceat.  This beats a per-row
    # maximum.accumulate by a factor ~2 on the executor's
    # (trials x warps, w) hot shape.
    boundary[::k] = True
    starts = np.flatnonzero(boundary)
    runs = np.empty(starts.size, dtype=np.int64)
    np.subtract(starts[1:], starts[:-1], out=runs[:-1])
    runs[-1] = n * k - starts[-1]
    # First run of each row: the row's start position among the starts.
    row_firsts = np.searchsorted(starts, np.arange(0, n * k, k))
    return np.maximum.reduceat(runs, row_firsts)


def congestion_batch(
    addresses: np.ndarray, w: int, inactive: int | None = None
) -> np.ndarray:
    """Congestion of each warp access in a batch.

    Equivalent to ``[warp_congestion(row[row != inactive], w) for row
    in addresses]`` but vectorized: the row maximum of
    :func:`bank_loads_batch`, computed block by block.

    Parameters
    ----------
    addresses:
        Shape ``(n, k)`` integer array of requested addresses.
    w:
        Number of banks.
    inactive:
        Optional sentinel address marking lanes that issue no request.
        A row whose lanes are all inactive has congestion 0 — the warp
        is not dispatched.

    Returns
    -------
    numpy.ndarray
        Shape ``(n,)`` int64 array of per-access congestion values,
        each in ``[1, min(k, w)]`` (or 0 for an empty/all-inactive
        row).
    """
    addresses = _check_batch(addresses, w)
    cong = np.zeros(addresses.shape[0], dtype=np.int64)
    if addresses.size:
        for start, block in _bank_load_blocks(addresses, w, inactive):
            block.max(axis=1, out=cong[start:start + len(block)])
    return cong
