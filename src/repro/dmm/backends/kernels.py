"""Hot-loop kernels for the numba backend, written in plain python.

Each function below is a straight-line loop over preallocated numpy
arrays, written in the numba-compilable subset of python, so that:

* with numba installed, :func:`load_kernels` returns them
  ``@numba.njit``-compiled — the numba backend's execution primitives;
* without numba, the *same* functions run as ordinary (slow) python —
  which is how ``tests/test_backends.py`` pins the numba backend's
  logic bit-identically to the numpy reference even in environments
  where numba is absent.

Semantics notes (the invariants the kernels must reproduce exactly):

* **Congestion over bank keys** (:func:`hist_congestion`): the numpy
  path sorts each warp row and takes the longest run of equal keys;
  the longest run of a sorted row equals the maximum multiplicity in
  the row, so a per-row histogram over the key range ``[0, 2w)`` gives
  the identical integer without the sort.  Sentinel keys (``>= w``)
  are unique per lane within a warp, so their counts are 1 and can
  never win over a real bank's count when any lane is counted.
* **INACTIVE passthrough**: staged flat indices place inactive lanes
  at ``t * stride - 1``; at ``t = 0`` the index is ``-1``, and numpy
  fancy indexing wraps it to the last trial's scratch cell.  Python's
  negative indexing does the same, so the loops below inherit the
  passthrough without any masking.
* **CRCW last-lane-wins**: numpy fancy assignment with duplicate
  indices keeps the last occurrence; a forward loop over lanes stores
  in the same order and is therefore identical.

The kernel set follows the one staged program form: indices are
always flat store indices with each trial's offset baked in, and a
step's mask is one ``(p,)`` row shared by every trial.  Broadcast
inputs are avoided on purpose: every kernel takes arrays with concrete
(possibly strided, never zero-stride) layouts, with ``*_row`` variants
for ``(p,)`` values and masks shared by all trials, because
zero-stride broadcast views are outside the subset numba compiles
reliably.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

__all__ = ["KERNEL_NAMES", "PYTHON_KERNELS", "load_kernels"]


def hist_congestion(keys: np.ndarray, w: int, out: np.ndarray) -> None:
    """Per-row max key multiplicity; rows are warps, keys in [0, 2w).

    Equals ``max_run_lengths(np.sort(keys, axis=1))`` for sentinel-
    disambiguated bank keys.  ``out`` has one slot per row.
    """
    n_rows = keys.shape[0]
    lanes = keys.shape[1]
    counts = np.zeros(2 * w, dtype=np.int64)
    for r in range(n_rows):
        best = 0
        for j in range(lanes):
            k = keys[r, j]
            counts[k] += 1
            if counts[k] > best:
                best = counts[k]
        for j in range(lanes):
            counts[keys[r, j]] = 0
        out[r] = best


def gather_flat(store: np.ndarray, idx: np.ndarray, out: np.ndarray) -> None:
    """``out[t, k] = store[idx[t, k]]`` (flat pre-offset indices)."""
    trials = idx.shape[0]
    p = idx.shape[1]
    for t in range(trials):
        for k in range(p):
            out[t, k] = store[idx[t, k]]


def scatter_flat(store: np.ndarray, idx: np.ndarray, values: np.ndarray) -> None:
    """CRCW scatter of per-trial values; duplicates last-lane-wins."""
    trials = idx.shape[0]
    p = idx.shape[1]
    for t in range(trials):
        for k in range(p):
            store[idx[t, k]] = values[t, k]


def scatter_flat_row(
    store: np.ndarray, idx: np.ndarray, values: np.ndarray
) -> None:
    """CRCW scatter of one shared ``(p,)`` value row; last-lane-wins."""
    trials = idx.shape[0]
    p = idx.shape[1]
    for t in range(trials):
        for k in range(p):
            store[idx[t, k]] = values[k]


def masked_assign_row(
    reg: np.ndarray, values: np.ndarray, mask: np.ndarray
) -> None:
    """``reg[t, k] = values[t, k]`` where the shared ``(p,)`` mask holds."""
    trials = reg.shape[0]
    p = reg.shape[1]
    for t in range(trials):
        for k in range(p):
            if mask[k]:
                reg[t, k] = values[t, k]


KERNEL_NAMES = (
    "hist_congestion",
    "gather_flat",
    "scatter_flat",
    "scatter_flat_row",
    "masked_assign_row",
)

#: the uncompiled kernels, by name (the bare-environment fallback and
#: the equivalence-test subject).
PYTHON_KERNELS: Dict[str, Callable[..., None]] = {
    name: globals()[name] for name in KERNEL_NAMES
}


def load_kernels(jit: bool = True) -> Dict[str, Callable[..., None]]:
    """The kernel set, ``@njit``-compiled when numba is importable.

    With ``jit=False`` (or when numba is missing and the caller
    tolerates it) the plain python functions are returned; callers
    that *require* compiled kernels should check availability first
    (see :class:`~repro.dmm.backends.numba_backend.NumbaBackend`).
    """
    if not jit:
        return dict(PYTHON_KERNELS)
    import numba

    compiled: Dict[str, Callable[..., None]] = {}
    for name in KERNEL_NAMES:
        compiled[name] = numba.njit(PYTHON_KERNELS[name], cache=False)
    return compiled
