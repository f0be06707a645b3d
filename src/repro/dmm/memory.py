"""Banked shared memory with CRCW-arbitrary semantics (Section II).

``m[a]`` lives in bank ``a mod w`` — the interleaved mapping of Fig. 1.
Reads are concurrent; duplicate *read* addresses are merged into one
request.  Duplicate *write* addresses are resolved arbitrarily (one
writer wins, the rest are ignored) — the DMM is a CRCW machine with
arbitrary resolution.  For reproducibility our "arbitrary" choice is
deterministic: the highest thread index wins, which is how numpy's
fancy assignment resolves duplicate indices (last occurrence wins).
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from repro.util.validation import check_positive_int

__all__ = ["BankedMemory", "BatchedMemory"]


class BankedMemory:
    """A single address space interleaved over ``w`` memory banks.

    Parameters
    ----------
    w:
        Number of banks.
    size:
        Number of addressable words.  Rounded semantics: any address in
        ``[0, size)`` is valid.
    dtype:
        Element dtype of the backing store (default ``float64`` — the
        paper's kernels move ``double`` values).
    fill:
        Initial value of every word.
    """

    def __init__(
        self,
        w: int,
        size: int,
        dtype: "npt.DTypeLike" = np.float64,
        fill: float = 0,
    ) -> None:
        self.w = check_positive_int(w, "w")
        self.size = check_positive_int(size, "size")
        self._store = np.full(size, fill, dtype=dtype)

    @property
    def store(self) -> np.ndarray:
        """The raw backing array (a view; mutate with care)."""
        return self._store

    @property
    def dtype(self) -> np.dtype:
        """Element dtype of the backing store."""
        return self._store.dtype

    def bank_of(self, addresses: "npt.ArrayLike") -> np.ndarray:
        """Bank index of each address: ``a mod w``."""
        addresses = self._validate(addresses)
        return addresses % self.w

    def row_of(self, addresses: "npt.ArrayLike") -> np.ndarray:
        """Row (position within the bank) of each address: ``a // w``."""
        addresses = self._validate(addresses)
        return addresses // self.w

    def read(self, addresses: "npt.ArrayLike") -> np.ndarray:
        """Concurrent gather: return ``m[a]`` for each requested address.

        Duplicate addresses are allowed (they merge into one physical
        request; the timing consequence is handled by the MMU, not
        here) and every requesting thread receives the value.
        """
        addresses = self._validate(addresses)
        return self._store[addresses]

    def write(self, addresses: "npt.ArrayLike", values: "npt.ArrayLike") -> None:
        """Concurrent scatter with CRCW-arbitrary duplicate resolution.

        When several threads write the same address, exactly one value
        is stored.  numpy fancy assignment keeps the *last* occurrence,
        i.e. the highest thread index — a legal "arbitrary" choice that
        is deterministic for testing.
        """
        addresses = self._validate(addresses)
        values = np.asarray(values)
        if values.shape != addresses.shape:
            raise ValueError(
                f"values shape {values.shape} must match addresses shape {addresses.shape}"
            )
        self._store[addresses] = values

    def _validate(self, addresses: "npt.ArrayLike") -> np.ndarray:
        addresses = np.asarray(addresses, dtype=np.int64)
        if ((addresses < 0) | (addresses >= self.size)).any():
            raise IndexError(
                f"address out of range [0, {self.size})"
            )
        return addresses

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BankedMemory(w={self.w}, size={self.size}, dtype={self._store.dtype})"


class BatchedMemory:
    """``trials`` independent banked address spaces with one backing store.

    The batched DMM executor (:mod:`repro.dmm.batched`) runs one
    program skeleton under many mapping draws at once; each draw needs
    its own memory image.  The store is one ``(trials, size + 1)``
    array: trial ``t``'s word ``a`` lives at flat index
    ``t * (size + 1) + a``, and the extra word per trial is a *scratch
    cell* that absorbs inactive lanes, so reads and writes never need
    boolean compression.  The executor passes
    :data:`~repro.dmm.trace.INACTIVE` (``-1``) addresses straight
    through: trial ``t``'s flat index ``t * stride - 1`` is trial
    ``t-1``'s scratch cell (cyclically, trial 0 wraps to the last
    trial's), which is never an addressable word, so no per-trial
    redirect pass is needed.  A scratch read returns garbage the caller
    must mask off; a scratch write lands outside every addressable
    word, so CRCW last-occurrence-wins resolution among the *active*
    lanes is preserved exactly (the flat row-major order keeps each
    trial's lanes in thread order).

    Semantics per trial are identical to :class:`BankedMemory`;
    :meth:`trial` extracts one trial's image for comparison against the
    scalar machine.
    """

    def __init__(
        self,
        w: int,
        size: int,
        trials: int,
        dtype: "npt.DTypeLike" = np.float64,
        fill: float = 0,
    ) -> None:
        self.w = check_positive_int(w, "w")
        self.size = check_positive_int(size, "size")
        self.trials = check_positive_int(trials, "trials")
        self._stride = size + 1
        self._store = np.full((trials, self._stride), fill, dtype=dtype)

    @property
    def dtype(self) -> np.dtype:
        """Element dtype of the backing store."""
        return self._store.dtype

    @property
    def scratch(self) -> int:
        """Per-trial index of the scratch cell (== ``size``)."""
        return self.size

    @property
    def stride(self) -> int:
        """Flat words per trial (``size + 1``, including the scratch cell).

        Staging layers that pre-bake per-trial offsets into flat store
        indices (see :meth:`read_flat`) must agree with this stride.
        """
        return self._stride

    @property
    def store(self) -> np.ndarray:
        """The ``(trials, size)`` addressable words (a view)."""
        return self._store[:, : self.size]

    @property
    def flat_store(self) -> np.ndarray:
        """The raw contiguous flat store including scratch cells (a view).

        Execution backends gather/scatter through this array with
        pre-offset flat indices; mutating it mutates the memory.
        Unlike :attr:`store` (a non-contiguous slice), ravelling here
        never copies.
        """
        return self._store.ravel()

    def trial(self, t: int) -> np.ndarray:
        """Copy of trial ``t``'s memory image, shape ``(size,)``."""
        return self._store[t, : self.size].copy()

    def read_flat(self, flat_indices: np.ndarray) -> np.ndarray:
        """Gather pre-offset flat indices (``t * stride + address``).

        Staged programs bake each trial's offset into their indices
        once, so no instruction pays a per-trial offset add.
        """
        return self._store.ravel()[flat_indices]

    def write_flat(self, flat_indices: np.ndarray, values: "npt.ArrayLike") -> None:
        """Scatter pre-offset flat indices; duplicates last-lane-wins."""
        self._store.ravel()[flat_indices] = values

    def fill_word(self, base: int, values: np.ndarray) -> None:
        """Pre-load ``values`` (broadcast over trials) starting at ``base``."""
        values = np.asarray(values)
        count = values.shape[-1]
        if base < 0 or base + count > self.size:
            raise IndexError(
                f"load of {count} words at base {base} exceeds memory size {self.size}"
            )
        self._store[:, base : base + count] = values

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchedMemory(w={self.w}, size={self.size}, "
            f"trials={self.trials}, dtype={self._store.dtype})"
        )
