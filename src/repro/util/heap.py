"""Process heap policy: keep freed memory for the next shard to reuse.

A Table II shard at ``w = 256`` allocates a few MB of address blocks
and frees them when it ends.  With glibc's defaults those blocks are
either mapped and unmapped per allocation (above the dynamic mmap
threshold) or trimmed off the top of the heap on free, so every shard
faults the same zeroed pages back in: ``repro table2 --widths 256
--trials 50 --workers 1 --no-cache`` took 110k minor faults for a
49 MiB peak, and 8.6k with this policy (2-CPU Linux host, glibc,
numpy 2.4).

:func:`retain_heap` sets both thresholds for the process:

* ``M_MMAP_THRESHOLD`` = 32 MiB, glibc's own ceiling for its dynamic
  threshold, so address blocks come from the heap, not from ``mmap``;
* ``M_TRIM_THRESHOLD`` = 128 MiB, twice the Monte-Carlo sampler's
  chunk budget, so a freed chunk stays mapped for the next one.

The CLI entry point and each fabric pool worker call it; importing
:mod:`repro` never does.  It changes no result, only where freed
memory goes.  Where libc has no ``mallopt`` (a glibc extension) it
does nothing.
"""

from __future__ import annotations

__all__ = ["MMAP_THRESHOLD", "TRIM_THRESHOLD", "retain_heap"]

#: ``mallopt`` parameter numbers from glibc's ``<malloc.h>``.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

#: Allocations below this size come from the heap (glibc's
#: ``DEFAULT_MMAP_THRESHOLD_MAX`` on 64-bit hosts).
MMAP_THRESHOLD = 32 << 20
#: Free memory at the heap top is returned to the OS only above this
#: size: twice ``repro.sim.congestion_sim._CHUNK_BYTES``.
TRIM_THRESHOLD = 128 << 20


def _libc():
    """The C library already loaded into this process."""
    import ctypes

    return ctypes.CDLL(None)


def retain_heap() -> bool:
    """Set the process's heap policy; True if libc accepted it.

    Idempotent: every call sets the same two values.  Returns False,
    changing nothing, where the C library cannot be opened or has no
    ``mallopt``.
    """
    import ctypes

    try:
        mallopt = _libc().mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_set = mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    trim_set = mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    return bool(mmap_set and trim_set)
