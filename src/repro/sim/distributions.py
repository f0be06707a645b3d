"""Full congestion distributions — beyond Table II's means.

Table II prints expectations only, but the *distribution* of the
congestion matters for tail latency: a warp access is as slow as its
congestion, so P95/max drive kernel-time jitter.  This module
estimates the whole per-warp congestion distribution of a
(mapping, pattern) cell and compares it against the exact i.i.d.
balls-in-bins law where that law applies (stride-RAS), tying the
Monte-Carlo, the exact EGF computation, and the simulator together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.congestion import congestion_batch
from repro.sim.congestion_sim import _matrix_address_chunks
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_positive_int

__all__ = ["CongestionDistribution", "congestion_distribution"]


@dataclass(frozen=True)
class CongestionDistribution:
    """Empirical distribution of per-warp congestion for one cell.

    Attributes
    ----------
    pmf:
        ``pmf[c]`` is the empirical ``P(congestion == c)``; index 0 is
        unused (congestion of a non-empty access is >= 1).
    n_samples:
        Warp accesses measured.
    """

    pmf: np.ndarray
    n_samples: int

    @property
    def mean(self) -> float:
        """Expected congestion (the Table II value)."""
        return float(np.arange(self.pmf.size) @ self.pmf)

    @property
    def support_max(self) -> int:
        """Largest congestion observed."""
        return int(np.flatnonzero(self.pmf)[-1])

    def cdf(self) -> np.ndarray:
        """Cumulative distribution ``P(congestion <= c)``."""
        return np.cumsum(self.pmf)

    def quantile(self, q: float) -> int:
        """Smallest ``c`` with ``P(congestion <= c) >= q``."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"q must be in (0, 1], got {q}")
        return int(np.searchsorted(self.cdf(), q - 1e-12) )

    def tail(self, c: int) -> float:
        """``P(congestion >= c)``."""
        if c <= 0:
            return 1.0
        if c >= self.pmf.size:
            return 0.0
        return float(self.pmf[c:].sum())


def congestion_distribution(
    mapping_name: str,
    pattern: str,
    w: int,
    trials: int = 2000,
    seed: SeedLike = None,
) -> CongestionDistribution:
    """Estimate the per-warp congestion distribution of a Table II cell.

    Same sampling scheme as
    :func:`repro.sim.congestion_sim.simulate_matrix_congestion`, but
    the full histogram is retained instead of running moments.
    """
    check_positive_int(w, "w")
    check_positive_int(trials, "trials")
    counts = np.zeros(w + 1, dtype=np.int64)
    rng = as_generator(seed)
    for _, addresses in _matrix_address_chunks(mapping_name, pattern, w, trials, rng):
        counts += np.bincount(congestion_batch(addresses, w), minlength=w + 1)

    total = counts.sum()
    return CongestionDistribution(pmf=counts / total, n_samples=int(total))
