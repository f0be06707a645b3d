"""Monte-Carlo congestion simulation (Section V, Tables II & IV).

Estimates the expected per-warp congestion of a (mapping, pattern)
pair by redrawing the mapping's randomness every trial and measuring
the congestion of every warp access in the pattern.  The 2-D matrix
path is fully vectorized over trials *and* warps — one
``congestion_batch`` call per chunk — because Table II needs tens of
thousands of warp accesses per cell at widths up to 256.  The 4-D path
(Table IV) instantiates a mapping per trial; its per-trial cost is
dominated by drawing permutations and stays comfortably fast at the
paper's ``w = 32``.

Chunking bounds peak memory: a chunk holds ``t`` trials, ``t * w * w``
addresses, with ``t`` sized to ~64 MiB of int64 addresses whatever
``w``.  The sizing also fixes the order of the rng draws, so it stays
although addresses are staged narrower: every address lies below
``w * w``, so a chunk is uint16 where that fits (every paper width,
``w <= 256``), else int32 (int64 only past ``w = 46340``).  The
random pattern draws its row and column indices as int32 too, which
gives the same values and generator state as int64 draws.  The
congestion kernel then splits each chunk into cache-sized blocks and
keeps a uint16 chunk in 16 bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.access.patterns import pattern_logical
from repro.access.patterns_nd import nd_pattern_logical
from repro.core.congestion import congestion_batch
from repro.core.higher_dim import nd_mapping_by_name
from repro.core.mappings import sample_shift_batch
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_positive_int

__all__ = [
    "CongestionStats",
    "RunningStats",
    "simulate_matrix_congestion",
    "simulate_matrix_congestion_generic",
    "simulate_nd_congestion",
    "simulate_nd_congestion_fast",
]

_CHUNK_BYTES = 1 << 26  # ~64 MiB of staged addresses per chunk


@dataclass(frozen=True)
class CongestionStats:
    """Summary statistics of simulated per-warp congestion.

    Attributes
    ----------
    mean, std:
        Sample mean and standard deviation of the congestion over all
        simulated warp accesses.
    minimum, maximum:
        Extremes observed (``minimum == maximum == mean`` for
        deterministic cells such as RAP/stride).
    n_samples:
        Number of warp accesses measured.
    """

    mean: float
    std: float
    minimum: int
    maximum: int
    n_samples: int
    n_trials: int | None = None

    @property
    def sem(self) -> float:
        """Standard error of the mean.

        Note: per-warp samples within one mapping draw can be
        correlated (stride/diagonal warps share the shift vector), so
        treat this as optimistic; the conservative effective sample
        size is the trial count (see :meth:`conservative_interval`).
        """
        return self.std / np.sqrt(self.n_samples) if self.n_samples else float("nan")

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Normal-approximation CI for the mean congestion.

        Parameters
        ----------
        z:
            Critical value (1.96 for 95%, 2.58 for 99%).
        """
        if z <= 0:
            raise ValueError(f"z must be > 0, got {z}")
        half = z * self.sem
        return (self.mean - half, self.mean + half)

    def conservative_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Trials-aware CI: effective sample size = mapping draws.

        Warp accesses within one mapping draw share the draw's shift
        randomness, so the ``trials * w`` samples behind :attr:`sem`
        are not independent.  Treating the *trial count* as the
        effective sample size upper-bounds the variance of the mean
        (perfect within-trial correlation), so this interval is
        conservative where :meth:`confidence_interval` is
        anti-conservative.  Falls back to ``n_samples`` when the trial
        count was not recorded.
        """
        if z <= 0:
            raise ValueError(f"z must be > 0, got {z}")
        n_eff = self.n_trials if self.n_trials else self.n_samples
        half = z * self.std / np.sqrt(n_eff) if n_eff else float("nan")
        return (self.mean - half, self.mean + half)

    def to_payload(self) -> dict:
        """Lossless JSON-serializable form (cache entries, journals).

        Python's ``repr``-based float serialization round-trips IEEE
        doubles exactly, so :meth:`from_payload` reconstructs the same
        bits.
        """
        return {
            "mean": self.mean,
            "std": self.std,
            "minimum": self.minimum,
            "maximum": self.maximum,
            "n_samples": self.n_samples,
            "n_trials": self.n_trials,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CongestionStats":
        """Inverse of :meth:`to_payload`.

        Raises ``KeyError``/``TypeError``/``ValueError`` on payloads
        that do not carry the full schema — callers that read untrusted
        bytes (the on-disk cache, journals) catch these and treat the
        entry as missing.
        """
        return cls(
            mean=float(payload["mean"]),
            std=float(payload["std"]),
            minimum=payload["minimum"],
            maximum=payload["maximum"],
            n_samples=int(payload["n_samples"]),
            n_trials=payload.get("n_trials"),
        )


class RunningStats:
    """Single-pass, mergeable accumulator for mean/std/min/max.

    Uses Welford's algorithm with Chan's pairwise combine: the running
    state is ``(n, mean, M2)`` where ``M2`` is the centered sum of
    squares.  Unlike the naive ``E[x^2] - mean^2`` formula this does
    not cancel catastrophically when the variance is tiny relative to
    the mean (e.g. millions of near-constant congestion-1 samples),
    and the same combine step makes two accumulators :meth:`merge`
    *exactly* — the parallel engine relies on this to shard trials
    over workers and still produce well-conditioned statistics.

    ``trials`` tracks how many independent mapping draws produced the
    samples; callers bump it so :class:`CongestionStats` can report a
    conservative, trials-aware confidence interval.
    """

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.minimum = None
        self.maximum = None
        self.trials = 0

    def add(self, values: np.ndarray) -> None:
        """Fold a chunk of samples in; empty chunks are a no-op."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        chunk_mean = float(values.mean())
        chunk_m2 = float(np.square(values - chunk_mean).sum())
        self._combine(
            values.size, chunk_mean, chunk_m2,
            int(values.min()), int(values.max()),
        )

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Fold another accumulator in (Chan's parallel combine).

        Exact in the sense that the combined ``(n, mean, M2)`` is a
        deterministic function of the two partials, independent of
        which worker produced which — merging shard results in a fixed
        order yields bit-identical statistics for any worker count.
        """
        if other.n:
            self._combine(
                other.n, other.mean, other.m2, other.minimum, other.maximum
            )
        self.trials += other.trials
        return self

    def _combine(
        self, n_b: int, mean_b: float, m2_b: float, lo: int, hi: int
    ) -> None:
        n_a = self.n
        n = n_a + n_b
        delta = mean_b - self.mean
        self.mean += delta * (n_b / n)
        self.m2 += m2_b + delta * delta * (n_a * n_b / n)
        self.n = n
        self.minimum = lo if self.minimum is None else min(self.minimum, lo)
        self.maximum = hi if self.maximum is None else max(self.maximum, hi)

    def finish(self) -> CongestionStats:
        if self.n == 0:
            raise ValueError("no samples accumulated")
        var = max(self.m2 / self.n, 0.0)
        return CongestionStats(
            mean=self.mean,
            std=float(np.sqrt(var)),
            minimum=self.minimum,
            maximum=self.maximum,
            n_samples=self.n,
            n_trials=self.trials or None,
        )


def simulate_matrix_congestion(
    mapping_name: str,
    pattern: str,
    w: int,
    trials: int = 2000,
    seed: SeedLike = None,
) -> CongestionStats:
    """Expected congestion of a Table II cell.

    Parameters
    ----------
    mapping_name:
        ``"RAW"``, ``"RAS"``, or ``"RAP"`` — redrawn every trial.
    pattern:
        ``"contiguous"``, ``"stride"``, ``"diagonal"``, ``"random"``,
        or ``"malicious"`` — the random pattern is redrawn every trial.
    w:
        Matrix side / warp width / bank count.
    trials:
        Number of independent mapping draws.
    seed:
        RNG seed.

    Returns
    -------
    CongestionStats
        Congestion over ``trials * w`` warp accesses (each trial runs
        the full ``w``-warp pattern).
    """
    check_positive_int(w, "w")
    check_positive_int(trials, "trials")
    return _accumulate_matrix(
        mapping_name, pattern, w, trials, as_generator(seed)
    ).finish()


def _accumulate_matrix(
    mapping_name: str,
    pattern: str,
    w: int,
    trials: int,
    rng: np.random.Generator,
) -> RunningStats:
    """Shard body of :func:`simulate_matrix_congestion`.

    Returns the open accumulator so the parallel engine can merge
    per-shard partials exactly instead of re-deriving moments from the
    finished summary.
    """
    stats = RunningStats()
    chunks = _matrix_address_chunks(mapping_name, pattern, w, trials, rng)
    for t, addresses in chunks:
        stats.add(congestion_batch(addresses, w))
        stats.trials += t
    return stats


def _matrix_address_chunks(
    mapping_name: str, pattern: str, w: int, trials: int, rng: np.random.Generator
):
    """Yield ``(t, addresses)`` per chunk of a Table II cell's trials.

    ``addresses`` has shape ``(t * w, w)``, one row per warp access of
    ``t`` fresh mapping draws.  The chunk partition and the order of
    the rng draws define the sample stream, so every consumer of a
    cell sees the same addresses.  Addresses lie below ``w * w``: they
    come as uint16 where that fits (every paper width), else in the
    index dtype.
    """
    # Trials per chunk so that the staged (t, w, w) address block stays
    # under the memory budget.
    chunk = max(1, min(trials, _CHUNK_BYTES // (w * w * 8)))
    index = np.int32 if w * w <= np.iinfo(np.int32).max else np.int64
    staged = np.uint16 if w * w <= 1 << 16 else index
    is_random_pattern = pattern.lower() == "random"
    if not is_random_pattern:
        ii, jj = (g.ravel() for g in pattern_logical(pattern, w))  # warp-major
        row_base, jj = (ii * w).astype(staged), jj.astype(staged)

    done = 0
    while done < trials:
        t = min(chunk, trials - done)
        shifts = sample_shift_batch(mapping_name, w, t, rng)
        if is_random_pattern:
            # An int32 draw below w takes the same values, and leaves
            # the generator in the same state, as an int64 draw.
            row = rng.integers(0, w, size=(t, w, w), dtype=index)
            addresses = rng.integers(0, w, size=(t, w, w), dtype=index)
            # Per-trial gather through flat indices: each trial's shift
            # vector, indexed by its own random row indices.
            trial_base = np.arange(0, t * w, w, dtype=index)[:, None, None]
            row += trial_base
            addresses += np.take(shifts.astype(index), row)
            row -= trial_base
            row *= w
        else:
            # Gather each trial's shift per lane; take keeps (t, w * w)
            # contiguous, so the reshape below copies nothing.
            addresses = np.take(shifts.astype(staged), ii, axis=1)
            addresses += jj
            row = row_base
        if w & (w - 1):
            addresses %= w
        else:
            addresses &= w - 1
        if addresses.dtype == staged:
            addresses += row
        else:  # random pattern: the sum narrows to uint16 as it is written
            addresses = np.add(
                addresses, row, out=np.empty(addresses.shape, staged), casting="unsafe"
            )
        yield t, addresses.reshape(-1, w)
        done += t


def simulate_matrix_congestion_generic(
    mapping_factory,
    pattern: str,
    w: int,
    trials: int = 200,
    seed: SeedLike = None,
) -> CongestionStats:
    """Expected congestion for an *arbitrary* mapping family.

    The fast path (:func:`simulate_matrix_congestion`) exploits the
    per-row-rotation structure of RAW/RAS/RAP; layouts like padding or
    the XOR swizzle do not fit it, so this generic path instantiates a
    mapping per trial via ``mapping_factory(rng)`` and evaluates the
    pattern through its ``address`` method.  Deterministic layouts
    need only one trial unless the pattern itself is random.

    Parameters
    ----------
    mapping_factory:
        Callable ``rng -> AddressMapping`` (return the same instance
        every time for deterministic layouts).
    pattern, w, trials, seed:
        As in :func:`simulate_matrix_congestion`.
    """
    check_positive_int(w, "w")
    check_positive_int(trials, "trials")
    rng = as_generator(seed)
    stats = RunningStats()
    is_random_pattern = pattern.lower() == "random"
    if not is_random_pattern:
        # Deterministic grids never touch the rng, so they can be built
        # once outside the trial loop — bit-identical results, and the
        # loop body shrinks to the mapping draw plus one batch call.
        grids = pattern_logical(pattern, w)
    for _ in range(trials):
        mapping = mapping_factory(rng)
        if mapping.w != w:
            raise ValueError(
                f"factory produced width {mapping.w}, expected {w}"
            )
        ii, jj = (
            pattern_logical(pattern, w, seed=rng) if is_random_pattern else grids
        )
        addresses = mapping.address(ii, jj)
        stats.add(congestion_batch(addresses, w))
        stats.trials += 1
    return stats.finish()


def simulate_nd_congestion_fast(
    scheme: str,
    pattern: str,
    w: int,
    trials: int = 500,
    seed: SeedLike = None,
) -> CongestionStats:
    """Vectorized Table IV sampler for the permutation-sum schemes.

    For ``1P``, ``R1P``, and ``3P`` the shift function is a sum of
    permutation lookups, so the whole Monte-Carlo batch reduces to
    batched ``rng.permuted`` draws and one ``congestion_batch`` call —
    ~50x faster than instantiating a mapping per trial.  ``RAS``
    vectorizes too: although the scheme owns ``w^3`` i.i.d. shifts, a
    single warp observes at most ``w`` of them, so one batched
    ``rng.integers`` draw indexed by per-row ``(i, j, k)`` group ids
    reproduces the observed distribution exactly.  Matches
    :func:`simulate_nd_congestion` in distribution (same estimator,
    different stream); schemes with structured per-row tables (RAW,
    w2P, 1PwR) fall back to the generic path.
    """
    check_positive_int(w, "w")
    check_positive_int(trials, "trials")
    return _accumulate_nd_fast(
        scheme, pattern, w, trials, as_generator(seed)
    ).finish()


def _accumulate_nd_fast(
    scheme: str,
    pattern: str,
    w: int,
    trials: int,
    rng: np.random.Generator,
) -> RunningStats:
    """Shard body of :func:`simulate_nd_congestion_fast`."""
    key = scheme.upper()
    if key not in ("RAS", "1P", "R1P", "3P"):
        return _accumulate_nd(scheme, pattern, w, trials, rng)

    if pattern.lower() == "random":
        idx = rng.integers(0, w, size=(4, trials, w), dtype=np.int64)
        i, j, k, l = idx[0], idx[1], idx[2], idx[3]
    else:
        base = nd_pattern_logical(pattern, w, scheme=scheme, seed=rng)
        i, j, k, l = (np.broadcast_to(v, (trials, w)) for v in base)

    def draw_perms(n: int) -> np.ndarray:
        tiled = np.broadcast_to(np.arange(w, dtype=np.int64), (n, w))
        return rng.permuted(tiled, axis=1)

    rows = np.arange(trials)[:, None]
    if key == "RAS":
        # RAS owns w^3 i.i.d. shifts (one per (i, j, k) row), but a
        # warp touches at most w distinct rows, so one (trials, w)
        # integer draw suffices: group the lanes of each trial by
        # their row id, give each group the next column of the draw,
        # and lanes sharing a row share a shift while distinct rows
        # get independent ones — the observed distribution of the
        # full table.
        rid = (i * w + j) * w + k
        order = np.argsort(rid, axis=1, kind="stable")
        srt = np.take_along_axis(rid, order, axis=1)
        fresh = np.empty(srt.shape, dtype=bool)
        fresh[:, 0] = True
        fresh[:, 1:] = srt[:, 1:] != srt[:, :-1]
        gid_sorted = np.cumsum(fresh, axis=1) - 1
        draws = rng.integers(0, w, size=(trials, w), dtype=np.int64)
        shift_sorted = draws[rows, gid_sorted]
        shift = np.empty_like(shift_sorted)
        np.put_along_axis(shift, order, shift_sorted, axis=1)
    elif key == "1P":
        sigma = draw_perms(trials)
        shift = sigma[rows, k]
    elif key == "R1P":
        sigma = draw_perms(trials)
        shift = sigma[rows, i] + sigma[rows, j] + sigma[rows, k]
    else:  # 3P
        sigma, tau, rho = draw_perms(trials), draw_perms(trials), draw_perms(trials)
        shift = sigma[rows, i] + tau[rows, j] + rho[rows, k]

    rotated = (l + shift) % w
    addresses = ((i * w + j) * w + k) * w + rotated
    stats = RunningStats()
    stats.add(congestion_batch(addresses, w))
    stats.trials += trials
    return stats


def simulate_nd_congestion(
    scheme: str,
    pattern: str,
    w: int,
    trials: int = 500,
    seed: SeedLike = None,
) -> CongestionStats:
    """Expected congestion of a Table IV cell (4-D array, one warp).

    Parameters
    ----------
    scheme:
        One of :data:`repro.core.higher_dim.ND_MAPPING_NAMES`.
    pattern:
        One of :data:`repro.access.patterns_nd.ND_PATTERN_NAMES`; the
        ``malicious`` pattern is tailored to the scheme.
    w:
        Array side / warp width.
    trials:
        Independent (mapping, pattern) draws.
    seed:
        RNG seed.
    """
    check_positive_int(w, "w")
    check_positive_int(trials, "trials")
    return _accumulate_nd(scheme, pattern, w, trials, as_generator(seed)).finish()


def _accumulate_nd(
    scheme: str,
    pattern: str,
    w: int,
    trials: int,
    rng: np.random.Generator,
) -> RunningStats:
    """Shard body of :func:`simulate_nd_congestion`."""
    stats = RunningStats()
    # The loop only *stages* each trial's warp access; the congestion
    # of the whole block is measured with a single batch call, which
    # computes the same per-row value as warp_congestion.
    addresses = np.empty((trials, w), dtype=np.int64)
    for t in range(trials):
        mapping = nd_mapping_by_name(scheme, w, rng)
        idx = nd_pattern_logical(pattern, w, scheme=scheme, seed=rng)
        addresses[t] = mapping.address(*idx)
    stats.add(congestion_batch(addresses, w))
    stats.trials += trials
    return stats
