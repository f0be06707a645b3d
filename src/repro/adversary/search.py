"""Worst-case pattern search against the shifted-row mapping families.

The search object is a *warp pattern*: one warp's ``w`` logical
``(row, column)`` index pairs.  A full ``(w, w)`` access grid is
assembled from it by row translation (:func:`assemble_pattern`), so
the state space the search walks is ``w`` pairs, not ``w^2`` — the
per-warp congestion of a shifted-row mapping depends only on the
warp's own lanes, and translated copies decorrelate the per-trial
maxima that Theorem 2's tail is about.

Search procedure (deterministic for a fixed seed, any worker count):

* ``restarts`` independent starts — restart 0 is the stride attack
  (one column, all rows: RAW's deterministic worst case), restart 1
  the diagonal (RAP's Table II worst case), the rest uniform random;
* greedy coordinate ascent: for each lane in turn, propose
  ``candidates`` replacement pairs (half uniform, half aimed at the
  currently most-loaded bank of the first training draw) and keep the
  best strict improvement of the mean worst-warp congestion over the
  training shift draws;
* the best restart by training score (ties to the lowest restart
  index) is re-scored on an independent *evaluation* shift batch —
  the number reported is never the one the search optimized against.

Scoring runs on :func:`repro.dmm.batched.warp_congestion_block`, the
same bank-key kernel the batched DMM executor dispatches with, so a
found score is exactly what the cycle-accurate machine would charge.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.mappings import MAPPING_NAMES, sample_shift_batch
from repro.core.theory import log_over_loglog
from repro.dmm.batched import warp_congestion_block
from repro.dmm.warp import duplicate_lanes
from repro.gpu.kernel import check_shifts
from repro.sim.engine import MonteCarloEngine
from repro.util.rng import (
    SeedLike,
    as_generator,
    as_seed_sequence,
    seed_fingerprint,
)
from repro.util.validation import check_positive_int

__all__ = [
    "BUDGET_NAMES",
    "SearchBudget",
    "AdversaryResult",
    "AdversarySweep",
    "assemble_pattern",
    "pattern_congestions",
    "expected_worst_congestion",
    "find_worst_pattern",
]

#: cap on bank-key elements materialized per scoring chunk (~32 MB of
#: int64 at the default): keeps w = 1024 evaluation inside a bounded
#: working set instead of staging all trials at once.
_CHUNK_ELEMENTS = 1 << 22


@dataclass(frozen=True)
class SearchBudget:
    """Knobs bounding one search run.

    Attributes
    ----------
    restarts:
        Independent search starts (first two are the stride and
        diagonal attacks, the rest random).
    passes:
        Greedy coordinate-ascent sweeps over the warp's lanes.
    candidates:
        Replacement pairs proposed per lane per pass.
    train_trials:
        Shift draws the search scores against (1 is forced for RAW,
        whose mapping is deterministic).
    eval_trials:
        Independent shift draws for the reported score.
    """

    restarts: int = 4
    passes: int = 3
    candidates: int = 8
    train_trials: int = 24
    eval_trials: int = 200

    def __post_init__(self):
        for name in ("restarts", "passes", "candidates", "train_trials", "eval_trials"):
            check_positive_int(getattr(self, name), name)

    @classmethod
    def named(cls, name: str) -> "SearchBudget":
        """A predefined budget: ``"tiny"`` (CI smoke) or ``"default"``."""
        try:
            return cls(**_BUDGETS[name])
        except KeyError:
            raise ValueError(
                f"unknown budget {name!r}; expected one of {BUDGET_NAMES}"
            ) from None


_BUDGETS = {
    "tiny": dict(restarts=2, passes=1, candidates=4, train_trials=8, eval_trials=32),
    "default": dict(),
}

#: names :meth:`SearchBudget.named` accepts.
BUDGET_NAMES = tuple(sorted(_BUDGETS))


def _coerce_budget(budget: "SearchBudget | str | None") -> SearchBudget:
    """Accept a budget instance, a named preset, or None (default)."""
    if budget is None:
        return SearchBudget()
    if isinstance(budget, str):
        return SearchBudget.named(budget)
    return budget


def assemble_pattern(
    rows: np.ndarray, cols: np.ndarray, w: int
) -> tuple[np.ndarray, np.ndarray]:
    """Lift one warp pattern into a full ``(w, w)`` access grid.

    Warp ``r`` uses rows ``(rows + r) mod w`` with the same columns:
    each warp keeps the searched pattern's CRCW merge structure and
    per-draw congestion distribution (row translation permutes which
    shift entries it reads), while different warps read different
    entries — so the per-trial max over warps samples the tail rather
    than ``w`` copies of one value.
    """
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    cols = np.ascontiguousarray(cols, dtype=np.int64)
    if rows.shape != (w,) or cols.shape != (w,):
        raise ValueError(f"warp pattern must be two ({w},) vectors")
    ii = (rows[None, :] + np.arange(w, dtype=np.int64)[:, None]) % w
    jj = np.repeat(cols[None, :], w, axis=0)
    return ii, jj


def _check_grids(ii: np.ndarray, jj: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    ii = np.ascontiguousarray(ii, dtype=np.int64)
    jj = np.ascontiguousarray(jj, dtype=np.int64)
    if ii.shape != jj.shape or ii.ndim != 2 or ii.shape[1] != w:
        raise ValueError(
            f"ii/jj must be matching (n_warps, {w}) grids, got {ii.shape}/{jj.shape}"
        )
    for name, grid in (("ii", ii), ("jj", jj)):
        if ((grid < 0) | (grid >= w)).any():
            raise ValueError(f"{name} entries must lie in [0, {w})")
    return ii, jj


def pattern_congestions(
    ii: np.ndarray, jj: np.ndarray, shifts: np.ndarray, w: int
) -> np.ndarray:
    """Per-trial, per-warp congestion of an access grid, shape ``(T, n_warps)``.

    ``shifts`` is a ``(T, w)`` shift matrix (one shifted-row mapping
    draw per trial); lane ``(i, j)`` hits bank ``(j + shifts[t, i])
    mod w``.  Statically merged duplicate lanes are replaced by
    per-lane sentinels and the rest goes through
    :func:`~repro.dmm.batched.warp_congestion_block` — the executor's
    own congestion kernel — in trial chunks of bounded size, so a
    ``w = 1024`` evaluation never stages the full trial batch.
    ``shifts`` is checked by :func:`~repro.gpu.kernel.check_shifts`:
    non-integer draws raise :class:`TypeError`; a wrong shape, zero
    trials or a shift outside ``[0, w)`` raise :class:`ValueError`.
    """
    check_positive_int(w, "w")
    ii, jj = _check_grids(ii, jj, w)
    shifts = check_shifts(shifts, w)
    n_warps = ii.shape[0]
    trials = shifts.shape[0]
    dup = duplicate_lanes(ii * w + jj)
    sentinel = w + np.arange(w, dtype=np.int64)
    chunk = max(1, _CHUNK_ELEMENTS // max(1, n_warps * w))
    out = np.empty((trials, n_warps), dtype=np.int64)
    for lo in range(0, trials, chunk):
        block = shifts[lo : lo + chunk]
        banks = (jj[None, :, :] + block[:, ii]) % w
        keys = np.where(dup[None, :, :], sentinel[None, None, :], banks)
        out[lo : lo + block.shape[0]] = warp_congestion_block(keys, w).reshape(
            block.shape[0], n_warps
        )
    return out


def expected_worst_congestion(
    ii: np.ndarray, jj: np.ndarray, shifts: np.ndarray, w: int
) -> float:
    """Mean over trials of the worst warp congestion — the tail statistic."""
    return float(pattern_congestions(ii, jj, shifts, w).max(axis=1).mean())


def _warp_scores(
    rows_batch: np.ndarray, cols_batch: np.ndarray, shifts: np.ndarray, w: int
) -> np.ndarray:
    """Mean-over-trials congestion of ``C`` single-warp variants, shape ``(C,)``."""
    dup = duplicate_lanes(rows_batch * w + cols_batch)
    banks = (cols_batch[None, :, :] + shifts[:, rows_batch]) % w
    sentinel = w + np.arange(w, dtype=np.int64)
    keys = np.where(dup[None, :, :], sentinel[None, None, :], banks)
    trials, variants = shifts.shape[0], rows_batch.shape[0]
    cong = warp_congestion_block(keys, w).reshape(trials, variants)
    return cong.mean(axis=0)


def _start_pattern(
    restart: int, w: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Initial warp pattern for one restart (informed, then random)."""
    rows = np.arange(w, dtype=np.int64)
    if restart == 0:  # stride attack: one column, all rows
        return rows, np.zeros(w, dtype=np.int64)
    if restart == 1:  # diagonal: RAP's Table II worst case
        return rows, rows.copy()
    return rng.integers(0, w, size=w), rng.integers(0, w, size=w)


def _run_restart(
    item: tuple, rng: np.random.Generator
) -> tuple[float, np.ndarray, np.ndarray]:
    """One full restart: greedy coordinate ascent from one start.

    The shard body of :meth:`~repro.sim.engine.MonteCarloEngine.map_seeded`:
    ``item`` is the picklable ``(restart, train_shifts, w, budget)``
    and ``rng`` the restart's own stream, so a restart is a pure
    function of its seed and the shared training shifts, which is what
    makes the search worker-count invariant.
    """
    restart, train_shifts, w, budget = item
    rows, cols = _start_pattern(restart, w, rng)
    best = float(_warp_scores(rows[None, :], cols[None, :], train_shifts, w)[0])
    aim = budget.candidates // 2
    for _ in range(budget.passes):
        improved = False
        for lane in range(w):
            cand_rows = rng.integers(0, w, size=budget.candidates)
            cand_cols = rng.integers(0, w, size=budget.candidates)
            if aim:
                # Aim half the proposals at the most-loaded bank of
                # the first training draw: pick a row, then the column
                # that lands that row's lane in the mode bank.
                banks0 = (cols + train_shifts[0, rows]) % w
                mode = int(np.bincount(banks0, minlength=w).argmax())
                cand_cols[:aim] = (mode - train_shifts[0, cand_rows[:aim]]) % w
            var_rows = np.repeat(rows[None, :], budget.candidates, axis=0)
            var_cols = np.repeat(cols[None, :], budget.candidates, axis=0)
            var_rows[:, lane] = cand_rows
            var_cols[:, lane] = cand_cols
            scores = _warp_scores(var_rows, var_cols, train_shifts, w)
            k = int(scores.argmax())
            if scores[k] > best + 1e-12:
                rows = var_rows[k].copy()
                cols = var_cols[k].copy()
                best = float(scores[k])
                improved = True
        if not improved:
            break
    return best, rows, cols


@dataclass(frozen=True)
class AdversaryResult:
    """The found-worst pattern for one ``(mapping, w)`` cell.

    Attributes
    ----------
    mapping, w:
        The attacked mapping family and width.
    seed:
        Fingerprint of the seed the search ran under
        (:func:`~repro.util.rng.seed_fingerprint`).
    budget:
        The :class:`SearchBudget` used.
    restart_index:
        Which restart won (0 = stride start, 1 = diagonal start).
    train_score, eval_score:
        Mean worst-warp congestion on the training draws (what the
        search optimized) and on the independent evaluation draws
        (the honest, reported number).
    train_trials, eval_trials:
        Draw counts behind the two scores (1 for RAW: deterministic).
    warp_rows, warp_cols:
        The winning warp pattern; the full grid is
        ``assemble_pattern(warp_rows, warp_cols, w)``.
    pattern_sha256:
        Digest of the assembled ``(w, w)`` grids, for artifact
        provenance without shipping ``w^2`` integers.
    """

    mapping: str
    w: int
    seed: str | None
    budget: SearchBudget
    restart_index: int
    train_score: float
    eval_score: float
    train_trials: int
    eval_trials: int
    warp_rows: tuple[int, ...]
    warp_cols: tuple[int, ...]
    pattern_sha256: str
    assembly: str = "row-translate"

    def pattern(self) -> tuple[np.ndarray, np.ndarray]:
        """Reassemble the full ``(w, w)`` access grids."""
        return assemble_pattern(
            np.array(self.warp_rows), np.array(self.warp_cols), self.w
        )

    def to_dict(self) -> dict:
        """JSON-ready form (the sweep artifact's per-cell record)."""
        return {
            "mapping": self.mapping,
            "w": self.w,
            "seed": self.seed,
            "budget": asdict(self.budget),
            "restart_index": self.restart_index,
            "train_score": round(self.train_score, 6),
            "eval_score": round(self.eval_score, 6),
            "train_trials": self.train_trials,
            "eval_trials": self.eval_trials,
            "warp_rows": list(self.warp_rows),
            "warp_cols": list(self.warp_cols),
            "pattern_sha256": self.pattern_sha256,
            "assembly": self.assembly,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AdversaryResult":
        """Rebuild a result from :meth:`to_dict` output (journal replay)."""
        data = dict(payload)
        data["budget"] = SearchBudget(**data["budget"])
        data["warp_rows"] = tuple(int(r) for r in data["warp_rows"])
        data["warp_cols"] = tuple(int(c) for c in data["warp_cols"])
        return cls(**data)


def find_worst_pattern(
    mapping: str = "RAP",
    w: int = 32,
    seed: SeedLike = 2014,
    budget: SearchBudget | str | None = None,
    engine: MonteCarloEngine | None = None,
) -> AdversaryResult:
    """Search for the worst access pattern against one mapping family.

    The restarts run as shards of ``engine`` (an in-process one when
    omitted), with its retries, leases and fault injection.
    Deterministic: a fixed ``seed`` produces the identical pattern and
    scores for every worker count — restart ``i`` draws from child
    ``i`` of ``seed``'s spawned sequences, training and evaluation
    from the last two, and the winner is chosen by ``(train_score,
    lowest restart index)``.
    """
    if mapping not in MAPPING_NAMES:
        raise ValueError(f"unknown mapping {mapping!r}; expected one of {MAPPING_NAMES}")
    check_positive_int(w, "w")
    budget = _coerce_budget(budget)
    engine = engine or MonteCarloEngine()
    root = as_seed_sequence(seed)
    train_seq, eval_seq = root.spawn(budget.restarts + 2)[-2:]
    # RAW has no randomness: one all-zero draw scores the pattern exactly.
    train_trials = 1 if mapping == "RAW" else budget.train_trials
    eval_trials = 1 if mapping == "RAW" else budget.eval_trials
    train_shifts = sample_shift_batch(mapping, w, train_trials, as_generator(train_seq))
    items = [(i, train_shifts, w, budget) for i in range(budget.restarts)]
    # map_seeded spawns from a fresh copy of root, so restart i gets
    # child i, as the spawn above laid out.
    outcomes = engine.map_seeded(_run_restart, items, root)
    best = max(range(len(outcomes)), key=lambda i: (outcomes[i][0], -i))
    train_score, rows, cols = outcomes[best]
    ii, jj = assemble_pattern(rows, cols, w)
    eval_shifts = sample_shift_batch(mapping, w, eval_trials, as_generator(eval_seq))
    eval_score = expected_worst_congestion(ii, jj, eval_shifts, w)
    digest = hashlib.sha256(ii.tobytes() + jj.tobytes()).hexdigest()
    return AdversaryResult(
        mapping=mapping,
        w=w,
        seed=seed_fingerprint(seed),
        budget=budget,
        restart_index=best,
        train_score=float(train_score),
        eval_score=float(eval_score),
        train_trials=train_trials,
        eval_trials=eval_trials,
        warp_rows=tuple(int(r) for r in rows),
        warp_cols=tuple(int(c) for c in cols),
        pattern_sha256=digest,
    )


@dataclass
class AdversarySweep:
    """Found-worst congestion per ``(mapping, width)`` — new Table II rows.

    Attributes
    ----------
    widths, mappings:
        The swept axes.
    results:
        ``(mapping, w) -> AdversaryResult``.
    """

    widths: tuple[int, ...]
    mappings: tuple[str, ...]
    results: dict[tuple[str, int], AdversaryResult] = field(default_factory=dict)

    def series(self) -> dict[str, list[float]]:
        """Per-mapping eval-score series plus the growth-rate reference
        (:class:`~repro.sim.sweep.GrowthSweep`-compatible)."""
        out = {
            m: [self.results[(m, w)].eval_score for w in self.widths]
            for m in self.mappings
        }
        out["lnw/lnlnw"] = [log_over_loglog(w) for w in self.widths]
        return out

    def to_dict(self) -> dict:
        """JSON artifact: per-cell provenance plus the RAP trend check."""
        payload = {
            "widths": list(self.widths),
            "mappings": list(self.mappings),
            "results": [
                self.results[(m, w)].to_dict()
                for m in self.mappings
                for w in self.widths
            ],
        }
        if "RAP" in self.mappings:
            payload["rap_trend"] = [
                {
                    "w": w,
                    "eval_score": round(self.results[("RAP", w)].eval_score, 6),
                    "lnw_lnlnw": round(log_over_loglog(w), 6),
                    "ratio": round(
                        self.results[("RAP", w)].eval_score / log_over_loglog(w), 6
                    ),
                }
                for w in self.widths
            ]
        return payload
