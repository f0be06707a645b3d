"""Experiment registry: one entry per table of the paper's evaluation.

Each ``tableN`` function regenerates the corresponding table as a
structured result object carrying both *our* measurements and the
*paper's* reported numbers, so callers (CLI, benchmarks,
EXPERIMENTS.md) can print them side by side.  Figures are regenerated
by :mod:`repro.report.figures`.

The reference constants transcribed from the paper live here
(``PAPER_TABLE2``, ``PAPER_TABLE4_CLASSES``); Table III's are in
:mod:`repro.gpu.timing`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.fabric.supervisor import FabricSpec
    from repro.gpu.kernel import SharedMemoryKernel
    from repro.resilience.journal import SweepJournal

from repro.access.patterns_nd import ND_PATTERN_NAMES
from repro.access.transpose import TRANSPOSE_NAMES, run_transpose, run_transpose_batch
from repro.apps import app_factory, build_app_program
from repro.core.higher_dim import ND_MAPPING_NAMES, nd_mapping_by_name
from repro.core.mappings import (
    MAPPING_NAMES,
    RAWMapping,
    mapping_by_name,
    mapping_from_shifts,
    sample_shift_batch,
)
from repro.gpu.timing import PAPER_TABLE3_NS, GPUTimingModel
from repro.sim.congestion_sim import (
    CongestionStats,
    simulate_matrix_congestion,
    simulate_nd_congestion,
    simulate_nd_congestion_fast,
)
from repro.sim.engine import MonteCarloEngine
from repro.util.rng import (
    SeedLike,
    as_generator,
    spawn_generators,
    spawn_seed_sequences,
)
from repro.util.validation import check_latency, check_positive_int

__all__ = [
    "AppTimingResult",
    "adversary_table",
    "app_time_sweep",
    "table2_extended",
    "lemma1_table",
    "PAPER_TABLE2",
    "PAPER_TABLE4_CLASSES",
    "TABLE2_WIDTHS",
    "Table1Result",
    "Table2Result",
    "Table3Row",
    "Table3Result",
    "Table4Result",
    "table1",
    "table2",
    "table3",
    "table4",
]

TABLE2_WIDTHS = (16, 32, 64, 128, 256)

#: Table II as printed in the paper: ``(pattern, mapping) -> values
#: per width`` in :data:`TABLE2_WIDTHS` order.  Deterministic cells are
#: exact; randomized cells are the paper's simulated expectations.
PAPER_TABLE2: dict[tuple[str, str], tuple[float, ...]] = {
    ("contiguous", "RAW"): (1, 1, 1, 1, 1),
    ("contiguous", "RAS"): (1, 1, 1, 1, 1),
    ("contiguous", "RAP"): (1, 1, 1, 1, 1),
    ("stride", "RAW"): (16, 32, 64, 128, 256),
    ("stride", "RAS"): (3.08, 3.53, 3.96, 4.38, 4.77),
    ("stride", "RAP"): (1, 1, 1, 1, 1),
    ("diagonal", "RAW"): (1, 1, 1, 1, 1),
    ("diagonal", "RAS"): (3.08, 3.53, 3.96, 4.38, 4.77),
    ("diagonal", "RAP"): (3.20, 3.61, 4.00, 4.41, 4.78),
    ("random", "RAW"): (2.92, 3.44, 3.90, 4.34, 4.75),
    ("random", "RAS"): (2.92, 3.44, 3.90, 4.34, 4.75),
    ("random", "RAP"): (2.92, 3.44, 3.90, 4.34, 4.75),
}

#: Table IV's qualitative congestion classes: ``(pattern, scheme) ->``
#: ``"1"`` (always conflict-free), ``"w"`` (fully serialized),
#: ``"log"`` (the O(log w / log log w) class), or ``"attack"`` (R1P's
#: amplified malicious congestion).
PAPER_TABLE4_CLASSES: dict[tuple[str, str], str] = {
    ("contiguous", "RAW"): "1",
    ("contiguous", "RAS"): "1",
    ("contiguous", "1P"): "1",
    ("contiguous", "R1P"): "1",
    ("contiguous", "3P"): "1",
    ("contiguous", "w2P"): "1",
    ("contiguous", "1PwR"): "1",
    ("stride1", "RAW"): "w",
    ("stride1", "RAS"): "log",
    ("stride1", "1P"): "1",
    ("stride1", "R1P"): "1",
    ("stride1", "3P"): "1",
    ("stride1", "w2P"): "1",
    ("stride1", "1PwR"): "1",
    ("stride2", "RAW"): "w",
    ("stride2", "RAS"): "log",
    ("stride2", "1P"): "w",
    ("stride2", "R1P"): "1",
    ("stride2", "3P"): "1",
    ("stride2", "w2P"): "log",
    ("stride2", "1PwR"): "log",
    ("stride3", "RAW"): "w",
    ("stride3", "RAS"): "log",
    ("stride3", "1P"): "w",
    ("stride3", "R1P"): "1",
    ("stride3", "3P"): "1",
    ("stride3", "w2P"): "log",
    ("stride3", "1PwR"): "log",
    ("random", "RAW"): "log",
    ("random", "RAS"): "log",
    ("random", "1P"): "log",
    ("random", "R1P"): "log",
    ("random", "3P"): "log",
    ("random", "w2P"): "log",
    ("random", "1PwR"): "log",
    ("malicious", "RAW"): "w",
    ("malicious", "RAS"): "log",
    ("malicious", "1P"): "w",
    ("malicious", "R1P"): "attack",
    ("malicious", "3P"): "log",
    ("malicious", "w2P"): "log",
    ("malicious", "1PwR"): "log",
}

#: Table IV's random-number budget row, as closed-form descriptions
#: evaluated by :func:`table4`.
PAPER_TABLE4_RANDOM_NUMBERS: dict[str, str] = {
    "RAW": "0",
    "RAS": "w^3",
    "1P": "w",
    "R1P": "w",
    "3P": "3w",
    "w2P": "w^3",
    "1PwR": "w + w^2",
}


# ---------------------------------------------------------------------------
# Table I — analytic congestion summary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table1Result:
    """Analytic congestion of RAW/RAS/RAP (the paper's Table I).

    ``cells[(row, mapping)]`` holds the closed form as a string
    (``"1"``, ``"w"``, or ``"O(log w / log log w)"``).
    """

    cells: dict[tuple[str, str], str]
    rows: tuple[str, ...] = ("any", "contiguous", "stride")
    mappings: tuple[str, ...] = MAPPING_NAMES


def table1() -> Table1Result:
    """Regenerate Table I from the library's analytic knowledge.

    Deterministic cells are cross-checked against the actual mappings
    in the test suite; the ``O()`` cells are Theorem 2's class.
    """
    log_class = "O(log w / log log w)"
    cells = {
        ("any", "RAW"): "w",
        ("any", "RAS"): log_class,
        ("any", "RAP"): log_class,
        ("contiguous", "RAW"): "1",
        ("contiguous", "RAS"): "1",
        ("contiguous", "RAP"): "1",
        ("stride", "RAW"): "w",
        ("stride", "RAS"): log_class,
        ("stride", "RAP"): "1",
    }
    return Table1Result(cells=cells)


# ---------------------------------------------------------------------------
# Table II — simulated congestion of the matrix access patterns
# ---------------------------------------------------------------------------


@dataclass
class Table2Result:
    """Simulated Table II.

    Attributes
    ----------
    widths:
        The simulated DMM widths.
    stats:
        ``(pattern, mapping, w) ->`` :class:`CongestionStats`.
    paper:
        The paper's reported value for each cell (same keying,
        ``None`` when the paper has no matching width).
    """

    widths: tuple[int, ...]
    stats: dict[tuple[str, str, int], CongestionStats] = field(default_factory=dict)
    paper: dict[tuple[str, str, int], float] = field(default_factory=dict)

    def mean(self, pattern: str, mapping: str, w: int) -> float:
        """Simulated expected congestion of one cell."""
        return self.stats[(pattern, mapping, w)].mean

    def conservative_ci(
        self, pattern: str, mapping: str, w: int, z: float = 1.96
    ) -> tuple[float, float]:
        """Trials-aware CI of one cell (effective n = mapping draws)."""
        return self.stats[(pattern, mapping, w)].conservative_interval(z)


def table2(
    widths: tuple[int, ...] = TABLE2_WIDTHS,
    trials: int = 2000,
    seed: SeedLike = 2014,
    patterns: tuple[str, ...] = ("contiguous", "stride", "diagonal", "random"),
    engine: MonteCarloEngine | None = None,
    journal: "SweepJournal | None" = None,
) -> Table2Result:
    """Regenerate Table II by Monte-Carlo simulation.

    Every (pattern, mapping, width) cell redraws the mapping ``trials``
    times and averages per-warp congestion; deterministic cells
    converge instantly, randomized ones to ~3 decimal places at the
    default trial count.

    ``engine`` distributes the trials of every cell over worker
    processes and (optionally) an on-disk cache; omitted, an ephemeral
    serial engine is used.  For a fixed seed the result is
    bit-identical for every worker count.

    ``journal`` (a :class:`~repro.resilience.journal.SweepJournal`)
    checkpoints each completed cell; an interrupted run resumed through
    the same journal replays recorded cells and recomputes only the
    rest — the seed plan is laid out before any cell executes, so
    resumed == fresh, bit for bit.
    """
    engine = engine or MonteCarloEngine()
    result = Table2Result(widths=tuple(widths))
    cells = [
        (pattern, mapping, w)
        for pattern in patterns
        for mapping in MAPPING_NAMES
        for w in widths
    ]
    seqs = spawn_seed_sequences(seed, len(cells))
    for seq, (pattern, mapping, w) in zip(seqs, cells):
        # Deterministic cells need a single trial.
        deterministic = mapping == "RAW" and pattern != "random"
        n = 1 if deterministic else trials
        key = f"{pattern}/{mapping}/w={w}"
        recorded = journal.get(key) if journal is not None else None
        if recorded is not None:
            stats = CongestionStats.from_payload(recorded)
        else:
            stats = engine.matrix_congestion(mapping, pattern, w, trials=n, seed=seq)
            if journal is not None:
                journal.record(key, stats.to_payload())
        result.stats[(pattern, mapping, w)] = stats
        ref = PAPER_TABLE2.get((pattern, mapping))
        if ref is not None and w in TABLE2_WIDTHS:
            result.paper[(pattern, mapping, w)] = ref[TABLE2_WIDTHS.index(w)]
    return result


def table2_extended(
    w: int = 32,
    trials: int = 1000,
    seed: SeedLike = 2014,
    engine: MonteCarloEngine | None = None,
) -> dict[tuple[str, str], float]:
    """Table II at one width, extended with the PAD and XOR baselines.

    Returns ``(pattern, layout) -> expected congestion`` over the five
    layouts {RAW, RAS, RAP, PAD, XOR} and the four paper patterns.
    The deterministic competitors are evaluated through the generic
    simulator (they are not per-row rotations, and a mapping factory
    has no stable parallel/cache identity, so those cells stay on the
    serial path regardless of ``engine``).
    """
    from repro.core.padded import PaddedMapping
    from repro.core.swizzle import XORSwizzleMapping
    from repro.sim.congestion_sim import simulate_matrix_congestion_generic

    engine = engine or MonteCarloEngine()
    patterns = ("contiguous", "stride", "diagonal", "random")
    cells: dict[tuple[str, str], float] = {}
    seqs = spawn_seed_sequences(seed, len(patterns) * 5)
    rngs = [as_generator(seq) for seq in seqs]
    k = 0
    for pattern in patterns:
        for name in MAPPING_NAMES:
            deterministic = name == "RAW" and pattern != "random"
            stats = engine.matrix_congestion(
                name, pattern, w, trials=1 if deterministic else trials,
                seed=seqs[k],
            )
            cells[(pattern, name)] = stats.mean
            k += 1
        for name, factory in (
            ("PAD", lambda rng: PaddedMapping(w)),
            ("XOR", lambda rng: XORSwizzleMapping(w)),
        ):
            deterministic = pattern != "random"
            stats = simulate_matrix_congestion_generic(
                factory, pattern, w,
                trials=1 if deterministic else max(trials // 10, 50),
                seed=rngs[k],
            )
            cells[(pattern, name)] = stats.mean
            k += 1
    return cells


# ---------------------------------------------------------------------------
# Table III — transpose congestion + GPU-model nanoseconds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table3Row:
    """One (algorithm, mapping) cell of Table III.

    Attributes
    ----------
    algorithm, mapping:
        What ran (e.g. ``"CRSW"``, ``"RAP"``).
    read_congestion, write_congestion:
        Expected worst warp congestion of the read / write instruction
        (averaged over mapping redraws; exact for RAW).
    mean_stages:
        Expected total pipeline stages, the timing model's input.
    predicted_ns:
        Our GPU-model estimate.
    paper_ns:
        The paper's measured GTX TITAN time.
    all_correct:
        Whether every simulated run produced a correct transpose.
    read_ci_half, write_ci_half:
        Half-width of the conservative 95% CI on the congestion means
        (effective sample size = mapping redraws, since warps within
        one redraw are correlated).  Zero for deterministic cells.
    """

    algorithm: str
    mapping: str
    read_congestion: float
    write_congestion: float
    mean_stages: float
    predicted_ns: float
    paper_ns: float
    all_correct: bool
    read_ci_half: float = 0.0
    write_ci_half: float = 0.0


@dataclass
class Table3Result:
    """Simulated Table III: rows keyed by (algorithm, mapping)."""

    w: int
    rows: dict[tuple[str, str], Table3Row] = field(default_factory=dict)

    def speedup_vs(self, algorithm: str, slow: str, fast: str) -> float:
        """Predicted speedup of mapping ``fast`` over ``slow``."""
        return (
            self.rows[(algorithm, slow)].predicted_ns
            / self.rows[(algorithm, fast)].predicted_ns
        )


def _table3_combo(item: tuple, rng) -> tuple:
    """One (algorithm, mapping) cell of Table III — engine worker body.

    Per trial it draws the mapping and then the source matrix from
    ``rng``, then runs every trial as one
    :func:`~repro.access.transpose.run_transpose_batch`: each
    instruction's warps for all trials go through one congestion-kernel
    call.  Module-level so the parallel engine can dispatch combos to a
    process pool; the rng it receives is the combo's own spawned child,
    making the result independent of which worker ran it.
    """
    algorithm, mapping_name, w, trials, latency = item
    n = 1 if mapping_name == "RAW" else trials
    shifts = np.empty((n, w), dtype=np.int64)
    matrices = np.empty((n, w, w))
    for t in range(n):
        mapping = mapping_by_name(mapping_name, w, rng)
        shifts[t] = mapping.shifts
        matrices[t] = rng.random((w, w))
    batch = run_transpose_batch(algorithm, shifts, matrices, latency)
    # Table III reports the *expected per-warp* congestion (3.53 for a
    # RAS stride phase), so average over warps.
    reads = batch.read_congestions.mean(axis=1).tolist()
    writes = batch.write_congestions.mean(axis=1).tolist()
    stages = batch.total_stages.tolist()
    # Address-computation ops depend only on the mapping family:
    # overhead_ops per warp issue, 2 instructions x w warps.
    overhead = mapping.address_overhead_ops * 2 * w
    return reads, writes, stages, bool(batch.correct.all()), overhead


def _conservative_half(values, z: float = 1.96) -> float:
    """Half-width of the trials-aware CI over per-trial means."""
    n = len(values)
    if n <= 1:
        return 0.0
    return float(z * np.std(values) / np.sqrt(n))


def table3(
    w: int = 32,
    trials: int = 100,
    seed: SeedLike = 2014,
    latency: int = 1,
    timing_model: GPUTimingModel | None = None,
    engine: MonteCarloEngine | None = None,
) -> Table3Result:
    """Regenerate Table III on the DMM + calibrated GPU timing model.

    For each transpose algorithm and mapping: run the actual program
    on the cycle-accurate DMM ``trials`` times (once for RAW — it is
    deterministic), verify the transposed data, record read/write
    congestion and total stages, and convert stages to nanoseconds
    with the calibrated model.  ``engine`` distributes the nine
    (algorithm, mapping) combos over workers; results are identical
    for every worker count.  ``w``, ``trials`` and ``latency`` are
    checked before any combo is dispatched.
    """
    check_positive_int(w, "w")
    check_positive_int(trials, "trials")
    check_latency(latency)
    if timing_model is None:
        timing_model = GPUTimingModel.fit_to_paper()
    engine = engine or MonteCarloEngine()
    result = Table3Result(w=w)
    combos = [(a, m) for a in TRANSPOSE_NAMES for m in MAPPING_NAMES]
    items = [(a, m, w, trials, latency) for a, m in combos]
    outcomes = engine.map_seeded(_table3_combo, items, seed)
    for (algorithm, mapping_name), outcome in zip(combos, outcomes):
        reads, writes, stages, all_correct, overhead = outcome
        mean_stages = float(np.mean(stages))
        row = Table3Row(
            algorithm=algorithm,
            mapping=mapping_name,
            read_congestion=float(np.mean(reads)),
            write_congestion=float(np.mean(writes)),
            mean_stages=mean_stages,
            predicted_ns=timing_model.predict_ns(mean_stages, overhead),
            paper_ns=PAPER_TABLE3_NS[(algorithm, mapping_name)],
            all_correct=bool(all_correct),
            read_ci_half=_conservative_half(reads),
            write_ci_half=_conservative_half(writes),
        )
        result.rows[(algorithm, mapping_name)] = row
    return result


def lemma1_table(
    widths: tuple[int, ...] = (4, 8, 16, 32),
    latency: int = 5,
    journal: "SweepJournal | None" = None,
) -> dict[tuple[str, int], tuple[int, int, bool]]:
    """Lemma 1 verified cell by cell: measured vs closed-form times.

    Returns ``(algorithm, w) -> (measured, formula, match)`` where the
    closed forms are ``CRSW = SRCW = (w + l - 1) + (w^2 + l - 1)`` and
    ``DRDW = 2 (w + l - 1)`` on the RAW layout — the executor must
    reproduce them exactly for every width.  ``journal`` checkpoints
    completed cells for ``--resume``.
    """
    out: dict[tuple[str, int], tuple[int, int, bool]] = {}
    for w in widths:
        mapping = mapping_by_name("RAW", w)
        contig = w + latency - 1
        stride = w * w + latency - 1
        formulas = {
            "CRSW": contig + stride,
            "SRCW": stride + contig,
            "DRDW": 2 * contig,
        }
        for algorithm in TRANSPOSE_NAMES:
            key = f"{algorithm}/w={w}"
            recorded = journal.get(key) if journal is not None else None
            if recorded is not None:
                measured, formula, ok = recorded
                out[(algorithm, w)] = (int(measured), int(formula), bool(ok))
                continue
            outcome = run_transpose(algorithm, mapping, latency=latency)
            measured = outcome.time_units
            formula = formulas[algorithm]
            out[(algorithm, w)] = (measured, formula, measured == formula)
            if journal is not None:
                journal.record(
                    key, [int(measured), int(formula), bool(measured == formula)]
                )
    return out


# ---------------------------------------------------------------------------
# Table IV — 4-D schemes
# ---------------------------------------------------------------------------


@dataclass
class Table4Result:
    """Simulated Table IV.

    Attributes
    ----------
    w:
        Array side length.
    stats:
        ``(pattern, scheme) ->`` :class:`CongestionStats`.
    classes:
        The paper's qualitative class for each cell.
    random_numbers:
        Evaluated random-value budget per scheme.
    """

    w: int
    stats: dict[tuple[str, str], CongestionStats] = field(default_factory=dict)
    classes: dict[tuple[str, str], str] = field(default_factory=dict)
    random_numbers: dict[str, int] = field(default_factory=dict)

    def mean(self, pattern: str, scheme: str) -> float:
        """Simulated expected congestion of one cell."""
        return self.stats[(pattern, scheme)].mean


def table4(
    w: int = 32,
    trials: int = 300,
    seed: SeedLike = 2014,
    engine: MonteCarloEngine | None = None,
    journal: "SweepJournal | None" = None,
) -> Table4Result:
    """Regenerate Table IV by Monte-Carlo simulation at width ``w``.

    Also evaluates each scheme's random-number budget from a live
    mapping instance, confirming the table's bottom row.  ``engine``
    shards every cell's trials over workers with bit-identical results
    for any worker count.  ``journal`` checkpoints completed cells for
    ``--resume`` (resumed == fresh, bit for bit).
    """
    engine = engine or MonteCarloEngine()
    result = Table4Result(w=w)
    cells = [
        (pattern, scheme)
        for pattern in ND_PATTERN_NAMES
        for scheme in ND_MAPPING_NAMES
    ]
    seqs = spawn_seed_sequences(seed, len(cells) + len(ND_MAPPING_NAMES))
    for seq, (pattern, scheme) in zip(seqs, cells):
        deterministic = scheme == "RAW" and pattern != "random"
        n = 1 if deterministic else trials
        key = f"{pattern}/{scheme}"
        recorded = journal.get(key) if journal is not None else None
        if recorded is not None:
            stats = CongestionStats.from_payload(recorded)
        else:
            # The fast path covers the permutation-sum schemes and falls
            # back to the per-trial sampler for the table-based ones.
            stats = engine.nd_congestion(scheme, pattern, w, trials=n, seed=seq)
            if journal is not None:
                journal.record(key, stats.to_payload())
        result.stats[(pattern, scheme)] = stats
        result.classes[(pattern, scheme)] = PAPER_TABLE4_CLASSES[(pattern, scheme)]
    for seq, scheme in zip(seqs[len(cells) :], ND_MAPPING_NAMES):
        result.random_numbers[scheme] = nd_mapping_by_name(
            scheme, w, as_generator(seq)
        ).random_numbers_used
    return result


# ---------------------------------------------------------------------------
# Application completion-time sweeps (batched DMM executor)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AppTimingResult:
    """Per-trial DMM completion times of one (app, mapping) cell.

    Attributes
    ----------
    app, mapping:
        Which program ran under which mapping family.
    w, latency:
        DMM geometry of the run.
    time_units:
        Shape ``(trials,)`` int64 — the program's completion time under
        each independent mapping draw.
    """

    app: str
    mapping: str
    w: int
    latency: int
    time_units: np.ndarray

    @property
    def trials(self) -> int:
        """Number of mapping draws."""
        return int(self.time_units.size)

    @property
    def mean_time(self) -> float:
        """Expected completion time over the draws."""
        return float(self.time_units.mean())


@functools.lru_cache(maxsize=1)
def _app_skeleton(app: str, w: int, skeleton_seed: int) -> "SharedMemoryKernel":
    """The app's skeleton, kept for the next shard.

    One entry, rebuilt on a miss and kept per process: the shards of a
    cell (and the cells of one app) reuse the skeleton and its memoized
    static staging, a pool worker rebuilds it on its first shard, and
    none of it enters a shard's payload.
    """
    return build_app_program(app, RAWMapping(w), seed=skeleton_seed)


def _app_time_shard(params: tuple, n: int, rng) -> np.ndarray:
    """One shard of :func:`app_time_sweep` — engine worker body.

    Draws the shard's ``n`` shift matrices with one
    :func:`~repro.core.mappings.sample_shift_batch` call (the exact
    stream the batched staging consumes), then times the app under
    each draw.  The batched path runs the cell's one skeleton, reused
    across shards from a one-entry per-process cache, so its
    draw-independent staging is paid once per process and each shard
    only gathers its own draws (see
    :meth:`~repro.gpu.kernel.SharedMemoryKernel.program_batch`).  It
    keeps only the times, so it runs the executor's time-only path
    (:meth:`~repro.gpu.kernel.SharedMemoryKernel.time_batch`): the
    shard counts congestion and never moves data.  The ``batched``
    flag selects the executor only — both paths consume the same
    stream and return identical per-trial times, which
    ``tests/test_batched_dmm.py`` pins.
    """
    app, mapping_name, w, latency, batched, skeleton_seed = params
    shifts = sample_shift_batch(mapping_name, w, n, rng)
    if batched:
        kernel = _app_skeleton(app, w, skeleton_seed)
        return kernel.time_batch(shifts, latency=latency)
    times = np.empty(n, dtype=np.int64)
    for t in range(n):
        mapping = mapping_from_shifts(mapping_name, shifts[t])
        kernel = build_app_program(app, mapping, seed=skeleton_seed)
        machine = kernel.make_machine(latency=latency)
        times[t] = machine.run(kernel.program()).time_units
    return times


def app_time_sweep(
    apps: tuple[str, ...] = ("fft", "sort", "stencil_row"),
    mappings: tuple[str, ...] = MAPPING_NAMES,
    w: int = 32,
    trials: int = 100,
    seed: SeedLike = 2014,
    latency: int = 1,
    engine: MonteCarloEngine | None = None,
    batched: bool = True,
    skeleton_seed: int = 2014,
    journal: "SweepJournal | None" = None,
    fabric: "FabricSpec | str | None" = None,
) -> dict[tuple[str, str], AppTimingResult]:
    """Per-trial app completion times over mapping redraws.

    For each (app, mapping) cell, draws ``trials`` independent shift
    matrices and measures the program's cycle-accurate DMM completion
    time under each draw, using the batched executor's time-only path
    (:meth:`~repro.gpu.kernel.SharedMemoryKernel.time_batch`, exactly
    ``run_batch(...).time_units``) by default.  ``engine`` shards the
    trials with the fixed plan of
    :class:`~repro.sim.engine.MonteCarloEngine`, so for a fixed seed
    the result is bit-identical for every worker count — and identical
    between the batched and scalar executors (``batched=False`` exists
    for benchmarking and cross-validation).  ``skeleton_seed`` fixes
    the app's input data; the program *skeleton* (grids and masks) is
    mapping-independent, which is what makes batching across draws
    possible.  ``fabric`` selects the distributed sweep fabric for the
    default engine (ignored when ``engine`` is supplied).

    Bad arguments raise the ``ValueError`` (or ``TypeError``) a shard
    would, here rather than as retried shard faults: the width, trial
    count, latency, app names and mapping names before any shard is
    dispatched, and an app that cannot be built at ``w`` when its
    skeleton is built, before its first cell's shards.
    """
    check_positive_int(w, "w")
    check_positive_int(trials, "trials")
    check_latency(latency)
    for app in apps:
        app_factory(app)
    for mapping in mappings:
        sample_shift_batch(mapping, w, 1, 0)
    engine = engine or MonteCarloEngine(fabric=fabric)
    cells = [(app, mapping) for app in apps for mapping in mappings]
    seqs = spawn_seed_sequences(seed, len(cells))
    out: dict[tuple[str, str], AppTimingResult] = {}
    for seq, (app, mapping) in zip(seqs, cells):
        key = f"{app}/{mapping}"
        recorded = journal.get(key) if journal is not None else None
        if recorded is not None:
            time_units = np.asarray(recorded, dtype=np.int64)
        else:
            # The skeleton the cell's shards reuse in-process; an app's
            # width error surfaces here.
            _app_skeleton(app, w, skeleton_seed)
            params = (app, mapping, w, latency, batched, skeleton_seed)
            chunks = engine.map_trial_batches(_app_time_shard, params, trials, seq)
            time_units = np.concatenate(chunks)
            if journal is not None:
                journal.record(key, [int(t) for t in time_units])
        out[(app, mapping)] = AppTimingResult(
            app=app,
            mapping=mapping,
            w=w,
            latency=latency,
            time_units=time_units,
        )
    return out


# ---------------------------------------------------------------------------
# adversarial rows — found-worst patterns as new Table II material
# ---------------------------------------------------------------------------


def adversary_table(
    mappings: tuple[str, ...] = MAPPING_NAMES,
    widths: tuple[int, ...] = (32, 64, 128, 256, 512, 1024),
    seed: SeedLike = 2014,
    budget=None,
    engine: MonteCarloEngine | None = None,
    journal: "SweepJournal | None" = None,
):
    """Found-worst congestion per (mapping, width) — Theorem 2's tail.

    Where :func:`table2` measures the paper's *named* patterns, this
    runs :func:`repro.adversary.find_worst_pattern` per cell and
    reports what a search-equipped adversary actually achieves: ``w``
    against RAW (the stride attack), and an
    ``O(log w / log log w)``-class value against RAP no matter how
    hard it looks — the empirical content of Theorem 2.

    Each cell's restarts run as shards of ``engine`` (an in-process one
    when omitted); the result is the same for every worker count.
    ``journal`` checkpoints each completed cell (the full
    :class:`~repro.adversary.AdversaryResult` record, pattern and
    provenance included); resumed == fresh, bit for bit, because the
    per-cell seed plan is laid out before any cell runs.  Returns an
    :class:`~repro.adversary.AdversarySweep`.
    """
    from repro.adversary.search import (
        AdversaryResult,
        AdversarySweep,
        _coerce_budget,
        find_worst_pattern,
    )
    from repro.util.rng import as_seed_sequence

    budget = _coerce_budget(budget)
    engine = engine or MonteCarloEngine()
    sweep = AdversarySweep(widths=tuple(widths), mappings=tuple(mappings))
    seqs = as_seed_sequence(seed).spawn(len(mappings) * len(widths))
    k = 0
    for mapping in sweep.mappings:
        for w in widths:
            key = f"found-worst/{mapping}/w={w}"
            recorded = journal.get(key) if journal is not None else None
            if recorded is not None:
                sweep.results[(mapping, w)] = AdversaryResult.from_dict(recorded)
            else:
                result = find_worst_pattern(
                    mapping, w, seed=seqs[k], budget=budget, engine=engine
                )
                sweep.results[(mapping, w)] = result
                if journal is not None:
                    journal.record(key, result.to_dict())
            k += 1
    return sweep
