"""Structured parameter sweeps — growth curves and latency trade-offs.

The tables fix ``w`` per column; these sweeps turn the same machinery
into *series*: congestion as a function of width (the Theorem 2 growth
claim rendered as a curve) and kernel time as a function of pipeline
latency (where the conflict-free schedules earn or lose their keep).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.fabric.supervisor import FabricSpec
    from repro.resilience.journal import SweepJournal

from repro.access.transpose import run_transpose
from repro.core.mappings import mapping_by_name
from repro.core.theory import log_over_loglog, theorem2_expectation_bound
from repro.sim.engine import MonteCarloEngine
from repro.util.rng import SeedLike, spawn_generators, spawn_seed_sequences

__all__ = [
    "GrowthSweep",
    "growth_sweep",
    "LatencySweep",
    "latency_sweep",
]


@dataclass
class GrowthSweep:
    """Congestion-vs-width series for one pattern.

    Attributes
    ----------
    pattern:
        The access pattern swept.
    widths:
        The x axis.
    series:
        mapping name -> measured expected congestion per width; plus
        the analytic ``"bound"`` (Theorem 2) and ``"lnw/lnlnw"``
        (growth rate) reference series.
    """

    pattern: str
    widths: tuple[int, ...]
    series: dict[str, list[float]] = field(default_factory=dict)

    def render(self) -> str:
        """ASCII line chart of the measured series (bound excluded —
        it dwarfs the measurements)."""
        from repro.report.ascii_plot import line_chart

        shown = {
            k: v
            for k, v in self.series.items()
            if k not in ("bound",)
        }
        return line_chart(
            list(self.widths),
            shown,
            title=f"expected congestion vs width - {self.pattern} access",
        )


def growth_sweep(
    pattern: str = "diagonal",
    widths: tuple[int, ...] = (16, 32, 64, 128, 256),
    mappings: tuple[str, ...] = ("RAS", "RAP"),
    trials: int = 500,
    seed: SeedLike = 2014,
    engine: MonteCarloEngine | None = None,
    journal: "SweepJournal | None" = None,
    fabric: "FabricSpec | str | None" = None,
) -> GrowthSweep:
    """Measure expected congestion across widths for the given mappings.

    The diagonal pattern (default) is RAP's worst case, so this sweep
    is the empirical Theorem 2 curve; every measured point must sit
    below the ``bound`` series (asserted in ``bench_theory``-adjacent
    tests).  ``engine`` parallelizes/caches each point's trials.

    When ``journal`` is given, each completed ``(mapping, width)`` cell
    is recorded; cells already present replay from the journal instead
    of recomputing, so a resumed sweep is bit-identical to a fresh one.

    ``fabric`` (a :class:`~repro.fabric.FabricSpec` or spec string)
    runs each point's shards on the distributed sweep fabric instead
    of one process pool — same shard plan, bit-identical results.
    Ignored when an ``engine`` is supplied (the engine's own fabric
    setting wins).
    """
    engine = engine or MonteCarloEngine(fabric=fabric)
    sweep = GrowthSweep(pattern=pattern, widths=tuple(widths))
    seqs = spawn_seed_sequences(seed, len(mappings) * len(widths))
    k = 0
    for mapping in mappings:
        values = []
        for w in widths:
            key = f"{mapping}/w={w}"
            recorded = journal.get(key) if journal is not None else None
            if recorded is not None:
                values.append(float(recorded))
            else:
                stats = engine.matrix_congestion(
                    mapping, pattern, w, trials=trials, seed=seqs[k]
                )
                values.append(stats.mean)
                if journal is not None:
                    journal.record(key, stats.mean)
            k += 1
        sweep.series[mapping] = values
    sweep.series["lnw/lnlnw"] = [log_over_loglog(w) for w in widths]
    sweep.series["bound"] = [theorem2_expectation_bound(w) for w in widths]
    return sweep


@dataclass
class LatencySweep:
    """Transpose time vs pipeline latency for several mappings.

    Attributes
    ----------
    algorithm:
        The transpose swept.
    latencies:
        The x axis.
    series:
        mapping name -> DMM time units per latency.
    """

    algorithm: str
    latencies: tuple[int, ...]
    series: dict[str, list[int]] = field(default_factory=dict)

    def crossover(self, slow: str, fast: str) -> int | None:
        """First latency at which ``fast`` strictly beats ``slow``
        (None if it never does within the sweep)."""
        for latency, a, b in zip(
            self.latencies, self.series[slow], self.series[fast]
        ):
            if b < a:
                return latency
        return None


def latency_sweep(
    algorithm: str = "CRSW",
    latencies: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64),
    mappings: tuple[str, ...] = ("RAW", "RAS", "RAP"),
    w: int = 32,
    seed: SeedLike = 2014,
) -> LatencySweep:
    """Exact DMM transpose time across pipeline depths.

    Stage counts are latency-independent, so the sweep isolates the
    ``2(l - 1)`` phase-boundary term; the mapping ranking is preserved
    at every depth (RAW's extra stages dominate ``l`` quickly).
    """
    sweep = LatencySweep(algorithm=algorithm, latencies=tuple(latencies))
    rngs = spawn_generators(seed, len(mappings))
    for mapping_name, rng in zip(mappings, rngs):
        mapping = mapping_by_name(mapping_name, w, rng)
        times = []
        for latency in latencies:
            outcome = run_transpose(algorithm, mapping, latency=latency, seed=rng)
            times.append(outcome.time_units)
        sweep.series[mapping_name] = times
    return sweep
