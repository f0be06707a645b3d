"""The benchmark's workloads: which commands run, and the work they imply.

Each workload is a fixed list of commands through the entry points a
reader uses (``repro.cli.main`` and
``repro.sim.experiments.app_time_sweep``).  Sizes are constants here,
so the amount of work -- mapping draws and congestion-kernel rows -- is
a function of the workload alone and can be derived without running
anything.  Only the seed varies between runs.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Table II at the paper's widths, all four patterns.  1000 trials (the
#: CLI default) takes about a minute single-worker; 50 keeps one
#: repetition near 3 s.  ``size_cut.json`` records both sizes.
TABLE2_TRIALS = 50
TABLE2_WIDTHS = (16, 32, 64, 128, 256)
TABLE2_PATTERNS = ("contiguous", "stride", "diagonal", "random")
MAPPINGS = ("RAW", "RAS", "RAP")

#: ``repro table3`` passes ``--trials // 10`` to Table III; the CLI
#: default of 1000 gives Table III's own default of 100.
TABLE3_TRIALS = 100
TRANSPOSES = 3
#: ``app_time_sweep()`` defaults: fft, sort, stencil_row x RAW/RAS/RAP.
APP_CELLS = 3 * len(MAPPINGS)
APP_TRIALS = 100

#: ``sweep-all`` cut so shards stay small.
SWEEP_TRIALS = 50
SWEEP_WIDTHS = (16, 32, 64)
TABLE4_PATTERNS = 6
TABLE4_SCHEMES = 7
LEMMA1_CELLS = TRANSPOSES * 4


def table2_cells(widths: tuple[int, ...]) -> list[tuple[int, bool]]:
    """``(w, deterministic)`` per Table II cell, as ``table2`` plans them.

    RAW under a non-random pattern is deterministic and runs one trial.
    """
    return [
        (w, mapping == "RAW" and pattern != "random")
        for pattern in TABLE2_PATTERNS
        for mapping in MAPPINGS
        for w in widths
    ]


def table2_draws(trials: int, widths: tuple[int, ...]) -> int:
    return sum(1 if det else trials for _, det in table2_cells(widths))


def table2_rows(trials: int, widths: tuple[int, ...]) -> int:
    """Congestion-kernel rows of one ``table2`` run: ``draws x w`` per cell."""
    return sum((1 if det else trials) * w for w, det in table2_cells(widths))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``commands`` lists ``(kind, argv)`` pairs.  ``kind`` is ``"cli"``
    for ``repro.cli.main(argv)`` or ``"app_time_sweep"`` for
    ``app_time_sweep(seed=...)`` at its defaults.  ``{seed}`` and
    ``{journal}`` in an argv are filled in per repetition.
    """

    name: str
    commands: tuple[tuple[str, tuple[str, ...]], ...]
    draws: int
    #: Congestion-kernel rows derived from the workload definition, or
    #: ``None`` where only the recorded reference count is checked.
    derived_rows: int | None = None


def table2_paper(trials: int = TABLE2_TRIALS) -> Workload:
    widths = tuple(str(w) for w in TABLE2_WIDTHS)
    return Workload(
        name="table2-paper",
        commands=(
            ("cli", ("table2", "--trials", str(trials), "--widths", *widths,
                     "--seed", "{seed}", "--workers", "1")),
        ),
        draws=table2_draws(trials, TABLE2_WIDTHS),
        derived_rows=table2_rows(trials, TABLE2_WIDTHS),
    )


def dmm_apps() -> Workload:
    table3_draws = TRANSPOSES * (1 + 2 * TABLE3_TRIALS)  # RAW runs once
    return Workload(
        name="dmm-apps",
        commands=(
            ("cli", ("table3", "--trials", str(10 * TABLE3_TRIALS),
                     "--seed", "{seed}", "--workers", "1")),
            ("app_time_sweep", ()),
        ),
        draws=table3_draws + APP_CELLS * APP_TRIALS,
    )


def sweep_fabric() -> Workload:
    widths = tuple(str(w) for w in SWEEP_WIDTHS)
    table4_trials = max(1, SWEEP_TRIALS // 5)
    # RAW is deterministic under every pattern but "random".
    table4_draws = (TABLE4_PATTERNS - 1) + (
        TABLE4_PATTERNS * TABLE4_SCHEMES - (TABLE4_PATTERNS - 1)
    ) * table4_trials
    growth_draws = 2 * len(SWEEP_WIDTHS) * max(50, SWEEP_TRIALS // 4)
    return Workload(
        name="sweep-fabric",
        commands=(
            ("cli", ("sweep-all", "--fresh", "--fabric", "workers=2",
                     "--trials", str(SWEEP_TRIALS), "--widths", *widths,
                     "--seed", "{seed}", "--journal", "{journal}")),
        ),
        draws=(
            table2_draws(SWEEP_TRIALS, SWEEP_WIDTHS)
            + table4_draws
            + growth_draws
            + LEMMA1_CELLS
        ),
    )


WORKLOADS = {
    w.name: w for w in (table2_paper(), dmm_apps(), sweep_fabric())
}


def get(name: str, trials: int | None = None) -> Workload:
    """The named workload; ``trials`` resizes ``table2-paper`` only."""
    if trials is not None:
        if name != "table2-paper":
            raise ValueError("--trials applies to table2-paper only")
        return table2_paper(trials)
    return WORKLOADS[name]
