"""Command-line experiment runner: ``python -m repro <experiment>``.

Experiments:

* ``table1`` .. ``table4`` — regenerate the paper's tables (printed
  with our measurements next to the paper's numbers).
* ``fig1`` .. ``fig7`` — regenerate the figures' content.
* ``all`` — everything, in order.

Static-analysis subcommands (dispatched to
:mod:`repro.analysis.cli`):

* ``prove`` — symbolic worst-case congestion proofs
  (``python -m repro prove --pattern stride --mapping rap --w 32``).
* ``lint`` — the determinism/hygiene linter
  (``python -m repro lint --fail-on-warn``).
* ``analyze`` — kernel congestion profile with a CI regression gate
  (``python -m repro analyze --kernel crsw --json --max-worst 1``).
* ``certify`` — program-level sanitizer + congestion certificates for
  every builtin app (``python -m repro certify --mapping RAP``).
* ``plan`` — compile app skeletons into static execution plans with
  per-step resolution verdicts, coverage stats, and the dataflow IR
  (``python -m repro plan --app shearsort --mapping RAP --json``).

Performance subcommand:

* ``bench-dmm`` — DMM executor throughput on the builtin apps: a
  baseline executor against candidates, verified identical before
  timing (``python -m repro bench-dmm --trials 100 --json out.json``).
  The default compares scalar with batched, ``--plan`` batched with
  the plan-compiled executor, ``--plan --backend numba`` the numpy plan
  path with the numba backend, and ``--plan --compare-backends`` the
  numpy plan path with every other registered backend.

Adversarial subcommand:

* ``adversary`` — search for worst-case access patterns per mapping
  and width, with a RAW-vs-RAP separation gate
  (``python -m repro adversary --w 32 --budget tiny``).

Maintenance subcommands:

* ``cache`` — audit the on-disk result cache
  (``python -m repro cache verify|stats|clear``).  ``verify``
  quarantines invalid entries and exits non-zero when any were found;
  ``clear --quarantine`` prunes aged-out quarantined entries only.
* ``journal`` — inspect a sweep journal offline
  (``python -m repro journal verify|stats|tail PATH``).  ``verify``
  checks the header and every per-line checksum, exit 1 on corruption.

Sweep orchestration:

* ``sweep-all`` — every journal-aware sweep (table2, table4, growth,
  lemma1) back to back with checkpoint journals always on; rerunning
  resumes byte-identically (``python -m repro sweep-all --fabric
  workers=4``).

Options let the user trade runtime for precision (``--trials``), pin
reproducibility (``--seed``), distribute Monte-Carlo trials over
worker processes (``--workers``) or the lease-based sweep fabric
(``--fabric workers=N``), and control the on-disk result cache
(``--no-cache``; ``--stats`` prints the engine's throughput, cache
counters, and per-worker accounting).  For a fixed seed the printed
numbers are bit-identical for every worker count, fabric spec, and
cache state.

Checkpoint/resume: ``--journal [PATH]`` makes the journal-aware
experiments (``table2``, ``table4``, ``growth``, ``lemma1``) record
every completed cell to an append-only journal; ``--resume`` replays
the recorded cells of an interrupted run and recomputes only the
rest.  Because the seed plan is fixed up front, a resumed run prints
output byte-identical to an uninterrupted fresh run.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.report.tables import (
    render_table1,
    render_table2,
    render_table3,
    render_table4,
)
from repro.sim.experiments import table1, table2, table3, table4
from repro.util.heap import retain_heap
from repro.util.validation import int_at_least

__all__ = ["main", "build_parser", "run_experiment", "ANALYSIS_COMMANDS"]

#: first positional arguments routed to the analysis CLI instead of
#: the experiment runner.
ANALYSIS_COMMANDS = ("prove", "lint", "analyze", "certify", "plan")

#: the keys of :data:`repro.report.figures.ALL_FIGURES`, in order; named
#: here so building the parser does not import the figure code.
FIGURE_NAMES = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7")


#: argparse types: ``--workers`` (0 = all cores), ``--trials``, the widths and ``--seed``.
_workers_arg = int_at_least(0, " (0 = all cores)")
_trials_arg = int_at_least(1)
_width_arg = int_at_least(1)
_seed_arg = int_at_least(0)


def _fabric_arg(value: str) -> "FabricSpec":
    """argparse type for ``--fabric``: a spec :func:`parse_fabric_spec` accepts."""
    from repro.fabric.supervisor import parse_fabric_spec
    from repro.fabric.workers import WORKER_BACKENDS

    try:
        return parse_fabric_spec(value)
    except ValueError as exc:
        message, backends = str(exc), ", ".join(sorted(WORKER_BACKENDS))
        if backends not in message:
            message += f" (backends: {backends})"
        raise argparse.ArgumentTypeError(message) from None


def _engine_from_args(args) -> "MonteCarloEngine":
    """The run's shared engine, built once from the CLI flags.

    Cached on the namespace so every experiment of an ``all`` run (and
    the final ``--stats`` summary) shares one set of workers, one cache
    handle, and one collector.
    """
    engine = getattr(args, "_engine", None)
    if engine is None:
        from repro.sim.cache import ResultCache
        from repro.sim.engine import MonteCarloEngine

        cache = None if getattr(args, "no_cache", False) else ResultCache()
        faults = None
        chaos = getattr(args, "chaos", None)
        if chaos is not None:
            from repro.resilience.faults import builtin_worker_fault_plan

            faults = builtin_worker_fault_plan(chaos)
        engine = MonteCarloEngine(
            workers=getattr(args, "workers", 1),
            cache=cache,
            faults=faults,
            fabric=getattr(args, "fabric", None),
        )
        args._engine = engine
    return engine


def _journal_for(args, experiment: str, **params) -> "SweepJournal | None":
    """A :class:`SweepJournal` for ``experiment``, or None if not requested.

    The header binds the journal to this run's full identity —
    experiment name, sweep parameters, seed fingerprint, and the code
    fingerprint of the simulation sources — so ``--resume`` refuses
    journals written by a different run or different code.
    """
    if getattr(args, "journal", None) is None and not getattr(args, "resume", False):
        return None
    from pathlib import Path

    from repro.resilience.journal import SweepJournal
    from repro.sim.cache import code_fingerprint, default_cache_dir
    from repro.util.rng import seed_fingerprint

    if args.journal is not None:
        path = Path(args.journal)
        if args.experiment == "all":
            # One file per journal-aware experiment, derived from the
            # given path, so an `all` run never mixes run identities.
            path = path.parent / f"{path.stem}-{experiment}{path.suffix or '.jsonl'}"
    else:
        path = default_cache_dir() / "journals" / f"{experiment}.jsonl"
    header = {
        "experiment": experiment,
        "params": params,
        "seed": seed_fingerprint(args.seed),
        "code": code_fingerprint(),
    }
    return SweepJournal(path, header, resume=args.resume)

def _run_exact(args) -> str:
    """Extension: exact balls-in-bins values behind Table II."""
    from repro.core.exact import exact_expected_max_load
    from repro.report.tables import format_grid

    widths = tuple(args.widths)
    rows = [
        [str(w), f"{exact_expected_max_load(w, w):.4f}"]
        for w in widths
    ]
    return format_grid(
        ["w", "exact E[max load] (= stride-RAS)"],
        rows,
        title="Exact balls-in-bins expectation (analytic Table II reference)",
    )


def _run_offline(args) -> str:
    """Extension: offline permutation comparison."""
    from repro.core.mappings import RAPMapping
    from repro.report.tables import format_grid
    from repro.routing.offline import (
        hostile_permutation,
        random_data_permutation,
        run_offline_permutation,
    )

    w = 16
    rows = []
    for label, perm in (
        ("hostile", hostile_permutation(w)),
        ("random", random_data_permutation(w, seed=args.seed)),
    ):
        raw = run_offline_permutation(perm, "naive", w=w, seed=args.seed)
        rap = run_offline_permutation(
            perm, "naive", mapping=RAPMapping.random(w, args.seed), seed=args.seed
        )
        sched = run_offline_permutation(perm, "scheduled", w=w, seed=args.seed)
        for algo, o in (("naive/RAW", raw), ("naive/RAP", rap), ("scheduled", sched)):
            rows.append(
                [label, algo, str(o.max_congestion), str(o.total_stages),
                 "yes" if o.correct else "NO"]
            )
    return format_grid(
        ["permutation", "algorithm", "max congestion", "stages", "correct"],
        rows,
        title=f"Offline permutation on the DMM (w={w})",
    )


def _run_matmul(args) -> str:
    """Extension: tiled matmul under the four layouts."""
    from repro.core.mappings import mapping_by_name
    from repro.core.padded import PaddedMapping
    from repro.gpu.matmul import run_matmul
    from repro.report.tables import format_grid

    w = 16
    rows = []
    for variant in ("AB", "ABt"):
        for name in ("RAW", "RAS", "RAP", "PAD"):
            mapping = (
                PaddedMapping(w) if name == "PAD" else mapping_by_name(name, w, args.seed)
            )
            o = run_matmul(variant, mapping, seed=args.seed)
            rows.append(
                [variant, name, str(o.max_read_congestion), str(o.total_stages),
                 "yes" if o.correct else "NO"]
            )
    return format_grid(
        ["variant", "layout", "worst read congestion", "stages", "correct"],
        rows,
        title=f"Tiled matrix multiplication (w={w})",
    )


def _run_report(args) -> str:
    """One self-contained Markdown reproduction report.

    Regenerates Tables I-IV (at reduced trial counts unless --trials
    raises them), the figure contents, and the extension scorecards,
    assembled as a single document: ``python -m repro report > REPORT.md``.
    """
    from repro.report.figures import ALL_FIGURES
    from repro.sim.registry import EXPERIMENT_INDEX

    engine = _engine_from_args(args)
    sections = [
        "# RAP reproduction report",
        "",
        "Regenerated by `python -m repro report` "
        f"(trials={args.trials}, seed={args.seed}).",
        "",
        render_table1(table1(), style="md"),
        "",
        render_table2(
            table2(
                trials=args.trials, seed=args.seed, widths=tuple(args.widths),
                engine=engine,
            ),
            style="md",
        ),
        "",
        render_table3(
            table3(trials=max(1, args.trials // 10), seed=args.seed, engine=engine),
            style="md",
        ),
        "",
        render_table4(
            table4(
                w=args.w4, trials=max(1, args.trials // 5), seed=args.seed,
                engine=engine,
            ),
            style="md",
        ),
        "",
        "## Figures",
        "",
    ]
    for name in sorted(ALL_FIGURES):
        sections.append(f"### {name}")
        sections.append("")
        sections.append("```")
        sections.append(ALL_FIGURES[name]().text)
        sections.append("```")
        sections.append("")
    sections.append("## Experiment index")
    sections.append("")
    sections.append("| id | source | paper ref | bench |")
    sections.append("|---|---|---|---|")
    for exp in EXPERIMENT_INDEX:
        sections.append(
            f"| {exp.id} | {exp.source} | {exp.paper_ref} | {exp.bench} |"
        )
    return "\n".join(sections)


def _run_lemma1(args) -> str:
    """Lemma 1's closed forms vs the executor, cell by cell."""
    from repro.report.tables import format_grid
    from repro.sim.experiments import lemma1_table

    cells = lemma1_table(
        journal=_journal_for(args, "lemma1", widths=[4, 8, 16, 32], latency=5),
    )
    rows = [
        [algo, str(w), str(measured), str(formula), "yes" if ok else "NO"]
        for (algo, w), (measured, formula, ok) in sorted(cells.items())
    ]
    return format_grid(
        ["algorithm", "w", "measured", "formula", "match"],
        rows,
        title="Lemma 1 - transpose time units on the DMM (l=5, RAW layout)",
    )


def _run_table2x(args) -> str:
    """Extension: Table II with the PAD and XOR baselines appended."""
    from repro.report.tables import format_grid
    from repro.sim.experiments import table2_extended

    w = 32
    cells = table2_extended(
        w=w, trials=max(200, args.trials), seed=args.seed,
        engine=_engine_from_args(args),
    )
    layouts = ("RAW", "RAS", "RAP", "PAD", "XOR")
    rows = []
    for pattern in ("contiguous", "stride", "diagonal", "random"):
        row = [pattern.capitalize()]
        for layout in layouts:
            v = cells[(pattern, layout)]
            row.append(str(int(v)) if float(v).is_integer() else f"{v:.2f}")
        rows.append(row)
    return format_grid(
        ["Pattern"] + list(layouts),
        rows,
        title=f"Table II extended with PAD and XOR (w={w})",
    )


def _run_growth(args) -> str:
    """Extension: the Theorem 2 growth curve as an ASCII chart."""
    from repro.sim.sweep import growth_sweep

    widths = tuple(wd for wd in args.widths if wd >= 3)
    trials = max(50, args.trials // 4)
    sweep = growth_sweep(
        widths=widths, trials=trials, seed=args.seed,
        engine=_engine_from_args(args),
        journal=_journal_for(
            args, "growth", trials=trials, widths=list(widths)
        ),
    )
    lines = [sweep.render(), ""]
    lines.append("width: measured RAP vs Theorem 2 bound")
    for i, w in enumerate(sweep.widths):
        lines.append(
            f"  w={w:<4d} RAP={sweep.series['RAP'][i]:.2f}  "
            f"bound={sweep.series['bound'][i]:.2f}"
        )
    return "\n".join(lines)


def _run_occupancy(args) -> str:
    """Extension: shared-memory capacity across layouts."""
    from repro.core.mappings import RAPMapping, RASMapping, RAWMapping
    from repro.core.padded import PaddedMapping
    from repro.core.swizzle import XORSwizzleMapping
    from repro.gpu.occupancy import occupancy_report

    w = 32
    return occupancy_report(
        [
            RAWMapping(w),
            RASMapping.random(w, args.seed),
            RAPMapping.random(w, args.seed),
            PaddedMapping(w),
            XORSwizzleMapping(w),
        ]
    )


def _run_apps(args) -> str:
    """Extension: FFT / scan / stencil scorecard."""
    from repro.apps.fft import run_fft
    from repro.apps.scan import run_scan
    from repro.apps.stencil import run_stencil
    from repro.core.mappings import RAPMapping, RAWMapping
    from repro.report.tables import format_grid

    w = 8
    raw, rap = RAWMapping(w), RAPMapping.random(w, args.seed)
    raw16, rap16 = RAWMapping(16), RAPMapping.random(16, args.seed)
    rows = []
    for name, raw_o, rap_o in (
        ("FFT (64-pt)", run_fft(raw, seed=args.seed), run_fft(rap, seed=args.seed)),
        ("scan (64)", run_scan(raw, seed=args.seed), run_scan(rap, seed=args.seed)),
        (
            "stencil/col",
            run_stencil(raw16, "column", seed=args.seed),
            run_stencil(rap16, "column", seed=args.seed),
        ),
    ):
        assert raw_o.correct and rap_o.correct
        rows.append(
            [
                name,
                str(raw_o.time_units),
                str(rap_o.time_units),
                f"{raw_o.time_units / rap_o.time_units:.1f}x",
            ]
        )
    return format_grid(
        ["workload", "RAW time", "RAP time", "speedup"],
        rows,
        title="Application workloads on the DMM (all verified)",
    )


_TABLE_RUNNERS = {
    "table1": lambda args: render_table1(table1(), style=args.format),
    "table2": lambda args: render_table2(
        table2(
            trials=args.trials,
            seed=args.seed,
            widths=tuple(args.widths),
            engine=_engine_from_args(args),
            journal=_journal_for(
                args, "table2", trials=args.trials, widths=list(args.widths)
            ),
        ),
        style=args.format,
    ),
    "table3": lambda args: render_table3(
        table3(
            trials=max(1, args.trials // 10),
            seed=args.seed,
            engine=_engine_from_args(args),
        ),
        style=args.format,
    ),
    "table4": lambda args: render_table4(
        table4(
            w=args.w4,
            trials=max(1, args.trials // 5),
            seed=args.seed,
            engine=_engine_from_args(args),
            journal=_journal_for(
                args, "table4", trials=max(1, args.trials // 5), w=args.w4
            ),
        ),
        style=args.format,
    ),
    "exact": _run_exact,
    "offline": _run_offline,
    "matmul": _run_matmul,
    "table2x": _run_table2x,
    "lemma1": _run_lemma1,
    "report": _run_report,
    "growth": _run_growth,
    "occupancy": _run_occupancy,
    "apps": _run_apps,
}

EXPERIMENT_NAMES = tuple(_TABLE_RUNNERS) + FIGURE_NAMES + ("all",)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="rap-repro",
        description=(
            "Regenerate the tables and figures of 'Random Address "
            "Permute-Shift Technique for the Shared Memory on GPUs' (ICPP 2014)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=EXPERIMENT_NAMES,
        help="which table/figure to regenerate ('all' for everything)",
    )
    parser.add_argument(
        "--trials",
        type=_trials_arg,
        default=1000,
        help="Monte-Carlo trials for randomized cells (default 1000)",
    )
    parser.add_argument(
        "--seed", type=_seed_arg, default=2014, help="RNG seed (default 2014)"
    )
    parser.add_argument(
        "--widths",
        type=_width_arg,
        nargs="+",
        default=[16, 32, 64, 128, 256],
        help="DMM widths for table2 (default: the paper's 16..256)",
    )
    parser.add_argument(
        "--format",
        choices=("ascii", "md"),
        default="ascii",
        help="table output style: terminal grid or Markdown (tables 1-4)",
    )
    parser.add_argument(
        "--w4",
        type=_width_arg,
        default=32,
        help="array side for table4 (default 32, the paper's width)",
    )
    parser.add_argument(
        "--workers",
        type=_workers_arg,
        default=1,
        help=(
            "worker processes for Monte-Carlo trials (default 1 = serial; "
            "0 = all cores).  Results are bit-identical for every value."
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help=(
            "disable the on-disk result cache (default: cache under "
            "$REPRO_CACHE_DIR or the system temp directory)"
        ),
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print engine run statistics (shard timings, trials/sec, "
        "cache hits) after the experiment output",
    )
    parser.add_argument(
        "--fabric",
        metavar="SPEC",
        type=_fabric_arg,
        default=None,
        help=(
            "run Monte-Carlo shards on the distributed sweep fabric: "
            "N lease-based work-stealing workers with failure detection "
            "(e.g. 'workers=4' or 'workers=4,backend=pool'; backends: "
            "inproc, pool).  Results are bit-identical to --workers "
            "execution."
        ),
    )
    parser.add_argument(
        "--chaos",
        metavar="PLAN",
        default=None,
        help=(
            "inject a builtin worker-fault schedule (kill-worker, "
            "kill-two-workers, worker-blackout, slow-worker, "
            "corrupt-result, kill-coordinator) into the shard "
            "supervisor, under --workers or --fabric (a fault aimed at "
            "worker k fires only with more than k workers) — the CI chaos "
            "gate: output must stay byte-identical to a fault-free run"
        ),
    )
    parser.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help=(
            "record each completed sweep cell to an append-only journal "
            "at PATH (journal-aware experiments: table2, table4, growth, "
            "lemma1).  Without --resume an existing journal is truncated."
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume an interrupted journaled run: replay every recorded "
            "cell and recompute only the rest (byte-identical output to "
            "a fresh run).  Without --journal the default path under the "
            "cache directory is used."
        ),
    )
    return parser


def _cache_main(argv: Sequence[str]) -> int:
    """``python -m repro cache verify|stats|clear``."""
    parser = argparse.ArgumentParser(
        prog="rap-repro cache",
        description=(
            "Audit or maintain the on-disk result cache.  'verify' "
            "checks every entry's integrity checksum, quarantines "
            "invalid ones, and exits non-zero when any were found; "
            "'stats' prints a directory snapshot; 'clear' deletes all "
            "entries plus orphaned .tmp staging files ('clear "
            "--quarantine' instead prunes only quarantined entries "
            "older than the 1h grace period)."
        ),
    )
    parser.add_argument("action", choices=("verify", "stats", "clear"))
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default: $REPRO_CACHE_DIR or the "
        "system temp directory)",
    )
    parser.add_argument(
        "--no-quarantine",
        action="store_true",
        help="verify only: report invalid entries without moving them "
        "to quarantine/",
    )
    parser.add_argument(
        "--quarantine",
        action="store_true",
        help="clear only: prune aged-out quarantined entries (past the "
        "same 1h grace used for .tmp orphans) and leave live cache "
        "entries alone",
    )
    args = parser.parse_args(list(argv))
    from repro.sim.cache import ResultCache

    try:
        cache = ResultCache(root=args.cache_dir)
    except NotADirectoryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.action == "stats":
        for field, value in cache.stats().items():
            print(f"{field}: {value}")
        return 0
    if args.action == "clear":
        if args.quarantine:
            removed = cache.prune_quarantine()
            print(
                f"pruned {removed} aged-out quarantined entr"
                f"{'y' if removed == 1 else 'ies'} from {cache.quarantine_dir}"
            )
            return 0
        removed = cache.clear()
        print(f"removed {removed} file(s) from {cache.root}")
        return 0
    report = cache.verify(quarantine=not args.no_quarantine)
    print(f"checked {report.checked} entries under {cache.root}: {report.ok} ok")
    if report.tmp_orphans:
        print(f"{report.tmp_orphans} orphaned .tmp staging file(s) "
              "(swept by 'cache clear')")
    if report.corrupt:
        verb = "quarantined" if report.quarantined else "found"
        print(f"{verb} {len(report.corrupt)} invalid entries:")
        for name in report.corrupt:
            print(f"  {name}")
        return 1
    print("cache is clean")
    return 0


def _journal_main(argv: Sequence[str]) -> int:
    """``python -m repro journal verify|stats|tail PATH``."""
    parser = argparse.ArgumentParser(
        prog="rap-repro journal",
        description=(
            "Inspect a sweep journal offline.  'verify' checks the "
            "header line and every record's checksum, exiting non-zero "
            "on corruption (a bad journal otherwise only surfaces "
            "mid---resume); 'stats' summarizes the file; 'tail' prints "
            "the most recent records."
        ),
    )
    parser.add_argument("action", choices=("verify", "stats", "tail"))
    parser.add_argument("path", help="journal file (JSONL)")
    parser.add_argument(
        "--count",
        type=int,
        default=10,
        help="tail: how many records to show (default 10)",
    )
    args = parser.parse_args(list(argv))
    import json

    from repro.resilience.journal import verify_journal

    report = verify_journal(args.path)

    if args.action == "verify":
        if report.header is not None:
            print(f"header: {json.dumps(report.header, sort_keys=True)}")
        print(
            f"checked {report.path}: {len(report.records)} valid record(s), "
            f"{len(report.bad_lines)} bad line(s)"
        )
        for line_no, reason in report.bad_lines:
            print(f"  line {line_no}: {reason}")
        if report.ok:
            print("journal is clean")
            return 0
        if report.torn_tail_only:
            print(
                "note: the only damage is a torn final line (the crash "
                "signature --resume tolerates: that cell is recomputed)"
            )
        return 1

    if args.action == "stats":
        if report.header is None:
            print(f"error: {report.path} is not a usable journal", file=sys.stderr)
            for line_no, reason in report.bad_lines:
                print(f"  line {line_no}: {reason}", file=sys.stderr)
            return 1
        size = report.path.stat().st_size
        keys = report.keys
        print(f"path: {report.path}")
        print(f"size: {size} bytes")
        for field in sorted(report.header):
            print(f"header.{field}: {json.dumps(report.header[field], sort_keys=True)}")
        print(f"records: {len(report.records)}")
        print(f"distinct cells: {len(keys)}")
        print(f"bad lines: {len(report.bad_lines)}")
        return 0 if report.ok else 1

    # tail
    if report.header is None:
        print(f"error: {report.path} is not a usable journal", file=sys.stderr)
        return 1
    for line_no, key, payload in report.records[-max(0, args.count):]:
        text = json.dumps(payload, sort_keys=True, default=str)
        if len(text) > 72:
            text = text[:69] + "..."
        print(f"line {line_no}: {key} = {text}")
    if not report.records:
        print("(no records)")
    return 0


#: The journal-aware sweeps ``sweep-all`` runs, in order.
SWEEP_ALL_EXPERIMENTS = ("table2", "table4", "growth", "lemma1")


def _sweep_all_main(argv: Sequence[str]) -> int:
    """``python -m repro sweep-all``: every journal-aware sweep, resumably.

    Runs ``table2``, ``table4``, ``growth``, and ``lemma1`` with
    per-experiment journals (always on), so an interrupted pass —
    Ctrl-C, OOM, a killed coordinator — picks up where it left off and
    prints output byte-identical to an uninterrupted run.  ``--fabric``
    executes every sweep's shards on the distributed fabric.
    """
    parser = argparse.ArgumentParser(
        prog="rap-repro sweep-all",
        description=(
            "Run every journal-aware sweep (table2, table4, growth, "
            "lemma1) back to back with checkpoint journals always on; "
            "rerunning resumes from the journals byte-identically.  "
            "--fabric distributes each sweep over lease-based "
            "work-stealing workers."
        ),
    )
    parser.add_argument("--trials", type=_trials_arg, default=1000)
    parser.add_argument("--seed", type=_seed_arg, default=2014)
    parser.add_argument(
        "--widths", type=_width_arg, nargs="+", default=[16, 32, 64, 128, 256]
    )
    parser.add_argument("--w4", type=_width_arg, default=32)
    parser.add_argument("--format", choices=("ascii", "md"), default="ascii")
    parser.add_argument("--workers", type=_workers_arg, default=1)
    parser.add_argument(
        "--fabric",
        metavar="SPEC",
        type=_fabric_arg,
        default=None,
        help=(
            "fabric spec, e.g. 'workers=4' or 'workers=4,backend=pool' "
            "(backends: inproc, pool)"
        ),
    )
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--stats", action="store_true")
    parser.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help=(
            "base path for the per-experiment journal files (default: "
            "journals/sweep-all-<experiment>.jsonl under the cache dir)"
        ),
    )
    parser.add_argument(
        "--fresh",
        action="store_true",
        help="discard existing journals and start the sweeps over",
    )
    args = parser.parse_args(list(argv))
    # Reuse the experiment runners verbatim: `experiment = "all"` makes
    # _journal_for derive one journal file per experiment from the base
    # path, exactly like a journaled `repro all` run.
    args.experiment = "all"
    args.resume = not args.fresh
    # The growth sweep's modules load here, before the first sweep
    # starts, instead of between two sweeps.
    import repro.report.ascii_plot  # noqa: F401
    import repro.sim.sweep  # noqa: F401

    if args.journal is None:
        from repro.sim.cache import default_cache_dir

        args.journal = str(default_cache_dir() / "journals" / "sweep-all.jsonl")
    from repro.resilience.journal import JournalError

    try:
        for name in SWEEP_ALL_EXPERIMENTS:
            print(run_experiment(name, args))
            print()
        if args.stats:
            print(_engine_from_args(args).collector.summary())
            print()
    except (JournalError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    finally:
        engine = getattr(args, "_engine", None)
        if engine is not None:
            engine.close()
    return 0


def run_experiment(name: str, args: argparse.Namespace) -> str:
    """Run one experiment by name and return its rendered text."""
    if name in _TABLE_RUNNERS:
        return _TABLE_RUNNERS[name](args)
    if name in FIGURE_NAMES:
        from repro.report.figures import ALL_FIGURES

        return ALL_FIGURES[name]().text
    raise ValueError(f"unknown experiment {name!r}")


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    retain_heap()
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in ANALYSIS_COMMANDS:
        from repro.analysis.cli import main as analysis_main

        return analysis_main(argv)
    if argv and argv[0] == "bench-dmm":
        from repro.sim.bench import main as bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "adversary":
        from repro.adversary.cli import main as adversary_main

        return adversary_main(argv[1:])
    if argv and argv[0] == "cache":
        return _cache_main(argv[1:])
    if argv and argv[0] == "journal":
        return _journal_main(argv[1:])
    if argv and argv[0] == "sweep-all":
        return _sweep_all_main(argv[1:])
    args = build_parser().parse_args(argv)
    names = (
        list(_TABLE_RUNNERS) + list(FIGURE_NAMES)
        if args.experiment == "all"
        else [args.experiment]
    )
    from repro.resilience.journal import JournalError

    try:
        for name in names:
            print(run_experiment(name, args))
            print()
        if args.stats:
            print(_engine_from_args(args).collector.summary())
            print()
    except (JournalError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # e.g. `python -m repro table2 | head`
        return 0
    finally:
        engine = getattr(args, "_engine", None)
        if engine is not None:
            engine.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
