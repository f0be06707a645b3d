"""``repro adversary`` — run the worst-case pattern search from the shell.

Runs :func:`repro.sim.experiments.adversary_table` over a mapping x
width grid, prints the found-worst congestion table, and optionally
writes the full sweep artifact (per-cell pattern + provenance + the
RAP trend check) as JSON.  ``--check-raw-exceeds-rap`` turns the run
into a CI gate: exit 1 unless the search's RAW worst strictly exceeds
RAP's at every width — the paper's separation, demonstrated by attack
rather than by construction.

Examples
--------
Tiny smoke search (seconds)::

    python -m repro adversary --w 32 --budget tiny

The committed sweep artifact::

    python -m repro adversary --w 32 64 128 256 512 1024 \\
        --json BENCH_adversary.json --workers 0
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.adversary.search import BUDGET_NAMES, SearchBudget, _BUDGETS
from repro.core.mappings import MAPPING_NAMES
from repro.util.validation import int_at_least

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro adversary`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro adversary",
        description="search for worst-case access patterns per mapping and width",
    )
    parser.add_argument(
        "--w",
        type=int_at_least(1),
        nargs="+",
        default=[32, 64, 128, 256, 512, 1024],
        help="warp widths to attack (default: 32..1024)",
    )
    parser.add_argument(
        "--mappings",
        nargs="+",
        default=list(MAPPING_NAMES),
        choices=list(MAPPING_NAMES),
        help="mapping families to attack (default: all three)",
    )
    parser.add_argument(
        "--seed", type=int_at_least(0), default=2014, help="sweep seed (default 2014)"
    )
    parser.add_argument(
        "--budget",
        default="default",
        choices=list(BUDGET_NAMES),
        help="search budget preset (default: 'default')",
    )
    for knob in ("restarts", "passes", "candidates", "train-trials", "eval-trials"):
        parser.add_argument(
            f"--{knob}",
            type=int_at_least(1),
            default=None,
            help=f"override the preset's {knob.replace('-', '_')}",
        )
    parser.add_argument(
        "--workers",
        type=int_at_least(0, " (0 = all cores)"),
        default=1,
        help="workers for the restart shards (0 = all cores, default 1)",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the sweep artifact as JSON to PATH ('-' for stdout)",
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help=(
            "checkpoint each completed (mapping, w) cell to an append-only "
            "journal at PATH and resume from it if it already exists"
        ),
    )
    parser.add_argument(
        "--check-raw-exceeds-rap",
        action="store_true",
        help=(
            "exit 1 unless RAW's found-worst congestion strictly exceeds "
            "RAP's at every width (requires both mappings in --mappings)"
        ),
    )
    return parser


def _budget_from_args(args: argparse.Namespace) -> SearchBudget:
    """The preset budget with any per-knob overrides applied."""
    fields = dict(_BUDGETS[args.budget])
    base = SearchBudget(**fields)
    overrides = {
        name: value
        for name in ("restarts", "passes", "candidates", "train_trials", "eval_trials")
        if (value := getattr(args, name)) is not None
    }
    if not overrides:
        return base
    merged = {
        name: overrides.get(name, getattr(base, name))
        for name in ("restarts", "passes", "candidates", "train_trials", "eval_trials")
    }
    return SearchBudget(**merged)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``repro adversary``; returns an exit code."""
    try:
        return _main(argv)
    except BrokenPipeError:  # e.g. `python -m repro adversary | head`
        return 0


def _main(argv: Sequence[str] | None) -> int:
    args = build_parser().parse_args(argv)
    budget = _budget_from_args(args)

    from repro.report.tables import render_adversary
    from repro.sim.engine import MonteCarloEngine
    from repro.sim.experiments import adversary_table

    journal = None
    if args.journal is not None:
        from dataclasses import asdict

        from repro.resilience.journal import SweepJournal

        journal = SweepJournal(
            args.journal,
            header={
                "experiment": "adversary",
                "mappings": list(args.mappings),
                "widths": list(args.w),
                "seed": args.seed,
                "budget": asdict(budget),
            },
            resume=True,
        )

    with MonteCarloEngine(workers=args.workers) as engine:
        sweep = adversary_table(
            mappings=tuple(args.mappings),
            widths=tuple(args.w),
            seed=args.seed,
            budget=budget,
            engine=engine,
            journal=journal,
        )
    print(render_adversary(sweep))

    if args.json is not None:
        payload = json.dumps(sweep.to_dict(), indent=2, sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w") as handle:
                handle.write(payload + "\n")
            print(f"wrote {args.json}")

    if args.check_raw_exceeds_rap:
        missing = {"RAW", "RAP"} - set(args.mappings)
        if missing:
            print(
                f"error: --check-raw-exceeds-rap needs mappings {sorted(missing)}",
                file=sys.stderr,
            )
            return 2
        for w in args.w:
            raw = sweep.results[("RAW", w)].eval_score
            rap = sweep.results[("RAP", w)].eval_score
            if not raw > rap:
                print(
                    f"FAIL w={w}: RAW found-worst {raw:.3f} does not exceed "
                    f"RAP's {rap:.3f}",
                    file=sys.stderr,
                )
                return 1
        print("gate ok: RAW found-worst exceeds RAP's at every width")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
