"""DMM executor throughput comparisons (``repro bench-dmm``).

Each comparison times how long one executor, the *baseline*, and one
or more *candidates* take to produce an app's completion-time
distribution over ``trials`` mapping redraws.  An executor is a
:class:`Path`: a name plus a function that runs an app on a shift
matrix and returns the per-trial ``time_units``.  The paths:

* ``scalar`` — per trial, materialize the drawn mapping, rebuild the app
  program against it, and run the scalar
  :class:`~repro.dmm.machine.DiscreteMemoryMachine`;
* ``batched`` — stage the mapping-independent skeleton with
  :meth:`~repro.gpu.kernel.SharedMemoryKernel.program_batch` and execute
  every trial at once on the :class:`~repro.dmm.batched.BatchedDMM`;
* ``plan:<backend>`` — compile the skeleton with
  :func:`~repro.analysis.plan.compile_plan` (inside the timed section:
  it is part of the cost a caller pays) and run
  :meth:`~repro.dmm.batched.BatchedDMM.execute_plan` on an execution
  backend (:mod:`repro.dmm.backends`).

A :class:`Mode` is one baseline and its candidates:

=============================  ==============  ===========================
flags                          baseline        candidates
=============================  ==============  ===========================
(default)                      ``scalar``      ``batched``
``--plan``                     ``batched``     ``plan:numpy``
``--plan --backend X``         ``plan:numpy``  ``plan:X``
``--plan --compare-backends``  ``plan:numpy``  ``plan:B`` for every B != numpy
=============================  ==============  ===========================

In the default mode the ``batched`` timing includes its one skeleton
build; under ``--plan`` the skeleton is built once, outside every timed
section.  ``--backend X`` goes through
:func:`~repro.dmm.backends.resolve_backend`: when X cannot run here the
row times the numpy fallback and is marked unavailable with the
resolution note.  ``--compare-backends`` reports an unavailable backend
without timing it.

Each path first runs once untimed: the warm-up absorbs one-time costs
(first-call allocations, caches) and its ``time_units`` are the
agreement check, so no number is reported for a path that disagrees
with its baseline on any trial.  Wall times are **best-of-``repeats``**
(the minimum, as ``timeit`` does), timed round-robin: baseline, each
candidate, baseline again, so a slow spell on the host reaches every
path rather than one path's whole block.  All randomness flows through the
seeded :func:`~repro.core.mappings.sample_shift_batch` draw, so the
measured *work* is deterministic; only the wall clock varies.

``--min-speedup X`` fails the run unless every available row reaches X;
rows whose candidate is unavailable here skip the gate with a note.
The committed performance contract is the CI floors: batched >= 3x
scalar, plan >= 1.5x batched, and numba >= 2x numpy where numba is
installed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional, Sequence

import numpy as np

from repro.analysis.plan import compile_plan
from repro.apps import BUILTIN_PROGRAMS, app_width_error, build_app_program
from repro.core.mappings import MAPPING_NAMES, RAWMapping, mapping_from_shifts
from repro.core.mappings import sample_shift_batch
from repro.dmm.backends import BACKEND_CHOICES, PlanBackend, backend_names
from repro.dmm.backends import get_backend, resolve_backend
from repro.gpu.kernel import SharedMemoryKernel
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_positive_int, int_at_least, positive_float

__all__ = [
    "DEFAULT_BENCH_APPS", "DEFAULT_PLAN_APPS", "DEFAULT_BACKEND_APPS",
    "Case", "Path", "Mode", "BenchRow", "select_mode",
    "bench_app", "render_bench", "gate", "main",
]

#: Apps benchmarked by default: the dynamic-heavy (fft, sort) and
#: fully-static (stencil_row) regimes.
DEFAULT_BENCH_APPS = ("fft", "sort", "stencil_row")

#: Apps benchmarked by default under ``--plan``: the certificate-heavy
#: zoo schedules, whose stages the plan compiler resolves completely
#: under RAP.
DEFAULT_PLAN_APPS = ("shearsort", "cf_permute")

#: Apps benchmarked by default under ``--plan --backend`` /
#: ``--compare-backends``: the residual-heavy pair, where the plan
#: compiler leaves real per-trial work for the backend's kernels (a
#: fully-resolved app measures nothing but the shared closed form).
DEFAULT_BACKEND_APPS = ("fft", "sort")

#: Fixes the apps' input data; any constant works.
SKELETON_SEED = 2014


@dataclass(frozen=True)
class Case:
    """One app under one batch of shift draws, as every path sees it.

    ``skeleton()`` returns the mapping-independent kernel: a fresh build
    per call when the build belongs inside the timed section, the same
    prebuilt kernel otherwise.
    """

    app: str
    mapping: str
    latency: int
    shifts: np.ndarray
    skeleton: Callable[[], SharedMemoryKernel]


#: What a path returns: per-trial ``time_units`` and, for plan paths,
#: the fraction of dispatched warps the plan settled statically.
Outcome = tuple[np.ndarray, Optional[float]]


@dataclass(frozen=True)
class Path:
    """One named executor.  ``run`` is ``None`` when it cannot execute
    here; ``available`` is False when the requested executor is missing
    (``note`` says why), whether or not a fallback runs in its place."""

    name: str
    run: Optional[Callable[[Case], Outcome]]
    available: bool = True
    note: Optional[str] = None


def _run_scalar(case: Case) -> Outcome:
    times = np.empty(len(case.shifts), dtype=np.int64)
    for t, shifts in enumerate(case.shifts):
        drawn = mapping_from_shifts(case.mapping, shifts)
        kernel = build_app_program(case.app, drawn, seed=SKELETON_SEED)
        times[t] = kernel.make_machine(latency=case.latency).run(kernel.program()).time_units
    return times, None


def _run_batched(case: Case) -> Outcome:
    return case.skeleton().run_batch(case.shifts, latency=case.latency).time_units, None


def _plan_runner(backend: PlanBackend) -> Callable[[Case], Outcome]:
    def run(case: Case) -> Outcome:
        kernel = case.skeleton()
        plan = compile_plan(kernel, case.mapping, case.app)
        result = kernel.run_plan(case.shifts, plan, latency=case.latency, backend=backend)
        return result.time_units, plan.stage_coverage

    return run


SCALAR = Path("scalar", _run_scalar)
BATCHED = Path("batched", _run_batched)


def _plan_path(choice: str, time_fallback: bool = True) -> Path:
    """The plan path on backend ``choice``, resolved for this host.  An
    unavailable backend gives an unavailable path that times the numpy
    fallback, or does not run at all when ``time_fallback`` is False."""
    resolution = resolve_backend(choice)
    backend = resolution.backend
    if not resolution.fell_back:
        return Path(f"plan:{backend.name}", _plan_runner(backend), note=resolution.note)
    if time_fallback:
        return Path(f"plan:{choice}", _plan_runner(backend), False, resolution.note)
    return Path(f"plan:{choice}", None, False, get_backend(choice).unavailable_reason())


@dataclass(frozen=True)
class Mode:
    """A baseline path, its candidates, the default apps, and whether
    the skeleton is built once outside the timed sections."""

    name: str
    baseline: Path
    candidates: tuple[Path, ...]
    apps: tuple[str, ...]
    shared_skeleton: bool


def select_mode(
    plan: bool = False, backend: str | None = None, compare_backends: bool = False
) -> Mode:
    """The mode the ``bench-dmm`` flags ask for (see the module table)."""
    if not plan:
        return Mode("batched", SCALAR, (BATCHED,), DEFAULT_BENCH_APPS, False)
    numpy_plan = _plan_path("numpy")
    if compare_backends:
        others = tuple(
            _plan_path(name, time_fallback=False) for name in backend_names() if name != "numpy"
        )
        return Mode("backend-compare", numpy_plan, others, DEFAULT_BACKEND_APPS, True)
    if backend is not None:
        candidate = _plan_path(backend)
        return Mode("plan-backend", numpy_plan, (candidate,), DEFAULT_BACKEND_APPS, True)
    return Mode("plan", BATCHED, (numpy_plan,), DEFAULT_PLAN_APPS, True)


def _rate(amount: float, seconds: float | None) -> float | None:
    """``amount / seconds``; a section that rounds to 0.0 at the timer
    floor saturates to ``inf`` (0.0 for zero work).  No duration, no rate."""
    if seconds is None:
        return None
    if seconds > 0.0:
        return amount / seconds
    return math.inf if amount > 0 else 0.0


def _json_num(value: float | None, digits: int) -> float | None:
    """Round for JSON; missing and non-finite values become ``null``."""
    return round(value, digits) if value is not None and math.isfinite(value) else None


@dataclass(frozen=True)
class BenchRow:
    """One app's baseline-vs-candidate timing at a fixed (w, trials).

    ``baseline_s`` / ``candidate_s`` are best-of-``repeats`` wall
    seconds for the whole workload (all ``trials`` draws);
    ``candidate_s`` is ``None`` when the candidate did not run here.
    """

    app: str
    w: int
    steps: int
    trials: int
    baseline: str
    candidate: str
    baseline_s: float
    candidate_s: float | None
    stage_coverage: float | None = None
    available: bool = True
    note: str | None = None

    def __post_init__(self) -> None:
        if self.trials < 0:
            raise ValueError(f"trials must be >= 0, got {self.trials}")
        for name, value in (("baseline_s", self.baseline_s), ("candidate_s", self.candidate_s)):
            if value is not None and not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite non-negative duration, got {value!r}")

    @property
    def speedup(self) -> float | None:
        """Baseline wall / candidate wall: ``inf`` when only the
        candidate hit the timer floor, 1.0 when both did (no measurable
        difference), ``None`` when the candidate did not run."""
        if self.candidate_s == 0.0 and self.baseline_s == 0.0:
            return 1.0
        return _rate(self.baseline_s, self.candidate_s)

    @property
    def baseline_trials_per_s(self) -> float | None:
        return _rate(self.trials, self.baseline_s)

    @property
    def candidate_trials_per_s(self) -> float | None:
        return _rate(self.trials, self.candidate_s)

    def as_dict(self) -> dict:
        """JSON-ready form; ``inf`` (a zero-duration section) becomes
        ``null`` so the output stays strict JSON."""
        return {
            "app": self.app,
            "w": self.w,
            "steps": self.steps,
            "baseline": self.baseline,
            "candidate": self.candidate,
            "baseline_s": round(self.baseline_s, 6),
            "candidate_s": _json_num(self.candidate_s, 6),
            "speedup": _json_num(self.speedup, 2),
            "baseline_trials_per_s": _json_num(self.baseline_trials_per_s, 2),
            "candidate_trials_per_s": _json_num(self.candidate_trials_per_s, 2),
            "stage_coverage": _json_num(self.stage_coverage, 6),
            "available": self.available,
            "note": self.note,
        }


def bench_app(
    app: str,
    mode: Mode,
    w: int = 32,
    trials: int = 100,
    mapping: str = "RAP",
    latency: int = 1,
    seed: SeedLike = 2014,
    repeats: int = 3,
) -> list[BenchRow]:
    """Time ``mode``'s baseline and candidates on one app; one row per
    candidate.

    The shift matrix is drawn once up front, so every path executes the
    *same* ``trials`` mapping draws.  Each path runs once untimed; then
    ``repeats`` rounds each time the baseline and every candidate in
    turn, and a path's best round is its wall time.  Raises
    ``AssertionError``, before any timed run, if a candidate's warm-up
    ``time_units`` differ from the baseline's on any trial.
    """
    if app not in BUILTIN_PROGRAMS:
        raise ValueError(f"unknown app {app!r}; expected one of {sorted(BUILTIN_PROGRAMS)}")
    check_positive_int(w, "w")
    check_positive_int(trials, "trials")
    check_positive_int(repeats, "repeats")
    shifts = sample_shift_batch(mapping, w, trials, as_generator(seed))

    def build() -> SharedMemoryKernel:
        return build_app_program(app, RAWMapping(w), seed=SKELETON_SEED)

    kernel = build()
    case = Case(app, mapping, latency, shifts, (lambda: kernel) if mode.shared_skeleton else build)

    base = mode.baseline
    assert base.run is not None, f"baseline {base.name} cannot run"
    paths = [base] + [cand for cand in mode.candidates if cand.run is not None]
    outcomes = [path.run(case) for path in paths]
    base_times = outcomes[0][0]
    for cand, (cand_times, _) in zip(paths[1:], outcomes[1:]):
        if not np.array_equal(base_times, cand_times):
            raise AssertionError(
                f"{app} (w={w}): {cand.name} disagrees with {base.name} "
                f"({base.name}={base_times!r}, {cand.name}={cand_times!r})"
            )
    # Round-robin repeats: a host slowdown spanning several runs hits
    # the baseline and the candidates alike, not one path's block.
    best = [math.inf] * len(paths)
    for _ in range(repeats):
        for i, path in enumerate(paths):
            start = perf_counter()
            path.run(case)
            best[i] = min(best[i], perf_counter() - start)
    timed = iter(zip(best[1:], outcomes[1:]))
    rows = []
    for cand in mode.candidates:
        cand_s = coverage = None
        if cand.run is not None:
            cand_s, (_, coverage) = next(timed)
        rows.append(
            BenchRow(
                app, w, len(kernel.steps), trials, base.name, cand.name, best[0],
                cand_s, coverage, cand.available, cand.note,
            )
        )
    return rows


def render_bench(rows: Sequence[BenchRow], trials: int, mapping: str, repeats: int) -> str:
    """ASCII table of benchmark rows (one per w x app x candidate)."""
    from repro.report.tables import format_grid

    def cell(value: float | None, fmt: str, scale: float = 1.0, suffix: str = "") -> str:
        return "-" if value is None else format(value * scale, fmt) + suffix

    grid = [
        [
            str(r.w), r.app, str(r.steps),
            r.baseline, cell(r.baseline_s, ".1f", 1e3),
            r.candidate if r.available else f"{r.candidate} (unavailable)",
            cell(r.candidate_s, ".1f", 1e3), cell(r.candidate_trials_per_s, ".1f"),
            cell(r.stage_coverage, ".0%"), cell(r.speedup, ".2f", suffix="x"),
        ]
        for r in rows
    ]
    return format_grid(
        ["w", "app", "steps", "baseline", "baseline ms", "candidate", "candidate ms",
         "candidate trials/s", "static stages", "speedup"],
        grid,
        title=f"DMM executor comparison (trials={trials}, mapping={mapping}, best of {repeats})",
    )


def gate(rows: Sequence[BenchRow], min_speedup: float) -> int:
    """Exit code of the ``--min-speedup`` gate over every available row.

    Rows whose candidate is unavailable here are skipped with a note;
    every slow row prints a ``FAIL`` line.
    """
    gated = [(r, r.speedup) for r in rows if r.available and r.speedup is not None]
    if len(gated) < len(rows):
        print(
            f"note: min-speedup gate skipped for {len(rows) - len(gated)} row(s) whose "
            "requested backend is unavailable here (graceful fallback)",
            file=sys.stderr,
        )
    slow = [(r, speedup) for r, speedup in gated if speedup < min_speedup]
    for r, speedup in slow:
        print(
            f"FAIL: {r.app} (w={r.w}) {r.candidate} speedup {speedup:.1f}x "
            f"< required {min_speedup:.1f}x",
            file=sys.stderr,
        )
    return 1 if slow else 0


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for ``repro bench-dmm`` (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="rap-repro bench-dmm",
        description="Compare a baseline DMM executor against candidate executors on the "
        "builtin apps (results are verified identical before any number is reported).",
    )
    parser.add_argument(
        "--apps", nargs="+", default=None, choices=sorted(BUILTIN_PROGRAMS),
        help=f"apps to benchmark (default: {' '.join(DEFAULT_BENCH_APPS)}, "
        f"or {' '.join(DEFAULT_PLAN_APPS)} with --plan)",
    )
    parser.add_argument(
        "--w", type=int_at_least(1), nargs="+", default=[32],
        help="warp width(s) / banks; several run back to back (default 32)",
    )
    parser.add_argument(
        "--trials", type=int_at_least(1), default=100,
        help="mapping redraws per app (default 100)",
    )
    parser.add_argument(
        "--mapping", default="RAP", choices=MAPPING_NAMES,
        help="mapping family drawn per trial (default RAP)",
    )
    parser.add_argument(
        "--latency", type=int_at_least(1), default=1, help="pipeline latency (default 1)"
    )
    parser.add_argument(
        "--seed", type=int_at_least(0), default=2014, help="shift-draw seed (default 2014)"
    )
    parser.add_argument(
        "--repeats", type=int_at_least(1), default=3,
        help="timed measurements per path, after one untimed warm-up; the "
        "minimum is reported (default 3)",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="also write the results as JSON ('-' for stdout)"
    )
    parser.add_argument(
        "--min-speedup", type=positive_float, metavar="X",
        help="exit nonzero unless every available row reaches this speedup (CI gate)",
    )
    parser.add_argument(
        "--plan", action="store_true",
        help="benchmark the plan-compiled executor against the plain batched path "
        f"instead (default apps: {' '.join(DEFAULT_PLAN_APPS)})",
    )
    parser.add_argument(
        "--backend", choices=BACKEND_CHOICES, default=None,
        help="with --plan: execute the plan path on this backend (numpy, the reference "
        "loop, or numba, its compiled kernels; auto picks numba when importable) and "
        f"compare against numpy (default apps: {' '.join(DEFAULT_BACKEND_APPS)}); an "
        "unavailable backend falls back to numpy with a warning",
    )
    parser.add_argument(
        "--compare-backends", action="store_true",
        help="with --plan: benchmark every other registered backend against numpy, one "
        "row per w x app x backend (unavailable backends are reported, not timed)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``repro bench-dmm``; returns an exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if (args.backend is not None or args.compare_backends) and not args.plan:
        parser.error("--backend/--compare-backends require --plan")
    if args.backend is not None and args.compare_backends:
        parser.error("--backend and --compare-backends are mutually exclusive")
    mode = select_mode(args.plan, args.backend, args.compare_backends)
    apps = args.apps or list(mode.apps)
    for w in args.w:
        problem = app_width_error(apps, w)
        if problem:
            parser.error(problem)

    settings = dict(
        trials=args.trials, mapping=args.mapping, latency=args.latency,
        seed=args.seed, repeats=args.repeats,
    )
    rows = [row for w in args.w for app in apps for row in bench_app(app, mode, w, **settings)]
    payload = {
        "mode": mode.name, "widths": list(args.w), **settings,
        "rows": [r.as_dict() for r in rows],
    }
    if args.json == "-":
        print(json.dumps(payload, indent=2))
    else:
        print(render_bench(rows, args.trials, args.mapping, args.repeats))
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
            print(f"wrote {args.json}")
    for r in rows:
        if not r.available:
            print(f"warning: {r.app} (w={r.w}): {r.note}", file=sys.stderr)
    return 0 if args.min_speedup is None else gate(rows, args.min_speedup)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
