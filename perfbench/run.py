"""Benchmark the paper-reproduction commands end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table2-paper --seed 3 --seconds 20 --trace 0

Each repetition runs the workload's commands in a fresh process with
its own empty result cache and journal directory, under
``.perfbench_tmp/`` in the checkout, removed afterwards.  Repetitions
repeat until ``--seconds`` is used up.  Every repetition's output is
compared, cell by cell, with the reference recorded for its seed in
``perfbench/reference/``.

``--trace 0`` reports the end-to-end metrics as medians over the
repetitions.  ``--trace 1`` runs untraced repetitions for half the
time, then one traced repetition.  Its output must be byte-identical to
the untraced output, and its congestion-kernel row count must equal
the count derived from the workload (or recorded, where no derivation
exists).  It reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every cell and check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
TMP_ROOT = ROOT / ".perfbench_tmp"
REP_TIMEOUT_S = 150
#: A run must end within this many seconds, however its repetitions go,
#: unless ``--seconds`` asks for longer (see ``run_deadline``).
RUN_DEADLINE_S = 170
#: Time left for the last repetition and the traced one after
#: ``--seconds``, when ``--seconds`` is long.
DEADLINE_SLACK_S = 60
#: The workloads and metrics, with each metric's unit.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def run_deadline(seconds: float) -> float:
    return max(RUN_DEADLINE_S, seconds + DEADLINE_SLACK_S)


def split_cells(text: str) -> list[str]:
    """Result cells of one command's output.

    A table row contributes one cell per ``|``-separated field; any
    other non-blank line is one cell.  Rule lines carry no result.
    """
    cells: list[str] = []
    for line in text.splitlines():
        if not line.strip() or set(line) <= set("-+| "):
            continue
        if "|" in line:
            cells.extend(field.strip() for field in line.split("|"))
        else:
            cells.append(line.rstrip())
    return cells


def digest(cell: str) -> str:
    return hashlib.sha256(cell.encode()).hexdigest()[:10]


def child_env(tmp: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(
        REPRO_CACHE_DIR=str(tmp / "cache"),
        TMPDIR=str(tmp),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(args: list[str], tmp: Path, timeout: float = REP_TIMEOUT_S) -> dict:
    """Run ``rep.py`` once in ``tmp``; return its JSON result.

    Raises ``RuntimeError`` when the process fails or times out.
    """
    out = tmp / "result.json"
    cmd = [sys.executable, str(HERE / "rep.py"), *args,
           "--tmp", str(tmp), "--out", str(out),
           "--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, env=child_env(tmp), cwd=ROOT, capture_output=True,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"repetition timed out after {timeout:.0f} s")
    if proc.returncode != 0 or not out.exists():
        raise RuntimeError(
            f"repetition exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(out.read_text())


def run_rep(run_dir: Path, index: int, name: str, seed: int, trace: bool,
            trials: int | None = None, timeout: float = REP_TIMEOUT_S) -> dict:
    """One repetition in a fresh, empty directory that is removed after."""
    tmp = run_dir / f"rep-{index}"
    tmp.mkdir()
    try:
        args = ["--workload", name, "--seed", str(seed), "--trace", str(int(trace))]
        if trials is not None:
            args += ["--trials", str(trials)]
        return run_child(args, tmp, timeout)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def probe(run_dir: Path) -> dict:
    """Import ``repro`` from the checkout and read the machine facts."""
    tmp = run_dir / "probe"
    tmp.mkdir()
    try:
        return run_child(["--probe"], tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


def check_rep(rep: dict, expected: dict[str, str]) -> tuple[int, int]:
    """``(attempted, failed)`` cells of one repetition against the reference.

    ``expected`` maps each command to its cells' space-separated
    digests.  Every cell of a command that raised counts as failed.
    """
    attempted = failed = 0
    for label, digests in expected.items():
        ref = digests.split()
        attempted += len(ref)
        if label in rep["errors"]:
            print(f"error: {label}: {rep['errors'][label]}", file=sys.stderr)
            failed += len(ref)
            continue
        got = [digest(c) for c in split_cells(rep["outputs"].get(label, ""))]
        failed += sum(a != b for a, b in zip(got, ref)) + abs(len(got) - len(ref))
    return attempted, failed


def end_to_end(reps: list[dict], workload: workloads.Workload) -> dict[str, float]:
    wall = statistics.median(r["wall_s"] for r in reps)
    return {
        "wall_s": wall,
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "trials_per_s": workload.draws / wall,
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in reps),
    }


def traced_checks(traced: dict, untraced: dict, workload: workloads.Workload,
                  reference: dict) -> tuple[int, int]:
    """The traced run checks itself: same output bytes, every kernel row seen."""
    attempted, failed = 1, 0
    if traced["outputs"] != untraced["outputs"]:
        failed += 1
        print("error: traced output differs from untraced output", file=sys.stderr)
    # The derived count is of rows entering through congestion_batch:
    # if a call site held an unwrapped reference, the kernel's inner
    # max_run_lengths would still count the rows, but not as this entry.
    checks = [("core.congestion.rows", traced["layers"]["core.congestion.rows"],
               "recorded", reference["congestion_rows"])]
    if workload.derived_rows is not None:
        checks.append(("congestion_batch rows",
                        traced["entries"]["congestion_batch"].get("rows", 0),
                        "derived", workload.derived_rows))
    for what, rows, source, want in checks:
        attempted += 1
        if rows != want:
            failed += 1
            print(f"error: {what}={rows}, {source} count {want}", file=sys.stderr)
    return attempted, failed


def per_layer(traced: dict, untraced_wall: float) -> dict[str, float]:
    layers = traced["layers"]
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    return {
        **layers,
        "trace.overhead_s": traced["wall_s"] - untraced_wall,
        "unattributed.self_s": traced["wall_s"] - self_total,
        "accuracy.paper_err_max": traced["paper_err_max"] or 0.0,
    }


def declared(metrics: dict[str, float], section: str) -> tuple[dict, int]:
    """The metrics ``BENCHMARK.json`` declares in ``section``, with units.

    The second value is 1 when the measured names differ from the
    declared ones, so a layer added or renamed on one side only fails.
    """
    names = [m["name"] for m in SPEC[section]]
    if set(metrics) != set(names):
        print(f"error: measured metrics differ from {section} in BENCHMARK.json: "
              f"missing {sorted(set(names) - set(metrics))}, "
              f"extra {sorted(set(metrics) - set(names))}", file=sys.stderr)
        return {}, 1
    return {k: {"value": metrics[k], "unit": UNITS[k]} for k in names}, 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workload = workloads.get(args.workload)
    reference = load_reference(workload.name)
    # References exist for a fixed panel of seeds; any --seed maps onto it.
    seed = args.seed % len(reference["seeds"])
    expected = reference["seeds"][str(seed)]

    started = time.monotonic()
    TMP_ROOT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
    try:
        try:
            machine = probe(run_dir)
        except RuntimeError as exc:
            print(f"error: cannot import repro from {ROOT / 'src'}: {exc}", file=sys.stderr)
            return 2
        print("machine: " + json.dumps(machine, sort_keys=True))

        budget = args.seconds / 2 if args.trace else args.seconds
        deadline = started + run_deadline(args.seconds)
        cells = sum(len(d.split()) for d in expected.values())
        reps: list[dict] = []
        traced = None
        attempted = failed = 0

        def one_rep(trace: bool) -> dict:
            return run_rep(run_dir, len(reps), workload.name, seed, trace,
                           timeout=deadline - time.monotonic())

        measuring = time.monotonic()
        try:
            while True:
                t = time.monotonic()
                rep = one_rep(trace=False)
                rep["elapsed_s"] = time.monotonic() - t
                reps.append(rep)
                a, f = check_rep(rep, expected)
                attempted, failed = attempted + a, failed + f
                typical = statistics.median(r["elapsed_s"] for r in reps)
                if len(reps) >= 3 and time.monotonic() - measuring + typical > budget:
                    break
            traced = one_rep(trace=True) if args.trace else None
        except RuntimeError as exc:
            # A repetition that crashed or timed out fails all its cells.
            print(f"error: {exc}", file=sys.stderr)
            attempted, failed = attempted + cells, failed + cells

        metrics: dict = {}
        if reps:
            walls = sorted(r["wall_s"] for r in reps)
            err = reps[0]["paper_err_max"]
            print(
                f"workload: {workload.name} seed={seed} reps={len(reps)} "
                f"wall_s min={walls[0]:.4f} median={statistics.median(walls):.4f} "
                f"max={walls[-1]:.4f} draws={workload.draws} "
                f"paper_err_max={'n/a' if err is None else f'{err:.4f}'}"
            )
        # Metrics of a run with failed cells would time broken work.
        if reps and failed == 0:
            if not args.trace:
                metrics, f = declared(end_to_end(reps, workload), "end_to_end")
                attempted, failed = attempted + 1, failed + f
            elif traced is not None:
                for a, f in (check_rep(traced, expected),
                             traced_checks(traced, reps[0], workload, reference)):
                    attempted, failed = attempted + a, failed + f
                metrics, f = declared(
                    per_layer(traced, statistics.median(walls)), "per_layer")
                attempted, failed = attempted + 1, failed + f

        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }))
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
