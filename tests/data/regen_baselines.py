"""Regenerate the checked-in analysis baselines, byte for byte.

Run from the repository root:

    PYTHONPATH=src python tests/data/regen_baselines.py

or, to verify without writing (CI / pre-commit; exits 1 on drift):

    PYTHONPATH=src python tests/data/regen_baselines.py --check

Five artifacts live next to this script:

``certify_baseline.json``
    The exact stdout of ``python -m repro certify --mapping ALL
    --json`` (w=16, seed=2014) — the file the CI ``certify`` job
    diffs against a fresh run.

``ir_baseline.json``
    Golden dataflow-IR dumps (:func:`repro.analysis.ir.kernel_ir`) of
    every builtin app skeleton at w=8, seed=2014: def-use edges,
    liveness, dead steps, duplicate-merge counts.

``apps_baseline.json``
    Golden outcomes of the ``run_*`` app entry points (FFT, scan,
    bitonic sort, shearsort, both stencil assignments, every gather
    distribution and SpMV structure, the three transposes) under
    RAW/RAS/RAP at w=8 and 16, seed=2014: correctness, time units,
    pipeline stages and congestion.  Also the global transpose (direct,
    and tiled per mapping) and the histogram (naive per skew, and
    privatized per mapping and fold) at latency 1 and 3.

``tables_baseline.json``
    Golden Monte-Carlo output: ``repro table2`` at w=16, 24, 32, 256
    and ``repro table4`` at w=8 (20 trials, seed=2014), the
    :func:`~repro.sim.distributions.congestion_distribution` pmfs of
    every Table II pattern and mapping at w=32, and SHA-256 digests of
    ``congestion_batch`` and ``bank_loads_batch`` on a fixed corpus
    (inactive lanes and rows, k != w, several blocks, addresses beyond
    int32, negative addresses, non-power-of-two w).

``app_sweep_baseline.json``
    Golden per-trial ``time_units`` of
    :func:`~repro.sim.experiments.app_time_sweep` (fft, sort,
    stencil_row, scan, transpose_drdw, cf_permute under RAW/RAS/RAP at
    w=16 and 32, 24 trials, seed=2014; ``workers=1`` and ``workers=2``
    must agree), plus the same cells run through
    :meth:`~repro.gpu.kernel.SharedMemoryKernel.run_plan` on one fixed
    draw each (which must agree with ``run_batch`` on that draw).

``tests/test_baselines.py`` asserts the checked-in files are
byte-identical to what this script writes, so the baselines can never
drift from the code that defines them: change the analysis, rerun
this script, commit the result.
"""

from __future__ import annotations

import argparse
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent

#: width and seed of the golden IR dumps (small enough to keep the
#: artifact reviewable; every structural fact is width-generic).
IR_W = 8
IR_SEED = 2014


def certify_baseline_text() -> str:
    """The certify CLI's stdout for the CI baseline invocation."""
    from repro.analysis.cli import main

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(["certify", "--mapping", "ALL", "--json"])
    if code != 0:
        raise RuntimeError(f"certify exited {code}; baseline not regenerated")
    return buffer.getvalue()


def ir_baseline_text() -> str:
    """Golden IR dumps for every builtin app, as one JSON document."""
    from repro.analysis.ir import kernel_ir
    from repro.apps import BUILTIN_PROGRAMS, build_app_program
    from repro.core.mappings import RAWMapping

    programs = {}
    for app in sorted(BUILTIN_PROGRAMS):
        kernel = build_app_program(app, RAWMapping(IR_W), seed=IR_SEED)
        programs[app] = kernel_ir(kernel).to_dict()
    payload = {"w": IR_W, "seed": IR_SEED, "programs": programs}
    return json.dumps(payload, indent=2) + "\n"


#: widths, mappings and seed of the golden app outcomes.
APPS_WIDTHS = (8, 16)
APPS_MAPPINGS = ("RAW", "RAS", "RAP")
APPS_SEED = 2014


def apps_baseline_text() -> str:
    """Golden outcomes of every ``run_*`` entry point, as one JSON document.

    One record per (app variant, mapping, width): every outcome field
    except the machine trace, and per-warp read/write congestions for
    the transposes.
    """
    from dataclasses import asdict

    from repro.access.transpose import TRANSPOSE_NAMES, run_transpose
    from repro.apps import (
        GATHER_DISTRIBUTIONS,
        SPMV_STRUCTURES,
        STENCIL_ASSIGNMENTS,
        run_bitonic_sort,
        run_fft,
        run_gather,
        run_scan,
        run_shearsort,
        run_spmv,
        run_stencil,
    )
    from repro.core.mappings import mapping_by_name

    seed = APPS_SEED
    runs = {
        "fft": lambda m: run_fft(m, seed=seed),
        "scan": lambda m: run_scan(m, seed=seed),
        "sort": lambda m: run_bitonic_sort(m, seed=seed),
        "shearsort": lambda m: run_shearsort(m, seed=seed),
    }
    for assignment in STENCIL_ASSIGNMENTS:
        runs[f"stencil_{assignment}"] = (
            lambda m, a=assignment: run_stencil(m, a, seed=seed)
        )
    for dist in GATHER_DISTRIBUTIONS:
        runs[f"gather_{dist}"] = (
            lambda m, d=dist: run_gather(m, distribution=d, seed=seed)
        )
    for structure in SPMV_STRUCTURES:
        runs[f"spmv_{structure}"] = (
            lambda m, s=structure: run_spmv(m, structure=s, seed=seed)
        )
    for kind in TRANSPOSE_NAMES:
        runs[f"transpose_{kind.lower()}"] = (
            lambda m, k=kind: run_transpose(k, m, seed=seed)
        )

    records = {}
    for app, run in runs.items():
        for w in APPS_WIDTHS:
            for name in APPS_MAPPINGS:
                outcome = asdict(run(mapping_by_name(name, w, seed)))
                execution = outcome.pop("execution", None)
                if execution is not None:
                    outcome["read_congestions"] = list(
                        execution["traces"][0]["congestions"]
                    )
                    outcome["write_congestions"] = list(
                        execution["traces"][1]["congestions"]
                    )
                records[f"{app}/{name}/w{w}"] = outcome
    records.update(_hierarchy_records(seed))
    # One record per line keeps the artifact reviewable in a diff.
    lines = ",\n".join(
        f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in records.items()
    )
    return f'{{\n "seed": {seed},\n "outcomes": {{\n{lines}\n }}\n}}\n'


#: pipeline depths of the global-transpose and histogram records.
APPS_LATENCIES = (1, 3)
#: vote skews of the naive histogram records.
HISTOGRAM_SKEWS = (0, 1, 2)


def _hierarchy_records(seed: int) -> dict:
    """Golden outcomes of the global transpose and the histogram.

    The global transpose runs ``n = 2w`` (four tiles), directly and
    tiled under each mapping; the histogram votes ``w^2 + 3`` times, so
    the last round is partial, naively at each skew and privatized
    under each mapping and fold.
    """
    from dataclasses import asdict

    from repro.apps import make_votes, run_global_transpose, run_histogram
    from repro.core.mappings import mapping_by_name

    records = {}
    for w in APPS_WIDTHS:
        for latency in APPS_LATENCIES:
            tag = f"w{w}/l{latency}"
            records[f"global_direct/{tag}"] = asdict(
                run_global_transpose(2 * w, "direct", w=w, latency=latency, seed=seed)
            )
            for name in APPS_MAPPINGS:
                records[f"global_tiled/{name}/{tag}"] = asdict(
                    run_global_transpose(
                        2 * w, "tiled", mapping_by_name(name, w, seed),
                        w=w, latency=latency, seed=seed,
                    )
                )
            for skew in HISTOGRAM_SKEWS:
                votes = make_votes(w * w + 3, w, skew=skew, seed=seed)
                records[f"histogram_naive/skew{skew}/{tag}"] = asdict(
                    run_histogram(votes, "naive", w=w, latency=latency)
                )
            votes = make_votes(w * w + 3, w, skew=1, seed=seed)
            for fold in ("row", "column"):
                for name in APPS_MAPPINGS:
                    records[f"histogram_{fold}/{name}/{tag}"] = asdict(
                        run_histogram(
                            votes, "privatized", w=w, latency=latency,
                            mapping=mapping_by_name(name, w, seed),
                            fold_assignment=fold,
                        )
                    )
    return records


#: seed, trial count and widths of the golden Monte-Carlo tables.
TABLES_SEED = 2014
TABLES_TRIALS = 20
TABLE2_WIDTHS = (16, 24, 32, 256)
TABLE4_W = 8
DISTRIBUTION_W = 32


def _cli_stdout(argv: list[str]) -> list[str]:
    """Lines ``python -m repro <argv>`` prints, run in process."""
    from repro.cli import main

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"repro {' '.join(argv)} exited {code}")
    return buffer.getvalue().splitlines()


def kernel_corpus() -> dict:
    """``name -> (addresses, w, inactive)`` inputs of the kernel digests.

    Row counts are chosen so no case fills a whole number of 32K-address
    blocks; the ``wide`` cases exceed int32 and the ``negative`` ones
    hold negative addresses that are not the sentinel.
    """
    import numpy as np

    from repro.dmm.trace import INACTIVE
    from repro.util.rng import as_generator

    rng = as_generator(TABLES_SEED)

    def with_inactive(addresses, lane_p=0.2, row_p=0.05):
        addresses = addresses.copy()
        addresses[rng.random(addresses.shape) < lane_p] = INACTIVE
        addresses[rng.random(addresses.shape[0]) < row_p] = INACTIVE
        return addresses

    dense = rng.integers(0, 4096, size=(2500, 32))
    merging = rng.integers(0, 64, size=(300, 256))
    wide = rng.integers(2**31 - 2000, 2**40, size=(1500, 32))
    negative = rng.integers(-5000, 5000, size=(1500, 24))
    return {
        "dense/w32": (dense, 32, None),
        "dense/w32/inactive": (with_inactive(dense), 32, INACTIVE),
        "merging/w256": (merging, 256, None),
        "merging/w256/inactive": (with_inactive(merging), 256, INACTIVE),
        "narrow/k12/w32": (rng.integers(0, 999, size=(777, 12)), 32, None),
        "broad/k48/w16": (rng.integers(0, 999, size=(777, 48)), 16, INACTIVE),
        "dense/w24/inactive": (
            with_inactive(rng.integers(0, 5000, size=(1500, 24))), 24, INACTIVE
        ),
        "wide/w32": (wide, 32, None),
        "wide/w24/inactive": (with_inactive(wide[:, :24]), 24, INACTIVE),
        "negative/w24/inactive": (with_inactive(negative), 24, INACTIVE),
        "negative/w16": (negative[:, :16], 16, None),
        "all_inactive/w8": (np.full((5, 8), INACTIVE), 8, INACTIVE),
        "empty/w4": (np.zeros((3, 0), dtype=np.int64), 4, None),
    }


def tables_baseline_text() -> str:
    """Golden Table II/IV output, pmfs and kernel digests, as one JSON document."""
    import hashlib

    import numpy as np

    from repro.core.congestion import bank_loads_batch, congestion_batch
    from repro.sim.distributions import congestion_distribution

    common = ["--trials", str(TABLES_TRIALS), "--seed", str(TABLES_SEED), "--no-cache"]
    table2 = _cli_stdout(
        ["table2", "--widths", *map(str, TABLE2_WIDTHS), *common]
    )
    table4 = _cli_stdout(["table4", "--w4", str(TABLE4_W), *common])
    pmfs = {
        f"{pattern}/{mapping}": congestion_distribution(
            mapping, pattern, DISTRIBUTION_W, trials=TABLES_TRIALS, seed=TABLES_SEED
        ).pmf.tolist()
        for pattern in ("contiguous", "stride", "diagonal", "random")
        for mapping in ("RAW", "RAS", "RAP")
    }

    def digest(out) -> str:
        return f"{out.dtype}{list(out.shape)} " + hashlib.sha256(
            np.ascontiguousarray(out).tobytes()
        ).hexdigest()

    kernels = {
        name: {
            "congestion_batch": digest(congestion_batch(a, w, inactive=inactive)),
            "bank_loads_batch": digest(bank_loads_batch(a, w, inactive=inactive)),
        }
        for name, (a, w, inactive) in kernel_corpus().items()
    }
    payload = {
        "seed": TABLES_SEED,
        "table2": table2,
        "table4": table4,
        "distributions": pmfs,
        "kernels": kernels,
    }
    return json.dumps(payload, indent=1) + "\n"


#: apps, widths, trial count and seed of the golden app-sweep times.
SWEEP_APPS = ("fft", "sort", "stencil_row", "scan", "transpose_drdw", "cf_permute")
SWEEP_WIDTHS = (16, 32)
SWEEP_TRIALS = 24
SWEEP_SEED = 2014


def app_sweep_baseline_text() -> str:
    """Golden app-sweep and plan-path times, as one JSON document.

    ``sweep`` holds :func:`~repro.sim.experiments.app_time_sweep`'s
    per-trial times per ``app/mapping/w`` cell; the sweep runs at
    ``workers=1`` and ``workers=2`` and must agree.  ``plan`` holds each
    cell's times under :meth:`~repro.gpu.kernel.SharedMemoryKernel.run_plan`
    for one fixed draw, which must agree with ``run_batch``.
    """
    import numpy as np

    from repro.analysis.plan import compile_plan
    from repro.apps import build_app_program
    from repro.core.mappings import RAWMapping, sample_shift_batch
    from repro.sim.engine import MonteCarloEngine
    from repro.sim.experiments import app_time_sweep
    from repro.util.rng import as_generator

    sweep: dict[str, list[int]] = {}
    plan: dict[str, list[int]] = {}
    for w in SWEEP_WIDTHS:
        runs = []
        for workers in (1, 2):
            with MonteCarloEngine(workers=workers, cache=False) as engine:
                runs.append(
                    app_time_sweep(
                        SWEEP_APPS, w=w, trials=SWEEP_TRIALS,
                        seed=SWEEP_SEED, engine=engine,
                    )
                )
        serial, parallel = runs
        for (app, mapping), result in serial.items():
            if not np.array_equal(result.time_units, parallel[app, mapping].time_units):
                raise RuntimeError(f"{app}/{mapping}/w{w}: workers=2 != workers=1")
            sweep[f"{app}/{mapping}/w{w}"] = result.time_units.tolist()
        for app in SWEEP_APPS:
            kernel = build_app_program(app, RAWMapping(w), seed=SWEEP_SEED)
            for mapping in ("RAW", "RAS", "RAP"):
                shifts = sample_shift_batch(
                    mapping, w, SWEEP_TRIALS, as_generator(SWEEP_SEED)
                )
                planned = kernel.run_plan(
                    shifts, compile_plan(kernel, mapping)
                ).time_units
                if not np.array_equal(planned, kernel.run_batch(shifts).time_units):
                    raise RuntimeError(f"{app}/{mapping}/w{w}: run_plan != run_batch")
                plan[f"{app}/{mapping}/w{w}"] = planned.tolist()

    def block(records: dict) -> str:
        return ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(value)}"
            for key, value in records.items()
        )

    # One cell per line keeps the artifact reviewable in a diff.
    return (
        f'{{\n "seed": {SWEEP_SEED},\n "trials": {SWEEP_TRIALS},\n'
        f' "sweep": {{\n{block(sweep)}\n }},\n'
        f' "plan": {{\n{block(plan)}\n }}\n}}\n'
    )


BASELINES = {
    "app_sweep_baseline.json": app_sweep_baseline_text,
    "apps_baseline.json": apps_baseline_text,
    "certify_baseline.json": certify_baseline_text,
    "ir_baseline.json": ir_baseline_text,
    "tables_baseline.json": tables_baseline_text,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the checked-in files without writing; "
        "exit 1 if any baseline has drifted",
    )
    args = parser.parse_args(argv)

    drifted = 0
    for name, regen in BASELINES.items():
        target = DATA_DIR / name
        text = regen()
        changed = not target.exists() or target.read_text() != text
        if args.check:
            if changed:
                drifted += 1
                print(f"STALE {target}")
            else:
                print(f"ok    {target}")
        else:
            target.write_text(text)
            print(f"{'wrote' if changed else 'unchanged'} {target}")
    if args.check and drifted:
        print(
            f"{drifted} baseline(s) stale; regenerate with "
            "`PYTHONPATH=src python tests/data/regen_baselines.py` and commit"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
