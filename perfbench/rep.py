"""One repetition of a workload, in a fresh process.

Run by ``run.py``; not meant to be called by hand.  The parent passes
the monotonic time at which it started this process, so ``setup_s``
covers interpreter start, ``import repro`` and engine construction, up
to the first cell.  ``wall_s`` runs from there to the end of the last
command.  The result is written as JSON to ``--out``.

``--probe`` only imports ``repro`` and writes the machine facts; it
fails when the checkout has no ``src/repro`` to import.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_repro():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"repro imported from {repro.__file__}, not {SRC}")
    return repro


def _importable(name: str) -> bool:
    try:
        __import__(name)
    except Exception:  # any failure to import means unavailable
        return False
    return True


def machine_facts() -> dict:
    import numpy

    from repro.dmm.backends import resolve_backend

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": _importable("numba"),
        "cupy": _importable("cupy"),
        "auto_backend": resolve_backend("auto").backend.name,
    }


def _paper_err(results: list) -> float | None:
    """Largest |ours - paper| over the randomized Table II cells."""
    errs = [
        abs(res.stats[key].mean - ref)
        for res in results
        for key, ref in res.paper.items()
        if not (key[1] == "RAW" and key[0] != "random")
    ]
    return max(errs) if errs else None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--t0", type=float)
    parser.add_argument("--tmp")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    import_repro()
    if args.probe:
        Path(args.out).write_text(json.dumps(machine_facts()))
        return 0

    import repro.cli
    from repro.sim.engine import MonteCarloEngine
    from repro.sim.experiments import app_time_sweep

    import workloads

    workload = workloads.get(args.workload, args.trials)

    # The first engine built marks the end of setup; every engine is
    # kept so the tracer can read retry and steal counts off it.
    engines: list = []
    setup_end: list[float] = []
    engine_init = MonteCarloEngine.__init__

    def recording_init(self, *a, **kw):
        engine_init(self, *a, **kw)
        engines.append(self)
        if not setup_end:
            setup_end.append(time.monotonic())

    MonteCarloEngine.__init__ = recording_init

    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()

    # Keep the Table II results for the accuracy figure.  Installed
    # after the tracer so it wraps the traced renderer.
    table2_results: list = []
    render_table2 = repro.cli.render_table2

    def capturing_render(result, *a, **kw):
        table2_results.append(result)
        return render_table2(result, *a, **kw)

    repro.cli.render_table2 = capturing_render

    outputs: dict[str, str] = {}
    errors: dict[str, str] = {}
    fills = {"{seed}": str(args.seed), "{journal}": str(Path(args.tmp) / "sweep.jsonl")}
    for kind, argv in workload.commands:
        label = argv[0] if kind == "cli" else kind
        buf = io.StringIO()
        try:
            if kind == "cli":
                with contextlib.redirect_stdout(buf):
                    code = repro.cli.main([fills.get(a, a) for a in argv])
                if code != 0:
                    errors[label] = f"exit code {code}"
            else:
                cells = app_time_sweep(seed=args.seed)
                for (app, mapping), res in cells.items():
                    times = ",".join(str(int(t)) for t in res.time_units)
                    buf.write(f"{app}/{mapping}: {times}\n")
        except (Exception, SystemExit) as exc:  # reported as a failed command
            errors[label] = f"{type(exc).__name__}: {exc}"
        outputs[label] = buf.getvalue()
    end = time.monotonic()

    start = setup_end[0] if setup_end else end
    result = {
        "setup_s": start - args.t0,
        "wall_s": end - start,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outputs": outputs,
        "errors": errors,
        "paper_err_max": _paper_err(table2_results),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(engines)
        result["entries"] = tracer.entries
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
