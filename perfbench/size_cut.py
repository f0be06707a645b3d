"""Record how cutting ``table2-paper`` to the benchmark's size changes it.

Usage (from the root of a checkout)::

    python3 perfbench/size_cut.py

Runs ``table2-paper`` once untraced and once traced at the CLI default
of 1000 trials and at the benchmark's size, and writes the wall time,
peak memory and per-layer self-time split of each to
``perfbench/size_cut.json``.  At 1000 trials each of the 8 shards of a
w=256 cell stages 125 trials of ``256 x 256`` int64 addresses at once,
which reaches the 64 MiB chunk cap; at the benchmark's size no shard
does.  Takes about four minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads
from run import HERE, TMP_ROOT, probe, run_rep

SIZES = (1000, workloads.TABLE2_TRIALS)
SEED = 0


def main() -> int:
    TMP_ROOT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="size-cut-", dir=TMP_ROOT))
    try:
        report = {"machine": probe(run_dir), "seed": SEED, "sizes": {}}
        for i, trials in enumerate(SIZES):
            plain = run_rep(run_dir, 2 * i, "table2-paper", SEED, False, trials)
            traced = run_rep(run_dir, 2 * i + 1, "table2-paper", SEED, True, trials)
            if plain["errors"] or traced["errors"] or plain["outputs"] != traced["outputs"]:
                print(f"trials={trials}: failed or traced output differs", file=sys.stderr)
                return 1
            layers = traced["layers"]
            split = {
                key[: -len(".self_s")]: round(value / traced["wall_s"], 4)
                for key, value in layers.items()
                if key.endswith(".self_s") and value > 0
            }
            report["sizes"][str(trials)] = {
                "wall_s": round(plain["wall_s"], 3),
                "traced_wall_s": round(traced["wall_s"], 3),
                "peak_rss_mib": round(plain["peak_rss_mib"], 1),
                "congestion_rows": layers["core.congestion.rows"],
                "congestion_rows_per_call": round(layers["core.congestion.rows_per_call"], 1),
                "congestion_ns_per_row": round(layers["core.congestion.ns_per_row"], 1),
                "self_time_share": dict(sorted(split.items(), key=lambda kv: -kv[1])),
            }
            print(json.dumps({trials: report["sizes"][str(trials)]}), flush=True)
        (HERE / "size_cut.json").write_text(json.dumps(report, indent=1) + "\n")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
