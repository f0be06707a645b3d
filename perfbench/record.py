"""Record the reference outputs that every benchmark run is checked against.

Usage (from the root of a checkout)::

    python3 perfbench/record.py

For each workload and each seed in ``0 .. SEEDS-1`` this runs one
untraced repetition and stores the digest of every result cell in
``perfbench/reference/<workload>.json``.  One traced repetition per
workload records the congestion-kernel row count.  Re-record only when
a change is meant to alter the program's output.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads
from run import REFERENCE_DIR, TMP_ROOT, digest, run_rep, split_cells

#: Seeds recorded per workload; ``run.py --seed n`` checks seed ``n mod SEEDS``.
SEEDS = 32


def main() -> int:
    TMP_ROOT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="record-", dir=TMP_ROOT))
    try:
        for name in sorted(workloads.WORKLOADS):
            seeds = {}
            for seed in range(SEEDS):
                rep = run_rep(run_dir, seed, name, seed, trace=False)
                if rep["errors"]:
                    print(f"{name} seed {seed}: {rep['errors']}", file=sys.stderr)
                    return 1
                seeds[str(seed)] = {
                    label: " ".join(digest(c) for c in split_cells(text))
                    for label, text in rep["outputs"].items()
                }
                print(f"{name} seed {seed}: wall_s={rep['wall_s']:.3f}", flush=True)
            traced = run_rep(run_dir, SEEDS, name, 0, trace=True)
            reference = {
                "workload": name,
                "congestion_rows": traced["layers"]["core.congestion.rows"],
                "seeds": seeds,
            }
            REFERENCE_DIR.mkdir(exist_ok=True)
            (REFERENCE_DIR / f"{name}.json").write_text(
                json.dumps(reference, indent=1, sort_keys=True) + "\n"
            )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
