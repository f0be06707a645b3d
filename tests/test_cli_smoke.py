"""End-to-end CLI smoke: parallel output must diff clean vs serial.

Runs ``python -m repro`` as a real subprocess — the same invocation CI
uses — and fails on *any* byte of difference between ``--workers 2``
and ``--workers 1`` output, and between cache-cold and cache-warm
reruns.  This is the executable form of the engine's bit-identity
contract at the outermost layer.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def run_cli(args: list[str], cache_dir: Path) -> str:
    """Run ``python -m repro <args>`` and return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("widths", [["16", "32", "64"]])
def test_table2_parallel_output_matches_serial(tmp_path, widths):
    """`table2 --trials 200 --workers 2` ≡ `--workers 1`, byte for byte."""
    base = ["table2", "--trials", "200", "--widths", *widths, "--no-cache"]
    parallel = run_cli([*base, "--workers", "2"], tmp_path / "a")
    serial = run_cli([*base, "--workers", "1"], tmp_path / "b")
    assert parallel == serial
    assert "Table II" in serial


def test_table4_parallel_output_matches_serial(tmp_path):
    base = ["table4", "--trials", "100", "--w4", "8", "--no-cache"]
    parallel = run_cli([*base, "--workers", "2"], tmp_path / "a")
    serial = run_cli([*base, "--workers", "1"], tmp_path / "b")
    assert parallel == serial
    assert "Table IV" in serial


def test_table2_cache_warm_output_matches_cold(tmp_path):
    """Cold and warm runs share one cache dir and must print the same."""
    args = ["table2", "--trials", "100", "--widths", "16", "--stats"]
    cache_dir = tmp_path / "shared"
    cold = run_cli(args, cache_dir)
    warm = run_cli(args, cache_dir)
    # Strip the run-stats block (timings legitimately differ).
    cold_table = cold.split("Engine run stats")[0]
    warm_table = warm.split("Engine run stats")[0]
    assert cold_table == warm_table
    assert "hit" in warm  # the warm run actually used the cache
    assert "Engine run stats" in cold  # --stats wiring works end to end


def test_chaos_reaches_the_default_engine(tmp_path):
    """`--chaos kill-worker` without `--fabric` kills worker 1 of a
    `--workers 2` run, and the tables still match a fault-free serial
    run byte for byte."""
    base = ["table2", "--trials", "64", "--widths", "16", "--no-cache"]
    chaos = run_cli(
        [*base, "--workers", "2", "--chaos", "kill-worker", "--stats"],
        tmp_path / "a",
    )
    serial = run_cli([*base, "--workers", "1"], tmp_path / "b")
    tables, stats = chaos.split("Engine run stats")
    assert tables == serial
    # Worker 1 dies on shard 1 of each of the 9 multi-shard tasks (a dead
    # worker is out for the rest of its task); each death is one retry.
    assert "resilience: 9 shard retries (9 worker-died)" in stats
    worker1 = next(row for row in stats.splitlines() if row.startswith("1 "))
    assert [cell.strip() for cell in worker1.split("|")][6] == "9"  # deaths
