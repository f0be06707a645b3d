"""Batched DMM executor throughput vs the scalar per-trial loop.

Runs ``bench-dmm``'s default comparison (baseline ``scalar``, candidate
``batched``; see :mod:`repro.sim.bench`) on each default app at w=32
and a reduced trial count, so the full harness stays fast.  Every
measurement first verifies the two executors return identical
per-trial completion times.

The committed speed contract is the CI ``perf-smoke`` floor, enforced
through the CLI gate (``python -m repro bench-dmm ... --min-speedup
3``) rather than here.
"""

import pytest

from repro.sim.bench import DEFAULT_BENCH_APPS, bench_app, select_mode

from .conftest import BENCH_SEED


@pytest.mark.parametrize("app", DEFAULT_BENCH_APPS)
def test_bench_dmm_speedup(benchmark, app):
    """Batched beats scalar on every target app (reduced size)."""

    def measure():
        (row,) = bench_app(app, select_mode(), w=32, trials=30, seed=BENCH_SEED, repeats=1)
        return row

    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(
        f"\n{app}: scalar {result.baseline_trials_per_s:.0f} trials/s, "
        f"batched {result.candidate_trials_per_s:.0f} trials/s "
        f"({result.speedup:.1f}x)"
    )
    # bench_app already asserted batched == scalar exactly; here we only
    # gate on a direction, not a magnitude — CI timing boxes are noisy.
    assert result.speedup > 1.0
