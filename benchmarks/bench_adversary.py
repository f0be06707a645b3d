"""Adversarial worst-case search: cost and found-congestion table.

The committed ``BENCH_adversary.json`` at the repo root is regenerated
by the CLI (this is the full default-budget sweep — minutes, not
seconds)::

    PYTHONPATH=src python -m repro adversary \\
        --w 32 64 128 256 512 1024 --json BENCH_adversary.json --workers 0

Under pytest-benchmark the search runs at the ``tiny`` budget and a
small width so the harness stays fast; what is asserted here is the
direction the artifact records at scale — the search recovers RAW's
full ``w``-fold serialization, and RAP's found-worst congestion stays
strictly below it.
"""

import sys

import pytest

from repro.adversary import find_worst_pattern
from repro.report.tables import render_adversary
from repro.sim.experiments import adversary_table

from .conftest import BENCH_SEED

#: Width the timed search runs at (tiny budget: seconds).
BENCH_W = 32


@pytest.mark.parametrize("mapping", ["RAW", "RAP"])
def test_bench_adversary_search(benchmark, mapping):
    """Time one tiny-budget search per mapping at w=32."""

    def measure():
        return find_worst_pattern(
            mapping, BENCH_W, seed=BENCH_SEED, budget="tiny"
        )

    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(
        f"\n{mapping}: found-worst {result.eval_score:.2f} "
        f"(restart {result.restart_index}, train {result.train_score:.2f})"
    )
    if mapping == "RAW":
        # The stride attack is exact: nothing less than w is acceptable.
        assert result.eval_score == BENCH_W
    else:
        assert result.eval_score < BENCH_W


def test_bench_adversary_table(benchmark):
    """Time the full RAW/RAP grid at tiny budget and print the table."""

    def measure():
        return adversary_table(
            mappings=("RAW", "RAP"),
            widths=(16, 32),
            seed=BENCH_SEED,
            budget="tiny",
        )

    sweep = benchmark.pedantic(measure, rounds=1, iterations=1)
    print("\n" + render_adversary(sweep))
    for w in sweep.widths:
        assert (
            sweep.results[("RAW", w)].eval_score
            > sweep.results[("RAP", w)].eval_score
        )


if __name__ == "__main__":
    from repro.adversary.cli import main

    sys.exit(main(["--json", "BENCH_adversary.json", *sys.argv[1:]]))
