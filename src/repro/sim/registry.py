"""Machine-readable experiment index — DESIGN.md's table, importable.

Each entry ties a paper artefact (or one of this repo's extensions) to
the modules that implement it, the benchmark that regenerates it, and
the CLI command that prints it.  The test suite checks the index
against the filesystem, so the documentation cannot drift from the
code.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Experiment", "EXPERIMENT_INDEX"]


@dataclass(frozen=True)
class Experiment:
    """One regenerable experiment.

    Attributes
    ----------
    id:
        Stable identifier (also the CLI command where applicable).
    source:
        Where the artefact comes from: ``"paper"`` (a table/figure of
        the paper) or ``"extension"`` (this repo's additions).
    paper_ref:
        The paper location (``"Table II"``, ``"Fig. 3"``, ``"-"``).
    modules:
        Implementing modules (dotted paths).
    bench:
        Benchmark file under ``benchmarks/`` that regenerates it.
    cli:
        ``python -m repro <cli>`` command, or ``None``.
    """

    id: str
    source: str
    paper_ref: str
    modules: tuple[str, ...]
    bench: str
    cli: str | None


EXPERIMENT_INDEX: tuple[Experiment, ...] = (
    Experiment(
        "table1", "paper", "Table I",
        ("repro.core.theory", "repro.core.mappings"),
        "bench_table1.py", "table1",
    ),
    Experiment(
        "table2", "paper", "Table II",
        ("repro.sim.congestion_sim", "repro.access.patterns"),
        "bench_table2.py", "table2",
    ),
    Experiment(
        "table3", "paper", "Table III",
        ("repro.access.transpose", "repro.dmm.machine", "repro.gpu.timing"),
        "bench_table3.py", "table3",
    ),
    Experiment(
        "table4", "paper", "Table IV",
        ("repro.core.higher_dim", "repro.access.patterns_nd"),
        "bench_table4.py", "table4",
    ),
    Experiment(
        "figures", "paper", "Figs. 1-7",
        ("repro.report.figures",),
        "bench_figures.py", "fig1",
    ),
    Experiment(
        "lemma1", "paper", "Lemma 1",
        ("repro.dmm.machine", "repro.access.transpose"),
        "bench_lemma1.py", "lemma1",
    ),
    Experiment(
        "theorem2", "paper", "Theorem 2 / Lemma 4",
        ("repro.core.theory", "repro.sim.congestion_sim"),
        "bench_theory.py", "growth",
    ),
    Experiment(
        "ablations", "extension", "-",
        ("repro.sim.congestion_sim", "repro.gpu.timing"),
        "bench_ablations.py", None,
    ),
    Experiment(
        "exact", "extension", "-",
        ("repro.core.exact",),
        "bench_exact.py", "exact",
    ),
    Experiment(
        "padding", "extension", "-",
        ("repro.core.padded",),
        "bench_padding.py", "table2x",
    ),
    Experiment(
        "swizzle", "extension", "-",
        ("repro.core.swizzle",),
        "bench_swizzle.py", "table2x",
    ),
    Experiment(
        "offline", "extension", "paper refs [8],[13]",
        ("repro.routing.coloring", "repro.routing.offline"),
        "bench_offline.py", "offline",
    ),
    Experiment(
        "matmul", "extension", "paper Section I",
        ("repro.gpu.matmul",),
        "bench_matmul.py", "matmul",
    ),
    Experiment(
        "strided", "extension", "-",
        ("repro.access.strided",),
        "bench_strided.py", None,
    ),
    Experiment(
        "apps", "extension", "-",
        ("repro.apps.fft", "repro.apps.scan", "repro.apps.stencil",
         "repro.apps.sort", "repro.apps.gather", "repro.apps.spmv"),
        "bench_apps.py", "apps",
    ),
    Experiment(
        "histogram", "extension", "-",
        ("repro.apps.histogram",),
        "bench_histogram.py", None,
    ),
    Experiment(
        "global-transpose", "extension", "paper ref [14]",
        ("repro.apps.global_transpose",),
        "bench_global.py", None,
    ),
    Experiment(
        "future-widths", "extension", "paper Section V",
        ("repro.access.transpose",),
        "bench_future_widths.py", None,
    ),
    Experiment(
        "distributions", "extension", "-",
        ("repro.sim.distributions",),
        "bench_distributions.py", None,
    ),
    Experiment(
        "seed-sensitivity", "extension", "-",
        ("repro.core.mappings",),
        "bench_seed_sensitivity.py", None,
    ),
    Experiment(
        "prover", "extension", "Theorem 1",
        ("repro.analysis.affine", "repro.analysis.prover"),
        "bench_prover.py", None,
    ),
    Experiment(
        "batched-dmm", "extension", "-",
        ("repro.dmm.batched", "repro.sim.bench"),
        "bench_dmm.py", None,
    ),
    Experiment(
        "adversary", "extension", "Theorem 2",
        ("repro.adversary.search", "repro.apps.zoo"),
        "bench_adversary.py", None,
    ),
)
