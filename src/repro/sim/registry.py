"""Machine-readable experiment index — DESIGN.md's table, importable.

Each entry ties a paper artefact (or one of this repo's extensions) to
the modules that implement it and the CLI command that prints it.  The
test suite imports every module and runs every named command's
``--help``, so the documentation cannot drift from the code.
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
    cli:
        ``python -m repro <cli>`` subcommand, or ``None``.
    """

    id: str
    source: str
    paper_ref: str
    modules: tuple[str, ...]
    cli: str | None


EXPERIMENT_INDEX: tuple[Experiment, ...] = (
    Experiment(
        "table1", "paper", "Table I",
        ("repro.core.theory", "repro.core.mappings"), "table1",
    ),
    Experiment(
        "table2", "paper", "Table II",
        ("repro.sim.congestion_sim", "repro.access.patterns"), "table2",
    ),
    Experiment(
        "table3", "paper", "Table III",
        ("repro.access.transpose", "repro.dmm.machine", "repro.gpu.timing"),
        "table3",
    ),
    Experiment(
        "table4", "paper", "Table IV",
        ("repro.core.higher_dim", "repro.access.patterns_nd"), "table4",
    ),
    Experiment(
        "figures", "paper", "Figs. 1-7",
        ("repro.report.figures",), "fig1",
    ),
    Experiment(
        "lemma1", "paper", "Lemma 1",
        ("repro.dmm.machine", "repro.access.transpose"), "lemma1",
    ),
    Experiment(
        "theorem2", "paper", "Theorem 2 / Lemma 4",
        ("repro.core.theory", "repro.sim.congestion_sim"), "growth",
    ),
    Experiment(
        "ablations", "extension", "-",
        ("repro.sim.congestion_sim", "repro.gpu.timing"), None,
    ),
    Experiment(
        "exact", "extension", "-",
        ("repro.core.exact",), "exact",
    ),
    Experiment(
        "padding", "extension", "-",
        ("repro.core.padded",), "table2x",
    ),
    Experiment(
        "swizzle", "extension", "-",
        ("repro.core.swizzle",), "table2x",
    ),
    Experiment(
        "offline", "extension", "paper refs [8],[13]",
        ("repro.routing.coloring", "repro.routing.offline"), "offline",
    ),
    Experiment(
        "matmul", "extension", "paper Section I",
        ("repro.gpu.matmul",), "matmul",
    ),
    Experiment(
        "strided", "extension", "-",
        ("repro.access.strided",), None,
    ),
    Experiment(
        "apps", "extension", "-",
        ("repro.apps.fft", "repro.apps.scan", "repro.apps.stencil",
         "repro.apps.sort", "repro.apps.gather", "repro.apps.spmv"), "apps",
    ),
    Experiment(
        "histogram", "extension", "-",
        ("repro.apps.histogram",), None,
    ),
    Experiment(
        "global-transpose", "extension", "paper ref [14]",
        ("repro.apps.global_transpose",), None,
    ),
    Experiment(
        "future-widths", "extension", "paper Section V",
        ("repro.access.transpose",), None,
    ),
    Experiment(
        "distributions", "extension", "-",
        ("repro.sim.distributions",), None,
    ),
    Experiment(
        "seed-sensitivity", "extension", "-",
        ("repro.core.mappings",), None,
    ),
    Experiment(
        "prover", "extension", "Theorem 1",
        ("repro.analysis.affine", "repro.analysis.prover"), "prove",
    ),
    Experiment(
        "batched-dmm", "extension", "-",
        ("repro.dmm.batched", "repro.sim.bench"), "bench-dmm",
    ),
    Experiment(
        "adversary", "extension", "Theorem 2",
        ("repro.adversary.search", "repro.apps.zoo"), "adversary",
    ),
)
