"""Rendering of regenerated tables and figures."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.report.figures": [
            "ALL_FIGURES",
            "Figure",
            "figure1",
            "figure2",
            "figure3",
            "figure4",
            "figure5",
            "figure6",
            "figure7",
        ],
        "repro.report.ascii_plot": ["bar_chart", "line_chart"],
        "repro.report.run_stats": ["RunStatsCollector", "ShardRecord"],
        "repro.report.heatmap": ["bank_heatmap", "load_glyph", "render_heatmap"],
        "repro.report.tables": [
            "format_grid",
            "render_table1",
            "render_table2",
            "render_table3",
            "render_table4",
        ],
    },
)
