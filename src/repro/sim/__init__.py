"""Monte-Carlo simulation harness and the experiment registry."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.sim.congestion_sim": [
            "CongestionStats",
            "RunningStats",
            "simulate_matrix_congestion",
            "simulate_nd_congestion",
        ],
        "repro.sim.distributions": [
            "CongestionDistribution",
            "congestion_distribution",
        ],
        "repro.sim.engine": ["DEFAULT_SHARDS", "MonteCarloEngine"],
        "repro.sim.cache": ["ResultCache"],
        "repro.sim.registry": ["EXPERIMENT_INDEX", "Experiment"],
        "repro.sim.sweep": [
            "GrowthSweep",
            "LatencySweep",
            "growth_sweep",
            "latency_sweep",
        ],
        "repro.sim.experiments": [
            "PAPER_TABLE2",
            "PAPER_TABLE4_CLASSES",
            "TABLE2_WIDTHS",
            "Table1Result",
            "Table2Result",
            "Table3Result",
            "Table3Row",
            "Table4Result",
            "table1",
            "table2",
            "table3",
            "table4",
        ],
    },
)
