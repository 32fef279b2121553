"""Figure 1: homogeneous DRAM flavour sensitivity.

Paper: RLDRAM3 +31 % throughput over DDR3, LPDDR2 -13 %; RLDRAM3 memory
latency ~43 % below DDR3, LPDDR2 ~41 % above (Fig 1b splits queue/core).
"""

from conftest import run_and_print


def test_fig1a_homogeneous_throughput(benchmark, experiment_config):
    table = run_and_print(benchmark, "fig1a", experiment_config)
    mean = table.rows[-1]
    assert mean["benchmark"] == "MEAN"
    # Shape: RLDRAM3 wins, LPDDR2 loses.
    assert mean["rldram3"] > 1.05
    assert mean["lpddr2"] < 0.95


def test_fig1b_latency_breakdown(benchmark, experiment_config):
    table = run_and_print(benchmark, "fig1b", experiment_config)
    means = {r["flavour"]: r for r in table.rows if r["benchmark"] == "MEAN"}
    assert means["rldram3"]["total"] < means["ddr3"]["total"]
    assert means["lpddr2"]["total"] > means["ddr3"]["total"]
    # Queue delay is a significant component for DDR3 (paper Fig 1b).
    assert means["ddr3"]["queue_latency"] > 0
