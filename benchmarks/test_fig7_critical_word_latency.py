"""Figure 7: average critical-word latency per configuration.

Paper: the CWF organisations cut the critical word's latency by ~30 %
(RD) and ~22 % (RL) vs the baseline.
"""

from conftest import run_and_print


def test_fig7_critical_latency(benchmark, experiment_config):
    table = run_and_print(benchmark, "fig7", experiment_config)
    mean = table.rows[-1]
    assert mean["rd"] < mean["ddr3"]
    assert mean["rl"] < mean["ddr3"]
    # RD (DDR3 bulk) beats RL (LPDDR2 bulk) on latency.
    assert mean["rd"] <= mean["rl"] * 1.05
    reduction_rl = 1 - mean["rl"] / mean["ddr3"]
    assert reduction_rl > 0.10  # paper: 22 %
