"""Figure 6: RD / RL / DL throughput vs the DDR3 baseline.

Paper averages: RD +21 %, RL +12.9 %, DL -9 %.
"""

from conftest import run_and_print


def test_fig6_cwf_throughput(benchmark, experiment_config):
    table = run_and_print(benchmark, "fig6", experiment_config)
    mean = table.rows[-1]
    # Ordering: RD > RL > DL, with RL a net win and DL roughly neutral
    # or a loss (it trades DDR3 bulk for LPDDR2 bulk).
    assert mean["rd"] > mean["rl"] > mean["dl"]
    assert mean["rl"] > 1.0
    assert mean["rd"] > 1.05
    assert mean["dl"] < 1.05
