"""Figure 2: chip power vs bus utilisation (analytic, no simulation).

Paper: RLDRAM3's background power keeps it far above DDR3/LPDDR2 at low
utilisation; at high activity the curves are more comparable.
"""

from conftest import run_and_print


def test_fig2_power_curves(benchmark, experiment_config):
    table = run_and_print(benchmark, "fig2", experiment_config)
    idle, full = table.rows[0], table.rows[-1]
    assert idle["rldram3_mw"] > 2 * idle["ddr3_mw"]
    assert idle["lpddr2_mw"] < idle["ddr3_mw"]
    idle_ratio = idle["rldram3_mw"] / idle["ddr3_mw"]
    full_ratio = full["rldram3_mw"] / full["ddr3_mw"]
    assert full_ratio < idle_ratio  # gap shrinks with activity
