"""Figure 8: fraction of critical words served by the RLDRAM3 module.

Paper: with static word-0 placement, 67 % of critical-word requests are
served from the fast module on average; streaming codes are >85 %,
pointer chasers ~30 %.
"""

from conftest import run_and_print


def test_fig8_fast_service(benchmark, experiment_config):
    table = run_and_print(benchmark, "fig8", experiment_config)
    rows = {r["benchmark"]: r["fast_fraction"] for r in table.rows}
    mean = rows.pop("MEAN")
    if len(rows) > 10:
        assert 0.55 < mean < 0.8
        assert rows["leslie3d"] > 0.8
        assert rows["mcf"] < 0.5
    # Static placement: fast service fraction == word-0 fraction.
    for row in table.rows:
        assert abs(row["fast_fraction"] - row["word0_fraction"]) < 0.05
