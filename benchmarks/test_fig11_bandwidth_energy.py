"""Figure 11: bandwidth utilisation vs RL energy savings (scatter).

Paper: savings generally grow with utilisation, because RLDRAM3's power
gap vs DDR3 shrinks at high activity.
"""

import statistics

from conftest import run_and_print


def test_fig11_energy_vs_utilization(benchmark, experiment_config):
    table = run_and_print(benchmark, "fig11", experiment_config)
    rows = [(r["bus_utilization"], r["energy_savings"])
            for r in table.rows]
    if len(rows) >= 10:
        # Positive rank correlation between utilisation and savings.
        rows.sort()
        half = len(rows) // 2
        low = statistics.mean(s for _, s in rows[:half])
        high = statistics.mean(s for _, s in rows[half:])
        assert high > low
