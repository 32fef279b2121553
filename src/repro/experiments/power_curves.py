"""Figure 2: chip power vs data-bus utilisation for the three flavours.

Analytic sweep of the Micron-style power model (no simulation): the
paper's observation is that RLDRAM3 has a high flat background floor
(much higher than DDR3 at low utilisation) while LPDDR2 sits lowest;
at high utilisation the curves converge somewhat.
"""

from __future__ import annotations

from repro.dram.device import DRAMKind
from repro.dram.power import default_power_model
from repro.experiments.runner import ExperimentConfig, ExperimentTable

UTILIZATION_POINTS = [0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0]
# Row-buffer hit rate of the open-page parts (DDR3, LPDDR2).
ROW_HIT_RATE = 0.5


def figure_2(config: ExperimentConfig, results: dict) -> ExperimentTable:
    table = ExperimentTable(
        experiment_id="fig2",
        title="Chip power (mW) vs bus utilisation",
        columns=["utilization", "ddr3_mw", "rldram3_mw", "lpddr2_mw"],
        notes="Paper: RLDRAM3 floor far above DDR3/LPDDR2; curves converge "
              "at high utilisation.")
    models = {
        "ddr3_mw": (default_power_model(DRAMKind.DDR3), ROW_HIT_RATE),
        # RLDRAM3 is close-page: every access activates.
        "rldram3_mw": (default_power_model(DRAMKind.RLDRAM3), 0.0),
        "lpddr2_mw": (default_power_model(DRAMKind.LPDDR2), ROW_HIT_RATE),
    }
    for util in UTILIZATION_POINTS:
        row = {"utilization": util}
        for name, (model, hit_rate) in models.items():
            # Idle LPDDR2 spends most time powered down (its fast
            # power-mode transitions are the point of the part).
            pd = 0.0
            if model.kind is DRAMKind.LPDDR2:
                pd = max(0.0, 0.8 - util)
            elif model.kind is DRAMKind.DDR3:
                pd = max(0.0, 0.4 - util * 0.5)
            breakdown = model.power_at_utilization(
                util, row_hit_rate=hit_rate, power_down_fraction=pd)
            row[name] = breakdown.total_mw
        table.add(**row)
    return table
