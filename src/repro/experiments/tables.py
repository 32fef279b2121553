"""Tables 1 and 2: configuration tables, reproduced from the model's
actual parameters (not hard-coded strings) so any drift between the
implementation and the paper is visible.
"""

from __future__ import annotations

from repro.dram.timing import DDR3_TIMING, LPDDR2_TIMING, RLDRAM3_TIMING
from repro.experiments.runner import ExperimentConfig, ExperimentTable
from repro.sim.config import TABLE1


def table_1(config: ExperimentConfig, results: dict) -> ExperimentTable:
    table = ExperimentTable(
        experiment_id="tab1",
        title="Simulator parameters (paper Table 1)",
        columns=["parameter", "value"])
    for key, value in TABLE1.items():
        table.add(parameter=key, value=value)
    return table


def table_2(config: ExperimentConfig, results: dict) -> ExperimentTable:
    table = ExperimentTable(
        experiment_id="tab2",
        title="Timing parameters in ns (paper Table 2)",
        columns=["parameter", "ddr3", "rldram3", "lpddr2"])
    rows = [
        ("tRC", "t_rc"), ("tRCD", "t_rcd"), ("tRL", "t_rl"),
        ("tRP", "t_rp"), ("tRAS", "t_ras"), ("tFAW", "t_faw"),
        ("tWTR", "t_wtr"), ("tWL", "t_wl"),
    ]
    for label, attr in rows:
        table.add(parameter=label,
                  ddr3=getattr(DDR3_TIMING, attr),
                  rldram3=getattr(RLDRAM3_TIMING, attr),
                  lpddr2=getattr(LPDDR2_TIMING, attr))
    table.add(parameter="tRTRS (bus cycles)",
              ddr3=DDR3_TIMING.t_rtrs_bus_cycles,
              rldram3=RLDRAM3_TIMING.t_rtrs_bus_cycles,
              lpddr2=LPDDR2_TIMING.t_rtrs_bus_cycles)
    return table
