"""Figure 1: sensitivity of applications to the three DRAM flavours.

Fig 1a — throughput of homogeneous RLDRAM3 / LPDDR2 memories
normalised to the DDR3 baseline (paper: RLDRAM3 +31 %, LPDDR2 -13 % on
average). Fig 1b — the average memory latency split into queue delay and
core (array) delay for each flavour (paper: RLDRAM3 total ~43 % lower
than DDR3, LPDDR2 ~41 % higher).
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.runner import ExperimentConfig, ExperimentTable
from repro.experiments.specs import RunSpec
from repro.sim.system import SimResult

FLAVOURS = ("ddr3", "rldram3", "lpddr2")


def specs_figure_1a(config: ExperimentConfig) -> List[RunSpec]:
    return [RunSpec(bench, kind)
            for bench in config.suite() for kind in FLAVOURS]


def figure_1a(config: ExperimentConfig,
              results: Dict[RunSpec, SimResult]) -> ExperimentTable:
    table = ExperimentTable(
        experiment_id="fig1a",
        title="Homogeneous DRAM flavours: normalised throughput",
        columns=["benchmark", "ddr3", "rldram3", "lpddr2"],
        notes="Paper: RLDRAM3 +31% and LPDDR2 -13% vs DDR3 (suite average).")
    for bench in config.suite():
        base = results[RunSpec(bench, "ddr3")]
        rld = results[RunSpec(bench, "rldram3")]
        lpd = results[RunSpec(bench, "lpddr2")]
        table.add(benchmark=bench, ddr3=1.0,
                  rldram3=rld.speedup_over(base),
                  lpddr2=lpd.speedup_over(base))
    table.add(benchmark="MEAN", ddr3=1.0,
              rldram3=table.mean("rldram3"), lpddr2=table.mean("lpddr2"))
    return table


def figure_1b(config: ExperimentConfig,
              results: Dict[RunSpec, SimResult]) -> ExperimentTable:
    table = ExperimentTable(
        experiment_id="fig1b",
        title="Memory read latency breakdown (CPU cycles)",
        columns=["benchmark", "flavour", "queue_latency", "core_latency",
                 "total"],
        notes="Paper: RLDRAM3 queue + core well below DDR3; LPDDR2 ~41% above.")
    for bench in config.suite():
        for kind in FLAVOURS:
            result = results[RunSpec(bench, kind)]
            table.add(benchmark=bench, flavour=kind,
                      queue_latency=result.avg_queue_latency,
                      core_latency=result.avg_core_latency,
                      total=result.avg_queue_latency + result.avg_core_latency)
    for kind in FLAVOURS:
        rows = [r for r in table.rows if r["flavour"] == kind]
        queue = sum(r["queue_latency"] for r in rows) / len(rows)
        core = sum(r["core_latency"] for r in rows) / len(rows)
        table.add(benchmark="MEAN", flavour=kind,
                  queue_latency=queue, core_latency=core, total=queue + core)
    return table
