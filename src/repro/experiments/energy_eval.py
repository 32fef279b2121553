"""Figures 10-11 and Section 7.2: energy analysis.

* Fig 10 — system energy of RD / RL / DL normalised to the DDR3
  baseline (paper: RL -6 %, DL -13 %; memory energy -15 % for RL).
* Fig 11 — per-workload scatter of bandwidth utilisation vs RL energy
  savings (paper: savings grow with utilisation).
* Sec 7.2 — the Malladi-style unterminated-LPDRAM variant: recompute RL
  memory power without the server ODT/DLL adders (paper: energy savings
  grow to 26.1 %). The alternate power totals need the live memory
  system, so the Sec 7.2 spec is a view of the RL run: it reads the
  finished RL simulation and packs both totals into ``SimResult.extra``
  (cacheable like any result, and simulated once with the RL spec; the
  view is ``sec72_power`` in :mod:`repro.experiments.named`).
"""

from __future__ import annotations

from typing import Dict, List

from repro.energy.model import SystemEnergyModel
from repro.experiments.runner import ExperimentConfig, ExperimentTable
from repro.experiments.specs import RunSpec
from repro.sim.system import SimResult

CWF_KINDS = ("rd", "rl", "dl")


def sec72_spec(benchmark: str) -> RunSpec:
    return RunSpec(benchmark, "rl", variant="unterminated",
                   runner="sec72_power")


def specs_figure_10(config: ExperimentConfig) -> List[RunSpec]:
    return [RunSpec(bench, kind)
            for bench in config.suite()
            for kind in ("ddr3",) + CWF_KINDS]


def specs_figure_11(config: ExperimentConfig) -> List[RunSpec]:
    return [RunSpec(bench, kind)
            for bench in config.suite()
            for kind in ("ddr3", "rl")]


def specs_section_7_2(config: ExperimentConfig) -> List[RunSpec]:
    specs = []
    for bench in config.suite():
        specs.append(RunSpec(bench, "ddr3"))
        specs.append(sec72_spec(bench))
    return specs


def figure_10(config: ExperimentConfig,
              results: Dict[RunSpec, SimResult]) -> ExperimentTable:
    table = ExperimentTable(
        experiment_id="fig10",
        title="System energy normalised to DDR3 baseline",
        columns=["benchmark", "rd", "rl", "dl", "rl_memory_energy"],
        notes="Paper: RL system energy -6%, DL -13%; RL memory energy -15%.")
    for bench in config.suite():
        base = results[RunSpec(bench, "ddr3")]
        model = SystemEnergyModel(base)
        row = {"benchmark": bench}
        for kind in CWF_KINDS:
            result = results[RunSpec(bench, kind)]
            row[kind] = model.report(result).normalized_system_energy
        rl = results[RunSpec(bench, "rl")]
        row["rl_memory_energy"] = model.report(rl).normalized_memory_energy
        table.add(**row)
    table.add(benchmark="MEAN",
              **{c: table.mean(c) for c in ("rd", "rl", "dl",
                                            "rl_memory_energy")})
    return table


def figure_11(config: ExperimentConfig,
              results: Dict[RunSpec, SimResult]) -> ExperimentTable:
    table = ExperimentTable(
        experiment_id="fig11",
        title="Bandwidth utilisation vs RL system-energy savings",
        columns=["benchmark", "bus_utilization", "energy_savings"],
        notes="Paper: energy savings generally increase with utilisation "
              "(RLDRAM's power gap shrinks at high activity).")
    for bench in config.suite():
        base = results[RunSpec(bench, "ddr3")]
        rl = results[RunSpec(bench, "rl")]
        model = SystemEnergyModel(base)
        savings = 1.0 - model.report(rl).normalized_system_energy
        table.add(benchmark=bench, bus_utilization=base.bus_utilization,
                  energy_savings=savings)
    return table


def section_7_2(config: ExperimentConfig,
                results: Dict[RunSpec, SimResult]) -> ExperimentTable:
    """Unterminated LPDRAM (Malladi et al. style): no ODT/DLL adders."""
    table = ExperimentTable(
        experiment_id="sec72",
        title="RL memory energy with unterminated (native) LPDRAM",
        columns=["benchmark", "server_adapted", "unterminated",
                 "savings_boost"],
        notes="Paper: dropping the ODT/DLL server adaptation boosts energy "
              "savings to 26.1%.")
    for bench in config.suite():
        result = results[sec72_spec(bench)]
        powers = result.extra["sec72"]
        base = results[RunSpec(bench, "ddr3")]
        base_energy = base.memory_power_mw * base.elapsed_cycles
        adapted_sav = 1 - (powers["adapted_mw"]
                           * result.elapsed_cycles) / base_energy
        native_sav = 1 - (powers["native_mw"]
                          * result.elapsed_cycles) / base_energy
        table.add(benchmark=bench, server_adapted=adapted_sav,
                  unterminated=native_sav,
                  savings_boost=native_sav - adapted_sav)
    table.add(benchmark="MEAN",
              server_adapted=table.mean("server_adapted"),
              unterminated=table.mean("unterminated"),
              savings_boost=table.mean("savings_boost"))
    return table
