"""Figures 6-9: the critical-word-first evaluation.

* Fig 6 — throughput of RD / RL / DL normalised to the DDR3 baseline
  (paper: RD +21 %, RL +12.9 %, DL -9 % on average).
* Fig 7 — average critical-word latency per configuration (paper: RD
  -30 %, RL -22 % vs baseline).
* Fig 8 — fraction of critical-word requests served by the fast
  (RLDRAM3) module (paper: 67 % static average).
* Fig 9 — RL vs adaptive (RL AD, +15.7 %), oracle (RL OR, +28 %), and
  the all-RLDRAM3 system (+31 %).
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.runner import ExperimentConfig, ExperimentTable
from repro.experiments.specs import RunSpec
from repro.sim.system import SimResult

CWF_KINDS = ("rd", "rl", "dl")
FIG9_KINDS = ("rl", "rl_adaptive", "rl_oracle",
              "rldram3")


def specs_figure_6(config: ExperimentConfig) -> List[RunSpec]:
    return [RunSpec(bench, kind)
            for bench in config.suite()
            for kind in ("ddr3",) + CWF_KINDS]


def specs_figure_8(config: ExperimentConfig) -> List[RunSpec]:
    return [RunSpec(bench, "rl") for bench in config.suite()]


def specs_figure_9(config: ExperimentConfig) -> List[RunSpec]:
    return [RunSpec(bench, kind)
            for bench in config.suite()
            for kind in ("ddr3",) + FIG9_KINDS]


def figure_6(config: ExperimentConfig,
             results: Dict[RunSpec, SimResult]) -> ExperimentTable:
    table = ExperimentTable(
        experiment_id="fig6",
        title="CWF throughput normalised to DDR3 baseline",
        columns=["benchmark", "rd", "rl", "dl"],
        notes="Paper averages: RD 1.21, RL 1.129, DL 0.91.")
    for bench in config.suite():
        base = results[RunSpec(bench, "ddr3")]
        row = {"benchmark": bench}
        for kind in CWF_KINDS:
            row[kind] = results[RunSpec(bench, kind)].speedup_over(base)
        table.add(**row)
    table.add(benchmark="MEAN", rd=table.mean("rd"), rl=table.mean("rl"),
              dl=table.mean("dl"))
    return table


def figure_7(config: ExperimentConfig,
             results: Dict[RunSpec, SimResult]) -> ExperimentTable:
    table = ExperimentTable(
        experiment_id="fig7",
        title="Average critical-word latency (CPU cycles)",
        columns=["benchmark", "ddr3", "rd", "rl", "dl"],
        notes="Paper: critical-word latency reductions of 30% (RD) and "
              "22% (RL) vs the DDR3 baseline.")
    for bench in config.suite():
        row = {"benchmark": bench}
        row["ddr3"] = results[
            RunSpec(bench, "ddr3")].avg_critical_latency
        for kind in CWF_KINDS:
            row[kind] = results[
                RunSpec(bench, kind)].avg_critical_latency
        table.add(**row)
    table.add(benchmark="MEAN",
              **{c: table.mean(c) for c in ("ddr3", "rd", "rl", "dl")})
    return table


def figure_8(config: ExperimentConfig,
             results: Dict[RunSpec, SimResult]) -> ExperimentTable:
    table = ExperimentTable(
        experiment_id="fig8",
        title="Critical word requests served by the fast module (RL)",
        columns=["benchmark", "fast_fraction", "word0_fraction"],
        notes="Paper: word-0 placement serves 67% of critical words on "
              "average (static).")
    for bench in config.suite():
        rl = results[RunSpec(bench, "rl")]
        table.add(benchmark=bench, fast_fraction=rl.fast_service_fraction,
                  word0_fraction=rl.word0_fraction)
    table.add(benchmark="MEAN", fast_fraction=table.mean("fast_fraction"),
              word0_fraction=table.mean("word0_fraction"))
    return table


def figure_9(config: ExperimentConfig,
             results: Dict[RunSpec, SimResult]) -> ExperimentTable:
    table = ExperimentTable(
        experiment_id="fig9",
        title="RL variants vs baseline: static / adaptive / oracle / all-RLDRAM3",
        columns=["benchmark", "rl", "rl_ad", "rl_or", "rldram3"],
        notes="Paper averages: RL 1.129, RL AD 1.157, RL OR 1.28, "
              "all-RLDRAM3 1.31.")
    for bench in config.suite():
        base = results[RunSpec(bench, "ddr3")]
        table.add(
            benchmark=bench,
            rl=results[RunSpec(bench, "rl")].speedup_over(base),
            rl_ad=results[
                RunSpec(bench, "rl_adaptive")].speedup_over(base),
            rl_or=results[
                RunSpec(bench, "rl_oracle")].speedup_over(base),
            rldram3=results[
                RunSpec(bench, "rldram3")].speedup_over(base),
        )
    table.add(benchmark="MEAN",
              **{c: table.mean(c) for c in ("rl", "rl_ad", "rl_or", "rldram3")})
    return table
