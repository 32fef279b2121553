"""Section 6.1.1 control experiments.

* Random critical-word mapping — the critical word lands in the fast
  DIMM with probability 1/8 (paper: only +2.1 % average, many apps
  degrade; proves the intelligent mapping is what matters).
* No-prefetcher RL — with the stream prefetcher off, there is more
  latency left to hide, so the RL gain grows (paper: +17.3 % vs
  +12.9 % with prefetching).
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.runner import ExperimentConfig, ExperimentTable
from repro.experiments.specs import RunSpec
from repro.sim.system import SimResult

NOPREFETCH = (("prefetcher_enabled", False),)


def specs_random_mapping(config: ExperimentConfig) -> List[RunSpec]:
    return [RunSpec(bench, kind)
            for bench in config.suite()
            for kind in ("ddr3", "rl",
                         "rl_random")]


def specs_no_prefetcher(config: ExperimentConfig) -> List[RunSpec]:
    specs = []
    for bench in config.suite():
        specs.append(RunSpec(bench, "ddr3"))
        specs.append(RunSpec(bench, "rl"))
        specs.append(RunSpec(bench, "ddr3", variant="noprefetch",
                             overrides=NOPREFETCH))
        specs.append(RunSpec(bench, "rl", variant="noprefetch",
                             overrides=NOPREFETCH))
    return specs


def random_mapping(config: ExperimentConfig,
                   results: Dict[RunSpec, SimResult]) -> ExperimentTable:
    table = ExperimentTable(
        experiment_id="sec611_random",
        title="Random critical-word mapping control (RL)",
        columns=["benchmark", "rl", "rl_random", "fast_fraction"],
        notes="Paper: random mapping yields only +2.1% on average with "
              "severe degradation for low-bias applications.")
    for bench in config.suite():
        base = results[RunSpec(bench, "ddr3")]
        rl = results[RunSpec(bench, "rl")]
        rnd = results[RunSpec(bench, "rl_random")]
        table.add(benchmark=bench, rl=rl.speedup_over(base),
                  rl_random=rnd.speedup_over(base),
                  fast_fraction=rnd.fast_service_fraction)
    table.add(benchmark="MEAN", rl=table.mean("rl"),
              rl_random=table.mean("rl_random"),
              fast_fraction=table.mean("fast_fraction"))
    return table


def no_prefetcher(config: ExperimentConfig,
                  results: Dict[RunSpec, SimResult]) -> ExperimentTable:
    table = ExperimentTable(
        experiment_id="sec611_noprefetch",
        title="RL gain without the stream prefetcher",
        columns=["benchmark", "rl", "rl_noprefetch"],
        notes="Paper: RL improves 17.3% without the prefetcher vs 12.9% "
              "with it (more latency left to hide).")
    for bench in config.suite():
        base = results[RunSpec(bench, "ddr3")]
        rl = results[RunSpec(bench, "rl")]
        base_np = results[RunSpec(bench, "ddr3",
                                  variant="noprefetch", overrides=NOPREFETCH)]
        rl_np = results[RunSpec(bench, "rl",
                                variant="noprefetch", overrides=NOPREFETCH)]
        table.add(benchmark=bench, rl=rl.speedup_over(base),
                  rl_noprefetch=rl_np.speedup_over(base_np))
    table.add(benchmark="MEAN", rl=table.mean("rl"),
              rl_noprefetch=table.mean("rl_noprefetch"))
    return table
