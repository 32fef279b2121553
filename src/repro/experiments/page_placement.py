"""Section 7.1: comparison to page-placement heterogeneous memory.

An offline profile places the hottest 7.6 % of pages in a 0.5 GB
RLDRAM3 channel; the other three channels carry LPDDR2. The paper
reports wide variance (-9.3 % to +11.2 %) with an average of about
+8 %, below the CWF schemes, because the hottest pages capture at most
~30 % of accesses.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.runner import ExperimentConfig, ExperimentTable
from repro.experiments.specs import RunSpec
from repro.sim.system import SimResult


def specs_section_7_1(config: ExperimentConfig) -> List[RunSpec]:
    # PAGE_PLACEMENT runs like any other kind: run_benchmark hands the
    # benchmark profile to build_memory, which performs the offline
    # page-heat profiling pass before the measured run.
    return [RunSpec(bench, kind)
            for bench in config.suite()
            for kind in ("ddr3", "rl",
                         "page_placement")]


def section_7_1(config: ExperimentConfig,
                results: Dict[RunSpec, SimResult]) -> ExperimentTable:
    table = ExperimentTable(
        experiment_id="sec71",
        title="Page placement (hot 7.6% of pages in RLDRAM3) vs CWF RL",
        columns=["benchmark", "page_placement", "rl", "fast_fraction"],
        notes="Paper: page placement varies from -9.3% to +11.2% "
              "(avg ~+8%), below the CWF schemes.")
    for bench in config.suite():
        base = results[RunSpec(bench, "ddr3")]
        rl = results[RunSpec(bench, "rl")]
        pp = results[RunSpec(bench, "page_placement")]
        table.add(benchmark=bench,
                  page_placement=pp.speedup_over(base),
                  rl=rl.speedup_over(base),
                  fast_fraction=pp.fast_service_fraction)
    table.add(benchmark="MEAN",
              page_placement=table.mean("page_placement"),
              rl=table.mean("rl"),
              fast_fraction=table.mean("fast_fraction"))
    return table
