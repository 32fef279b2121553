"""Figures 3 and 4: critical-word regularity.

Fig 3 — for the most-accessed cache lines of leslie3d and mcf, the
distribution of accesses across the 8 words (paper: strong per-line
bias; leslie3d's mass on word 0, mcf's spread over words but stable
per line). Fig 4 — per-benchmark distribution of critical words over
all DRAM fetches (paper: word 0 critical for >50 % of fetches in 21 of
27 programs; suite average 67 %).

These are trace-level profiles: we drive the cache hierarchy with the
benchmark's traces on the baseline memory and observe demand LLC misses
through :class:`~repro.core.criticality.CriticalityProfiler`. The
profiling pass is a named runner, so it parallelises, caches,
checkpoints and reaches ``--stats-json`` like ordinary runs. Only that
pass keeps per-line histograms (its system's profiler is a
:class:`~repro.core.criticality.PerLineProfiler`). Fig 3 is a view of
the pass: it reads the finished profiling simulation (Fig 4 needs it
too, so a suite runs it once) and packs the live profiler's per-line
histograms into ``SimResult.extra``. The runner
(``criticality_profiling``) and the view (``criticality_fig3``) are
rows of :mod:`repro.experiments.named`.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.criticality import PerLineProfiler
from repro.experiments.named import profiling_spec
from repro.experiments.runner import ExperimentConfig, ExperimentTable
from repro.experiments.specs import RunSpec, simulate
from repro.workloads.profiles import FIG3_BENCHMARKS

# Ranked lines per benchmark in the Fig 3 table.
FIG3_TOP_LINES = 10


def fig3_spec(benchmark: str) -> RunSpec:
    return RunSpec(benchmark, "ddr3", variant="fig3_profile",
                   runner="criticality_fig3")


def specs_figure_3(config: ExperimentConfig) -> List[RunSpec]:
    return [fig3_spec(bench) for bench in FIG3_BENCHMARKS]


def specs_figure_4(config: ExperimentConfig) -> List[RunSpec]:
    specs = []
    for bench in config.suite():
        specs.append(RunSpec(bench, "ddr3"))
        specs.append(profiling_spec(bench))
    return specs


def profile_benchmark(benchmark: str,
                      config: ExperimentConfig) -> PerLineProfiler:
    """Run the profiling pass once, returning the live profiler object."""
    system, _result = simulate(profiling_spec(benchmark), config)
    return system.profiler


def figure_3(config: ExperimentConfig,
             results: Dict[RunSpec, object]) -> ExperimentTable:
    table = ExperimentTable(
        experiment_id="fig3",
        title="Per-line critical word histograms (most-accessed lines)",
        columns=["benchmark", "line_rank", "dominant_word",
                 "dominant_fraction"] + [f"w{i}" for i in range(8)],
        notes="Paper: each hot line shows a well-defined bias toward one "
              "or two words (word 0 for leslie3d; varied words for mcf).")
    for bench in FIG3_BENCHMARKS:
        packed = results[fig3_spec(bench)].extra["fig3"]
        for rank, hist in enumerate(packed["top_lines"][:FIG3_TOP_LINES]):
            fracs = hist["fractions"]
            table.add(benchmark=bench, line_rank=rank,
                      dominant_word=hist["dominant_word"],
                      dominant_fraction=max(fracs) if hist["total"] else 0.0,
                      **{f"w{i}": fracs[i] for i in range(8)})
        table.add(benchmark=f"{bench}-mean-dominance", line_rank=-1,
                  dominant_word=-1,
                  dominant_fraction=packed["per_line_dominance"],
                  **{f"w{i}": 0.0 for i in range(8)})
    return table


def figure_4(config: ExperimentConfig,
             results: Dict[RunSpec, object]) -> ExperimentTable:
    table = ExperimentTable(
        experiment_id="fig4",
        title="Distribution of critical words per benchmark",
        columns=["benchmark", "word0_fraction", "repeat_fraction"]
                + [f"w{i}" for i in range(8)],
        notes="Paper: word 0 critical in >50% of fetches for 21/27 programs;"
              " suite average 67%. repeat_fraction is the adaptive"
              " predictor's upper bound (~79%).")
    word0: List[float] = []
    over_half = 0
    for bench in config.suite():
        result = results[RunSpec(bench, "ddr3")]
        dist = result.critical_distribution or [0.0] * 8
        # The adaptive bound needs DRAM-level line *refetches*; use the
        # reuse-heavy profiling pass for that column.
        repeat = results[profiling_spec(bench)].repeat_fraction
        table.add(benchmark=bench, word0_fraction=result.word0_fraction,
                  repeat_fraction=repeat,
                  **{f"w{i}": dist[i] for i in range(8)})
        word0.append(result.word0_fraction)
        if result.word0_fraction > 0.5:
            over_half += 1
    table.add(benchmark="MEAN",
              word0_fraction=sum(word0) / len(word0) if word0 else 0.0,
              repeat_fraction=table.mean("repeat_fraction"),
              **{f"w{i}": 0.0 for i in range(8)})
    table.notes += f" Measured: {over_half}/{len(word0)} programs above 50%."
    return table
