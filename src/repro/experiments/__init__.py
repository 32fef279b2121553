"""Experiment harness: the closed table of the paper's artefacts.

:data:`EXPERIMENTS` holds one :class:`Experiment` row per table or
figure of the paper: the spec provider that declares its simulations as
:class:`~repro.experiments.specs.RunSpec`\\ s, the builder that turns
their results into an
:class:`~repro.experiments.runner.ExperimentTable`, and the paper's
claims about that table (``python -m repro.report`` prints each claim
next to its measured value). Adding an artefact is adding a row.

A builder is a pure function of ``(config, results)``: it simulates
nothing. The :mod:`~repro.experiments.executor` schedules the deduped
union of the requested rows' specs — serially or over a process pool —
and results are cached on disk (keyed by spec plus a digest of the full
simulation config), so figures that share runs — e.g. Fig 6/7/8 —
simulate once. Setups a config transform cannot express are named
runners and views, the two tables of :mod:`~repro.experiments.named`.

The ``REPRO_*`` environment knobs (README's knob table) are read once,
by :func:`~repro.experiments.runner.default_config`, into the
:class:`~repro.experiments.runner.ExperimentConfig` that every layer
below takes, pool workers included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.experiments.executor import (
    ParallelExecutor,
    resolve_jobs,
    run_specs,
)
from repro.experiments.runner import (
    ExperimentConfig,
    ExperimentTable,
    ResultCache,
    default_config,
)
from repro.experiments.resilience import (
    MISSING,
    FailedRun,
    FaultPlan,
    RetryPolicy,
    SuiteError,
    failure_appendix,
)
from repro.experiments.specs import (
    RunSpec,
    execute_spec,
    spec_cache_key,
)
from repro.experiments import (
    homogeneous,
    power_curves,
    criticality,
    cwf_eval,
    energy_eval,
    controls,
    page_placement,
    tables,
)
from repro.sim.system import SimResult


@dataclass(frozen=True)
class PaperClaim:
    """One quantitative claim from the paper, checked against a table."""

    description: str
    paper_value: str
    measure: Callable[[ExperimentTable], float]
    format: str = "{:.3f}"

    def measured(self, table: ExperimentTable) -> str:
        try:
            return self.format.format(self.measure(table))
        except Exception as exc:  # pragma: no cover - report robustness
            return f"error: {exc}"


def mean_row(table: ExperimentTable, column: str) -> float:
    for row in table.rows:
        if row.get("benchmark") == "MEAN":
            value = row[column]
            # MISSING propagates (and formats as "—") instead of
            # raising: a failed run costs one claim, not the report.
            return value if value is MISSING else float(value)
    raise KeyError("no MEAN row")


def flavour_mean(table: ExperimentTable, flavour: str) -> float:
    for row in table.rows:
        if row.get("benchmark") == "MEAN" and row.get("flavour") == flavour:
            value = row["total"]
            return value if value is MISSING else float(value)
    raise KeyError(flavour)


def no_simulations(config: ExperimentConfig) -> List[RunSpec]:
    """Spec provider of an analytic or configuration table."""
    return []


@dataclass(frozen=True)
class Experiment:
    """One paper artefact: its simulations, its table, its claims."""

    specs: Callable[[ExperimentConfig], List[RunSpec]]
    build: Callable[[ExperimentConfig, Dict[RunSpec, SimResult]],
                    ExperimentTable]
    claims: Tuple[PaperClaim, ...] = ()


EXPERIMENTS: Dict[str, Experiment] = {
    "fig1a": Experiment(homogeneous.specs_figure_1a, homogeneous.figure_1a, (
        PaperClaim("homogeneous RLDRAM3 throughput vs DDR3", "+31%",
                   lambda t: mean_row(t, "rldram3")),
        PaperClaim("homogeneous LPDDR2 throughput vs DDR3", "-13%",
                   lambda t: mean_row(t, "lpddr2")),
    )),
    "fig1b": Experiment(homogeneous.specs_figure_1a, homogeneous.figure_1b, (
        PaperClaim("RLDRAM3 memory latency vs DDR3", "~43% lower",
                   lambda t: flavour_mean(t, "rldram3")
                   / flavour_mean(t, "ddr3")),
        PaperClaim("LPDDR2 memory latency vs DDR3", "~41% higher",
                   lambda t: flavour_mean(t, "lpddr2")
                   / flavour_mean(t, "ddr3")),
    )),
    "fig2": Experiment(no_simulations, power_curves.figure_2, (
        PaperClaim("RLDRAM3/DDR3 chip power ratio at idle", "much higher",
                   lambda t: t.rows[0]["rldram3_mw"] / t.rows[0]["ddr3_mw"],
                   "{:.1f}x"),
        PaperClaim("RLDRAM3/DDR3 chip power ratio at 100%", "comparable",
                   lambda t: t.rows[-1]["rldram3_mw"] / t.rows[-1]["ddr3_mw"],
                   "{:.1f}x"),
    )),
    "fig3": Experiment(criticality.specs_figure_3, criticality.figure_3, (
        PaperClaim("per-line dominant-word bias (leslie3d)",
                   "well-defined bias",
                   lambda t: next(r["dominant_fraction"] for r in t.rows
                                  if r["benchmark"]
                                  == "leslie3d-mean-dominance")),
        PaperClaim("per-line dominant-word bias (mcf)", "well-defined bias",
                   lambda t: next(r["dominant_fraction"] for r in t.rows
                                  if r["benchmark"] == "mcf-mean-dominance")),
    )),
    "fig4": Experiment(criticality.specs_figure_4, criticality.figure_4, (
        PaperClaim("suite-average word-0 critical fraction", "67%",
                   lambda t: mean_row(t, "word0_fraction")),
        PaperClaim("adaptive predictor coverage bound", "79%",
                   lambda t: mean_row(t, "repeat_fraction")),
    )),
    "fig6": Experiment(cwf_eval.specs_figure_6, cwf_eval.figure_6, (
        PaperClaim("RD throughput vs baseline", "+21%",
                   lambda t: mean_row(t, "rd")),
        PaperClaim("RL throughput vs baseline", "+12.9%",
                   lambda t: mean_row(t, "rl")),
        PaperClaim("DL throughput vs baseline", "-9%",
                   lambda t: mean_row(t, "dl")),
    )),
    "fig7": Experiment(cwf_eval.specs_figure_6, cwf_eval.figure_7, (
        PaperClaim("RD critical-word latency vs baseline", "-30%",
                   lambda t: mean_row(t, "rd") / mean_row(t, "ddr3")),
        PaperClaim("RL critical-word latency vs baseline", "-22%",
                   lambda t: mean_row(t, "rl") / mean_row(t, "ddr3")),
    )),
    "fig8": Experiment(cwf_eval.specs_figure_8, cwf_eval.figure_8, (
        PaperClaim("critical words served by RLDRAM3 (static)", "67%",
                   lambda t: mean_row(t, "fast_fraction")),
    )),
    "fig9": Experiment(cwf_eval.specs_figure_9, cwf_eval.figure_9, (
        PaperClaim("RL adaptive vs baseline", "+15.7%",
                   lambda t: mean_row(t, "rl_ad")),
        PaperClaim("RL oracle vs baseline", "+28%",
                   lambda t: mean_row(t, "rl_or")),
        PaperClaim("all-RLDRAM3 vs baseline", "+31%",
                   lambda t: mean_row(t, "rldram3")),
    )),
    "fig10": Experiment(energy_eval.specs_figure_10, energy_eval.figure_10, (
        PaperClaim("RL system energy vs baseline", "-6%",
                   lambda t: mean_row(t, "rl")),
        PaperClaim("DL system energy vs baseline", "-13%",
                   lambda t: mean_row(t, "dl")),
        PaperClaim("RL memory energy vs baseline", "-15%",
                   lambda t: mean_row(t, "rl_memory_energy")),
    )),
    "fig11": Experiment(energy_eval.specs_figure_11, energy_eval.figure_11),
    "tab1": Experiment(no_simulations, tables.table_1),
    "tab2": Experiment(no_simulations, tables.table_2),
    "sec611_random": Experiment(
        controls.specs_random_mapping, controls.random_mapping, (
            PaperClaim("random critical-word mapping vs baseline", "+2.1%",
                       lambda t: mean_row(t, "rl_random")),
        )),
    "sec611_noprefetch": Experiment(
        controls.specs_no_prefetcher, controls.no_prefetcher, (
            PaperClaim("RL gain without prefetcher", "+17.3%",
                       lambda t: mean_row(t, "rl_noprefetch")),
        )),
    "sec71": Experiment(
        page_placement.specs_section_7_1, page_placement.section_7_1, (
            PaperClaim("page placement vs baseline", "~+8% (range -9%..+11%)",
                       lambda t: mean_row(t, "page_placement")),
        )),
    "sec72": Experiment(
        energy_eval.specs_section_7_2, energy_eval.section_7_2, (
            PaperClaim("RL memory-energy savings, unterminated LPDRAM",
                       "26.1%",
                       lambda t: mean_row(t, "unterminated")),
        )),
}

# The builders alone, by id (the name the perfbench harness imports).
ALL_EXPERIMENTS = {key: row.build for key, row in EXPERIMENTS.items()}


def suite_specs(keys, config):
    """Deduped union of the listed experiments' specs, declared order."""
    specs = []
    for key in keys:
        specs.extend(EXPERIMENTS[key].specs(config))
    return list(dict.fromkeys(specs))


__all__ = ["ExperimentConfig", "ExperimentTable", "ResultCache", "RunSpec",
           "ParallelExecutor", "default_config", "run_specs",
           "resolve_jobs", "execute_spec", "spec_cache_key", "suite_specs",
           "Experiment", "EXPERIMENTS", "ALL_EXPERIMENTS", "PaperClaim",
           "mean_row", "flavour_mean",
           "MISSING", "FailedRun", "FaultPlan", "RetryPolicy", "SuiteError",
           "failure_appendix"]
