"""Experiment harness: one module per table/figure of the paper.

Every experiment returns an :class:`~repro.experiments.runner.ExperimentTable`
whose rows regenerate the corresponding paper artefact. Each figure
module declares its simulations as a list of
:class:`~repro.experiments.specs.RunSpec` (see ``EXPERIMENT_SPECS``);
the :mod:`~repro.experiments.executor` schedules the deduped union —
serially or over a process pool — and results are cached on disk
(keyed by spec plus a digest of the full simulation config), so
figures that share runs — e.g. Fig 6/7/8 — simulate once.

The ``REPRO_*`` environment knobs (README's knob table) are read once,
by :func:`~repro.experiments.runner.default_config`, into the
:class:`~repro.experiments.runner.ExperimentConfig` that every layer
below takes, pool workers included.
"""

from repro.experiments.executor import (
    ParallelExecutor,
    resolve_jobs,
    resolve_results,
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
    register_runner,
    spec_cache_key,
)
from repro.experiments import (  # noqa: F401  (registry import)
    homogeneous,
    power_curves,
    criticality,
    cwf_eval,
    energy_eval,
    controls,
    page_placement,
    tables,
)

ALL_EXPERIMENTS = {
    "fig1a": homogeneous.figure_1a,
    "fig1b": homogeneous.figure_1b,
    "fig2": power_curves.figure_2,
    "fig3": criticality.figure_3,
    "fig4": criticality.figure_4,
    "fig6": cwf_eval.figure_6,
    "fig7": cwf_eval.figure_7,
    "fig8": cwf_eval.figure_8,
    "fig9": cwf_eval.figure_9,
    "fig10": energy_eval.figure_10,
    "fig11": energy_eval.figure_11,
    "tab1": tables.table_1,
    "tab2": tables.table_2,
    "sec611_random": controls.random_mapping,
    "sec611_noprefetch": controls.no_prefetcher,
    "sec71": page_placement.section_7_1,
    "sec72": energy_eval.section_7_2,
}

# Spec providers, one per experiment: the suite scheduler runs the
# deduped union of the requested figures' specs through one executor,
# then hands each figure the shared ``{spec: SimResult}`` map.
EXPERIMENT_SPECS = {
    "fig1a": homogeneous.specs_figure_1a,
    "fig1b": homogeneous.specs_figure_1b,
    "fig2": power_curves.specs_figure_2,
    "fig3": criticality.specs_figure_3,
    "fig4": criticality.specs_figure_4,
    "fig6": cwf_eval.specs_figure_6,
    "fig7": cwf_eval.specs_figure_7,
    "fig8": cwf_eval.specs_figure_8,
    "fig9": cwf_eval.specs_figure_9,
    "fig10": energy_eval.specs_figure_10,
    "fig11": energy_eval.specs_figure_11,
    "tab1": tables.specs_table_1,
    "tab2": tables.specs_table_2,
    "sec611_random": controls.specs_random_mapping,
    "sec611_noprefetch": controls.specs_no_prefetcher,
    "sec71": page_placement.specs_section_7_1,
    "sec72": energy_eval.specs_section_7_2,
}


def suite_specs(keys, config):
    """Deduped union of the listed experiments' specs, declared order."""
    specs = []
    for key in keys:
        specs.extend(EXPERIMENT_SPECS[key](config))
    return list(dict.fromkeys(specs))


__all__ = ["ExperimentConfig", "ExperimentTable", "ResultCache", "RunSpec",
           "ParallelExecutor", "default_config", "run_specs",
           "resolve_results", "resolve_jobs", "execute_spec",
           "register_runner", "spec_cache_key", "suite_specs",
           "ALL_EXPERIMENTS", "EXPERIMENT_SPECS",
           "MISSING", "FailedRun", "FaultPlan", "RetryPolicy", "SuiteError",
           "failure_appendix"]
