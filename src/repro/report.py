"""EXPERIMENTS.md generator: paper-vs-measured for every artefact.

Runs (or recalls from cache) every experiment and writes a markdown
report comparing the paper's headline numbers (the claims of each
:data:`~repro.experiments.EXPERIMENTS` row) with the measured ones.

Usage::

    python -m repro.report              # writes EXPERIMENTS.md
    python -m repro.report --reads 20000 --output EXPERIMENTS.md
"""

from __future__ import annotations

import argparse
import datetime
from typing import Dict, Sequence

from repro.experiments import (
    EXPERIMENTS,
    FailedRun,
    ParallelExecutor,
    SuiteError,
    failure_appendix,
    suite_specs,
)
from repro.experiments.runner import ExperimentConfig, ExperimentTable


def render_report(config: ExperimentConfig,
                  tables: Dict[str, ExperimentTable],
                  failures: Sequence[FailedRun] = ()) -> str:
    """The markdown report over ``tables`` (experiment id -> table)."""
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Auto-generated by `python -m repro.report`. Absolute numbers are",
        "not expected to match the paper (different substrate, synthetic",
        "workloads, runs of "
        f"{config.target_dram_reads} DRAM fetches vs the paper's 2M); the",
        "reproduction target is the *shape*: who wins, in what order, and",
        "roughly by what factor. Normalised values: 1.000 = DDR3 baseline.",
        "",
        f"Generated {datetime.date.today().isoformat()}, "
        f"{config.target_dram_reads} fetches/run, "
        f"suite of {len(config.suite())} benchmarks.",
        "",
        "## Running the suite in parallel",
        "",
        "Every experiment declares its simulations as `RunSpec`s; the",
        "suite scheduler dedupes the union (shared DDR3 baselines run",
        "once) and fans it out over `--jobs N` worker processes",
        "(`python -m repro.report --jobs 4`, or `REPRO_JOBS=4`; 0 = one",
        "per CPU). `--jobs 1` (the default) runs serially in-process;",
        "both modes share the on-disk result cache and emit",
        "byte-identical tables for the same seed.",
        "",
        "## Failure handling, retries, and resume",
        "",
        "A crashed, hung, or OOM-killed worker costs one cell, not the",
        "suite. Every failed attempt is classified (crash / timeout /",
        "broken-pool / corrupt-result) and retried under `--retries N`",
        "(exponential backoff with deterministic jitter); `--timeout S`",
        "bounds each spec's wall clock when `--jobs >= 2`; under",
        "`--keep-going` a spec that exhausts its retries renders as `—`",
        "cells plus a failure appendix at the end of this report instead",
        "of aborting (`--fail-fast`, the default, stops on the first",
        "exhausted spec). Completed runs always persist in the result",
        "cache, so re-running the same command resumes from what",
        "survived. `REPRO_FAULT_PLAN` (e.g.",
        "`\"mcf/ddr3=crash;mcf/rldram3=hang:*:20\"`) injects",
        "deterministic faults to exercise all of this; see",
        "`repro.experiments.resilience`.",
        "",
    ]
    for key, table in tables.items():
        lines.append(f"## {key}: {table.title}")
        lines.append("")
        claims = EXPERIMENTS[key].claims
        if claims:
            lines.append("| claim | paper | measured |")
            lines.append("|---|---|---|")
            for claim in claims:
                lines.append(f"| {claim.description} | {claim.paper_value} "
                             f"| {claim.measured(table)} |")
            lines.append("")
        lines.append("```")
        lines.append(table.format())
        lines.append("```")
        lines.append("")
    if failures:
        lines.append(failure_appendix(failures, markdown=True))
        lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    from repro.cli import one_line_errors

    return one_line_errors(_main, argv)


def _main(argv) -> int:
    from repro.cli import (
        add_resilience_args,
        add_scale_args,
        experiment_keys,
        make_config,
        suite_failed,
    )

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="EXPERIMENTS.md",
                        help="write (overwrite) the markdown report here")
    add_scale_args(parser)
    add_resilience_args(parser)
    parser.add_argument("--experiments", default=None,
                        help="comma-separated subset of experiment ids")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the tables as structured JSON "
                             "with a run manifest")
    args = parser.parse_args(argv)
    config = make_config(args)
    keys = experiment_keys(args.experiments or "all")
    # One scheduler pass over the union of the figures' specs feeds
    # both the markdown and the JSON.
    executor = ParallelExecutor(config, progress=True)
    try:
        results = executor.run(suite_specs(keys, config))
    except SuiteError as exc:
        return suite_failed(exc)
    tables = {key: EXPERIMENTS[key].build(config, results) for key in keys}
    with open(args.output, "w") as handle:
        handle.write(render_report(config, tables, executor.failures))
    print(f"wrote {args.output}")
    if args.json:
        from repro.telemetry import run_manifest, tables_to_json
        from repro.workloads.registry import workload_cache_token
        manifest = run_manifest(
            config={"target_dram_reads": config.target_dram_reads,
                    "benchmarks": list(config.suite()),
                    "jobs": executor.jobs},
            seed=config.seed, argv=argv,
            extra={"cache": executor.cache.stats(),
                   # Pin which workload *contents* produced these
                   # tables: the same tokens folded into v8 cache keys.
                   "workloads": {name: workload_cache_token(name)
                                 for name in config.suite()}})
        with open(args.json, "w") as handle:
            handle.write(tables_to_json(list(tables.values()), manifest))
        print(f"wrote {args.json}")
    return 0

if __name__ == "__main__":
    raise SystemExit(main())
