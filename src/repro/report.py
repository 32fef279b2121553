"""EXPERIMENTS.md generator: paper-vs-measured for every artefact.

Runs (or recalls from cache) every experiment and writes a markdown
report comparing the paper's headline numbers with the measured ones.

Usage::

    python -m repro.report              # writes EXPERIMENTS.md
    python -m repro.report --reads 20000 --output EXPERIMENTS.md
"""

from __future__ import annotations

import argparse
import datetime
from dataclasses import dataclass
from typing import Callable, Dict, Sequence

from repro.experiments import (
    ALL_EXPERIMENTS,
    MISSING,
    FailedRun,
    ParallelExecutor,
    SuiteError,
    failure_appendix,
    suite_specs,
)
from repro.experiments.runner import ExperimentConfig, ExperimentTable


@dataclass
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


def _mean_row(table: ExperimentTable, column: str) -> float:
    for row in table.rows:
        if row.get("benchmark") == "MEAN":
            value = row[column]
            # MISSING propagates (and formats as "—") instead of
            # raising: a failed run costs one claim, not the report.
            return value if value is MISSING else float(value)
    raise KeyError("no MEAN row")


def _flavour_mean(table: ExperimentTable, flavour: str) -> float:
    for row in table.rows:
        if row.get("benchmark") == "MEAN" and row.get("flavour") == flavour:
            value = row["total"]
            return value if value is MISSING else float(value)
    raise KeyError(flavour)


CLAIMS = {
    "fig1a": [
        PaperClaim("homogeneous RLDRAM3 throughput vs DDR3", "+31%",
                   lambda t: _mean_row(t, "rldram3")),
        PaperClaim("homogeneous LPDDR2 throughput vs DDR3", "-13%",
                   lambda t: _mean_row(t, "lpddr2")),
    ],
    "fig1b": [
        PaperClaim("RLDRAM3 memory latency vs DDR3", "~43% lower",
                   lambda t: _flavour_mean(t, "rldram3")
                   / _flavour_mean(t, "ddr3")),
        PaperClaim("LPDDR2 memory latency vs DDR3", "~41% higher",
                   lambda t: _flavour_mean(t, "lpddr2")
                   / _flavour_mean(t, "ddr3")),
    ],
    "fig2": [
        PaperClaim("RLDRAM3/DDR3 chip power ratio at idle", "much higher",
                   lambda t: t.rows[0]["rldram3_mw"] / t.rows[0]["ddr3_mw"],
                   "{:.1f}x"),
        PaperClaim("RLDRAM3/DDR3 chip power ratio at 100%", "comparable",
                   lambda t: t.rows[-1]["rldram3_mw"] / t.rows[-1]["ddr3_mw"],
                   "{:.1f}x"),
    ],
    "fig3": [
        PaperClaim("per-line dominant-word bias (leslie3d)",
                   "well-defined bias",
                   lambda t: next(r["dominant_fraction"] for r in t.rows
                                  if r["benchmark"]
                                  == "leslie3d-mean-dominance")),
        PaperClaim("per-line dominant-word bias (mcf)", "well-defined bias",
                   lambda t: next(r["dominant_fraction"] for r in t.rows
                                  if r["benchmark"] == "mcf-mean-dominance")),
    ],
    "fig4": [
        PaperClaim("suite-average word-0 critical fraction", "67%",
                   lambda t: _mean_row(t, "word0_fraction")),
        PaperClaim("adaptive predictor coverage bound", "79%",
                   lambda t: _mean_row(t, "repeat_fraction")),
    ],
    "fig6": [
        PaperClaim("RD throughput vs baseline", "+21%",
                   lambda t: _mean_row(t, "rd")),
        PaperClaim("RL throughput vs baseline", "+12.9%",
                   lambda t: _mean_row(t, "rl")),
        PaperClaim("DL throughput vs baseline", "-9%",
                   lambda t: _mean_row(t, "dl")),
    ],
    "fig7": [
        PaperClaim("RD critical-word latency vs baseline", "-30%",
                   lambda t: _mean_row(t, "rd") / _mean_row(t, "ddr3")),
        PaperClaim("RL critical-word latency vs baseline", "-22%",
                   lambda t: _mean_row(t, "rl") / _mean_row(t, "ddr3")),
    ],
    "fig8": [
        PaperClaim("critical words served by RLDRAM3 (static)", "67%",
                   lambda t: _mean_row(t, "fast_fraction")),
    ],
    "fig9": [
        PaperClaim("RL adaptive vs baseline", "+15.7%",
                   lambda t: _mean_row(t, "rl_ad")),
        PaperClaim("RL oracle vs baseline", "+28%",
                   lambda t: _mean_row(t, "rl_or")),
        PaperClaim("all-RLDRAM3 vs baseline", "+31%",
                   lambda t: _mean_row(t, "rldram3")),
    ],
    "fig10": [
        PaperClaim("RL system energy vs baseline", "-6%",
                   lambda t: _mean_row(t, "rl")),
        PaperClaim("DL system energy vs baseline", "-13%",
                   lambda t: _mean_row(t, "dl")),
        PaperClaim("RL memory energy vs baseline", "-15%",
                   lambda t: _mean_row(t, "rl_memory_energy")),
    ],
    "sec611_random": [
        PaperClaim("random critical-word mapping vs baseline", "+2.1%",
                   lambda t: _mean_row(t, "rl_random")),
    ],
    "sec611_noprefetch": [
        PaperClaim("RL gain without prefetcher", "+17.3%",
                   lambda t: _mean_row(t, "rl_noprefetch")),
    ],
    "sec71": [
        PaperClaim("page placement vs baseline", "~+8% (range -9%..+11%)",
                   lambda t: _mean_row(t, "page_placement")),
    ],
    "sec72": [
        PaperClaim("RL memory-energy savings, unterminated LPDRAM",
                   "26.1%",
                   lambda t: _mean_row(t, "unterminated")),
    ],
}


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
        claims = CLAIMS.get(key, [])
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
    tables = {key: ALL_EXPERIMENTS[key](config, results=results)
              for key in keys}
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
