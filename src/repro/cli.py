"""Command-line entry point: regenerate any table or figure, run ad-hoc
benchmark/memory combinations, and list the memory backends and
workloads.

Usage::

    repro --version                       # print the package version
    repro list-backends                   # registered memory organisations
    repro list-workloads                  # registered workload sources
    repro run --memory hmc_cwf            # one backend, whole suite
    repro run --memory ddr3,rl,hmc_cwf --benchmarks leslie3d,mcf --jobs 2
    repro run --memory rl --check         # protocol sanitizer on, fail on
                                          # any DRAM-timing/FSM violation
    repro run --memory ddr3,rl --benchmarks mcf --stats-json out.json
    repro trace record mcf --out mcf.trace --reads 2000
    repro trace info mcf.trace            # metadata + per-core stats
    repro run --workload trace:mcf.trace --memory rl
    repro serve --port 8787 --jobs 4      # long-lived job server
    repro submit --experiment fig6 --wait # run a figure via the server
    repro status j-0123abcd4567           # poll a submitted job
    repro status                          # server health + metrics
    repro-experiment list
    repro-experiment fig6                 # regenerate Figure 6
    repro-experiment fig6,fig7,fig8       # several (shared runs dedupe)
    repro-experiment all                  # everything (slow)
    repro-experiment all --jobs 4         # fan runs out over 4 processes
    repro-experiment fig6 --reads 20000 --benchmarks leslie3d,mcf
    repro-experiment fig6 --json          # tables as structured JSON
    repro-experiment fig6 --reads 500 --stats-json out.json \
        --trace-out trace.json            # telemetry artefacts

(Both console scripts share this module: ``repro`` and
``repro-experiment`` accept the same arguments; the experiment id is
the legacy positional form.) ``repro run`` and the experiment ids are
suite commands: one runner (:func:`run_suite`) serves both, so every
flag below works on each.

Results print as text tables; ``--output`` appends them to a file.
Before any table is built, the requested tables' declarative
``RunSpec`` lists are merged and deduped, so runs shared across figures
(every figure needs the DDR3 baseline) simulate exactly once.
``--jobs N`` (or ``REPRO_JOBS``) schedules those runs over N worker
processes — ``--jobs 0`` means one per CPU, ``--jobs 1`` (default) is
fully deterministic in-process execution; both modes emit byte-identical
tables for the same seed. Per-spec progress and timing go to stderr;
``--timings-json`` writes them as JSON.
``--retries N`` re-runs crashed/hung/corrupt specs (exponential backoff,
deterministic jitter), ``--timeout SEC`` bounds each spec's wall clock
(parallel mode), and ``--keep-going`` turns exhausted failures into
``—`` table cells plus a failure appendix instead of aborting — see
``repro.experiments.resilience`` (and ``REPRO_FAULT_PLAN`` for
deterministic fault injection to test all of it). With
``--checkpoint-dir``, running the same command again resumes each
interrupted simulation from its last snapshot.
``--stats-json``/``--stats-csv`` dump the full metrics registry of every
simulated run (per-channel latency histograms, per-bank counters, run
manifest); ``--trace-out`` writes a Chrome ``trace_event`` JSON viewable
in chrome://tracing or https://ui.perfetto.dev. Telemetry options and
``--check`` force real simulations (the result cache is bypassed for
reads).

Kernel performance is measured outside this CLI, on the pinned
(ddr3, rl, hmc_cwf) x (mcf, leslie3d) matrix::

    python3 perfbench/run.py --workload sim-matrix --seed 1 --seconds 10
    python3 benchmarks/perf_gate.py       # gate on the committed baseline
    python -m cProfile -s tottime -m repro.cli run --memory rl \
        --benchmarks mcf --reads 4000 --cache off   # profile one cell
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments import (
    ALL_EXPERIMENTS,
    ParallelExecutor,
    SuiteError,
    failure_appendix,
    suite_specs,
)
from repro.experiments.runner import (
    ConfigError,
    ExperimentConfig,
    default_config,
    flag_type,
)
from repro.telemetry import (
    TelemetrySession,
    activate,
    deactivate,
    table_to_dict,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description="Regenerate tables and figures from the paper.")
    from repro import __version__
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    parser.add_argument("experiment",
                        help="experiment id(s), comma-separated "
                             "(see 'list'), or 'all'/'list'")
    add_suite_args(parser)
    return parser


def add_suite_args(parser: argparse.ArgumentParser) -> None:
    """The flags of every suite command (the experiment ids and
    ``repro run``): each is one step of :func:`run_suite`."""
    add_scale_args(parser)
    add_resilience_args(parser)
    add_checkpoint_args(parser)
    parser.add_argument("--check", action="store_true",
                        help="run under the DRAM protocol sanitizer "
                             "(collect mode unless REPRO_SANITIZE sets "
                             "one): every command stream is replayed "
                             "against a shadow timing/FSM model; exit 1 "
                             "on any violation")
    parser.add_argument("--output", default=None,
                        help="append formatted tables to this file")
    parser.add_argument("--json", action="store_true",
                        help="emit tables as structured JSON instead of text")
    parser.add_argument("--timings-json", default=None, metavar="PATH",
                        help="write per-spec wall-clock timings as JSON")
    parser.add_argument("--stats-json", default=None, metavar="PATH",
                        help="write per-run metrics registry + manifest JSON")
    parser.add_argument("--stats-csv", default=None, metavar="PATH",
                        help="write per-run metrics as flat CSV")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write a Chrome trace_event JSON of all requests")


def add_scale_args(parser: argparse.ArgumentParser) -> None:
    """Run-scale flags shared by the experiment, run and serve commands.

    Each knob flag parses like its ``REPRO_*`` variable (see
    :data:`~repro.experiments.runner.KNOBS`) and wins over it.
    """
    parser.add_argument("--reads", type=flag_type("REPRO_READS"),
                        help="target demand DRAM fetches per run")
    parser.add_argument("--benchmarks", type=flag_type("REPRO_BENCHMARKS"),
                        help="comma-separated benchmark subset "
                             "(default: whole suite)")
    # Absent unless given, because "off" parses to None.
    parser.add_argument("--cache", type=flag_type("REPRO_CACHE"),
                        default=argparse.SUPPRESS,
                        help="result-cache directory, or 'off'")
    parser.add_argument("--jobs", type=flag_type("REPRO_JOBS"),
                        help="parallel worker processes (default REPRO_JOBS "
                             "or 1; 0 = one per CPU)")


def add_resilience_args(parser: argparse.ArgumentParser) -> None:
    """Failure-handling flags shared by the suite commands and the
    report generator."""
    group = parser.add_argument_group("failure handling")
    group.add_argument("--retries", type=flag_type("REPRO_RETRIES"),
                       metavar="N",
                       help="re-run a crashed/hung/corrupt spec up to N "
                            "times (default REPRO_RETRIES or 0)")
    group.add_argument("--timeout", type=flag_type("REPRO_TIMEOUT"),
                       metavar="SEC",
                       help="per-spec wall-clock deadline in seconds, "
                            "enforced with --jobs >= 2 "
                            "(default REPRO_TIMEOUT or none)")
    group.add_argument("--keep-going", action="store_true", default=None,
                       help="record failed specs as '—' cells plus a "
                            "failure appendix instead of aborting the suite")
    group.add_argument("--fail-fast", action="store_true",
                       help="abort on the first spec that exhausts its "
                            "retries (the default; overrides "
                            "REPRO_KEEP_GOING)")


#: The knob flags whose value sets an ExperimentConfig field as is.
_FLAG_FIELDS = {"reads": "target_dram_reads", "benchmarks": "benchmarks",
                "jobs": "jobs", "retries": "retries", "timeout": "timeout_s",
                "checkpoint_dir": "checkpoint_dir",
                "checkpoint_every": "checkpoint_every",
                "cache_budget": "cache_budget_bytes"}


def make_config(args: argparse.Namespace) -> ExperimentConfig:
    """:func:`default_config` with the knob flags given on the command
    line applied (their ``type=`` parsers have checked them)."""
    given = vars(args)
    updates = {field: given[name] for name, field in _FLAG_FIELDS.items()
               if given.get(name) is not None}
    if "cache" in given:
        updates["cache_dir"] = given["cache"]
    if given.get("keep_going"):
        updates["keep_going"] = True
    if given.get("fail_fast"):
        updates["keep_going"] = False
    from dataclasses import replace
    return replace(default_config(), **updates)


def add_checkpoint_args(parser: argparse.ArgumentParser) -> None:
    """Crash-safe checkpointing flags shared by the suite commands and
    serve."""
    group = parser.add_argument_group("checkpointing")
    group.add_argument("--checkpoint-dir",
                       type=flag_type("REPRO_CHECKPOINT_DIR"), metavar="DIR",
                       help="snapshot each in-flight simulation here so a "
                            "crashed/killed run's retry resumes instead of "
                            "starting over (default REPRO_CHECKPOINT_DIR "
                            "or off)")
    group.add_argument("--checkpoint-every",
                       type=flag_type("REPRO_CHECKPOINT_EVERY"),
                       metavar="READS",
                       help="snapshot cadence in simulated DRAM reads "
                            "(default REPRO_CHECKPOINT_EVERY or 1000)")


def run_suite(args: argparse.Namespace, argv: List[str],
              config: ExperimentConfig, specs: Sequence,
              builders: Dict[str, Callable]) -> int:
    """The one runner behind every suite command: simulate ``specs`` in
    one executor pass, build each named table with
    ``builders[name](config, results=...)``, and honour every flag of
    :func:`add_suite_args`. Returns the exit status."""
    import json

    if args.check:
        from dataclasses import replace

        from repro.sanitizer import MODE_COLLECT, reset_global_report

        # The config carries the mode to pool workers too; an explicit
        # strict/collect REPRO_SANITIZE wins.
        config = replace(config, sanitize=config.sanitize or MODE_COLLECT)
        reset_global_report()
    session: Optional[TelemetrySession] = None
    # The session is also how worker-process sanitizer counters flow
    # back to this process.
    if args.check or args.stats_json or args.stats_csv or args.trace_out:
        session = activate(TelemetrySession(
            trace_enabled=bool(args.trace_out)))

    def emit(text: str) -> None:
        print(text)
        if args.output:
            with open(args.output, "a") as handle:
                handle.write(text + "\n\n")

    # One scheduler pass over the union of every table's specs: shared
    # baselines run once, in parallel when jobs > 1.
    executor = ParallelExecutor(config, progress=True)
    suite_start = time.perf_counter()
    try:
        try:
            results = executor.run(specs)
        except SuiteError as exc:
            return suite_failed(exc)
        pass_wall = time.perf_counter() - suite_start
        for build in builders.values():
            table = build(config, results=results)
            if args.json:
                emit(json.dumps(table_to_dict(table), indent=1, default=str))
            else:
                emit(table.format())
        if not args.json:
            print(f"[{len(specs)} specs: executor pass took "
                  f"{pass_wall:.1f}s]\n")
        if executor.failures:
            emit(failure_appendix(executor.failures))
    finally:
        if session is not None:
            deactivate()

    if args.timings_json:
        with open(args.timings_json, "w") as handle:
            json.dump({
                "jobs": executor.jobs,
                "experiments": list(builders),
                "total_wall_s": round(time.perf_counter() - suite_start, 3),
                "specs": executor.timings,
            }, handle, indent=1)
        print(f"wrote per-spec timings to {args.timings_json}",
              file=sys.stderr)
    if session is None:
        return 0
    if args.stats_json:
        manifest_config = {
            "experiments": list(builders),
            "target_dram_reads": config.target_dram_reads,
            "benchmarks": list(config.suite()),
            "jobs": executor.jobs,
        }
        session.export_stats(args.stats_json, config=manifest_config,
                             seed=config.seed, argv=argv)
        print(f"wrote stats to {args.stats_json}", file=sys.stderr)
    if args.stats_csv:
        session.export_csv(args.stats_csv)
        print(f"wrote stats CSV to {args.stats_csv}", file=sys.stderr)
    if args.trace_out:
        session.export_trace(args.trace_out)
        print(f"wrote trace to {args.trace_out} "
              "(open in chrome://tracing or ui.perfetto.dev)",
              file=sys.stderr)
    return _report_sanitizer(session) if args.check else 0


def suite_failed(exc: SuiteError) -> int:
    """Report a spec that exhausted its retries; the exit status."""
    print(f"error: {exc}", file=sys.stderr)
    print("hint: --retries N retries failed specs, --keep-going "
          "renders them as '—' cells instead of aborting", file=sys.stderr)
    return 1


def experiment_keys(text: str) -> List[str]:
    """The experiment ids ``text`` names ("all" or a comma list); an
    unknown one is a :class:`ConfigError` that names it."""
    keys = (list(ALL_EXPERIMENTS) if text == "all"
            else [k for k in text.split(",") if k])
    unknown = [k for k in keys if k not in ALL_EXPERIMENTS]
    if unknown:
        raise ConfigError(f"unknown experiment(s): {unknown}; try 'list'")
    return keys


def _report_sanitizer(session: TelemetrySession) -> int:
    """Summarise ``sanitizer.*`` counters after a --check run."""
    from repro.sanitizer import global_report

    counters = session.counters.snapshot()
    runs = counters.get("sanitizer.runs", 0)
    total = counters.get("sanitizer.violations", 0)
    print(f"sanitizer: {runs} run(s) checked, {total} violation(s)")
    for name in sorted(counters):
        if (name.startswith("sanitizer.")
                and name not in ("sanitizer.runs", "sanitizer.violations")):
            print(f"  {name[len('sanitizer.'):]} x{counters[name]}")
    # Serial runs keep full violation records in-process; show a few.
    for violation in global_report().violations[:8]:
        print(f"  {violation.describe()}")
    return 1 if total else 0


# ---------------------------------------------------------------------------
# Subcommands: list-backends, list-workloads, run, trace
# ---------------------------------------------------------------------------


def _format_backends() -> str:
    """The backend table as a fixed-width listing."""
    from repro.memsys.registry import BACKENDS

    lines = ["registered memory backends:"]
    rows = []
    for b in sorted(BACKENDS, key=lambda b: b.name):
        flags = []
        if b.is_heterogeneous:
            flags.append("hetero")
        if b.needs_profile:
            flags.append("needs-profile")
        rows.append((b.name, ",".join(b.aliases) or "-",
                     "+".join(b.dram_families), ",".join(flags) or "-",
                     b.description))
    widths = [max(len(r[i]) for r in rows + [("name", "aliases",
                                              "families", "flags", "")])
              for i in range(4)]
    header = ("name", "aliases", "families", "flags", "description")
    for row in [header] + rows:
        lines.append("  ".join(col.ljust(widths[i]) if i < 4 else col
                               for i, col in enumerate(row)).rstrip())
    return "\n".join(lines)


def _resolve_memories(names: List[str]) -> List[str]:
    """Canonicalise CLI memory names; exits with did-you-mean on error."""
    from repro.memsys.registry import UnknownBackendError, resolve_name

    resolved = []
    for name in names:
        try:
            resolved.append(resolve_name(name))
        except UnknownBackendError as exc:
            print(f"error: {exc}", file=sys.stderr)
            print(_format_backends(), file=sys.stderr)
            raise SystemExit(2) from None
    return list(dict.fromkeys(resolved))


def _format_workloads(suite: Optional[str] = None) -> str:
    """The workload listing as fixed-width text."""
    from repro.workloads.registry import list_workloads

    lines = ["registered workloads:"]
    rows = [(w["name"], w["suite"] or "-", w["kind"], w["description"])
            for w in list_workloads()
            if suite is None or w["suite"] == suite]
    header = ("name", "suite", "kind", "description")
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(3)]
    for row in [header] + rows:
        lines.append("  ".join(col.ljust(widths[i]) if i < 3 else col
                               for i, col in enumerate(row)).rstrip())
    return "\n".join(lines)


def _resolve_workloads(names: List[str]) -> Tuple[str, ...]:
    """Canonicalise CLI workload names; exits with did-you-mean on error."""
    from repro.workloads.registry import WorkloadError, resolve_workloads

    try:
        return resolve_workloads(names)
    except WorkloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(_format_workloads(), file=sys.stderr)
        raise SystemExit(2) from None


def cmd_list_workloads(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro list-workloads",
        description="List the workloads (synthetic profiles "
                    "plus the trace:<path> replay family).")
    parser.add_argument("--json", action="store_true",
                        help="emit the listing as structured JSON")
    parser.add_argument("--suite", default=None,
                        help="only workloads of this suite "
                             "(spec2006, npb or stream)")
    args = parser.parse_args(argv)
    from repro.util.suggest import close_matches, did_you_mean
    from repro.workloads.registry import list_workloads

    rows = list_workloads()
    if args.suite is not None:
        suites = sorted({w["suite"] for w in rows if w["suite"]})
        if args.suite not in suites:
            print(f"error: unknown suite {args.suite!r}"
                  f"{did_you_mean(close_matches(args.suite, suites))}",
                  file=sys.stderr)
            print(f"known suites: {', '.join(suites)}", file=sys.stderr)
            return 2
        rows = [w for w in rows if w["suite"] == args.suite]
    if args.json:
        import json as _json
        print(_json.dumps(rows, indent=1))
    else:
        print(_format_workloads(args.suite))
    return 0


def cmd_trace(argv: List[str]) -> int:
    """Trace tooling: record a workload to a file, inspect a file."""
    if not argv or argv[0] not in ("record", "info"):
        print("usage: repro trace record <workload> --out FILE "
              "[--reads N] [--cores N] [--seed N]\n"
              "       repro trace info FILE", file=sys.stderr)
        return 2
    if argv[0] == "record":
        return _cmd_trace_record(argv[1:])
    return _cmd_trace_info(argv[1:])


def _cmd_trace_record(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro trace record",
        description="Materialize a workload's per-core record streams "
                    "into a repro-trace v1 file for editing and replay "
                    "(run it back with --workload trace:FILE).")
    parser.add_argument("workload", help="workload name (see "
                                         "'repro list-workloads')")
    parser.add_argument("--out", required=True, metavar="FILE",
                        help="destination trace file")
    parser.add_argument("--reads", type=int, default=None,
                        help="target demand DRAM fetches (default 2000)")
    parser.add_argument("--cores", type=int, default=None,
                        help="number of core sections (default 8)")
    parser.add_argument("--seed", type=int, default=None,
                        help="generator seed (default 42)")
    args = parser.parse_args(argv)
    workload = _resolve_workloads([args.workload])[0]

    from repro.sim.config import SimConfig
    from repro.workloads.registry import create_workload
    from repro.workloads.trace import save_multi_trace

    config = SimConfig(
        target_dram_reads=args.reads if args.reads is not None else 2000,
        num_cores=args.cores if args.cores is not None else 8,
        seed=args.seed if args.seed is not None else 42)
    source = create_workload(workload)
    traces = [list(stream) for stream in source.streams(config)]
    metadata = {"benchmark": source.display_benchmark(),
                "seed": str(config.seed),
                "target_dram_reads": str(config.target_dram_reads)}
    save_multi_trace(traces, args.out, metadata=metadata)
    total = sum(len(t) for t in traces)
    print(f"wrote {args.out}: {len(traces)} core(s), {total} records "
          f"(replay with 'repro run --workload trace:{args.out}')",
          file=sys.stderr)
    return 0


def _cmd_trace_info(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro trace info",
        description="Metadata, cache token, and per-core stats of a "
                    "repro-trace v1 file.")
    parser.add_argument("path", help="trace file")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    from repro.workloads.registry import TraceFileSource, WorkloadError
    from repro.workloads.trace import trace_stats

    try:
        source = TraceFileSource(args.path)
    except WorkloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    info = source.describe()
    info["per_core"] = [trace_stats(section)
                        for section in source._traces]
    if args.json:
        import json as _json
        print(_json.dumps(info, indent=1, default=str))
        return 0
    print(f"{args.path}: repro-trace v1, {info['cores']} core(s), "
          f"{info['records']} records, cache token {info['cache_token']}")
    for key, value in sorted(source.metadata.items()):
        print(f"  {key} = {value}")
    for core_id, stats in enumerate(info["per_core"]):
        print(f"  core {core_id}: {stats['records']} records, "
              f"{stats['instructions']} instrs, "
              f"write fraction {stats['write_fraction']:.2f}, "
              f"mean gap {stats['mean_gap']:.1f}")
    return 0


def cmd_list_backends(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro list-backends",
        description="List the memory backends "
                    "(names, aliases, capabilities).")
    parser.add_argument("--json", action="store_true",
                        help="emit the listing as structured JSON")
    args = parser.parse_args(argv)
    if args.json:
        import json as _json
        from repro.memsys.registry import BACKENDS
        print(_json.dumps([{
            "name": b.name,
            "aliases": list(b.aliases),
            "description": b.description,
            "paper_section": b.paper_section,
            "needs_profile": b.needs_profile,
            "is_heterogeneous": b.is_heterogeneous,
            "dram_families": list(b.dram_families),
        } for b in sorted(BACKENDS, key=lambda b: b.name)], indent=1))
    else:
        print(_format_backends())
    return 0


def cmd_run(argv: List[str]) -> int:
    """Ad-hoc runs: benchmarks x memory backends, one result row each."""
    parser = argparse.ArgumentParser(
        prog="repro run",
        description="Run benchmarks on one or more memory backends.")
    parser.add_argument("--memory", default="ddr3",
                        help="comma-separated backend names "
                             "(see 'repro list-backends')")
    parser.add_argument("--workload", default=None,
                        help="comma-separated workload names — any "
                             "form, including trace:<path> "
                             "replays (overrides --benchmarks; see "
                             "'repro list-workloads')")
    add_suite_args(parser)
    args = parser.parse_args(argv)
    memories = _resolve_memories(
        [m for m in args.memory.split(",") if m.strip()])

    from repro.experiments.runner import ExperimentTable
    from repro.experiments.specs import RunSpec

    config = make_config(args)
    if args.workload:
        from dataclasses import replace
        config = replace(config, benchmarks=_resolve_workloads(
            [w for w in args.workload.split(",") if w.strip()]))
    specs = [RunSpec(bench, memory)
             for bench in config.suite() for memory in memories]

    def build(config: ExperimentConfig, results: dict) -> ExperimentTable:
        table = ExperimentTable(
            experiment_id="run",
            title="ad-hoc runs: " + ", ".join(memories),
            columns=["benchmark", "memory", "throughput",
                     "critical_latency", "fill_latency", "fast_fraction",
                     "bus_utilization"])
        for spec in specs:
            result = results[spec]
            table.add(benchmark=spec.benchmark, memory=spec.memory,
                      throughput=result.throughput,
                      critical_latency=result.avg_critical_latency,
                      fill_latency=result.avg_fill_latency,
                      fast_fraction=result.fast_service_fraction,
                      bus_utilization=result.bus_utilization)
        return table

    return run_suite(args, ["run", *argv], config, specs, {"run": build})


# ---------------------------------------------------------------------------
# Subcommands: serve, submit, status (the simulation service)
# ---------------------------------------------------------------------------


def cmd_serve(argv: List[str]) -> int:
    """Long-lived job server over a persistent worker pool."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve RunSpec batches over HTTP: POST /v1/jobs, "
                    "GET /v1/jobs/<id>, /healthz, /metrics. SIGTERM "
                    "drains in-flight work gracefully.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8787)
    add_scale_args(parser)  # a job's request may override the scale
    parser.add_argument("--cache-budget", type=flag_type("REPRO_CACHE_BUDGET"),
                        metavar="SIZE",
                        help="byte budget for the result-cache store "
                             "(e.g. 64M); past it the least-recently-"
                             "used entries are evicted and recomputed "
                             "on demand")
    parser.add_argument("--manifest-budget", default=None, metavar="SIZE",
                        help="byte budget for the job-manifest directory; "
                             "terminal jobs are LRU-evicted past it "
                             "(queued/running jobs are never touched)")
    parser.add_argument("--state-dir", default=None, metavar="DIR",
                        help="job-manifest directory (default .repro_jobs); "
                             "queued/running jobs found here are resumed")
    parser.add_argument("--queue-limit", type=int, default=32, metavar="N",
                        help="bounded queue depth; beyond it POST answers "
                             "429 + Retry-After (default 32)")
    parser.add_argument("--retries", type=flag_type("REPRO_RETRIES"),
                        metavar="N",
                        help="per-spec retries for crashed/hung/corrupt "
                             "runs (default REPRO_RETRIES or 0)")
    parser.add_argument("--timeout", type=flag_type("REPRO_TIMEOUT"),
                        metavar="SEC",
                        help="per-spec wall-clock deadline (needs "
                             "--jobs >= 2)")
    add_checkpoint_args(parser)
    parser.add_argument("--no-recover", action="store_true",
                        help="do not re-enqueue unfinished jobs from the "
                             "state directory at startup")
    parser.add_argument("--verbose", action="store_true",
                        help="log one line per HTTP request")
    args = parser.parse_args(argv)

    from repro.service import JobScheduler, JobStore, make_server, serve_until_signal
    from repro.service.store import DEFAULT_STATE_DIR

    from repro.store import parse_size

    try:
        config = make_config(args)
        manifest_budget = parse_size(args.manifest_budget)
    except ValueError as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2
    store = JobStore(args.state_dir or DEFAULT_STATE_DIR,
                     budget_bytes=manifest_budget)
    # Paused and without recovery until the port is bound: a server that
    # loses the bind race must exit without having touched job state.
    scheduler = JobScheduler(config, store=store, jobs=args.jobs,
                             max_queue=args.queue_limit,
                             start=False, recover=False)
    try:
        server = make_server(scheduler, args.host, args.port,
                             verbose=args.verbose)
    except OSError as exc:
        print(f"repro serve: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    if not args.no_recover:
        scheduler.recover()
    scheduler.start()
    recovered = scheduler.counters["jobs_recovered"]
    print(f"repro serve: listening on http://{args.host}:{args.port} "
          f"({scheduler.executor.jobs} worker(s), queue limit "
          f"{args.queue_limit}, {recovered} job(s) recovered); "
          "SIGTERM drains gracefully", file=sys.stderr, flush=True)
    code = serve_until_signal(server, scheduler)
    print("repro serve: drained and stopped", file=sys.stderr)
    return code


def _submit_request(args: argparse.Namespace) -> dict:
    """Build the POST /v1/jobs payload from submit's flags."""
    request: dict = {}
    if args.experiment:
        request["experiment"] = args.experiment
    if args.memory:
        memories = _resolve_memories(
            [m for m in args.memory.split(",") if m.strip()])
        from repro.experiments.runner import default_config
        benches = ([b for b in args.benchmarks.split(",") if b]
                   if args.benchmarks else default_config().suite())
        request["specs"] = [{"benchmark": bench, "memory": memory}
                            for bench in benches for memory in memories]
    if args.reads is not None:
        request["reads"] = args.reads
    if args.benchmarks:
        request["benchmarks"] = [b for b in args.benchmarks.split(",") if b]
    if args.tag:
        request["tag"] = args.tag
    return request


def _print_job_outcome(job: dict, as_json: bool) -> int:
    if as_json:
        import json as _json
        print(_json.dumps(job, indent=1, default=str))
    elif job.get("table"):
        print(job["table"])
    else:
        for row in job.get("results", []):
            print(f"{row['label']}: throughput={row['throughput']:.3f} "
                  f"critical={row['avg_critical_latency']:.1f} "
                  f"fill={row['avg_fill_latency']:.1f}")
    for failure in job.get("failures", []):
        print(f"failed: {failure['label']} ({failure['kind']} after "
              f"{failure['attempts']} attempt(s)) — {failure['error']}",
              file=sys.stderr)
    if job.get("error"):
        print(f"error: {job['error']}", file=sys.stderr)
    return 0 if job.get("state") == "done" else 1


def cmd_submit(argv: List[str]) -> int:
    """Submit a job to a running ``repro serve`` instance."""
    parser = argparse.ArgumentParser(
        prog="repro submit",
        description="Submit an experiment or ad-hoc benchmark x memory "
                    "batch to a repro serve instance.")
    from repro.service.client import DEFAULT_URL

    parser.add_argument("--url", default=DEFAULT_URL)
    parser.add_argument("--experiment", default=None,
                        help="experiment id to expand server-side "
                             "(see 'repro-experiment list')")
    parser.add_argument("--memory", default=None,
                        help="comma-separated backends for ad-hoc specs")
    parser.add_argument("--benchmarks", default=None,
                        help="comma-separated benchmark subset")
    parser.add_argument("--reads", type=int, default=None,
                        help="per-job override of DRAM fetches per run")
    parser.add_argument("--tag", default="",
                        help="free-form label echoed back by status")
    parser.add_argument("--retry-429", type=int, default=0, metavar="N",
                        help="on backpressure (429), honour Retry-After "
                             "and retry up to N times")
    parser.add_argument("--wait", action="store_true",
                        help="poll until the job finishes and print its "
                             "tables/results")
    parser.add_argument("--poll", type=float, default=0.5, metavar="SEC")
    parser.add_argument("--timeout", type=float, default=None, metavar="SEC",
                        help="give up waiting after SEC seconds")
    parser.add_argument("--json", action="store_true",
                        help="print the job record as JSON")
    args = parser.parse_args(argv)
    if not args.experiment and not args.memory:
        parser.error("nothing to submit: use --experiment and/or --memory")

    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        job = client.submit(_submit_request(args), retries=args.retry_429)
        if args.wait:
            job = client.wait(job["id"], poll_s=args.poll,
                              timeout_s=args.timeout)
    except (ServiceError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.wait:
        return _print_job_outcome(job, args.json)
    if args.json:
        import json as _json
        print(_json.dumps(job, indent=1, default=str))
    else:
        print(f"{job['id']} {job['state']} "
              f"({len(job['specs'])} spec(s), "
              f"{job['coalesced_specs']} coalesced, "
              f"{job['cached_specs']} cached)")
    return 0


def cmd_status(argv: List[str]) -> int:
    """Job status by id, or server health + metrics without one."""
    parser = argparse.ArgumentParser(
        prog="repro status",
        description="Poll a job, or show server health and metrics.")
    from repro.service.client import DEFAULT_URL

    parser.add_argument("job_id", nargs="?", default=None)
    parser.add_argument("--url", default=DEFAULT_URL)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    import json as _json

    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        if args.job_id:
            job = client.job(args.job_id)
            if args.json:
                print(_json.dumps(job, indent=1, default=str))
                return 0
            if job.get("state") in ("done", "failed"):
                return _print_job_outcome(job, as_json=False)
            print(f"{job['id']} {job['state']} "
                  f"({len(job['specs'])} spec(s))")
            return 0
        health = client.health()
        metrics = client.metrics()
        if args.json:
            print(_json.dumps({"health": health, "metrics": metrics},
                              indent=1, default=str))
        else:
            print(f"server {health['status']}: uptime "
                  f"{health['uptime_s']:.0f}s, queue "
                  f"{health['queue_depth']}/{health['queue_limit']}, "
                  f"jobs {health.get('jobs', {})}")
            for name in sorted(metrics):
                if name.startswith(("service.", "executor.", "cache.")):
                    print(f"  {name} = {metrics[name]}")
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    return one_line_errors(_main, list(sys.argv[1:] if argv is None
                                       else argv))


def one_line_errors(entry: Callable[[Optional[List[str]]], int],
                    argv: Optional[List[str]]) -> int:
    """Run the entry point ``entry`` (this CLI's, or the report
    generator's): a bad run knob, from a flag or from the environment,
    or an unknown experiment id is one error line and exit status 2."""
    try:
        return entry(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _main(argv: List[str]) -> int:
    if argv and argv[0] in ("--version", "-V"):
        from repro import __version__
        print(f"repro {__version__}")
        return 0
    if argv and argv[0] == "list-backends":
        return cmd_list_backends(argv[1:])
    if argv and argv[0] == "list-workloads":
        return cmd_list_workloads(argv[1:])
    if argv and argv[0] == "trace":
        return cmd_trace(argv[1:])
    if argv and argv[0] == "run":
        return cmd_run(argv[1:])
    if argv and argv[0] == "serve":
        return cmd_serve(argv[1:])
    if argv and argv[0] == "submit":
        return cmd_submit(argv[1:])
    if argv and argv[0] == "status":
        return cmd_status(argv[1:])
    if argv and argv[0] == "store":
        from repro.store.cli import cmd_store
        return cmd_store(argv[1:])
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        for key in ALL_EXPERIMENTS:
            print(key)
        return 0
    keys = experiment_keys(args.experiment)
    config = make_config(args)
    return run_suite(args, argv, config, suite_specs(keys, config),
                     {key: ALL_EXPERIMENTS[key] for key in keys})


if __name__ == "__main__":
    raise SystemExit(main())
