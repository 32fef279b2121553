"""Telemetry sessions: per-run registries under one exportable roof.

A :class:`TelemetrySession` spans one CLI invocation (or one test) and
owns the artefacts; each simulated run gets its own
:class:`RunTelemetry` — a fresh :class:`MetricsRegistry` plus a tracer
emitting into a distinct trace process — so metrics from different
(benchmark, memory) pairs never alias. ``SimulationSystem`` attaches a
run's registry/tracer to the memory hierarchy and drives the sampler.

A module-level *active session* lets the experiment harness pick up
telemetry without threading a parameter through every figure function:
the CLI activates a session, ``run_benchmark`` consults it. While a
session is active the result cache is bypassed for reads (a recalled
result has no telemetry to contribute), so exported stats always
describe actual simulated work.

:class:`Counters` is the one way anything in the repo counts events:
the session's own named counters, the result cache, the store tiers,
the job store, the service scheduler and the executor each hold one.
A handle built with a session prefix also adds every count to the
active session under that prefix, so the counts reach the
``--stats-json`` manifest without code at the call site.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, List, Mapping, Optional

from repro.telemetry.export import (
    run_manifest,
    write_stats_csv,
    write_stats_json,
)
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.sampler import DEFAULT_INTERVAL
from repro.telemetry.trace import ChromeTracer, merge_traces, write_trace


class Counters:
    """Named event counts, safe to bump from several threads.

    ``names`` start at zero, so a snapshot lists them before their
    first event; any other name starts at zero on its first
    :meth:`incr`. With ``session_prefix`` set, every count is also
    added to the active session's counters as
    ``<session_prefix><name>``.
    """

    __slots__ = ("_counts", "_lock", "_session_prefix")

    def __init__(self, names: Iterable[str] = (),
                 session_prefix: Optional[str] = None) -> None:
        self._counts: Dict[str, int] = dict.fromkeys(names, 0)
        self._lock = threading.Lock()
        self._session_prefix = session_prefix

    def incr(self, name: str, n: int = 1) -> None:
        self.merge({name: n})

    def merge(self, counts: Mapping[str, int]) -> None:
        """Add each of ``counts``, e.g. a worker session's snapshot."""
        with self._lock:
            for name, n in counts.items():
                self._counts[name] = self._counts.get(name, 0) + n
        prefix, session = self._session_prefix, _active
        if prefix is not None and session is not None:
            session.counters.merge(
                {prefix + name: n for name, n in counts.items()})

    def get(self, name: str, default: int = 0) -> int:
        return self._counts.get(name, default)

    def __getitem__(self, name: str) -> int:
        return self._counts.get(name, 0)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)


class RunTelemetry:
    """Registry + tracer for one simulated run."""

    def __init__(self, benchmark: str, memory: str, pid: int,
                 cpu_freq_ghz: float, trace_enabled: bool,
                 sample_interval: int = DEFAULT_INTERVAL) -> None:
        self.benchmark = benchmark
        self.memory = memory
        self.sample_interval = sample_interval
        self.registry = MetricsRegistry()
        self.tracer: Optional[ChromeTracer] = (
            ChromeTracer(cpu_freq_ghz, pid=pid,
                         process_name=f"{benchmark}/{memory}")
            if trace_enabled else None)
        # Monotonic, not wall-clock: an NTP step or DST shift mid-run
        # must not distort (or negate) the exported duration.
        self.started = time.monotonic()


class TelemetrySession:
    """Collects RunTelemetry records and writes the export artefacts."""

    def __init__(self, trace_enabled: bool = False,
                 cpu_freq_ghz: float = 3.2,
                 sample_interval: int = DEFAULT_INTERVAL) -> None:
        self.trace_enabled = trace_enabled
        self.cpu_freq_ghz = cpu_freq_ghz
        self.sample_interval = sample_interval
        # Durations come from the monotonic clock; time.time() remains
        # only where an absolute timestamp is the point (created_unix).
        self.started = time.monotonic()
        self._tracers: List[ChromeTracer] = []
        self.runs: List[dict] = []
        # Named event counters (retries, failures by kind, cache and
        # store traffic, ...), exported with the run manifest.
        self.counters = Counters()

    # ------------------------------------------------------------------

    def begin_run(self, benchmark: str, memory: str) -> RunTelemetry:
        run = RunTelemetry(benchmark, memory, pid=len(self._tracers) + 1,
                           cpu_freq_ghz=self.cpu_freq_ghz,
                           trace_enabled=self.trace_enabled,
                           sample_interval=self.sample_interval)
        if run.tracer is not None:
            self._tracers.append(run.tracer)
        return run

    def end_run(self, run: RunTelemetry, summary: Optional[dict] = None) -> dict:
        record = {
            "benchmark": run.benchmark,
            "memory": run.memory,
            "wall_time_s": time.monotonic() - run.started,
            "summary": summary or {},
            "metrics": run.registry.snapshot(),
        }
        self.runs.append(record)
        return record

    def ingest(self, runs: List[dict],
               trace_events: Optional[List[dict]] = None,
               counters: Optional[Dict[str, int]] = None) -> None:
        """Merge run records, trace events, and counters from a worker.

        The parallel executor's workers run under their own sessions
        and ship back plain dicts; trace pids are remapped so each
        ingested worker session stays a distinct trace process lane,
        and worker-side counters (e.g. cache quarantines) sum into the
        parent's.
        """
        self.runs.extend(runs)
        self.counters.merge(counters or {})
        if not trace_events:
            return
        pid_map: dict = {}
        remapped = []
        for event in trace_events:
            child_pid = event.get("pid", 0)
            if child_pid not in pid_map:
                pid_map[child_pid] = len(self._tracers) + len(pid_map) + 1
            event = dict(event)
            event["pid"] = pid_map[child_pid]
            remapped.append(event)
        holder = ChromeTracer(pid=max(pid_map.values(), default=0))
        holder.events = remapped
        self._tracers.append(holder)

    # ------------------------------------------------------------------

    def manifest(self, config=None, seed: Optional[int] = None,
                 argv: Optional[List[str]] = None) -> dict:
        return run_manifest(config=config, seed=seed, argv=argv,
                            wall_time_s=time.monotonic() - self.started,
                            extra={"num_runs": len(self.runs),
                                   "counters": self.counters.snapshot()})

    def export_stats(self, path: str, config=None,
                     seed: Optional[int] = None,
                     argv: Optional[List[str]] = None) -> None:
        write_stats_json(path, self.manifest(config, seed, argv), self.runs)

    def export_csv(self, path: str) -> None:
        write_stats_csv(path, self.runs)

    def export_trace(self, path: str) -> None:
        write_trace(path, merge_traces(self._tracers))


# ---------------------------------------------------------------------------
# Active-session plumbing
# ---------------------------------------------------------------------------

_active: Optional[TelemetrySession] = None


def activate(session: TelemetrySession) -> TelemetrySession:
    """Install ``session`` as the process-wide active session."""
    global _active
    _active = session
    return session


def deactivate() -> None:
    global _active
    _active = None


def active_session() -> Optional[TelemetrySession]:
    return _active
