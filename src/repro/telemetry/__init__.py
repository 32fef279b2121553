"""Telemetry subsystem: metrics registry, tracing, sampling, export.

See ``registry`` (Counter/Gauge/Histogram + MetricsRegistry),
``trace`` (Chrome trace_event spans), ``sampler`` (EventQueue-driven
periodic probes), ``export`` (JSON/CSV artefacts + run manifest), and
``session`` (per-run scoping, the process-wide active session, and the
``Counters`` type every component counts events with).
"""

from repro.telemetry.export import (
    config_hash,
    run_manifest,
    table_to_dict,
    tables_to_json,
    write_stats_csv,
    write_stats_json,
)
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.sampler import Sampler
from repro.telemetry.session import (
    Counters,
    RunTelemetry,
    TelemetrySession,
    activate,
    active_session,
    deactivate,
)
from repro.telemetry.trace import (
    ChromeTracer,
    merge_traces,
    validate_trace,
    write_trace,
)

__all__ = [
    "ChromeTracer",
    "Counter",
    "Counters",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunTelemetry",
    "Sampler",
    "TelemetrySession",
    "activate",
    "active_session",
    "config_hash",
    "deactivate",
    "merge_traces",
    "run_manifest",
    "table_to_dict",
    "tables_to_json",
    "validate_trace",
    "write_stats_csv",
    "write_stats_json",
    "write_trace",
]
