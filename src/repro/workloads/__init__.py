"""Workload substrate: benchmark profiles and synthetic trace generation.

The paper evaluates 18 SPEC CPU2006 programs (run as 8 copies, rate
mode), 6 OpenMP NAS Parallel Benchmarks, and STREAM. We cannot ship
those binaries, so each benchmark is described by a
:class:`~repro.workloads.profiles.BenchmarkProfile` — access-pattern
statistics (stream vs. pointer-chase mix, strides, footprint, write
fraction, per-line critical-word distribution, memory intensity)
calibrated to the behavioural facts the paper reports per benchmark
(Figures 3, 4, 8 and the Appendix). The generator turns a profile into a
deterministic per-core instruction trace. :mod:`repro.workloads.registry`
resolves workload names — a profile, ``synthetic:<profile>`` or
``trace:<path>`` — and builds their sources.
"""

from repro.workloads.profiles import (
    BenchmarkProfile,
    PROFILES,
    SUITE_NPB,
    SUITE_SPEC,
    SUITE_STREAM,
    benchmark_names,
    profile_for,
)
from repro.workloads.registry import (
    SyntheticSource,
    TraceFileSource,
    UnknownWorkloadError,
    WorkloadError,
    create_workload,
    resolve_workload,
    resolve_workloads,
    workload_cache_token,
)
from repro.workloads.synthetic import (
    TraceGenerator,
    generate_core_trace,
    stream_core_trace,
)
from repro.workloads.trace import (
    load_multi_trace,
    load_trace,
    save_multi_trace,
    save_trace,
    trace_stats,
)

__all__ = [
    "BenchmarkProfile", "PROFILES", "benchmark_names", "profile_for",
    "SUITE_SPEC", "SUITE_NPB", "SUITE_STREAM",
    "TraceGenerator", "generate_core_trace", "stream_core_trace",
    "load_trace", "save_trace", "load_multi_trace", "save_multi_trace",
    "trace_stats",
    "WorkloadError", "UnknownWorkloadError",
    "SyntheticSource", "TraceFileSource",
    "resolve_workload", "resolve_workloads", "create_workload",
    "workload_cache_token",
]
