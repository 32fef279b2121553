"""Request-lifecycle tracing in Chrome ``trace_event`` format.

Every DRAM request becomes a sequence of spans on its controller's
track: *queued* (arrival -> first DRAM command), *access* (first
command -> data burst start, i.e. the PRE/ACT/CAS phase), and *burst*
(data on the bus), plus an instant marker when the critical word is at
the pins. The resulting JSON loads directly in ``chrome://tracing`` or
https://ui.perfetto.dev.

Timestamps convert CPU cycles to microseconds (the trace_event unit)
using the simulation's CPU frequency. Each simulated run is emitted as
its own *process* (pid) so multi-run sessions stay separable; each
controller is a *thread* (tid) inside that process.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

TRACE_SCHEMA_VERSION = 1

# Phases used from the trace_event spec.
PH_COMPLETE = "X"
PH_INSTANT = "i"
PH_METADATA = "M"
PH_COUNTER = "C"


class ChromeTracer:
    """Collects trace events for one simulated run (one pid)."""

    def __init__(self, cpu_freq_ghz: float = 3.2, pid: int = 0,
                 process_name: Optional[str] = None) -> None:
        self.pid = pid
        self.events: List[dict] = []
        # cycles -> microseconds: cycles / (GHz * 1000).
        self._scale = 1.0 / (cpu_freq_ghz * 1000.0)
        self._tids: Dict[str, int] = {}
        if process_name:
            self.events.append({
                "name": "process_name", "ph": PH_METADATA, "pid": pid,
                "tid": 0, "args": {"name": process_name}})

    # ------------------------------------------------------------------

    def _tid(self, track: str) -> int:
        tid = self._tids.get(track)
        if tid is None:
            tid = len(self._tids) + 1
            self._tids[track] = tid
            self.events.append({
                "name": "thread_name", "ph": PH_METADATA, "pid": self.pid,
                "tid": tid, "args": {"name": track}})
        return tid

    def _us(self, cycles: int) -> float:
        return cycles * self._scale

    def complete(self, name: str, start_cycles: int, dur_cycles: int,
                 track: str, args: Optional[dict] = None,
                 cat: str = "request") -> None:
        """A span: [start, start+dur) on ``track``."""
        self.events.append({
            "name": name, "cat": cat, "ph": PH_COMPLETE,
            "ts": self._us(start_cycles),
            "dur": self._us(max(0, dur_cycles)),
            "pid": self.pid, "tid": self._tid(track),
            "args": args or {}})

    def instant(self, name: str, ts_cycles: int, track: str,
                args: Optional[dict] = None, cat: str = "request") -> None:
        self.events.append({
            "name": name, "cat": cat, "ph": PH_INSTANT, "s": "t",
            "ts": self._us(ts_cycles),
            "pid": self.pid, "tid": self._tid(track),
            "args": args or {}})

    def counter(self, name: str, ts_cycles: int, values: dict,
                cat: str = "sample") -> None:
        self.events.append({
            "name": name, "cat": cat, "ph": PH_COUNTER,
            "ts": self._us(ts_cycles), "pid": self.pid, "tid": 0,
            "args": values})

    # ------------------------------------------------------------------

    def record_request(self, req, track: str) -> None:
        """Emit the lifecycle spans of a completed MemoryRequest."""
        arrival = req.arrival_time
        first = req.first_command_time
        start = req.data_start_time
        end = req.completion_time
        if start is None or end is None:
            return
        if first is None:
            first = start
        d = req.decoded
        args = {
            "line": req.line_address,
            "kind": req.kind.value,
            "core": req.core_id,
            "prefetch": req.is_prefetch,
        }
        if d is not None:
            args.update(rank=d.rank, bank=d.bank, row=d.row)
        if first > arrival:
            self.complete("queued", arrival, first - arrival, track, args)
        self.complete("access", first, start - first, track, args)
        self.complete("burst", start, end - start, track, args)
        if req.is_read and req.critical_word_time is not None:
            self.instant("critical_word", req.critical_word_time, track,
                         {"line": req.line_address,
                          "word": req.critical_word})


def merge_traces(tracers) -> dict:
    """Combine per-run tracers into one Chrome trace document."""
    events: List[dict] = []
    for tracer in tracers:
        events.extend(tracer.events)
    return {"traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"schema_version": TRACE_SCHEMA_VERSION}}


def write_trace(path: str, trace: dict) -> None:
    with open(path, "w") as handle:
        json.dump(trace, handle)


def validate_trace(trace: dict) -> List[str]:
    """Schema check used by tests and the CLI; returns problems found."""
    problems: List[str] = []
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        return ["missing traceEvents array"]
    for i, event in enumerate(trace["traceEvents"]):
        where = f"event {i}"
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                problems.append(f"{where}: missing {key!r}")
        ph = event.get("ph")
        if ph not in (PH_COMPLETE, PH_INSTANT, PH_METADATA, PH_COUNTER):
            problems.append(f"{where}: unknown phase {ph!r}")
        if ph != PH_METADATA and not isinstance(
                event.get("ts", None), (int, float)):
            problems.append(f"{where}: non-numeric ts")
        if ph == PH_COMPLETE:
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: bad dur {dur!r}")
    return problems
