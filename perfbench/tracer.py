"""Per-layer span tracer, installed from outside the simulator.

:func:`install` wraps the public entry points of each layer (and every
callback handed to the event queue) with timing spans. A span's *self*
time is its duration minus the time of the spans nested inside it, so
the self times of all buckets add up to the traced wall time. Event
callbacks are charged to the module that defines them, which is how
``dram.controller_s`` ends up holding the controller's own callbacks
and not the CPU code the controller calls back into.

Everything stays in memory. Forked executor workers start from a copy
of the parent's tracer; :func:`install` resets that copy when a worker
runs its first spec and writes the worker's totals to ``spool_dir``
after every result it stores, where :meth:`Tracer.merge_spool` picks
them up.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

_clock = time.perf_counter

# Module prefix of an event callback -> the bucket its self time is
# charged to. Longest prefix first.
_OWNER_BUCKETS = (
    ("repro.cpu.core", "cpu.core"),
    ("repro.cpu", "cpu.uncore"),
    ("repro.dram", "dram"),
    ("repro.core", "cwf"),
    ("repro.memsys", "memsys"),
    ("repro.sim", "sim"),
)


def owner_bucket(module: Optional[str]) -> str:
    """The bucket a callback defined in ``module`` is charged to."""
    for prefix, bucket in _OWNER_BUCKETS:
        if module and (module == prefix or module.startswith(prefix + ".")):
            return bucket
    return "other"


class Tracer:
    """Self time, inclusive time and call count per bucket, plus counters."""

    def __init__(self, spool_dir: Optional[str] = None) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        self.runs: List[dict] = []
        self.spool_dir = spool_dir
        self.pid = os.getpid()
        self._local = threading.local()
        self._worker = False
        self._spooled = 0
        # Every span closure shares this code object: a callback that
        # is already a span is recognised and not wrapped twice.
        self.span_code = self.wrap("", len).__code__

    # -- spans ---------------------------------------------------------

    def wrap(self, bucket: str, fn: Callable) -> Callable:
        """``fn`` timed as a span of ``bucket``."""
        local = self._local
        self_s, incl_s, calls = self.self_s, self.incl_s, self.calls

        def span(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            stack.append(0.0)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                child = stack.pop()
                self_s[bucket] += dt - child
                incl_s[bucket] += dt
                calls[bucket] += 1
                if stack:
                    stack[-1] += dt

        return span

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "incl_s": dict(self.incl_s),
                "calls": dict(self.calls), "counters": dict(self.counters),
                "runs": list(self.runs)}

    def reset(self) -> None:
        for table in (self.self_s, self.incl_s, self.calls, self.counters):
            table.clear()
        self.runs.clear()
        stack = getattr(self._local, "stack", None)
        if stack:
            stack.clear()

    def add(self, snap: dict) -> None:
        """Fold another process's :meth:`snapshot` into this tracer."""
        for name in ("self_s", "incl_s", "calls", "counters"):
            table = getattr(self, name)
            for key, value in snap.get(name, {}).items():
                table[key] += value
        self.runs.extend(snap.get("runs", ()))

    # -- forked workers ------------------------------------------------

    def enter_worker(self) -> None:
        """In a forked worker: drop the totals inherited from the parent."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.reset()
            self._worker = True

    def spool(self) -> None:
        """In a worker: write the totals so far for the parent, then reset."""
        if not self._worker or self.spool_dir is None:
            return
        path = Path(self.spool_dir) / f"w{self.pid}-{self._spooled}.json"
        path.write_text(json.dumps(self.snapshot()))
        self._spooled += 1
        self.reset()

    def merge_spool(self) -> None:
        """In the parent: fold in and delete every worker spool file."""
        if self.spool_dir is None:
            return
        for path in sorted(Path(self.spool_dir).glob("w*.json")):
            self.add(json.loads(path.read_text()))
            path.unlink()


class _TimedStream:
    """A per-core record stream whose ``next()`` is a workloads span."""

    __slots__ = ("_next",)

    def __init__(self, stream, tracer: Tracer) -> None:
        self._next = tracer.wrap("workloads", iter(stream).__next__)

    def __iter__(self) -> "_TimedStream":
        return self

    def __next__(self):
        return self._next()


def _patch_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every ``repro.*`` module global that names ``original``."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points with ``tracer`` spans.

    Call once per process, after importing the packages whose entry
    points are traced and before any simulation system is built.
    """
    import repro.experiments  # noqa: F401  (named runners bind imports)
    import repro.sweep  # noqa: F401
    from repro.core.cwf import CriticalWordMemory
    from repro.core.placement import PagePlacementMemory
    from repro.cpu.uncore import Uncore
    from repro.dram.controller import MemoryController
    from repro.dram.power import PowerModel
    from repro.energy import model as energy_model
    from repro.experiments.executor import ParallelExecutor
    from repro.experiments.runner import ResultCache
    from repro.experiments.specs import execute_spec
    from repro.memsys.homogeneous import HomogeneousMemory
    from repro.service.scheduler import JobScheduler
    from repro.service.store import JobStore
    from repro.sim import system as system_mod
    from repro.sim.system import SimulationSystem
    from repro.store.atomic import atomic_write_bytes
    from repro.store.cas import ArtifactStore
    from repro.util.events import EventQueue
    from repro.workloads.registry import SyntheticSource

    wrap = tracer.wrap
    counters = tracer.counters

    # -- util.events: every scheduled callback becomes a span of its
    # owner's bucket; the heap push itself is an events span.
    bucket_of: Dict[object, str] = {}
    tick = MemoryController._tick
    span_code = tracer.span_code

    def callback_bucket(callback) -> str:
        if getattr(callback, "__func__", None) is tick:
            return "cb.dram.tick"
        if getattr(callback, "__code__", None) is span_code:
            return "cb.span"
        module = getattr(callback, "__module__", None)
        bucket = bucket_of.get(module)
        if bucket is None:
            bucket = bucket_of[module] = "cb." + owner_bucket(module)
        return bucket

    push = wrap("events", EventQueue.schedule)

    def schedule(self, time, callback):
        return push(self, time, wrap(callback_bucket(callback), callback))

    EventQueue.schedule = schedule

    # -- workloads: per-core streams.
    streams = SyntheticSource.streams

    @functools.wraps(streams)
    def timed_streams(self, config):
        return [_TimedStream(s, tracer) for s in streams(self, config)]

    SyntheticSource.streams = timed_streams

    # -- sim: build, prewarm (memo hits counted), run (per-run stats).
    SimulationSystem.__init__ = wrap("sim.build", SimulationSystem.__init__)
    prewarm = wrap("sim.prewarm", system_mod.prewarm_l2)
    memo = system_mod._PREWARM_CACHE

    def traced_prewarm(system, profile):
        before = list(memo)
        prewarm(system, profile)
        if list(memo) == before:
            counters["sim.prewarm_memo_hits"] += 1

    _patch_everywhere(system_mod.prewarm_l2, traced_prewarm)
    run = wrap("sim.run", SimulationSystem.run)

    def traced_run(self, *args, **kwargs):
        result = run(self, *args, **kwargs)
        tracer.runs.append({
            "memory": result.memory,
            "cwf": isinstance(self.memory, CriticalWordMemory),
            "dram_reads": result.dram_reads,
            "l2_hit_rate": result.l2_hit_rate,
            "prefetch_drops": self.uncore.prefetch_drops,
            "fast_service_fraction": result.fast_service_fraction,
            "avg_queue_latency": result.avg_queue_latency,
            "bus_utilization": result.bus_utilization,
        })
        return result

    SimulationSystem.run = traced_run

    # -- cpu: Uncore.access; the core's wake-up callback it is handed
    # is charged to the core.
    access = wrap("cpu.access", Uncore.access)

    def traced_access(self, core_id, is_write, address, wake):
        if wake is not None:
            wake = wrap("cpu.wake", wake)
        return access(self, core_id, is_write, address, wake)

    Uncore.access = traced_access

    # -- core.cwf / memsys: issue_read/issue_write; the uncore's
    # completion callbacks are charged to the uncore.
    def wrap_issue(cls, bucket: str, count_reads: Optional[str]) -> None:
        issue_read = wrap(bucket, cls.issue_read)

        def traced_issue_read(self, line_address, critical_word, core_id,
                              is_prefetch, on_critical, on_complete):
            accepted = issue_read(
                self, line_address, critical_word, core_id, is_prefetch,
                wrap("cpu.fill", on_critical),
                wrap("cpu.fill", on_complete))
            if accepted and count_reads:
                counters[count_reads] += 1
            return accepted

        cls.issue_read = traced_issue_read
        cls.issue_write = wrap(bucket, cls.issue_write)

    wrap_issue(CriticalWordMemory, "cwf", "cwf.reads")
    wrap_issue(HomogeneousMemory, "memsys", None)
    wrap_issue(PagePlacementMemory, "memsys", None)

    # -- dram: enqueue (accepted/rejected); a request's completion
    # callbacks are charged to the module that created them.
    enqueue = wrap("dram", MemoryController.enqueue)

    def traced_enqueue(self, request):
        for attr in ("on_critical_word", "on_complete"):
            callback = getattr(request, attr, None)
            if (callback is not None
                    and getattr(callback, "__code__", None) is not span_code):
                setattr(request, attr,
                        wrap(callback_bucket(callback)[3:], callback))
        accepted = enqueue(self, request)
        counters["dram.enqueues" if accepted else "dram.enqueue_rejects"] += 1
        return accepted

    MemoryController.enqueue = traced_enqueue

    # -- dram.power / energy.
    PowerModel.compute = wrap("power", PowerModel.compute)
    _patch_everywhere(energy_model.memory_power_report,
                      wrap("power", energy_model.memory_power_report))

    # -- experiments: executor, spec execution, result cache.
    ParallelExecutor.run = wrap("executor", ParallelExecutor.run)
    spec_span = wrap("spec", execute_spec)

    @functools.wraps(execute_spec)
    def traced_execute_spec(*args, **kwargs):
        tracer.enter_worker()
        return spec_span(*args, **kwargs)

    _patch_everywhere(execute_spec, traced_execute_spec)
    cache_get = wrap("cache.get", ResultCache.get)

    def traced_cache_get(self, key):
        result = cache_get(self, key)
        counters["cache.hits" if result is not None else "cache.misses"] += 1
        return result

    ResultCache.get = traced_cache_get
    cache_put = wrap("cache.put", ResultCache.put)

    def traced_cache_put(self, key, result):
        cache_put(self, key, result)
        tracer.spool()

    ResultCache.put = traced_cache_put

    # -- store: artifact reads/writes and the shared durable write path.
    ArtifactStore.get_bytes = wrap("store.get", ArtifactStore.get_bytes)
    ArtifactStore.put_bytes = wrap("store.put", ArtifactStore.put_bytes)
    atomic = wrap("store.atomic", atomic_write_bytes)

    def traced_atomic(path, data, durable=True):
        counters["store.bytes_written"] += len(data)
        return atomic(path, data, durable=durable)

    _patch_everywhere(atomic_write_bytes, traced_atomic)

    # -- service: submit path and manifest saves.
    JobScheduler.submit = wrap("scheduler.submit", JobScheduler.submit)
    JobStore.save = wrap("jobstore.save", JobStore.save)


# Self-time buckets that make up each layer's busy time.
_LAYER_SELF = {
    "workloads.gen_s": ("workloads",),
    "events.heap_s": ("events", "sim.run", "cb.span"),
    "cpu.core_s": ("cb.cpu.core", "cpu.core", "cpu.wake"),
    "cpu.uncore_s": ("cb.cpu.uncore", "cpu.uncore", "cpu.access", "cpu.fill"),
    "cwf.issue_s": ("cb.cwf", "cwf"),
    "memsys.issue_s": ("cb.memsys", "memsys"),
    "dram.controller_s": ("cb.dram", "cb.dram.tick", "dram"),
    "power.compute_s": ("power",),
    "cache.get_s": ("cache.get",),
    "cache.put_s": ("cache.put",),
}

# Inclusive time of one entry point.
_LAYER_INCL = {
    "sim.build_s": "sim.build",
    "sim.prewarm_s": "sim.prewarm",
    "sim.run_s": "sim.run",
    "executor.run_s": "executor",
    "store.get_s": "store.get",
    "store.put_s": "store.put",
    "scheduler.submit_s": "scheduler.submit",
    "jobstore.save_s": "jobstore.save",
}


def layer_metrics(snap: dict, workers: int = 1) -> Dict[str, float]:
    """Per-layer metrics from a tracer :meth:`~Tracer.snapshot`."""
    self_s, incl_s = snap["self_s"], snap["incl_s"]
    calls, counters = snap["calls"], snap["counters"]
    # Worker spools arrive in any order; a fixed order keeps float sums
    # bit-identical from run to run.
    runs = sorted(snap["runs"], key=lambda r: json.dumps(r, sort_keys=True))
    out: Dict[str, float] = {}
    for name, buckets in _LAYER_SELF.items():
        out[name] = sum(self_s.get(b, 0.0) for b in buckets)
    for name, bucket in _LAYER_INCL.items():
        out[name] = incl_s.get(bucket, 0.0)
    reads = sum(r["dram_reads"] for r in runs)
    events = sum(n for b, n in calls.items() if b.startswith("cb."))
    ticks = calls.get("cb.dram.tick", 0)
    cwf_runs = [r for r in runs if r["cwf"]]

    def mean(rows, field, weight=None):
        total = sum(r[weight] if weight else 1 for r in rows)
        if not total:
            return 0.0
        return sum(r[field] * (r[weight] if weight else 1)
                   for r in rows) / total

    executor_busy = incl_s.get("spec", 0.0) / max(1, workers)
    out.update({
        "workloads.records": calls.get("workloads", 0),
        "sim.prewarm_memo_hits": counters.get("sim.prewarm_memo_hits", 0),
        "events.executed": events,
        "events.per_read": events / reads if reads else 0.0,
        "cpu.accesses": calls.get("cpu.access", 0),
        "cpu.l2_hit_rate": mean(runs, "l2_hit_rate"),
        "cpu.prefetch_drops": sum(r["prefetch_drops"] for r in runs),
        "cwf.reads": counters.get("cwf.reads", 0),
        "cwf.fast_service_fraction": mean(cwf_runs, "fast_service_fraction",
                                          "dram_reads"),
        "dram.enqueues": counters.get("dram.enqueues", 0),
        "dram.enqueue_rejects": counters.get("dram.enqueue_rejects", 0),
        "dram.ticks": ticks,
        "dram.ticks_per_read": ticks / reads if reads else 0.0,
        "dram.queue_latency_cycles": mean(runs, "avg_queue_latency",
                                          "dram_reads"),
        "dram.bus_utilization": mean(runs, "bus_utilization"),
        "executor.specs": calls.get("spec", 0),
        "executor.pool_overhead_s": (
            max(0.0, incl_s["executor"] - executor_busy)
            if "executor" in incl_s else 0.0),
        "cache.hits": counters.get("cache.hits", 0),
        "cache.misses": counters.get("cache.misses", 0),
        "cache.writes": calls.get("cache.put", 0),
        "store.atomic_writes": calls.get("store.atomic", 0),
        "store.bytes_written": counters.get("store.bytes_written", 0),
    })
    return out
