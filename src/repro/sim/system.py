"""The simulation harness: cores + uncore + memory, run to completion.

A run executes a fixed instruction trace per core (identical across
memory configurations, the paper's methodology) and reports IPC,
latency, bandwidth, and power-model inputs. Throughput comparisons
normalise the sum of per-core IPCs to a baseline run — for rate-mode
workloads (8 copies of one program) this equals the paper's weighted
speedup up to a constant factor.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, chain
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.criticality import CriticalityProfiler
from repro.cpu.cache import IMAGE_DIRTY
from repro.cpu.core import Core, TraceRecord
from repro.cpu.uncore import Uncore
from repro.dram.power import default_power_model
from repro.memsys.base import MemorySystem
from repro.memsys.registry import build_memory
from repro.sanitizer import (
    MODE_OFF,
    MODE_STRICT,
    ProtocolViolation,
    attach_sanitizers,
    global_report,
)
from repro.sim.config import SimConfig
from repro.telemetry.sampler import Sampler
from repro.telemetry.session import RunTelemetry, active_session
from repro.util.events import EventQueue
from repro.util.sums import left_sum
from repro.workloads.profiles import BenchmarkProfile
from repro.workloads.synthetic import generate_core_trace


@dataclass
class SimResult:
    """Everything the experiment harness needs from one run."""

    benchmark: str
    memory: str
    num_cores: int
    elapsed_cycles: int
    instructions: int
    per_core_ipc: List[float]
    dram_reads: int
    dram_writes: int
    demand_reads: int
    avg_queue_latency: float
    avg_core_latency: float
    avg_critical_latency: float
    avg_fill_latency: float
    fast_service_fraction: float
    bus_utilization: float
    memory_power_mw: float
    memory_power_by_family: Dict[str, float]
    l2_hit_rate: float
    word0_fraction: float = 0.0
    repeat_fraction: float = 0.0
    critical_distribution: List[float] = field(default_factory=list)
    # Compact registry-derived summary (percentiles etc.); populated only
    # when the run was executed with telemetry attached.
    telemetry: Optional[Dict] = None
    # Named-runner payloads (JSON-serialisable) that need data only the
    # live system can provide — e.g. Sec 7.2 power-model reports or the
    # Fig 3 per-line histograms — so those runs cache like any other.
    extra: Dict = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Sum of per-core IPCs (normalise to a baseline run)."""
        return left_sum(self.per_core_ipc)

    @property
    def memory_energy_mj(self) -> float:
        """Memory energy over the run, in microjoule-scale units
        (mW x cycles / freq; consistent across configs)."""
        return self.memory_power_mw * self.elapsed_cycles

    def speedup_over(self, baseline: "SimResult") -> float:
        return self.throughput / baseline.throughput if baseline.throughput else 0.0


# Sampler probes: module-level functions bound with functools.partial,
# so an instrumented system still pickles.
def _read_queue_depth(mc) -> int:
    """Controller read-queue occupancy, queued prefetches included."""
    return len(mc.read_queue) + len(mc.prefetch_queue)


def _write_queue_depth(mc) -> int:
    return len(mc.write_queue)


def _bus_utilization_pct(events: EventQueue, mc) -> float:
    return 100.0 * mc.channel.utilization(max(1, events.now))


class _FinishCounter:
    """Counts the cores that have finished (each core's ``on_finish``).

    A separate object the system owns, rather than a bound method of the
    system, so the cores hold no reference back to it.
    """

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def __call__(self, core: Core) -> None:
        self.count += 1


class SimulationSystem:
    """Assembled cores + uncore + memory, runnable once."""

    def __init__(self, config: SimConfig,
                 traces: Sequence[Iterable[TraceRecord]],
                 memory_builder: Optional[
                     Callable[[EventQueue], MemorySystem]] = None,
                 profile: Optional[BenchmarkProfile] = None) -> None:
        self.config = config
        self.events = EventQueue()
        if memory_builder is not None:
            # Hand-assembled memories (ablations, sweeps) are built on
            # this system's event queue before anything binds to the
            # memory, so telemetry and the sanitizer instrument it.
            self.memory = memory_builder(self.events)
        else:
            # Streams must reach the cores unconsumed: only re-iterable
            # materialized traces may feed a profiling backend build
            # (profile-guided backends prefer ``profile`` anyway).
            build_traces = (traces if all(isinstance(t, (list, tuple))
                                          for t in traces) else None)
            self.memory = build_memory(config, self.events, build_traces,
                                       profile=profile)
        self.uncore = Uncore(len(traces), self.memory, self.events,
                             config.uncore)
        self.profiler = CriticalityProfiler()
        self.uncore.demand_miss_observer = self.profiler.observe
        self._finished = _FinishCounter()
        # Each per-core trace may be a materialized list or a lazy
        # stream; Core consumes either through a one-record lookahead
        # and takes ownership without copying.
        self.cores: List[Core] = [
            Core(i, trace, self.uncore, self.events, config.core,
                 on_finish=self._finished)
            for i, trace in enumerate(traces)
        ]
        self.telemetry: Optional[RunTelemetry] = None
        self.sampler: Optional[Sampler] = None
        # Optional protocol sanitizer (see attach_sanitizer). Off by
        # default; the hot path then pays one `is None` check per hook.
        self._san_report = None
        self._san_uncore = None
        self._san_counts_before: Optional[Dict[str, int]] = None

    def attach_sanitizer(self, mode: int) -> None:
        """Check the run's DRAM protocol and read conservation into the
        process-wide report, in a :func:`~repro.sanitizer.sanitize_mode`
        ``mode``; call once, before the run."""
        if mode == MODE_OFF:
            return
        report = global_report()
        if mode == MODE_STRICT:
            report.strict = True
        _, self._san_uncore = attach_sanitizers(self.memory, self.uncore,
                                                report)
        self._san_report = report
        self._san_counts_before = dict(report.counts)

    def attach_telemetry(self, telemetry: RunTelemetry) -> None:
        """Instrument the memory hierarchy and start periodic sampling;
        call once, before the run, which then exports into ``telemetry``."""
        self.telemetry = telemetry
        self.memory.attach_telemetry(telemetry.registry, telemetry.tracer)
        self.sampler = Sampler(self.events, telemetry.registry,
                               telemetry.sample_interval)
        for mc in self.memory.telemetry_controllers():
            self.sampler.add_probe(f"dram.{mc.name}.read_queue_occupancy",
                                   partial(_read_queue_depth, mc))
            self.sampler.add_probe(f"dram.{mc.name}.write_queue_occupancy",
                                   partial(_write_queue_depth, mc))
            # Percent scale so the integer-bucketed histogram resolves it.
            self.sampler.add_probe(f"dram.{mc.name}.bus_utilization_pct",
                                   partial(_bus_utilization_pct,
                                           self.events, mc))
        self.sampler.add_probe("mshr.occupancy",
                               partial(len, self.uncore.mshrs))
        self.sampler.start()

    def run(self, max_events: int = 200_000_000,
            checkpointer=None) -> "SimResult":
        for core in self.cores:
            core.start()
        return self._run_loop(0, max_events, checkpointer)

    def resume_run(self, executed: int = 0, max_events: int = 200_000_000,
                   checkpointer=None) -> "SimResult":
        """Continue a checkpoint-restored system to completion.

        The cores are already started (their start events live in the
        restored queue), so unlike :meth:`run` this only re-enters the
        event loop. ``executed`` carries the restored event count so the
        ``max_events`` guard spans the whole logical run.
        """
        return self._run_loop(executed, max_events, checkpointer)

    def _run_loop(self, executed: int, max_events: int,
                  checkpointer) -> "SimResult":
        num_cores = len(self.cores)
        events = self.events
        finished = self._finished
        if checkpointer is None and self._san_report is None:
            # Tight path: ``EventQueue.step`` inlined, with no per-event
            # probes when neither feature is active.
            heap = events._heap
            pop = heapq.heappop
            while finished.count < num_cores:
                if not heap:
                    raise RuntimeError(
                        f"deadlock: {finished.count}/{num_cores} cores "
                        f"finished, event queue empty at t={events.now}")
                time, _seq, callback = pop(heap)
                if callback is None:
                    continue
                events.now = time
                callback()
                executed += 1
                if executed > max_events:
                    raise RuntimeError("simulation exceeded max_events")
            return self._collect()
        step = events.step
        report = self._san_report
        last_now = events.now
        while finished.count < num_cores:
            if not step():
                raise RuntimeError(
                    f"deadlock: {finished.count}/{num_cores} cores "
                    f"finished, event queue empty at t={events.now}")
            executed += 1
            if executed > max_events:
                raise RuntimeError("simulation exceeded max_events")
            if report is not None:
                now = events.now
                if now < last_now:
                    report.record(ProtocolViolation(
                        rule="sim.time_regression", time=now,
                        source="events",
                        command=f"event at {now}",
                        conflict=f"previous event at {last_now}"))
                last_now = now
            if checkpointer is not None:
                checkpointer.maybe_save(self, executed)
        return self._collect()

    # ------------------------------------------------------------------

    def _collect(self) -> SimResult:
        elapsed = max((c.finish_time or 0) for c in self.cores)
        elapsed = max(elapsed, 1)
        self.memory.finalize()
        power_by_family, total_mw = self._memory_power(elapsed)
        stats = self.memory.stats
        result = SimResult(
            benchmark="",
            memory=self.config.memory,
            num_cores=len(self.cores),
            elapsed_cycles=elapsed,
            instructions=sum(c.instructions for c in self.cores),
            per_core_ipc=[c.instructions / elapsed for c in self.cores],
            dram_reads=self.uncore.dram_reads,
            dram_writes=self.uncore.dram_writes,
            demand_reads=stats.demand_reads,
            avg_queue_latency=self.memory.avg_queue_latency(),
            avg_core_latency=self.memory.avg_core_latency(),
            avg_critical_latency=stats.avg_critical_latency,
            avg_fill_latency=stats.avg_fill_latency,
            fast_service_fraction=stats.fast_service_fraction,
            bus_utilization=self.memory.bus_utilization(elapsed),
            memory_power_mw=total_mw,
            memory_power_by_family=power_by_family,
            l2_hit_rate=self.uncore.l2.hit_rate,
            word0_fraction=self.profiler.word0_fraction,
            repeat_fraction=self.profiler.repeat_fraction,
            critical_distribution=self.profiler.distribution(),
        )
        if self.telemetry is not None:
            self._export_telemetry(elapsed, result)
        if self._san_report is not None:
            self._finalize_sanitizer()
        # Drop the work still in flight. Pending events and queued
        # requests hold callbacks that lead back into the components
        # owning them; without them, dropping the last reference to the
        # finished system frees it by reference counting. Open MSHR
        # entries hold no waiter (every core finished, so every load was
        # woken). What a view reads after the run (stats, power model,
        # profiler) stays.
        self.events.clear()
        self.memory.release_in_flight()
        return result

    def _finalize_sanitizer(self) -> None:
        """End-of-run conservation check + counter export.

        Violations flow out-of-band (the process-wide report and
        ``sanitizer.*`` session counters); the :class:`SimResult` itself
        is untouched, so sanitized runs stay byte-identical to plain
        ones.
        """
        if self._san_uncore is not None:
            self._san_uncore.finalize(self.events.now,
                                      queue_drained=len(self.events) == 0)
        session = active_session()
        if session is None:
            return
        counters = session.counters
        counters.incr("sanitizer.runs")
        before = self._san_counts_before or {}
        for rule, count in self._san_report.counts.items():
            delta = count - before.get(rule, 0)
            if delta > 0:
                counters.incr(f"sanitizer.{rule}", delta)
                counters.incr("sanitizer.violations", delta)
        self._san_counts_before = dict(self._san_report.counts)

    def _export_telemetry(self, elapsed: int, result: SimResult) -> None:
        """Flush end-of-run metrics into the run's registry."""
        registry = self.telemetry.registry
        if self.sampler is not None:
            self.sampler.stop()
            registry.gauge("sample.samples_taken").set(
                self.sampler.samples_taken)
        self.memory.export_telemetry(elapsed)
        registry.gauge("sim.elapsed_cycles").set(elapsed)
        registry.gauge("sim.instructions").set(result.instructions)
        registry.gauge("sim.dram_reads").set(self.uncore.dram_reads)
        registry.gauge("sim.dram_writes").set(self.uncore.dram_writes)
        registry.gauge("sim.prefetch_drops").set(self.uncore.prefetch_drops)
        registry.gauge("sim.l2_hit_rate").set(self.uncore.l2.hit_rate)
        for key, value in self.uncore.mshrs.telemetry_items().items():
            registry.gauge(f"mshr.{key}").set(value)
        for core in self.cores:
            for key, value in core.telemetry_items().items():
                registry.gauge(f"core{core.core_id}.{key}").set(value)
        # Compact summary carried on the SimResult. The histogram observes
        # every latency ``stats.sum_critical_latency`` adds, so this
        # average must agree with the SimResult field.
        critical = registry.get("memsys.critical_latency_cycles")
        fill = registry.get("memsys.fill_latency_cycles")
        demands = self.memory.stats.demand_reads
        result.telemetry = {
            "memory": self.memory.describe(),
            "avg_critical_latency": (critical.sum / demands
                                     if critical and demands else 0.0),
            "critical_latency": critical.snapshot() if critical else None,
            "fill_latency": fill.snapshot() if fill else None,
            "queue_latency_by_channel": {
                mc.name: registry.get(
                    f"dram.{mc.name}.queue_latency_cycles").snapshot()
                for mc in self.memory.telemetry_controllers()
            },
        }

    def _memory_power(self, elapsed: int):
        """Run every chip's activity through the Micron-style model."""
        from repro.dram.device import DRAMKind
        activities = self.memory.chip_activities(elapsed)
        by_family: Dict[str, float] = {}
        total = 0.0
        for key, chips in activities.items():
            family = key.split(":")[-1]
            model = default_power_model(DRAMKind(family))
            fam_total = left_sum(model.compute(a).total_mw for a in chips)
            by_family[key] = fam_total
            total += fam_total
        return by_family, total


# Memoized warm-L2 images. One benchmark profile is typically simulated
# across several memory organisations back to back (every figure sweeps
# memories with the benchmark held fixed); the warm image depends only
# on the profile, the core count, and the L2 geometry — not the memory —
# so it is computed once and shared. An image is three flat buffers
# (about 0.6 MiB at Table 1's geometry) and is never mutated: each L2
# copies a set out of its image only when a run first probes that set
# (``Cache.load_image``), so a memo hit costs nothing up front. A hit
# leaves the memo's key order alone (``get``, never ``move_to_end``):
# perfbench/tracer.py counts a hit as a call that does not change it.
_PREWARM_CACHE: Dict[tuple, tuple] = {}
_PREWARM_CACHE_MAX = 8


def _prewarm_key(profile: BenchmarkProfile, num_cores: int,
                 num_sets: int, associativity: int) -> tuple:
    return (profile.name, profile.hot_fraction, profile.hot_lines,
            profile.footprint_lines, profile.write_fraction,
            profile.stream_fraction, profile.chase_line_bias,
            tuple(sorted(profile.chase_word_weights.items())),
            num_cores, num_sets, associativity)


def prewarm_l2(system: SimulationSystem, profile: BenchmarkProfile) -> None:
    """Fill the shared L2 with plausible steady-state contents.

    The paper fast-forwards 2 B instructions and warms up before
    measuring, so measurement starts with a full L2 whose evictions
    (some dirty) generate writeback traffic immediately. We model that
    by populating the L2 with lines drawn from each core's footprint:
    dirty with the profile's write probability, carrying the critical
    word a fetch of that line would have observed. The L2 must be
    untouched.
    """
    l2 = system.uncore.l2
    num_sets = l2.config.num_sets
    assoc = l2.config.associativity
    key = _prewarm_key(profile, len(system.cores), num_sets, assoc)
    image = _PREWARM_CACHE.get(key)
    if image is None:
        image = _warm_image(profile, len(system.cores), num_sets, assoc)
        if len(_PREWARM_CACHE) >= _PREWARM_CACHE_MAX:
            _PREWARM_CACHE.pop(next(iter(_PREWARM_CACHE)))
        _PREWARM_CACHE[key] = image
    l2.load_image(*image)


def _warm_image(profile: BenchmarkProfile, num_cores: int, num_sets: int,
                assoc: int) -> tuple:
    """``(image, evictions, dirty_evictions)`` of one warm-up fill.

    Replays ``Cache.insert`` semantics (LRU, sticky dirty bit, victim
    counting) on an empty ``num_sets`` x ``assoc`` tag store, keeping
    each line's packed ``meta`` byte (critical word, plus
    ``IMAGE_DIRTY`` when dirty) in per-set LRU dicts; the image is
    those sets flattened into the buffers ``Cache.load_image`` takes.
    """
    import random as _random
    from repro.dram.request import LINE_BYTES as _LB, WORDS_PER_LINE
    from repro.workloads.synthetic import (
        _BUCKETS,
        _HASH_MASK,
        _HASH_MULT,
        _WORD_BITS,
        CORE_ADDRESS_STRIDE,
        word_table,
    )
    sets: List[dict] = [{} for _ in range(num_sets)]
    per_core = num_sets * assoc // num_cores
    lines_per_core = CORE_ADDRESS_STRIDE // _LB
    hot_fraction = profile.hot_fraction
    footprint = profile.footprint_lines
    write_fraction = profile.write_fraction
    stream_fraction = profile.stream_fraction
    chase_line_bias = profile.chase_line_bias
    hot_span = min(profile.hot_lines, footprint)
    hot_bits = hot_span.bit_length()
    footprint_bits = footprint.bit_length()
    evicted = 0
    dirty_evicted = 0
    # Inlined expected_critical_word / preferred_word_for_global_line:
    # the loop samples a word per resident line (~64k draws), and the
    # per-call profile-attribute chasing dominates the hash.
    table = word_table(profile.chase_word_weights)
    for core_id in range(num_cores):
        rng = _random.Random(0xC0FFEE ^ core_id)
        random = rng.random
        # randrange(n) inlined as its getrandbits rejection loop, as in
        # workloads/synthetic.py: the same draws, no call per sample.
        getrandbits = rng.getrandbits
        base_line = core_id * lines_per_core
        for _ in range(per_core):
            # Hot-region lines are the ones a warm cache would hold.
            if hot_fraction and random() < 0.6:
                offset = getrandbits(hot_bits)
                while offset >= hot_span:
                    offset = getrandbits(hot_bits)
            else:
                offset = getrandbits(footprint_bits)
                while offset >= footprint:
                    offset = getrandbits(footprint_bits)
            line = base_line + offset
            if random() < stream_fraction:
                word = 0
            elif random() < chase_line_bias:
                h = ((line % lines_per_core) * _HASH_MULT) & _HASH_MASK
                word = table[(h >> 32) % _BUCKETS]
            else:
                word = getrandbits(_WORD_BITS)
                while word >= WORDS_PER_LINE:
                    word = getrandbits(_WORD_BITS)
            dirty = random() < write_fraction
            s = sets[line % num_sets]
            old = s.pop(line, None)
            if old is not None:
                # Re-reference: move to MRU; a write makes it dirty.
                s[line] = old | IMAGE_DIRTY if dirty else old
            else:
                if len(s) >= assoc:
                    lru = s.pop(next(iter(s)))
                    evicted += 1
                    if lru >= IMAGE_DIRTY:
                        dirty_evicted += 1
                s[line] = word | IMAGE_DIRTY if dirty else word
    image = (array("I", accumulate(map(len, sets), initial=0)),
             array("q", chain.from_iterable(sets)),
             bytes(chain.from_iterable(s.values() for s in sets)))
    return image, evicted, dirty_evicted


def run_benchmark(benchmark: str, config: SimConfig,
                  traces: Optional[Sequence[Iterable[TraceRecord]]] = None,
                  warm: bool = True,
                  telemetry: Optional[RunTelemetry] = None) -> SimResult:
    """Build ``benchmark``'s workload source and run it once.

    ``benchmark`` is any workload name — a bare
    profile name (``mcf``), ``synthetic:<profile>``, or
    ``trace:<path>`` for recorded replays. The source's per-core record
    streams feed the cores lazily; explicit ``traces`` (tests,
    ablations) bypass the source. When a telemetry session is active
    (see :mod:`repro.telemetry.session`) and no explicit ``telemetry``
    is given, the run is automatically registered with the session.
    """
    return simulate_benchmark(benchmark, config, traces, warm, telemetry)[1]


def simulate_benchmark(
        benchmark: str, config: SimConfig,
        traces: Optional[Sequence[Iterable[TraceRecord]]] = None,
        warm: bool = True, telemetry: Optional[RunTelemetry] = None,
) -> Tuple[SimulationSystem, SimResult]:
    """:func:`run_benchmark` that also returns the finished system.

    Views of a run (:mod:`repro.experiments.specs`) read state the
    :class:`SimResult` does not carry, such as the live power model or
    the criticality profiler.
    """
    system, display = build_benchmark(benchmark, config, traces, warm)
    return system, run_system(system, display, telemetry=telemetry)


def build_benchmark(
        benchmark: str, config: SimConfig,
        traces: Optional[Sequence[Iterable[TraceRecord]]] = None,
        warm: bool = True, materialize: bool = False,
) -> Tuple[SimulationSystem, str]:
    """Build ``benchmark``'s prewarmed, not yet run system; return
    ``(system, display name)``. ``materialize`` turns the source's
    streams into lists: a checkpointed run pickles its cores, and
    generators cannot be pickled (the records are the same)."""
    from repro.workloads.registry import create_workload

    source = create_workload(benchmark)
    profile = source.profile
    if traces is None:
        traces = source.streams(config)
        if materialize:
            traces = [list(stream) for stream in traces]
    system = SimulationSystem(config, traces, profile=profile)
    if warm and profile is not None:
        prewarm_l2(system, profile)
    return system, source.display_benchmark()


# The SimResult scalars a session run record summarises.
_SUMMARY_FIELDS = ("elapsed_cycles", "instructions", "throughput",
                   "dram_reads", "avg_critical_latency", "avg_fill_latency",
                   "avg_queue_latency", "bus_utilization")


def run_system(system: SimulationSystem, benchmark: str,
               telemetry: Optional[RunTelemetry] = None, variant: str = "",
               checkpointer=None, executed: Optional[int] = None
               ) -> SimResult:
    """Run a built ``system`` to completion as ``benchmark``'s run.

    With no explicit ``telemetry``, an active session's run telemetry
    is attached and the finished run recorded with the session, under
    ``benchmark``, the memory and ``variant``. ``executed`` continues a
    checkpoint-restored system (:meth:`SimulationSystem.resume_run`)
    instead of starting one; ``checkpointer`` snapshots the run.
    """
    session = None
    if telemetry is None:
        session = active_session()
        if session is not None:
            telemetry = session.begin_run(benchmark, system.config.memory,
                                          variant)
    if telemetry is not None:
        system.attach_telemetry(telemetry)
    if executed is None:
        result = system.run(checkpointer=checkpointer)
    else:
        result = system.resume_run(executed=executed,
                                   checkpointer=checkpointer)
    result.benchmark = benchmark
    if session is not None:
        summary = {name: getattr(result, name) for name in _SUMMARY_FIELDS}
        summary["seed"] = system.config.seed
        session.end_run(telemetry, summary=summary)
    return result


def make_traces(profile: BenchmarkProfile,
                config: SimConfig) -> List[List[TraceRecord]]:
    """Per-core deterministic traces sized for the configured fetch target."""
    per_core = max(1, config.target_dram_reads // config.num_cores)
    return [generate_core_trace(profile, core_id, per_core, config.seed)
            for core_id in range(config.num_cores)]


def run_weighted_speedup(benchmark: str, config: SimConfig,
                         warm: bool = True) -> float:
    """The paper's throughput metric: sum_i IPC_shared_i / IPC_alone_i.

    ``IPC_alone_i`` comes from running core *i*'s trace on a single-core
    system with the same memory organisation (the paper's definition).
    For rate-mode workloads (8 copies of one program) this differs from
    the sum-of-IPCs metric only by a near-constant factor, which is why
    the figure harness uses sum-of-IPCs normalised to a baseline;
    this helper exists for studies that need the exact metric.
    """
    import dataclasses
    from repro.energy.model import weighted_speedup
    from repro.workloads.registry import create_workload

    shared = run_benchmark(benchmark, config, warm=warm)
    alone_config = dataclasses.replace(config, num_cores=1)
    # Re-derive each core's stream from a fresh source view and run it
    # on a single-core system (the paper's IPC_alone definition).
    alone_ipcs = [
        run_benchmark(benchmark, alone_config, [trace], warm).per_core_ipc[0]
        for trace in create_workload(benchmark).streams(config)]
    return weighted_speedup(shared.per_core_ipc, alone_ipcs)
