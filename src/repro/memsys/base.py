"""The :class:`MemorySystem` base class between the uncore and a memory.

Every memory organisation — homogeneous, the paper's CWF pairs, page
placement, HMC cubes — subclasses it. The abstract base refuses to
build an organisation that lacks :meth:`~MemorySystem.issue_read`,
:meth:`~MemorySystem.issue_write` or :meth:`~MemorySystem.chip_groups`;
every other method, the aggregate latency views
(``avg_queue_latency`` / ``avg_core_latency``) included, has a
controller-derived default that subclasses inherit or override.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.dram.controller import MemoryController
from repro.dram.power import ChipActivity
from repro.telemetry.registry import Histogram, MetricsRegistry
from repro.telemetry.trace import ChromeTracer
from repro.util.sums import left_sum

# One DRAM family of an organisation: (family key, its controllers,
# chips per rank). The key names the power model (its last
# ``:``-separated part is a DRAMKind value).
ChipGroup = Tuple[str, List[MemoryController], int]

# The MemorySystemStats fields published as ``memsys.<field>`` counters.
_STATS_COUNTERS = ("reads", "demand_reads", "writes",
                   "critical_served_fast", "critical_served_slow")


@dataclass
class MemorySystemStats:
    """Roll-up the experiment harness reads after a run."""

    reads: int = 0
    demand_reads: int = 0
    writes: int = 0
    critical_served_fast: int = 0      # critical word came from the fast DIMM
    critical_served_slow: int = 0
    sum_critical_latency: int = 0      # arrival -> critical word (demands)
    sum_fill_latency: int = 0          # arrival -> full line (all reads)

    @property
    def avg_critical_latency(self) -> float:
        if not self.demand_reads:
            return 0.0
        return self.sum_critical_latency / self.demand_reads

    @property
    def avg_fill_latency(self) -> float:
        return self.sum_fill_latency / self.reads if self.reads else 0.0

    @property
    def fast_service_fraction(self) -> float:
        total = self.critical_served_fast + self.critical_served_slow
        return self.critical_served_fast / total if total else 0.0


class ReadCritical:
    """Critical-word callback of a one-part read (picklable, not a closure).

    Records the arrival -> critical word latency of a demand read and
    which side served it, then wakes the requester.
    """

    __slots__ = ("memory", "start", "is_prefetch", "fast", "on_critical")

    def __init__(self, memory: "MemorySystem", start: int, is_prefetch: bool,
                 fast: bool,
                 on_critical: Callable[[int], None]) -> None:
        self.memory = memory
        self.start = start
        self.is_prefetch = is_prefetch
        self.fast = fast
        self.on_critical = on_critical

    def __call__(self, t: int) -> None:
        memory = self.memory
        if not self.is_prefetch:
            stats = memory.stats
            stats.sum_critical_latency += t - self.start
            if self.fast:
                stats.critical_served_fast += 1
            else:
                stats.critical_served_slow += 1
            if memory._h_critical is not None:
                memory._h_critical.observe(t - self.start)
        self.on_critical(t)


class ReadComplete:
    """Fill-complete callback of a one-part read (picklable, not a closure)."""

    __slots__ = ("memory", "start", "on_complete")

    def __init__(self, memory: "MemorySystem", start: int,
                 on_complete: Callable[[int], None]) -> None:
        self.memory = memory
        self.start = start
        self.on_complete = on_complete

    def __call__(self, t: int) -> None:
        memory = self.memory
        memory.stats.sum_fill_latency += t - self.start
        if memory._h_fill is not None:
            memory._h_fill.observe(t - self.start)
        self.on_complete(t)


def per_read_mean(controllers: List[MemoryController], field: str) -> float:
    """Mean of a controller latency sum over the reads they completed."""
    done = sum(c.stats.reads_done for c in controllers)
    if not done:
        return 0.0
    return sum(getattr(c.stats, field) for c in controllers) / done


def mean_bus_utilization(controllers: List[MemoryController],
                          elapsed_cycles: int) -> float:
    """Mean data-bus utilisation over the controllers' channels."""
    if not controllers:
        return 0.0
    return left_sum(c.channel.utilization(elapsed_cycles)
                    for c in controllers) / len(controllers)


class MemorySystem(abc.ABC):
    """A main memory reachable from the LLC.

    Contract:

    * :meth:`issue_read` starts a line fill. ``on_critical`` fires when
      the *requested word* is at the processor pins — from whichever part
      of the organisation carries it (the fast DIMM, or the first beat of
      the reordered bulk burst). ``on_complete`` fires when the whole
      line has arrived. Returns ``False`` if a controller queue is full
      (caller must retry).
    * :meth:`issue_write` enqueues a writeback. ``critical_word_tag`` is
      the observed critical word the adaptive scheme may persist.
    * :meth:`chip_groups` declares the DRAM families and their
      controllers. Every roll-up (:meth:`telemetry_controllers`,
      :meth:`finalize`, :meth:`release_in_flight`,
      :meth:`chip_activities`,
      :meth:`bus_utilization`, the latency views) derives from it, and
      the issue paths count each event once, in :attr:`stats`.
    """

    stats: MemorySystemStats

    # Canonical backend name, stamped by build_memory (None for
    # hand-assembled memories).
    backend_name: Optional[str] = None

    # Telemetry handles are None until attach_telemetry (class
    # attributes, so subclasses need no __init__ cooperation); each
    # per-request path tests its histogram once. Only the latency
    # distributions are live; counts are published from ``stats`` at
    # export.
    telemetry_registry: Optional[MetricsRegistry] = None
    # arrival -> critical word (demands); arrival -> full line (all reads)
    _h_critical: Optional[Histogram] = None
    _h_fill: Optional[Histogram] = None

    @abc.abstractmethod
    def chip_groups(self) -> List[ChipGroup]:
        """``(family key, controllers, chips per rank)`` per DRAM family."""
        ...

    def telemetry_controllers(self) -> List[MemoryController]:
        """Every memory controller, in :meth:`chip_groups` order."""
        return [mc for _, controllers, _ in self.chip_groups()
                for mc in controllers]

    def attach_telemetry(self, registry: MetricsRegistry,
                         tracer: Optional[ChromeTracer] = None) -> None:
        """Bind this memory system to a registry, and its controllers
        to the registry and ``tracer``."""
        self.telemetry_registry = registry
        self._h_critical = registry.histogram("memsys.critical_latency_cycles")
        self._h_fill = registry.histogram("memsys.fill_latency_cycles")
        for controller in self.telemetry_controllers():
            controller.attach_telemetry(registry, tracer)

    def export_telemetry(self, elapsed_cycles: int) -> None:
        """Publish end-of-run counts and structural metrics."""
        if self.telemetry_registry is None:
            return
        registry = self.telemetry_registry
        for field in _STATS_COUNTERS:
            registry.counter(f"memsys.{field}").inc(getattr(self.stats, field))
        registry.gauge("memsys.bus_utilization").set(
            self.bus_utilization(elapsed_cycles))
        registry.gauge("memsys.fast_service_fraction").set(
            self.stats.fast_service_fraction)
        for controller in self.telemetry_controllers():
            controller.export_telemetry(elapsed_cycles)

    # --- aggregate latency views (paper Fig 1b) -----------------------
    #
    # The harness calls them unconditionally; the controller-derived
    # defaults serve most organisations. Organisations whose notion of
    # "the queue" is more subtle (e.g. CWF reports the bulk side only)
    # override.

    def avg_queue_latency(self) -> float:
        """Mean cycles a demand read waited in controller queues."""
        return per_read_mean(self.telemetry_controllers(),
                              "sum_queue_latency")

    def avg_core_latency(self) -> float:
        """Mean cycles from issue to data once a read left the queue."""
        return per_read_mean(self.telemetry_controllers(),
                              "sum_core_latency")

    def describe(self) -> Dict[str, object]:
        """Structural self-description (capability hook).

        Telemetry manifests, the CLI, and debugging tools read this
        instead of poking at implementation attributes. Subclasses
        should call ``super().describe()`` and add organisation facts
        (devices, channel counts, policies).
        """
        return {
            "class": type(self).__name__,
            "backend": self.backend_name,
            "controllers": [c.name for c in self.telemetry_controllers()],
        }

    @abc.abstractmethod
    def issue_read(self, line_address: int, critical_word: int, core_id: int,
                   is_prefetch: bool,
                   on_critical: Callable[[int], None],
                   on_complete: Callable[[int], None]) -> bool:
        ...

    @abc.abstractmethod
    def issue_write(self, line_address: int, critical_word_tag: int,
                    core_id: int) -> bool:
        ...

    # --- roll-ups derived from chip_groups ----------------------------

    def finalize(self) -> None:
        """Fold every rank's residency tally; called once at end of run."""
        for controller in self.telemetry_controllers():
            controller.finalize()

    def release_in_flight(self) -> None:
        """Drop every controller's queued requests after the run."""
        for controller in self.telemetry_controllers():
            controller.release_in_flight()

    def bus_utilization(self, elapsed_cycles: int) -> float:
        """Mean data-bus utilisation across the system's channels."""
        return mean_bus_utilization(self.telemetry_controllers(),
                                     elapsed_cycles)

    def chip_activities(self, elapsed_cycles: int) -> Dict[str, List[ChipActivity]]:
        """Per-chip activity factors keyed by chip family.

        One record per chip; all chips of a rank are alike.
        """
        self.finalize()
        out: Dict[str, List[ChipActivity]] = {}
        for key, controllers, chips_per_rank in self.chip_groups():
            chips = out.setdefault(key, [])
            for mc in controllers:
                ghz = mc.timing.cpu_freq_ghz
                elapsed_ns = max(1.0, elapsed_cycles / ghz)
                t_burst_ns = mc.device.timing.t_burst
                for rank in mc.ranks:
                    tally = rank.finalize_tally(mc.events.now)
                    reads = rank.read_count
                    writes = rank.write_count
                    activity = ChipActivity(
                        elapsed_ns=elapsed_ns,
                        activates=rank.activate_count,
                        reads=reads,
                        writes=writes,
                        read_bus_ns=reads * t_burst_ns,
                        write_bus_ns=writes * t_burst_ns,
                        active_standby_ns=tally.active / ghz,
                        precharge_standby_ns=tally.standby / ghz,
                        power_down_ns=tally.power_down / ghz,
                        self_refresh_ns=tally.self_refresh / ghz,
                    )
                    chips.extend([activity] * chips_per_rank)
        return out

