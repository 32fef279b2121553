"""Per-channel memory controller.

Implements the paper's controller model (Section 5):

* separate read and write queues (48 entries each) with high/low
  watermark write draining (32/16),
* FR-FCFS scheduling for open-page devices, close-page single-command
  scheduling for RLDRAM3,
* demand-over-prefetch priority with age-based promotion,
* per-rank refresh every tREFI, and
* an aggressive idle power-down policy for low-power ranks.

The controller is event-driven: it ticks on bus-cycle boundaries only
while work is pending, and otherwise sleeps until the next request or
refresh.

The issue loops are the simulator's inner kernel, so the controller
follows the same discipline as the bank/rank/bus models: ``__slots__``,
per-command timing constraints flattened to integer attributes at
construction (bus-cycle alignment, CAS data latencies, the burst beat),
a per-rank data-bus table replacing the ``rank_to_bus`` dict lookup,
and a live count of unpromoted prefetches so the common no-prefetch
case skips the demand/prefetch partition and the promotion scan
entirely. All of it is bit-identical to the straightforward form: the
same commands issue at the same cycles in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.dram.bank import BankState
from repro.dram.channel import Channel
from repro.dram.device import DeviceConfig, PagePolicy
from repro.dram.request import MemoryRequest, WORDS_PER_LINE
from repro.dram.rank import PowerState, Rank
from repro.dram.scheduler import (
    SchedulingPolicy,
    promote_aged_prefetches,
    select_oldest,
)
from repro.dram.timing import TimingSet
from repro.telemetry.registry import (
    MetricsRegistry,
    NULL_COUNTER,
    NULL_HISTOGRAM,
)
from repro.telemetry.trace import NULL_TRACER
from repro.util.events import EventQueue

FAR_FUTURE = 1 << 62


class _DeliverCritical:
    """Scheduled critical-word delivery (picklable, not a closure)."""

    __slots__ = ("req",)

    def __init__(self, req: MemoryRequest) -> None:
        self.req = req

    def __call__(self) -> None:
        req = self.req
        req.on_critical_word(req.critical_word_time)


class _DeliverComplete:
    """Scheduled line-completion delivery (picklable, not a closure)."""

    __slots__ = ("req",)

    def __init__(self, req: MemoryRequest) -> None:
        self.req = req

    def __call__(self) -> None:
        req = self.req
        req.on_complete(req.completion_time)


@dataclass
class ControllerConfig:
    """Knobs from paper Table 1 plus policy switches."""

    read_queue_size: int = 48
    write_queue_size: int = 48
    high_watermark: int = 32
    low_watermark: int = 16
    scheduling: SchedulingPolicy = SchedulingPolicy.FR_FCFS
    prefetch_age_threshold: int = 2000   # CPU cycles before promotion
    powerdown_idle_threshold: int = 640  # CPU cycles (200 ns at 3.2 GHz)
    aggressive_powerdown: bool = False   # LPDRAM channels sleep eagerly
    refresh_enabled: bool = True


class ControllerStats:
    """Aggregated latency and throughput accounting.

    Slotted plain class: the counters are bumped on every completed
    command, and ``__slots__`` keeps those attribute writes off a dict.
    """

    __slots__ = (
        "reads_done", "writes_done", "sum_queue_latency",
        "sum_core_latency", "sum_total_latency", "sum_critical_latency",
        "refreshes", "prefetches_done",
    )

    def __init__(self) -> None:
        self.reads_done = 0
        self.writes_done = 0
        self.sum_queue_latency = 0
        self.sum_core_latency = 0
        self.sum_total_latency = 0
        self.sum_critical_latency = 0
        self.refreshes = 0
        self.prefetches_done = 0

    @property
    def avg_queue_latency(self) -> float:
        return self.sum_queue_latency / self.reads_done if self.reads_done else 0.0

    @property
    def avg_core_latency(self) -> float:
        return self.sum_core_latency / self.reads_done if self.reads_done else 0.0

    @property
    def avg_total_latency(self) -> float:
        return self.sum_total_latency / self.reads_done if self.reads_done else 0.0


class MemoryController:
    """One controller driving one channel of homogeneous DIMMs.

    ``rank_to_bus`` maps each rank to the data (sub-)bus it answers on;
    the default maps every rank to bus 0 (a conventional channel). The
    aggregated critical-word channel maps rank *i* to bus *i*.
    """

    __slots__ = (
        "device", "timing", "channel", "events", "config", "name",
        "ranks", "rank_to_bus", "read_queue", "write_queue", "stats",
        "_draining_writes", "_tick_event", "_next_refresh",
        "_refresh_pending", "registry", "tracer",
        "_h_queue_lat", "_h_critical_lat", "_h_total_lat", "_h_occupancy",
        "_c_refreshes", "_c_promotions",
        # Precomputed hot-path constants and fast-path state.
        "_bus_cycle", "_t_rl", "_t_wl", "_t_rc", "_t_refi", "_t_rfc",
        "_beat", "_slots_per_cycle", "_cmd_bus", "_cmd_earliest",
        "_cmd_reserve", "_rank_bus",
        "_close_page", "_unpromoted_prefetches", "_refresh_due",
        "_telemetry",
        # Config knobs flattened to instance attributes: the config is
        # never mutated after construction, and these are read every tick.
        "_refresh_enabled", "_aggressive_pd", "_pd_threshold",
        "_age_threshold", "_fr_fcfs", "_rd_size", "_wr_size",
        "_high_wm", "_low_wm",
        "_queue_version", "_partition_version", "_partition",
        # Optional protocol sanitizer (shadow timing/FSM model); None on
        # un-instrumented runs so every hook costs one identity check.
        "_san",
    )

    def __init__(self, device: DeviceConfig, timing: TimingSet,
                 channel: Channel, num_ranks: int,
                 events: EventQueue,
                 config: Optional[ControllerConfig] = None,
                 rank_to_bus: Optional[Dict[int, int]] = None,
                 name: str = "mc") -> None:
        self.device = device
        self.timing = timing
        self.channel = channel
        self.events = events
        self.config = config or ControllerConfig()
        self.name = name
        self.ranks: List[Rank] = [Rank(device, timing, i) for i in range(num_ranks)]
        self.rank_to_bus = rank_to_bus or {i: 0 for i in range(num_ranks)}
        self.read_queue: List[MemoryRequest] = []
        self.write_queue: List[MemoryRequest] = []
        self.stats = ControllerStats()
        self._draining_writes = False
        self._tick_event = None
        self._next_refresh = [
            (i + 1) * max(1, timing.t_refi // max(1, num_ranks))
            for i in range(num_ranks)
        ]
        self._refresh_pending = [False] * num_ranks
        # Telemetry handles default to the shared null sink; an
        # un-instrumented run pays only a single identity check.
        self.registry: Optional[MetricsRegistry] = None
        self.tracer = NULL_TRACER
        self._h_queue_lat = NULL_HISTOGRAM
        self._h_critical_lat = NULL_HISTOGRAM
        self._h_total_lat = NULL_HISTOGRAM
        self._h_occupancy = NULL_HISTOGRAM
        self._c_refreshes = NULL_COUNTER
        self._c_promotions = NULL_COUNTER
        self._telemetry = False
        # Flat per-command timing constants (CPU cycles).
        self._bus_cycle = timing.bus_cycle
        self._t_rl = timing.t_rl
        self._t_wl = timing.t_wl
        self._t_rc = timing.t_rc
        self._t_refi = timing.t_refi
        self._t_rfc = timing.t_rfc
        self._beat = max(1, timing.t_burst // WORDS_PER_LINE)
        self._slots_per_cycle = channel.cmd_bus.slots_per_cycle
        self._cmd_bus = channel.cmd_bus
        # Bound methods of the command bus, looked up once: every issue
        # attempt probes/reserves a command slot.
        self._cmd_earliest = channel.cmd_bus.earliest_slot
        self._cmd_reserve = channel.cmd_bus.reserve
        # Per-rank data bus, resolved once (replaces dict lookup per CAS).
        self._rank_bus = [channel.data_buses[self.rank_to_bus[i]]
                          for i in range(num_ranks)]
        self._close_page = device.page_policy is PagePolicy.CLOSE
        # Live count of queued unpromoted prefetches: while it is zero the
        # scheduler skips promotion scans and demand/prefetch partitions.
        self._unpromoted_prefetches = 0
        # Read-queue demand/prefetch partition, rebuilt only when the
        # queue (or a promotion) changes. ``_queue_version`` is bumped by
        # every mutation; the cached partition carries the version it was
        # built against.
        self._queue_version = 0
        self._partition_version = -1
        self._partition = None
        self._refresh_due = min(self._next_refresh) if num_ranks else FAR_FUTURE
        cfg = self.config
        self._refresh_enabled = cfg.refresh_enabled
        self._aggressive_pd = cfg.aggressive_powerdown
        self._pd_threshold = cfg.powerdown_idle_threshold
        self._age_threshold = cfg.prefetch_age_threshold
        self._fr_fcfs = cfg.scheduling is SchedulingPolicy.FR_FCFS
        self._rd_size = cfg.read_queue_size
        self._wr_size = cfg.write_queue_size
        self._high_wm = cfg.high_watermark
        self._low_wm = cfg.low_watermark
        self._san = None

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def attach_telemetry(self, registry: MetricsRegistry,
                         tracer=None) -> None:
        """Bind hot-path metric handles under ``dram.<name>.*``."""
        ns = f"dram.{self.name}"
        self.registry = registry
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._h_queue_lat = registry.histogram(f"{ns}.queue_latency_cycles")
        self._h_critical_lat = registry.histogram(
            f"{ns}.critical_latency_cycles")
        self._h_total_lat = registry.histogram(f"{ns}.total_latency_cycles")
        self._h_occupancy = registry.histogram(f"{ns}.read_queue_occupancy")
        self._c_refreshes = registry.counter(f"{ns}.refreshes")
        self._c_promotions = registry.counter(f"{ns}.prefetch_promotions")
        self._telemetry = True

    def export_telemetry(self, elapsed_cycles: int) -> None:
        """Publish end-of-run structural counters (per rank, per bank).

        These are read off the existing bank/rank statistics rather than
        incremented on the hot path, so the per-bank breakdown costs
        nothing during simulation.
        """
        if self.registry is None:
            return
        registry = self.registry
        ns = f"dram.{self.name}"
        registry.gauge(f"{ns}.reads_done").set(self.stats.reads_done)
        registry.gauge(f"{ns}.writes_done").set(self.stats.writes_done)
        registry.gauge(f"{ns}.prefetches_done").set(self.stats.prefetches_done)
        registry.gauge(f"{ns}.avg_queue_latency").set(
            self.stats.avg_queue_latency)
        self.channel.export_telemetry(registry, ns, elapsed_cycles)
        for rank in self.ranks:
            rns = f"{ns}.rank{rank.index}"
            for key, value in rank.telemetry_items(self.events.now).items():
                registry.gauge(f"{rns}.{key}").set(value)
            for bank in rank.banks:
                bns = f"{rns}.bank{bank.index}"
                for key, value in bank.telemetry_items().items():
                    registry.gauge(f"{bns}.{key}").set(value)

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------

    def enqueue(self, request: MemoryRequest) -> bool:
        """Accept a request; returns False if the target queue is full.

        Queue-order invariant: requests are appended with a monotone
        ``arrival_time`` and monotone ``request_id`` (ids are allocated
        at construction and requests are enqueued as they are created),
        and removal never reorders, so each queue is always sorted by
        ``(arrival_time, request_id)``. The issue scans rely on this:
        within one demand class the first ready request in queue order
        *is* the FR-FCFS winner, with no per-candidate key comparisons.
        """
        if request.is_read:
            queue = self.read_queue
            limit = self._rd_size
        else:
            queue = self.write_queue
            limit = self._wr_size
        if len(queue) >= limit:
            return False
        now = self.events.now
        request.arrival_time = now
        queue.append(request)
        if request.is_read:
            self._queue_version += 1
        if request.is_prefetch and not request.promoted:
            self._unpromoted_prefetches += 1
        rank = self.ranks[request.decoded.rank]
        if rank.power_state in (PowerState.POWER_DOWN, PowerState.SELF_REFRESH):
            rank.wake(now)
            if self._san is not None:
                self._san.note_wake(now, request.decoded.rank,
                                    rank.wake_time)
        self._schedule_tick(now)
        return True

    @property
    def read_queue_free(self) -> int:
        return self.config.read_queue_size - len(self.read_queue)

    @property
    def write_queue_free(self) -> int:
        return self.config.write_queue_size - len(self.write_queue)

    def busy(self) -> bool:
        return bool(self.read_queue or self.write_queue)

    def finalize(self) -> None:
        """Fold power-state residency tallies up to the current time."""
        for rank in self.ranks:
            rank.finalize_tally(self.events.now)

    # ------------------------------------------------------------------
    # Tick machinery
    # ------------------------------------------------------------------

    def _schedule_tick(self, when: int) -> None:
        now = self.events.now
        if when < now:
            when = now
        # Align to the next bus-cycle boundary.
        bus = self._bus_cycle
        when = ((when + bus - 1) // bus) * bus
        tick = self._tick_event
        if tick is not None and not tick.cancelled:
            if tick.time <= when:
                return
            tick.cancel()
        self._tick_event = self.events.schedule(when, self._tick)

    def _tick(self) -> None:
        self._tick_event = None
        now = self.events.now
        if self._refresh_enabled and now >= self._refresh_due:
            self._service_refresh(now)
        if self._unpromoted_prefetches:
            promoted = promote_aged_prefetches(
                self.read_queue, now, self._age_threshold)
            if promoted:
                self._unpromoted_prefetches -= promoted
                self._queue_version += 1
                self._c_promotions.inc(promoted)
        write_depth = len(self.write_queue)
        if self._draining_writes:
            if write_depth <= self._low_wm:
                self._draining_writes = False
        elif write_depth >= self._high_wm:
            self._draining_writes = True

        if self._telemetry:
            self._h_occupancy.observe(len(self.read_queue))

        # First slot unrolled: most channels have one command slot per
        # bus cycle, and the loop stops at the first idle slot anyway.
        issued_any = self._issue_one(now)
        if issued_any:
            for _ in range(self._slots_per_cycle - 1):
                if not self._issue_one(now):
                    break

        if self._aggressive_pd:
            self._try_powerdown(now)

        if self.read_queue or self.write_queue:
            next_time = (now + self._bus_cycle if issued_any
                         else self._next_wake_time(now))
            floor = now + 1
            self._schedule_tick(next_time if next_time > floor else floor)
        else:
            # Idle: wake for the next refresh, and — when the sleep
            # policy is on — once the idle threshold elapses so ranks
            # can actually enter power-down.
            target = FAR_FUTURE
            if self._refresh_enabled:
                target = min(self._next_refresh)
            if self._aggressive_pd and any(
                    r.power_state is PowerState.STANDBY for r in self.ranks):
                target = min(target, now + self._pd_threshold)
            if target < FAR_FUTURE:
                # Never reschedule at the current instant: an overdue
                # refresh blocked on bank timing must wait for time to
                # advance.
                self._schedule_tick(max(target, now + self._bus_cycle))

    def _next_wake_time(self, now: int) -> int:
        """Conservative earliest time any queued command could issue.

        The body of :meth:`_earliest_progress_time` is inlined into the
        queue scan — this runs for every queued request on every idle
        tick, and the method-call plus ``max()`` overhead dominates the
        arithmetic.
        """
        best = FAR_FUTURE
        ranks = self.ranks
        close = self._close_page
        active = BankState.ACTIVE
        for queue in (self.read_queue, self.write_queue):
            for req in queue:
                d = req.decoded
                rank = ranks[d.rank]
                bank = rank.banks[d.bank]
                if close:
                    t = bank.next_activate
                    w = rank.wake_time
                    if w > t:
                        t = w
                    w = rank.next_act_allowed
                    if w > t:
                        t = w
                elif bank.state is active:
                    if bank.open_row == d.row:
                        t = bank.next_read if req.is_read else bank.next_write
                    else:
                        t = bank.next_precharge
                    w = rank.wake_time
                    if w > t:
                        t = w
                else:
                    t = bank.next_activate
                    w = rank.earliest_activate(now)
                    if w > t:
                        t = w
                if t < best:
                    best = t
        if best <= now:
            best = now + self._bus_cycle
        cap = now + self._t_rc
        return best if best < cap else cap

    # ------------------------------------------------------------------
    # Issue logic
    # ------------------------------------------------------------------

    def _issue_one(self, now: int) -> bool:
        # Drain mode serves writes; otherwise reads, falling back to
        # writes when no read is queued.
        if self._draining_writes:
            queue = self.write_queue
        elif self.read_queue:
            queue = self.read_queue
        else:
            queue = self.write_queue
        if not queue:
            return False
        # Every command class needs a command-bus slot at ``now``; when
        # none is free nothing can issue this tick.
        if self._cmd_earliest(now) != now:
            return False
        if self._close_page:
            if self._issue_close_page(now, queue):
                return True
        elif self._issue_open_page(now, queue):
            return True
        # Drain gaps: while a write drain waits on bank timing, let a
        # ready read slip in rather than stalling the channel (and vice
        # versa when serving reads leaves the cycle idle).
        other = self.write_queue if queue is self.read_queue else self.read_queue
        if not other:
            return False
        if self._close_page:
            return self._issue_close_page(now, other)
        return self._issue_open_page(now, other)

    # --- open-page (DDR3 / LPDDR2) -------------------------------------

    def _issue_open_page(self, now: int, queue: List[MemoryRequest]) -> bool:
        # Demand requests strictly outrank prefetches (paper Sec 5):
        # prefetches only consume bandwidth no demand can use this cycle.
        # Prefetches live only in the read queue, and its partition is
        # cached across the (many) scans between queue mutations.
        if self._unpromoted_prefetches and queue is self.read_queue:
            if self._partition_version != self._queue_version:
                self._partition = (
                    [r for r in queue if not r.is_prefetch or r.promoted],
                    [r for r in queue if r.is_prefetch and not r.promoted],
                )
                self._partition_version = self._queue_version
            classes = self._partition
        else:
            classes = (queue,)
        fr_fcfs = self._fr_fcfs
        ranks = self.ranks
        rank_bus = self._rank_bus
        t_rl = self._t_rl
        t_wl = self._t_wl
        active = BankState.ACTIVE
        for cls in classes:
            if not cls:
                continue
            if fr_fcfs:
                # FR step, inlined: the first column-ready row hit in
                # queue order. The queue-order invariant (see
                # :meth:`enqueue`) makes it the best (arrival_time,
                # request_id) candidate in its demand class, so the scan
                # stops at the first match.
                for r in cls:
                    d = r.decoded
                    rank = ranks[d.rank]
                    if now < rank.wake_time:
                        continue
                    bank = rank.banks[d.bank]
                    if bank.state is not active or bank.open_row != d.row:
                        continue
                    if r.is_read:
                        if now < bank.next_read:
                            continue
                        t_data = now + t_rl
                    else:
                        if now < bank.next_write:
                            continue
                        t_data = now + t_wl
                    # The data bus must be free exactly when this burst
                    # would start.
                    bus = rank_bus[d.rank]
                    if bus.earliest_start(t_data, r.kind, d.rank) != t_data:
                        continue
                    self._issue_cas(now, r, queue)
                    return True
            else:
                # Strict FCFS considers only the oldest request for CAS.
                oldest = select_oldest(cls)
                if oldest is not None and self._cas_ready(now, oldest):
                    self._issue_cas(now, oldest, queue)
                    return True
                if oldest is not None and self._progress_act_pre(now, oldest):
                    return True
                continue
            # Progress PRE/ACT oldest-first *per bank*: younger requests
            # to ready banks must not stall behind one blocked oldest
            # (bank-level parallelism), but within a bank strict age
            # order prevents precharge ping-pong. Queue order is already
            # (arrival_time, request_id) order, so no sort is needed.
            # Body of _progress_act_pre inlined: this loop visits every
            # queued request on every non-issuing tick.
            claimed = set()
            for req in cls:
                d = req.decoded
                key = (d.rank, d.bank)
                if key in claimed:
                    continue
                claimed.add(key)
                rank = ranks[d.rank]
                if now < rank.wake_time:
                    continue
                bank = rank.banks[d.bank]
                if bank.state is active:
                    if (bank.open_row != d.row
                            and now >= bank.next_precharge
                            and self._cmd_earliest(now) == now):
                        self._cmd_reserve(now)
                        bank.precharge(now)
                        rank.touch(now)
                        if self._san is not None:
                            self._san.note_pre(now, d.rank, d.bank)
                        if req.first_command_time is None:
                            req.first_command_time = now
                        return True
                elif (now >= bank.next_activate
                        and rank.earliest_activate(now) <= now
                        and self._cmd_earliest(now) == now):
                    self._cmd_reserve(now)
                    bank.activate(now, d.row)
                    rank.note_activate(now)
                    if self._san is not None:
                        self._san.note_act(now, d.rank, d.bank, d.row)
                    if req.first_command_time is None:
                        req.first_command_time = now
                    return True
        return False

    def _cas_ready(self, now: int, req: MemoryRequest) -> bool:
        d = req.decoded
        rank = self.ranks[d.rank]
        if now < rank.wake_time:
            return False
        bank = rank.banks[d.bank]
        if not bank.is_row_hit(d.row):
            return False
        next_col = bank.next_read if req.is_read else bank.next_write
        if now < next_col:
            return False
        # The data bus must be free exactly when this burst would start.
        t_data = now + (self._t_rl if req.is_read else self._t_wl)
        bus = self._rank_bus[d.rank]
        if bus.earliest_start(t_data, req.kind, d.rank) != t_data:
            return False
        return self._cmd_earliest(now) == now

    def _issue_cas(self, now: int, req: MemoryRequest,
                   queue: List[MemoryRequest]) -> None:
        d = req.decoded
        rank = self.ranks[d.rank]
        bank = rank.banks[d.bank]
        rank.touch(now)
        self._cmd_reserve(now)
        if req.first_command_time is None:
            # CAS with no prior PRE/ACT for this request: a row-buffer hit.
            bank.row_hit_count += 1
        if req.is_read:
            data_start = bank.column_read(now)
        else:
            data_start = bank.column_write(now)
        bus = self._rank_bus[d.rank]
        end = bus.reserve(data_start, req.kind, d.rank)
        if self._san is not None:
            self._san.note_cas(now, d.rank, d.bank, d.row, req.is_read,
                               data_start, end)
        if req.first_command_time is None:
            req.first_command_time = now
        self._complete(req, data_start, end)
        if req.is_prefetch and not req.promoted:
            self._unpromoted_prefetches -= 1
        queue.remove(req)
        if req.is_read:
            self._queue_version += 1

    def _progress_act_pre(self, now: int, req: MemoryRequest) -> bool:
        """Issue the PRE or ACT the oldest request needs, if legal."""
        d = req.decoded
        rank = self.ranks[d.rank]
        if now < rank.wake_time:
            return False
        bank = rank.banks[d.bank]
        if bank.state is BankState.ACTIVE and bank.open_row != d.row:
            if bank.can_precharge(now) and \
                    self._cmd_earliest(now) == now:
                self._cmd_reserve(now)
                bank.precharge(now)
                rank.touch(now)
                if self._san is not None:
                    self._san.note_pre(now, d.rank, d.bank)
                if req.first_command_time is None:
                    req.first_command_time = now
                return True
            return False
        if bank.state is BankState.IDLE:
            if (bank.can_activate(now) and rank.can_activate(now)
                    and self._cmd_earliest(now) == now):
                self._cmd_reserve(now)
                bank.activate(now, d.row)
                rank.note_activate(now)
                if self._san is not None:
                    self._san.note_act(now, d.rank, d.bank, d.row)
                if req.first_command_time is None:
                    req.first_command_time = now
                return True
        return False

    # --- close-page (RLDRAM3) ------------------------------------------

    def _issue_close_page(self, now: int, queue: List[MemoryRequest]) -> bool:
        """Single-command SRAM-style access with auto-precharge."""
        # Best = lowest (demand-class, arrival_time, request_id). By the
        # queue-order invariant (see :meth:`enqueue`) the first legal
        # demand in queue order wins outright; the first legal
        # unpromoted prefetch is remembered as the fallback.
        best = None
        ranks = self.ranks
        rank_bus = self._rank_bus
        t_rl = self._t_rl
        t_wl = self._t_wl
        for req in queue:
            d = req.decoded
            rank = ranks[d.rank]
            if now < rank.wake_time or now < rank.next_act_allowed:
                continue
            bank = rank.banks[d.bank]
            if now < bank.next_activate:
                continue
            t_data = now + (t_rl if req.is_read else t_wl)
            bus = rank_bus[d.rank]
            if bus.earliest_start(t_data, req.kind, d.rank) != t_data:
                continue
            if req.is_prefetch and not req.promoted:
                if best is None:
                    best = req
                continue
            best = req
            break
        if best is None:
            return False
        d = best.decoded
        rank = ranks[d.rank]
        bank = rank.banks[d.bank]
        rank.touch(now)
        self._cmd_reserve(now)
        data_start = bank.access(now, is_write=not best.is_read)
        rank.note_activate(now)
        bus = rank_bus[d.rank]
        end = bus.reserve(data_start, best.kind, d.rank)
        if self._san is not None:
            self._san.note_access(now, d.rank, d.bank,
                                  not best.is_read, data_start, end)
        if best.first_command_time is None:
            best.first_command_time = now
        self._complete(best, data_start, end)
        if best.is_prefetch and not best.promoted:
            self._unpromoted_prefetches -= 1
        queue.remove(best)
        if best.is_read:
            self._queue_version += 1
        return True

    # --- completion ------------------------------------------------------

    def _complete(self, req: MemoryRequest, data_start: int, end: int) -> None:
        req.data_start_time = data_start
        req.completion_time = end
        # Conventional critical-word-first on the bus: the requested word
        # is transferred in the first beat of the (reordered) burst.
        critical_time = data_start + self._beat
        req.critical_word_time = critical_time
        stats = self.stats
        if req.is_read:
            stats.reads_done += 1
            if req.is_prefetch:
                stats.prefetches_done += 1
            queue_latency = req.first_command_time - req.arrival_time
            total_latency = critical_time - req.arrival_time
            stats.sum_queue_latency += queue_latency
            stats.sum_core_latency += critical_time - req.first_command_time
            stats.sum_total_latency += total_latency
            stats.sum_critical_latency += total_latency
            if self._telemetry:
                self._h_queue_lat.observe(queue_latency)
                self._h_critical_lat.observe(total_latency)
                self._h_total_lat.observe(total_latency)
            if req.on_critical_word is not None:
                self.events.schedule(critical_time, _DeliverCritical(req))
        else:
            stats.writes_done += 1
        if self.tracer is not NULL_TRACER:
            self.tracer.record_request(req, self.name)
        if req.on_complete is not None:
            self.events.schedule(end, _DeliverComplete(req))

    # ------------------------------------------------------------------
    # Refresh and power-down
    # ------------------------------------------------------------------

    def _service_refresh(self, now: int) -> None:
        if not self._refresh_enabled:
            return
        next_refresh = self._next_refresh
        for i, rank in enumerate(self.ranks):
            if now < next_refresh[i]:
                continue
            self._refresh_pending[i] = True
            # Close any open banks as they become precharge-legal.
            if rank.open_banks:
                for bank in rank.banks:
                    if (bank.state is BankState.ACTIVE
                            and bank.can_precharge(now)):
                        bank.precharge(now)
                        if self._san is not None:
                            self._san.note_pre(now, i, bank.index,
                                               scheduled=False)
                if rank.open_banks:
                    continue
            if now < rank.wake_time:
                continue
            until = now + self._t_rfc
            for bank in rank.banks:
                bank.refresh_block(now, until)
            rank.touch(now)
            if self._san is not None:
                self._san.note_refresh(now, i, until)
            next_refresh[i] = max(next_refresh[i] + self._t_refi,
                                  now + self._t_refi // 2)
            self._refresh_pending[i] = False
            self.stats.refreshes += 1
            self._c_refreshes.inc()
        self._refresh_due = min(next_refresh)

    def _try_powerdown(self, now: int) -> None:
        if not self._aggressive_pd:
            return
        threshold = self._pd_threshold
        ranks = self.ranks
        if len(ranks) == 1:
            # Single-rank channel (every bulk channel): any queued work
            # targets this rank, so the busy-set scan reduces to a
            # queue-emptiness check.
            rank = ranks[0]
            state = rank.power_state
            if (state is PowerState.POWER_DOWN
                    or state is PowerState.SELF_REFRESH
                    or self.read_queue or self.write_queue):
                return
            if rank.open_banks:
                for bank in rank.banks:
                    if (bank.state is BankState.ACTIVE
                            and now - bank.last_use >= threshold
                            and bank.can_precharge(now)):
                        bank.precharge(now)
                        if self._san is not None:
                            self._san.note_pre(now, 0, bank.index,
                                               scheduled=False)
            if rank.try_power_down(now, threshold) and self._san is not None:
                self._san.note_power_down(now, 0)
            return
        busy_ranks = None
        for i, rank in enumerate(ranks):
            # Already asleep: banks are closed and there is nothing to do.
            state = rank.power_state
            if state is PowerState.POWER_DOWN or state is PowerState.SELF_REFRESH:
                continue
            # Only sleep ranks with no queued work targeting them; the
            # busy set is built lazily so a fully sleeping channel pays
            # nothing per tick.
            if busy_ranks is None:
                busy_ranks = {r.decoded.rank for r in self.read_queue}
                busy_ranks.update(r.decoded.rank for r in self.write_queue)
            if i in busy_ranks:
                continue
            # Close rows that have idled past the threshold so the rank
            # can reach precharge power-down (open-page otherwise pins
            # banks active forever). The open-bank count skips the scan
            # for ranks whose rows are already all closed.
            if rank.open_banks:
                for bank in rank.banks:
                    if (bank.state is BankState.ACTIVE
                            and now - bank.last_use >= threshold
                            and bank.can_precharge(now)):
                        bank.precharge(now)
                        if self._san is not None:
                            self._san.note_pre(now, i, bank.index,
                                               scheduled=False)
            if rank.try_power_down(now, threshold) and self._san is not None:
                self._san.note_power_down(now, i)

    def _earliest_progress_time(self, now: int, req: MemoryRequest) -> int:
        """Lower bound on when ``req``'s next command could become legal."""
        d = req.decoded
        rank = self.ranks[d.rank]
        bank = rank.banks[d.bank]
        if self._close_page:
            return max(bank.next_activate, rank.wake_time,
                       rank.next_act_allowed)
        if bank.is_row_hit(d.row):
            col = bank.next_read if req.is_read else bank.next_write
            return max(col, rank.wake_time)
        if bank.state is BankState.ACTIVE:
            return max(bank.next_precharge, rank.wake_time)
        return max(bank.next_activate, rank.earliest_activate(now))
