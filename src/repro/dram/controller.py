"""Per-channel memory controller.

Implements the paper's controller model (Section 5):

* separate read and write queues (48 entries each) with high/low
  watermark write draining (32/16); queued unpromoted prefetches wait
  in their own queue and count against the read limit,
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
each queued request's rank, bank, data bus and row resolved once at
enqueue, and one pass over each demand class per scan. A request's
demand class is the queue it waits in, so the scans walk
``read_queue`` and then ``prefetch_queue`` and never sort or filter.
The prefetch queue is in arrival order, so promotion only has to look
at its head. All of it is bit-identical to the straightforward form:
the same commands issue at the same cycles in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.dram.bank import FAR_FUTURE, BankState
from repro.dram.channel import Channel
from repro.dram.device import DeviceConfig, PagePolicy
from repro.dram.request import MemoryRequest, WORDS_PER_LINE
from repro.dram.rank import PowerState, Rank
from repro.dram.scheduler import SchedulingPolicy, promote_aged_prefetches
from repro.dram.timing import TimingSet
from repro.telemetry.registry import Histogram, MetricsRegistry
from repro.telemetry.trace import ChromeTracer
from repro.util.events import EventQueue


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
        "sum_core_latency", "refreshes", "prefetches_done",
        "prefetch_promotions",
    )

    def __init__(self) -> None:
        self.reads_done = 0
        self.writes_done = 0
        self.sum_queue_latency = 0
        self.sum_core_latency = 0
        self.refreshes = 0
        self.prefetches_done = 0
        self.prefetch_promotions = 0

    @property
    def avg_queue_latency(self) -> float:
        return self.sum_queue_latency / self.reads_done if self.reads_done else 0.0

    @property
    def avg_core_latency(self) -> float:
        return self.sum_core_latency / self.reads_done if self.reads_done else 0.0


class MemoryController:
    """One controller driving one channel of homogeneous DIMMs.

    ``rank_to_bus`` maps each rank to the data (sub-)bus it answers on;
    the default maps every rank to bus 0 (a conventional channel). The
    aggregated critical-word channel maps rank *i* to bus *i*.
    """

    __slots__ = (
        "device", "timing", "channel", "events", "config", "name",
        "ranks", "rank_to_bus", "read_queue", "prefetch_queue",
        "write_queue", "stats",
        "_draining_writes", "_tick_event", "_next_refresh",
        "registry", "tracer",
        "_h_queue_lat", "_h_critical_lat",
        # Precomputed hot-path constants and fast-path state.
        "_bus_cycle", "_t_rl", "_t_wl", "_t_rc", "_t_refi", "_t_rfc",
        "_beat", "_slots_per_cycle", "_cmd_bus", "_cmd_earliest",
        "_cmd_reserve", "_rank_bus",
        "_close_page", "_issue_queue", "_read_classes", "_write_classes",
        "_refresh_due",
        # Config knobs flattened to instance attributes: the config is
        # never mutated after construction, and these are read every tick.
        "_aggressive_pd", "_pd_threshold",
        "_age_threshold", "_fr_fcfs", "_rd_size", "_wr_size",
        "_high_wm", "_low_wm",
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
        # Demand reads and promoted prefetches; queued unpromoted
        # prefetches wait in ``prefetch_queue`` until they are served or
        # age into ``read_queue``.
        self.read_queue: List[MemoryRequest] = []
        self.prefetch_queue: List[MemoryRequest] = []
        self.write_queue: List[MemoryRequest] = []
        self.stats = ControllerStats()
        self._draining_writes = False
        self._tick_event = None
        self._next_refresh = [
            (i + 1) * max(1, timing.t_refi // max(1, num_ranks))
            for i in range(num_ranks)
        ]
        # Telemetry handles stay None until attach_telemetry; an
        # un-instrumented run pays one ``is not None`` test per handle.
        self.registry: Optional[MetricsRegistry] = None
        self.tracer: Optional[ChromeTracer] = None
        self._h_queue_lat: Optional[Histogram] = None
        self._h_critical_lat: Optional[Histogram] = None
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
        # The page policy's queue scan, picked once: ``_issue_one`` calls
        # it for the served direction and again for the other one. The
        # plain function, not a bound method, so the controller holds no
        # reference to itself.
        self._issue_queue = (MemoryController._issue_close_page
                             if self._close_page
                             else MemoryController._issue_open_page)
        # What a scan walks, in priority order: reads by demand class,
        # writes as one class.
        self._read_classes = (self.read_queue, self.prefetch_queue)
        self._write_classes = (self.write_queue,)
        cfg = self.config
        # The earliest per-rank refresh deadline; with refresh off no
        # refresh is ever due.
        self._refresh_due = (min(self._next_refresh)
                             if num_ranks and cfg.refresh_enabled
                             else FAR_FUTURE)
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
                         tracer: Optional[ChromeTracer] = None) -> None:
        """Bind the latency histograms under ``dram.<name>.*``."""
        ns = f"dram.{self.name}"
        self.registry = registry
        self.tracer = tracer
        self._h_queue_lat = registry.histogram(f"{ns}.queue_latency_cycles")
        self._h_critical_lat = registry.histogram(
            f"{ns}.critical_latency_cycles")

    def export_telemetry(self, elapsed_cycles: int) -> None:
        """Publish end-of-run counts and structural gauges.

        These are read off the existing controller/bank/rank statistics
        rather than incremented on the hot path, so the per-bank
        breakdown costs nothing during simulation.
        """
        if self.registry is None:
            return
        registry = self.registry
        ns = f"dram.{self.name}"
        registry.counter(f"{ns}.refreshes").inc(self.stats.refreshes)
        registry.counter(f"{ns}.prefetch_promotions").inc(
            self.stats.prefetch_promotions)
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
        """Accept a request; returns False if its queue is full.

        An unpromoted prefetch read waits in ``prefetch_queue``, any
        other read in ``read_queue``; the read limit covers both.

        Queue-order invariant: requests are appended with a monotone
        ``arrival_time`` and monotone ``request_id`` (ids are allocated
        at construction and requests are enqueued as they are created),
        removal never reorders, and promotion inserts a prefetch at its
        ``(arrival_time, request_id)`` place, so each queue is always
        sorted by ``(arrival_time, request_id)``. The issue scans rely on
        this: within one demand class the first ready request in queue
        order *is* the FR-FCFS winner, with no per-candidate key
        comparisons.
        """
        if request.is_read:
            if (len(self.read_queue) + len(self.prefetch_queue)
                    >= self._rd_size):
                return False
            queue = (self.prefetch_queue
                     if request.is_prefetch and not request.promoted
                     else self.read_queue)
        else:
            queue = self.write_queue
            if len(queue) >= self._wr_size:
                return False
        now = self.events.now
        request.arrival_time = now
        d = request.decoded
        rank = self.ranks[d.rank]
        request.dram_rank = rank
        request.dram_bank = rank.banks[d.bank]
        request.data_bus = self._rank_bus[d.rank]
        request.row = d.row
        queue.append(request)
        if rank.power_state in (PowerState.POWER_DOWN, PowerState.SELF_REFRESH):
            rank.wake(now)
            if self._san is not None:
                self._san.note_wake(now, d.rank, rank.wake_time)
        self._schedule_tick(now)
        return True

    @property
    def read_queue_free(self) -> int:
        return (self.config.read_queue_size - len(self.read_queue)
                - len(self.prefetch_queue))

    @property
    def write_queue_free(self) -> int:
        return self.config.write_queue_size - len(self.write_queue)

    def busy(self) -> bool:
        return bool(self.read_queue or self.prefetch_queue
                    or self.write_queue)

    def finalize(self) -> None:
        """Fold power-state residency tallies up to the current time."""
        for rank in self.ranks:
            rank.finalize_tally(self.events.now)

    def release_in_flight(self) -> None:
        """Drop the queued requests once the run is over.

        A queued read's callbacks lead back, through its memory system,
        to this controller; while they stay, a finished system is a
        reference cycle.
        """
        self.read_queue.clear()
        self.prefetch_queue.clear()
        self.write_queue.clear()

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
        if tick is not None and tick[2] is not None:
            if tick[0] <= when:
                return
            tick[2] = None
        self._tick_event = self.events.schedule(when, self._tick)

    def _tick(self) -> None:
        self._tick_event = None
        now = self.events.now
        if now >= self._refresh_due:
            self._service_refresh(now)
        # The head of the prefetch queue is the oldest, so it is the
        # first to age.
        prefetches = self.prefetch_queue
        if prefetches and now >= prefetches[0].arrival_time + self._age_threshold:
            self.stats.prefetch_promotions += promote_aged_prefetches(
                prefetches, self.read_queue, now, self._age_threshold)
        write_depth = len(self.write_queue)
        if self._draining_writes:
            if write_depth <= self._low_wm:
                self._draining_writes = False
        elif write_depth >= self._high_wm:
            self._draining_writes = True

        # First slot unrolled: most channels have one command slot per
        # bus cycle, and the loop stops at the first idle slot anyway.
        issued_any = self._issue_one(now)
        if issued_any:
            for _ in range(self._slots_per_cycle - 1):
                if not self._issue_one(now):
                    break

        if self._aggressive_pd:
            self._try_powerdown(now)

        if self.read_queue or self.prefetch_queue or self.write_queue:
            if issued_any:
                # No other tick is pending (this one cleared
                # ``_tick_event``) and ``now`` is on a bus-cycle
                # boundary, so ``_schedule_tick``'s checks are moot.
                self._tick_event = self.events.schedule(
                    now + self._bus_cycle, self._tick)
                return
            next_time = self._next_wake_time(now)
            floor = now + 1
            self._schedule_tick(next_time if next_time > floor else floor)
        else:
            # Idle: wake for the next refresh, and — when the sleep
            # policy is on — once the idle threshold elapses so ranks
            # can actually enter power-down.
            target = self._refresh_due
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

        Per request: the bank's next legal command time, floored by the
        rank's wake-up (and, for an activate, its activate window, which
        is computed once per rank). The bound is inlined — this runs for
        every queued request on every idle tick, where method calls and
        ``max()`` dominate the arithmetic.
        """
        best = FAR_FUTURE
        queues = (self.read_queue, self.prefetch_queue, self.write_queue)
        if self._close_page:
            for queue in queues:
                for req in queue:
                    rank = req.dram_rank
                    t = req.dram_bank.next_activate
                    w = rank.wake_time
                    if w > t:
                        t = w
                    w = rank.next_act_allowed
                    if w > t:
                        t = w
                    if t < best:
                        best = t
        else:
            act_floor = {}
            for queue in queues:
                for req in queue:
                    bank = req.dram_bank
                    open_row = bank.open_row
                    if open_row is not None:
                        if open_row == req.row:
                            t = bank.next_read if req.is_read else bank.next_write
                        else:
                            t = bank.next_precharge
                        w = req.dram_rank.wake_time
                    else:
                        t = bank.next_activate
                        rank = req.dram_rank
                        w = act_floor.get(rank)
                        if w is None:
                            w = act_floor[rank] = rank.earliest_activate(now)
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
    #
    # Every DRAM command kind issues at exactly one site: scheduled ACT
    # and PRE in :meth:`_issue_open_page`'s per-bank pass, RD/WR CAS in
    # :meth:`_issue_cas`, close-page ACCESS in :meth:`_issue_close_page`,
    # housekeeping PRE in :meth:`_close_rows`, REF in
    # :meth:`_service_refresh`, PDE in :meth:`_try_powerdown` and wake in
    # :meth:`enqueue`. Each site is also the command's only sanitizer
    # hook.

    def _issue_one(self, now: int) -> bool:
        # Drain mode serves writes; otherwise reads, falling back to
        # writes when no read is queued.
        if self._draining_writes or not (self.read_queue
                                         or self.prefetch_queue):
            served, other = self._write_classes, self._read_classes
            if not self.write_queue:
                return False
        else:
            served, other = self._read_classes, self._write_classes
        # Every command class needs a command-bus slot at ``now``; when
        # none is free nothing can issue this tick. The scans below rely
        # on this check and do not repeat it.
        if self._cmd_earliest(now) != now:
            return False
        if self._issue_queue(self, now, served):
            return True
        # Drain gaps: while a write drain waits on bank timing, let a
        # ready read slip in rather than stalling the channel (and vice
        # versa when serving reads leaves the cycle idle).
        return any(other) and self._issue_queue(self, now, other)

    # --- open-page (DDR3 / LPDDR2) -------------------------------------

    def _issue_open_page(self, now: int,
                         classes: Tuple[List[MemoryRequest], ...]) -> bool:
        # ``classes`` are queues in priority order. Demand requests
        # strictly outrank prefetches (paper Sec 5): prefetches only
        # consume bandwidth no demand can use this cycle.
        for queue in classes:
            if not queue:
                continue
            # Strict FCFS: only the oldest request of the class may act,
            # and by the queue-order invariant that is queue[0].
            cls = queue if self._fr_fcfs else queue[:1]
            # One walk in queue order. The first column-ready row hit is
            # issued at once: the queue-order invariant (see
            # :meth:`enqueue`) makes it the best (arrival_time,
            # request_id) candidate in its demand class. Meanwhile the
            # walk remembers the first request whose PRE/ACT is legal,
            # issued only if no row hit is ready. PRE/ACT progress is
            # oldest-first *per bank*: the first request to a bank claims
            # it, so younger requests to ready banks do not stall behind
            # one blocked oldest (bank-level parallelism), but within a
            # bank strict age order prevents precharge ping-pong.
            claimed = set()
            pending = None
            for r in cls:
                bank = r.dram_bank
                open_row = bank.open_row
                if open_row == r.row:
                    rank = r.dram_rank
                    if now >= rank.wake_time:
                        if r.is_read:
                            ready = now >= bank.next_read
                            t_data = now + self._t_rl
                        else:
                            ready = now >= bank.next_write
                            t_data = now + self._t_wl
                        # The data bus must be free exactly when this
                        # burst would start.
                        if ready and r.data_bus.earliest_start(
                                t_data, r.kind, rank.index) == t_data:
                            self._issue_cas(now, r, queue)
                            return True
                    # A row hit that must wait still claims its bank: no
                    # younger request may precharge its row away.
                    if pending is None:
                        claimed.add(bank)
                    continue
                if pending is not None or bank in claimed:
                    continue
                claimed.add(bank)
                rank = r.dram_rank
                if now < rank.wake_time:
                    continue
                if open_row is not None:
                    if now >= bank.next_precharge:
                        pending = r
                elif (now >= bank.next_activate
                        and rank.earliest_activate(now) <= now):
                    pending = r
            if pending is not None:
                bank = pending.dram_bank
                rank = pending.dram_rank
                self._cmd_reserve(now)
                if bank.open_row is not None:
                    bank.precharge(now)
                    rank.touch(now)
                    if self._san is not None:
                        self._san.note_pre(now, rank.index, bank.index)
                else:
                    bank.activate(now, pending.row)
                    rank.note_activate(now)
                    if self._san is not None:
                        self._san.note_act(now, rank.index, bank.index,
                                           pending.row)
                if pending.first_command_time is None:
                    pending.first_command_time = now
                return True
        return False

    def _issue_cas(self, now: int, req: MemoryRequest,
                   queue: List[MemoryRequest]) -> None:
        rank = req.dram_rank
        bank = req.dram_bank
        rank.touch(now)
        self._cmd_reserve(now)
        if req.first_command_time is None:
            # CAS with no prior PRE/ACT for this request: a row-buffer hit.
            bank.row_hit_count += 1
        if req.is_read:
            data_start = bank.column_read(now)
        else:
            data_start = bank.column_write(now)
        end = req.data_bus.reserve(data_start, req.kind, rank.index)
        if self._san is not None:
            self._san.note_cas(now, rank.index, bank.index, req.row,
                               req.is_read, data_start, end)
        self._retire(now, req, queue, data_start, end)

    # --- close-page (RLDRAM3) ------------------------------------------

    def _issue_close_page(self, now: int,
                          classes: Tuple[List[MemoryRequest], ...]) -> bool:
        """Single-command SRAM-style access with auto-precharge."""
        # Best = lowest (demand-class, arrival_time, request_id): by the
        # queue-order invariant (see :meth:`enqueue`) that is the first
        # legal request of the first class that has one.
        t_rl = self._t_rl
        t_wl = self._t_wl
        for queue in classes:
            for req in queue:
                rank = req.dram_rank
                if now < rank.wake_time or now < rank.next_act_allowed:
                    continue
                bank = req.dram_bank
                if now < bank.next_activate:
                    continue
                t_data = now + (t_rl if req.is_read else t_wl)
                if req.data_bus.earliest_start(
                        t_data, req.kind, rank.index) != t_data:
                    continue
                rank.touch(now)
                self._cmd_reserve(now)
                data_start = bank.access(now, is_write=not req.is_read)
                rank.note_activate(now)
                end = req.data_bus.reserve(data_start, req.kind, rank.index)
                if self._san is not None:
                    self._san.note_access(now, rank.index, bank.index,
                                          not req.is_read, data_start, end)
                self._retire(now, req, queue, data_start, end)
                return True
        return False

    # --- completion ------------------------------------------------------

    def _retire(self, now: int, req: MemoryRequest,
                queue: List[MemoryRequest], data_start: int,
                end: int) -> None:
        """Account a request whose data burst is booked; dequeue it
        from ``queue``, the queue it waited in."""
        if req.first_command_time is None:
            req.first_command_time = now
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
            stats.sum_queue_latency += queue_latency
            stats.sum_core_latency += critical_time - req.first_command_time
            if self.registry is not None:
                self._h_queue_lat.observe(queue_latency)
                self._h_critical_lat.observe(critical_time - req.arrival_time)
            if req.on_critical_word is not None:
                self.events.schedule(critical_time, _DeliverCritical(req))
        else:
            stats.writes_done += 1
        if self.tracer is not None:
            self.tracer.record_request(req, self.name)
        if req.on_complete is not None:
            self.events.schedule(end, _DeliverComplete(req))
        queue.remove(req)

    # ------------------------------------------------------------------
    # Refresh and power-down
    # ------------------------------------------------------------------

    def _close_rows(self, now: int, i: int, rank: Rank,
                    min_idle: int) -> None:
        """Housekeeping PRE: close rows idle for ``min_idle`` cycles.

        Closes each such row once it is precharge-legal. These
        precharges are modelled off the command bus (refresh pre-close
        with ``min_idle=0``, idle close before power-down otherwise).
        """
        for bank in rank.banks:
            if (bank.state is BankState.ACTIVE
                    and now - bank.last_use >= min_idle
                    and bank.can_precharge(now)):
                bank.precharge(now)
                if self._san is not None:
                    self._san.note_pre(now, i, bank.index, scheduled=False)

    def _service_refresh(self, now: int) -> None:
        next_refresh = self._next_refresh
        for i, rank in enumerate(self.ranks):
            if now < next_refresh[i]:
                continue
            # Close any open banks as they become precharge-legal.
            if rank.open_banks:
                self._close_rows(now, i, rank, 0)
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
            self.stats.refreshes += 1
        self._refresh_due = min(next_refresh)

    def _try_powerdown(self, now: int) -> None:
        # Single-rank channel (every shipped power-down channel): queued
        # work makes its one rank busy, so skip the busy-set build.
        if len(self.ranks) == 1 and (self.read_queue or self.prefetch_queue
                                     or self.write_queue):
            return
        threshold = self._pd_threshold
        busy_ranks = None
        for i, rank in enumerate(self.ranks):
            # Already asleep: banks are closed and there is nothing to do.
            state = rank.power_state
            if state is PowerState.POWER_DOWN or state is PowerState.SELF_REFRESH:
                continue
            # Only sleep ranks with no queued work targeting them; the
            # busy set is built lazily so a fully sleeping channel pays
            # nothing per tick.
            if busy_ranks is None:
                busy_ranks = {r.dram_rank for r in self.read_queue}
                busy_ranks.update(r.dram_rank for r in self.prefetch_queue)
                busy_ranks.update(r.dram_rank for r in self.write_queue)
            if rank in busy_ranks:
                continue
            # Close rows that have idled past the threshold so the rank
            # can reach precharge power-down (open-page otherwise pins
            # banks active forever). The open-bank count skips the scan
            # for ranks whose rows are already all closed.
            if rank.open_banks:
                self._close_rows(now, i, rank, threshold)
            if rank.try_power_down(now, threshold) and self._san is not None:
                self._san.note_power_down(now, i)
