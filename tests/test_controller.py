"""Memory-controller behaviour: latencies, scheduling, drains, refresh."""

from repro.dram.channel import Channel
from repro.dram.controller import ControllerConfig, MemoryController
from repro.dram.device import DDR3_DEVICE, RLDRAM3_DEVICE
from repro.dram.request import DecodedAddress, MemoryRequest, RequestKind
from repro.dram.scheduler import SchedulingPolicy
from repro.dram.timing import DDR3_TIMING, RLDRAM3_TIMING, TimingSet
from repro.util.events import EventQueue

DDR3 = TimingSet(DDR3_TIMING)
RLD = TimingSet(RLDRAM3_TIMING)


def make_controller(device=DDR3_DEVICE, timing=DDR3, config=None,
                    num_ranks=1, num_buses=1, cmd_slots=1, rank_to_bus=None):
    events = EventQueue()
    channel = Channel(timing, num_data_buses=num_buses,
                      cmd_slots_per_cycle=cmd_slots)
    mc = MemoryController(device=device, timing=timing, channel=channel,
                          num_ranks=num_ranks, events=events,
                          config=config or ControllerConfig(),
                          rank_to_bus=rank_to_bus)
    return events, mc


def read_request(bank=0, row=0, column=0, rank=0, channel=0,
                 critical_word=0, is_prefetch=False):
    return MemoryRequest(
        kind=RequestKind.READ, address=0, critical_word=critical_word,
        is_prefetch=is_prefetch,
        decoded=DecodedAddress(channel=channel, rank=rank, bank=bank,
                               row=row, column=column))


def write_request(bank=0, row=0, column=0, rank=0):
    return MemoryRequest(
        kind=RequestKind.WRITE, address=0,
        decoded=DecodedAddress(channel=0, rank=rank, bank=bank, row=row,
                               column=column))


def run_until_done(events, requests, limit=1_000_000):
    done = []
    for req in requests:
        req.on_complete = lambda t, r=req: done.append(r)
    steps = 0
    while len(done) < len(requests):
        if not events.step():
            raise AssertionError("event queue drained before completion")
        steps += 1
        assert steps < limit
    return done


class TestIdleReadLatency:
    def test_row_miss_latency_exact(self):
        events, mc = make_controller(
            config=ControllerConfig(refresh_enabled=False))
        req = read_request(bank=0, row=5)
        assert mc.enqueue(req)
        run_until_done(events, [req])
        # ACT at 0, CAS at tRCD, data at tRCD+CL, done a burst later.
        assert req.first_command_time == 0
        assert req.data_start_time == DDR3.t_rcd + DDR3.t_rl
        assert req.completion_time == req.data_start_time + DDR3.t_burst
        # Conventional CWF: the requested word rides the first beat.
        assert req.critical_word_time == req.data_start_time + DDR3.t_burst // 8

    def test_row_hit_latency(self):
        events, mc = make_controller(
            config=ControllerConfig(refresh_enabled=False))
        first = read_request(bank=0, row=5, column=0)
        second = read_request(bank=0, row=5, column=1)
        mc.enqueue(first)
        mc.enqueue(second)
        run_until_done(events, [first, second])
        # The second request needs no ACT: issued as soon as CAS legal.
        assert second.first_command_time is not None
        assert (second.data_start_time - second.first_command_time
                == DDR3.t_rl)

    def test_row_conflict_needs_precharge(self):
        events, mc = make_controller(
            config=ControllerConfig(refresh_enabled=False))
        first = read_request(bank=0, row=5)
        second = read_request(bank=0, row=6)
        mc.enqueue(first)
        mc.enqueue(second)
        run_until_done(events, [first, second])
        # PRE cannot happen before tRAS; ACT after +tRP; CAS after +tRCD.
        min_second_data = (DDR3.t_ras + DDR3.t_rp + DDR3.t_rcd + DDR3.t_rl)
        assert second.data_start_time >= min_second_data


class TestClosePage:
    def test_rldram_single_command_latency(self):
        events, mc = make_controller(
            device=RLDRAM3_DEVICE, timing=RLD,
            config=ControllerConfig(refresh_enabled=False))
        req = read_request(bank=0, row=5)
        mc.enqueue(req)
        run_until_done(events, [req])
        assert req.data_start_time == RLD.t_rl
        assert req.completion_time == RLD.t_rl + RLD.t_burst

    def test_bank_reuse_waits_trc(self):
        events, mc = make_controller(
            device=RLDRAM3_DEVICE, timing=RLD,
            config=ControllerConfig(refresh_enabled=False))
        a = read_request(bank=0)
        b = read_request(bank=0)
        mc.enqueue(a)
        mc.enqueue(b)
        run_until_done(events, [a, b])
        assert b.first_command_time >= a.first_command_time + RLD.t_rc

    def test_different_banks_overlap(self):
        events, mc = make_controller(
            device=RLDRAM3_DEVICE, timing=RLD,
            config=ControllerConfig(refresh_enabled=False))
        a = read_request(bank=0)
        b = read_request(bank=1)
        mc.enqueue(a)
        mc.enqueue(b)
        run_until_done(events, [a, b])
        # Bank parallelism: second command issues before the first's tRC.
        assert b.first_command_time < a.first_command_time + RLD.t_rc


class TestQueues:
    def test_read_queue_capacity(self):
        events, mc = make_controller(
            config=ControllerConfig(read_queue_size=2, refresh_enabled=False))
        assert mc.enqueue(read_request(bank=0))
        assert mc.enqueue(read_request(bank=1))
        assert not mc.enqueue(read_request(bank=2))
        assert mc.read_queue_free == 0

    def test_write_queue_capacity(self):
        events, mc = make_controller(
            config=ControllerConfig(write_queue_size=1, refresh_enabled=False))
        assert mc.enqueue(write_request())
        assert not mc.enqueue(write_request())


class TestWriteDrain:
    def test_writes_complete_eventually(self):
        events, mc = make_controller(
            config=ControllerConfig(refresh_enabled=False))
        writes = [write_request(bank=i % 8, row=i) for i in range(40)]
        for w in writes:
            assert mc.enqueue(w)
        run_until_done(events, writes)
        assert mc.stats.writes_done == 40

    def test_reads_prioritised_over_casual_writes(self):
        events, mc = make_controller(
            config=ControllerConfig(refresh_enabled=False))
        # A few writes below the watermark plus one read: the read's
        # latency must stay close to idle (writes fill bus gaps only).
        for i in range(4):
            mc.enqueue(write_request(bank=1, row=i))
        read = read_request(bank=0, row=0)
        mc.enqueue(read)
        run_until_done(events, [read])
        idle = DDR3.t_rcd + DDR3.t_rl + DDR3.t_burst
        assert read.completion_time <= idle + 3 * DDR3.t_burst


class TestPrefetchPriority:
    def test_demand_beats_older_prefetch(self):
        events, mc = make_controller(
            config=ControllerConfig(refresh_enabled=False,
                                    prefetch_age_threshold=10**9))
        prefetches = [read_request(bank=b, row=1, is_prefetch=True)
                      for b in range(4)]
        for p in prefetches:
            mc.enqueue(p)
        demand = read_request(bank=5, row=1)
        mc.enqueue(demand)
        run_until_done(events, prefetches + [demand])
        assert demand.first_command_time <= min(
            p.first_command_time for p in prefetches[1:])

    def test_aged_prefetch_promoted(self):
        events, mc = make_controller(
            config=ControllerConfig(refresh_enabled=False,
                                    prefetch_age_threshold=100))
        p = read_request(bank=0, is_prefetch=True)
        mc.enqueue(p)
        run_until_done(events, [p])
        assert p.promoted or p.first_command_time < 100


class TestRefresh:
    def test_refresh_happens(self):
        events, mc = make_controller(config=ControllerConfig())
        req = read_request(bank=0)
        mc.enqueue(req)
        run_until_done(events, [req])
        # Run past several tREFI periods.
        events.run_until(3 * DDR3.t_refi)
        while events.peek_time() is not None and \
                events.peek_time() <= 3 * DDR3.t_refi:
            events.step()
        assert mc.stats.refreshes >= 2

    def test_read_delayed_by_refresh_completes(self):
        events, mc = make_controller(config=ControllerConfig())
        events.run_until(DDR3.t_refi - 10)
        req = read_request(bank=0)
        mc.enqueue(req)
        run_until_done(events, [req])
        assert req.completion_time is not None


class TestFCFSAblation:
    def test_fcfs_serves_in_order(self):
        events, mc = make_controller(
            config=ControllerConfig(scheduling=SchedulingPolicy.FCFS,
                                    refresh_enabled=False))
        # A row hit that arrives later must NOT jump an older row miss.
        old = read_request(bank=0, row=1)
        mc.enqueue(old)
        events.run_until(2)
        hit = read_request(bank=0, row=1, column=3)
        mc.enqueue(hit)
        run_until_done(events, [old, hit])
        assert old.data_start_time < hit.data_start_time

    def test_frfcfs_lets_row_hit_jump(self):
        events, mc = make_controller(
            config=ControllerConfig(refresh_enabled=False))
        # Open row 1 via a completed request, then queue a conflicting
        # request and a row hit; FR-FCFS issues the hit first.
        warm = read_request(bank=0, row=1)
        mc.enqueue(warm)
        run_until_done(events, [warm])
        miss = read_request(bank=0, row=2)
        hit = read_request(bank=0, row=1, column=5)
        mc.enqueue(miss)
        mc.enqueue(hit)
        run_until_done(events, [miss, hit])
        assert hit.data_start_time < miss.data_start_time


class TestSubchannelMapping:
    def test_rank_to_bus_routing(self):
        # The aggregated critical-word channel: ranks map to distinct
        # data buses; simultaneous reads on different ranks overlap.
        events, mc = make_controller(
            device=RLDRAM3_DEVICE, timing=RLD, num_ranks=4, num_buses=4,
            cmd_slots=2, rank_to_bus={i: i for i in range(4)},
            config=ControllerConfig(refresh_enabled=False))
        reqs = [read_request(bank=0, rank=r) for r in range(4)]
        for r in reqs:
            mc.enqueue(r)
        run_until_done(events, reqs)
        starts = sorted(r.data_start_time for r in reqs)
        # With 2 command slots per bus cycle and private data buses, all
        # four transfers overlap (no full-burst serialisation).
        assert starts[-1] - starts[0] < 4 * RLD.t_burst


class TestOnePassScan:
    """The open-page scan walks each demand class once.

    It issues the first column-ready row hit at once and otherwise the
    first legal PRE/ACT, where only a bank's oldest request may move
    the bank. Each test builds one queue by hand and runs one tick.
    """

    NOW = 2 * DDR3.t_rc  # bus-cycle aligned; every ACT/PRE window open

    def _setup(self, **config):
        events, mc = make_controller(
            config=ControllerConfig(refresh_enabled=False, **config))
        # Open row 1 of bank 0 at cycle 0, as a scheduled ACT would.
        rank = mc.ranks[0]
        rank.banks[0].activate(0, 1)
        rank.note_activate(0)
        return events, mc, rank.banks

    @staticmethod
    def _tick(events, mc, *requests):
        for req in requests:
            assert mc.enqueue(req)
        assert events.peek_time() == events.now
        events.step()

    def test_waiting_row_hit_keeps_its_bank_from_a_younger_precharge(self):
        events, mc, banks = self._setup()
        events.run_until(self.NOW)
        # Book the data bus across the hit's burst slot: the bank is
        # column-ready, but the row hit cannot issue this cycle.
        mc.channel.data_buses[0].reserve(self.NOW + DDR3.t_rl,
                                         RequestKind.READ, rank=0)
        hit = read_request(bank=0, row=1)
        miss = read_request(bank=0, row=2)
        assert banks[0].can_precharge(self.NOW)
        self._tick(events, mc, hit, miss)
        assert banks[0].open_row == 1
        assert hit.first_command_time is None
        assert miss.first_command_time is None

    def test_ready_younger_row_hit_beats_an_older_legal_activate(self):
        events, mc, banks = self._setup()
        events.run_until(self.NOW)
        old = read_request(bank=1, row=5)
        hit = read_request(bank=0, row=1)
        assert banks[1].can_activate(self.NOW)
        self._tick(events, mc, old, hit)
        assert hit.first_command_time == self.NOW
        assert hit.data_start_time == self.NOW + DDR3.t_rl
        assert banks[1].open_row is None
        assert old.first_command_time is None

    def test_demand_activate_beats_a_ready_prefetch_row_hit(self):
        events, mc, banks = self._setup(prefetch_age_threshold=10**9)
        events.run_until(self.NOW)
        prefetch = read_request(bank=0, row=1, is_prefetch=True)
        demand = read_request(bank=1, row=5)
        self._tick(events, mc, prefetch, demand)
        assert banks[1].open_row == 5
        assert demand.first_command_time == self.NOW
        assert prefetch.first_command_time is None

    def _oldest_blocked(self, scheduling):
        events, mc, banks = self._setup(scheduling=scheduling)
        # Column commands are legal but the row may not close yet.
        now = DDR3.t_rcd + 5 * DDR3.bus_cycle
        assert banks[0].next_read <= now < banks[0].next_precharge
        events.run_until(now)
        oldest = read_request(bank=0, row=2)
        hit = read_request(bank=0, row=1)
        other = read_request(bank=1, row=5)
        assert banks[1].can_activate(now) and mc.ranks[0].can_activate(now)
        self._tick(events, mc, oldest, hit, other)
        return banks, oldest, hit, other

    def test_fcfs_acts_only_on_the_oldest_request(self):
        banks, oldest, hit, other = self._oldest_blocked(SchedulingPolicy.FCFS)
        assert (oldest.first_command_time, hit.first_command_time,
                other.first_command_time) == (None, None, None)
        assert banks[0].open_row == 1
        assert banks[1].open_row is None

    def test_fr_fcfs_serves_the_row_hit_behind_the_same_oldest(self):
        banks, oldest, hit, other = self._oldest_blocked(
            SchedulingPolicy.FR_FCFS)
        assert hit.first_command_time is not None
        assert oldest.first_command_time is None
        assert other.first_command_time is None
