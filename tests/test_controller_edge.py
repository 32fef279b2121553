"""Controller edge cases: power-down, idle-row close, progress bounds."""

from repro.dram.channel import Channel
from repro.dram.controller import ControllerConfig, MemoryController
from repro.dram.device import DDR3_DEVICE, LPDDR2_DEVICE
from repro.dram.rank import PowerState
from repro.dram.request import DecodedAddress, MemoryRequest, RequestKind
from repro.dram.timing import DDR3_TIMING, LPDDR2_TIMING, TimingSet
from repro.util.events import EventQueue

LPD = TimingSet(LPDDR2_TIMING)
DDR3 = TimingSet(DDR3_TIMING)


def make(device=LPDDR2_DEVICE, timing=LPD, **cfg):
    events = EventQueue()
    channel = Channel(timing)
    config = ControllerConfig(**cfg)
    mc = MemoryController(device=device, timing=timing, channel=channel,
                          num_ranks=1, events=events, config=config)
    return events, mc


def read(bank=0, row=0, column=0):
    return MemoryRequest(kind=RequestKind.READ, address=0,
                         decoded=DecodedAddress(0, 0, bank, row, column))


def complete(events, req, limit=100_000):
    done = []
    req.on_complete = lambda t: done.append(t)
    steps = 0
    while not done:
        assert events.step()
        steps += 1
        assert steps < limit
    return done[0]


class TestAggressivePowerDown:
    def test_rank_sleeps_after_idle(self):
        events, mc = make(aggressive_powerdown=True,
                          powerdown_idle_threshold=200,
                          refresh_enabled=True)
        req = read(bank=0, row=1)
        mc.enqueue(req)
        complete(events, req)
        # Run well past the idle threshold; ticks fire on refresh cadence.
        events.run_until(events.now + 3 * LPD.t_refi)
        while events.peek_time() is not None and len(events) and \
                events.now < 4 * LPD.t_refi:
            if not events.step():
                break
        assert mc.ranks[0].power_down_entries >= 1

    def test_wakeup_penalty_applied(self):
        events, mc = make(aggressive_powerdown=True,
                          powerdown_idle_threshold=100,
                          refresh_enabled=False)
        first = read(bank=0, row=1)
        mc.enqueue(first)
        complete(events, first)
        # Idle past the threshold; the controller's idle tick (or a
        # manual push) puts the rank into power-down.
        t = events.now + 500
        events.run_until(t)
        rank = mc.ranks[0]
        if rank.power_state is not PowerState.POWER_DOWN:
            for bank in rank.banks:
                if bank.can_precharge(events.now) and bank.open_row is not None:
                    bank.precharge(events.now)
            assert rank.try_power_down(events.now, 100)
        assert rank.power_state is PowerState.POWER_DOWN
        second = read(bank=1, row=2)
        mc.enqueue(second)
        done = complete(events, second)
        idle = DDR3.t_rcd + DDR3.t_rl + DDR3.t_burst
        assert done - t >= LPD.t_pd_exit  # paid the exit latency


class TestProgressBounds:
    # _next_wake_time floors its bound at now + bus_cycle and caps it at
    # now + t_rc; each test queues exactly one request.

    def test_next_wake_time_row_hit(self):
        events, mc = make(device=DDR3_DEVICE, timing=DDR3,
                          refresh_enabled=False)
        req = read(bank=0, row=1)
        mc.enqueue(req)
        complete(events, req)
        mc.enqueue(read(bank=0, row=1, column=3))
        t = mc._next_wake_time(events.now)
        assert t <= events.now + max(DDR3.t_ccd, DDR3.bus_cycle)

    def test_next_wake_time_conflict(self):
        events, mc = make(device=DDR3_DEVICE, timing=DDR3,
                          refresh_enabled=False)
        req = read(bank=0, row=1)
        mc.enqueue(req)
        complete(events, req)
        mc.enqueue(read(bank=0, row=2))
        t = mc._next_wake_time(events.now)
        bank = mc.ranks[0].banks[0]
        bound = max(bank.next_precharge, mc.ranks[0].wake_time)
        if bound <= events.now:
            bound = events.now + DDR3.bus_cycle
        assert t == min(bound, events.now + DDR3.t_rc)


class TestBusyAccounting:
    def test_busy_reflects_queues(self):
        events, mc = make(refresh_enabled=False)
        assert not mc.busy()
        req = read()
        mc.enqueue(req)
        assert mc.busy()
        complete(events, req)
        assert not mc.busy()

    def test_finalize_folds_tallies(self):
        events, mc = make(refresh_enabled=False)
        req = read()
        mc.enqueue(req)
        complete(events, req)
        mc.finalize()
        assert mc.ranks[0].tally.total() == events.now
