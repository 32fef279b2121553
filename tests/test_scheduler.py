"""Scheduler policy: the controller's priority order and promotion."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.bank import FAR_FUTURE
from repro.dram.channel import Channel
from repro.dram.controller import ControllerConfig, MemoryController
from repro.dram.device import DDR3_DEVICE
from repro.dram.request import DecodedAddress, MemoryRequest, RequestKind
from repro.dram.scheduler import SchedulingPolicy, promote_aged_prefetches
from repro.dram.timing import DDR3_TIMING, TimingSet
from repro.util.events import EventQueue

DDR3 = TimingSet(DDR3_TIMING)


def req(arrival=0, is_prefetch=False, promoted=False, column=0):
    r = MemoryRequest(kind=RequestKind.READ, address=0,
                      is_prefetch=is_prefetch,
                      decoded=DecodedAddress(0, 0, 0, 0, column))
    r.arrival_time = arrival
    r.promoted = promoted
    return r


def served_first(older, newer, gap=0):
    """Queue ``older`` then ``newer`` (``gap`` cycles apart) on one bank
    row under strict FCFS; return whichever reaches the data bus first.
    """
    events = EventQueue()
    channel = Channel(DDR3, num_data_buses=1, cmd_slots_per_cycle=1)
    mc = MemoryController(
        device=DDR3_DEVICE, timing=DDR3, channel=channel, num_ranks=1,
        events=events,
        config=ControllerConfig(scheduling=SchedulingPolicy.FCFS,
                                refresh_enabled=False,
                                prefetch_age_threshold=10**9))
    mc.enqueue(older)
    events.run_until(gap)
    mc.enqueue(newer)
    while events.step():
        pass
    assert older.data_start_time is not None
    assert newer.data_start_time is not None
    return min((older, newer), key=lambda r: r.data_start_time)


class TestPriorityKey:
    """Priority is (demand class, arrival_time, request_id), lowest first."""

    def test_demand_outranks_older_prefetch(self):
        prefetch = req(is_prefetch=True)
        demand = req(column=1)
        assert served_first(prefetch, demand) is demand

    def test_promoted_prefetch_competes_as_demand(self):
        promoted = req(is_prefetch=True, promoted=True)
        demand = req(column=1)
        assert served_first(promoted, demand) is promoted

    def test_age_breaks_ties(self):
        older = req()
        newer = req(column=1)
        assert served_first(older, newer, gap=2) is older
        assert older.arrival_time < newer.arrival_time


class TestPromotion:
    def test_promotes_only_aged(self):
        young = req(arrival=900, is_prefetch=True)
        old = req(arrival=0, is_prefetch=True)
        count, next_due = promote_aged_prefetches([young, old], now=1000,
                                                  age_threshold=500)
        assert count == 1
        assert old.promoted and not young.promoted
        # The young prefetch is the next to age.
        assert next_due == 900 + 500

    def test_demands_untouched(self):
        demand = req(arrival=0)
        assert promote_aged_prefetches([demand], now=10_000,
                                       age_threshold=1) == (0, FAR_FUTURE)
        assert not demand.promoted


# Arrivals as (gap to the previous arrival in CPU cycles, prefetch?,
# bank, row); a small read queue also exercises rejected enqueues.
ARRIVALS = st.lists(
    st.tuples(st.integers(0, 150), st.booleans(), st.integers(0, 7),
              st.integers(0, 3)),
    min_size=1, max_size=40)


def promotion_log(arrivals, threshold, scan_every_tick):
    """Run ``arrivals`` through one controller to the end.

    Returns the tick at which each queued request was promoted, every
    request's command and data times, and the promotion count. With
    ``scan_every_tick`` the promotion gate is opened before every event,
    so each tick scans with :func:`promote_aged_prefetches`.
    """
    events = EventQueue()
    mc = MemoryController(
        device=DDR3_DEVICE, timing=DDR3, channel=Channel(DDR3),
        num_ranks=1, events=events,
        config=ControllerConfig(refresh_enabled=False, read_queue_size=12,
                                prefetch_age_threshold=threshold))
    queued = []
    promoted_at = {}

    def run_to(deadline):
        while True:
            t = events.peek_time()
            if t is None or (deadline is not None and t > deadline):
                break
            if scan_every_tick:
                mc._promote_due = 0
            events.step()
            for i, r in enumerate(queued):
                if r.promoted and i not in promoted_at:
                    promoted_at[i] = events.now
        if deadline is not None:
            events.run_until(deadline)

    now = 0
    for gap, is_prefetch, bank, row in arrivals:
        now += gap
        run_to(now)
        r = MemoryRequest(kind=RequestKind.READ, address=0,
                          is_prefetch=is_prefetch,
                          decoded=DecodedAddress(0, 0, bank, row, 0))
        if mc.enqueue(r):
            queued.append(r)
    run_to(None)
    times = [(r.first_command_time, r.data_start_time) for r in queued]
    return promoted_at, times, mc.stats.prefetch_promotions


class TestPromotionGate:
    @settings(max_examples=150, deadline=None)
    @given(arrivals=ARRIVALS, threshold=st.integers(0, 400))
    def test_gate_promotes_as_a_scan_on_every_tick(self, arrivals, threshold):
        gated = promotion_log(arrivals, threshold, scan_every_tick=False)
        every = promotion_log(arrivals, threshold, scan_every_tick=True)
        assert gated == every
