"""Scheduler policy: the controller's priority order and promotion."""

from hypothesis import given, settings
from hypothesis import strategies as st

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
        old = req(arrival=0, is_prefetch=True)
        young = req(arrival=900, is_prefetch=True)
        prefetches, demands = [old, young], []
        assert promote_aged_prefetches(prefetches, demands, now=1000,
                                       age_threshold=500) == 1
        assert old.promoted and not young.promoted
        assert prefetches == [young]
        assert demands == [old]

    def test_promotes_every_aged_prefetch(self):
        first = req(arrival=0, is_prefetch=True)
        second = req(arrival=10, is_prefetch=True)
        young = req(arrival=600, is_prefetch=True)
        prefetches, demands = [first, second, young], []
        assert promote_aged_prefetches(prefetches, demands, now=600,
                                       age_threshold=500) == 2
        assert demands == [first, second]
        assert prefetches == [young]

    def test_promotes_at_the_threshold(self):
        prefetch = req(arrival=100, is_prefetch=True)
        prefetches, demands = [prefetch], []
        assert promote_aged_prefetches(prefetches, demands, now=600,
                                       age_threshold=500) == 1
        assert prefetch.promoted and demands == [prefetch]

    def test_inserted_in_queue_order(self):
        early = req(arrival=0, is_prefetch=True)
        late = req(arrival=300, is_prefetch=True)
        demands = [req(arrival=a, column=1) for a in (100, 200, 400, 900)]
        prefetches = [early, late]
        assert promote_aged_prefetches(prefetches, demands, now=900,
                                       age_threshold=500) == 2
        assert [r.arrival_time for r in demands] == [0, 100, 200, 300, 400, 900]
        assert prefetches == []

    def test_demands_untouched(self):
        demand = req(arrival=0)
        demands = [demand]
        assert promote_aged_prefetches([], demands, now=10_000,
                                       age_threshold=1) == 0
        assert demands == [demand]
        assert not demand.promoted


def make_controller(config, controller_cls=MemoryController):
    events = EventQueue()
    mc = controller_cls(
        device=DDR3_DEVICE, timing=DDR3, channel=Channel(DDR3),
        num_ranks=1, events=events, config=config)
    return events, mc


class TestQueues:
    """A queued read's demand class is the queue it waits in."""

    def test_enqueue_routes_by_demand_class(self):
        _, mc = make_controller(ControllerConfig(refresh_enabled=False))
        demand = req()
        prefetch = req(is_prefetch=True)
        promoted = req(is_prefetch=True, promoted=True)
        for r in (demand, prefetch, promoted):
            assert mc.enqueue(r)
        assert mc.read_queue == [demand, promoted]
        assert mc.prefetch_queue == [prefetch]

    def test_read_limit_counts_both_queues(self):
        _, mc = make_controller(ControllerConfig(read_queue_size=2,
                                                 refresh_enabled=False))
        assert mc.enqueue(req())
        assert mc.enqueue(req(is_prefetch=True))
        assert mc.read_queue_free == 0
        assert not mc.enqueue(req())
        assert not mc.enqueue(req(is_prefetch=True))
        assert len(mc.read_queue) == len(mc.prefetch_queue) == 1

    def test_prefetch_keeps_controller_busy(self):
        _, mc = make_controller(ControllerConfig(refresh_enabled=False))
        mc.enqueue(req(is_prefetch=True))
        assert mc.busy()
        mc.release_in_flight()
        assert not mc.busy() and mc.prefetch_queue == []

    def test_same_cycle_tie_keeps_single_queue_order(self):
        # A demand and a prefetch arriving in the same cycle, in either
        # order, to different rows of one bank (neither can be served
        # before the promoting tick). Once promoted the prefetch sits
        # where a single arrival-ordered queue would have put it.
        # Requests are created as they are enqueued, so ids follow the
        # enqueue order.
        for kinds in ((True, False), (False, True)):
            events, mc = make_controller(ControllerConfig(
                refresh_enabled=False, prefetch_age_threshold=0))
            order = []
            for row, is_prefetch in enumerate(kinds):
                r = MemoryRequest(kind=RequestKind.READ, address=0,
                                  is_prefetch=is_prefetch,
                                  decoded=DecodedAddress(0, 0, 0, row, 0))
                assert mc.enqueue(r)
                order.append(r)
            prefetch, demand = order if kinds[0] else order[::-1]
            assert prefetch.arrival_time == demand.arrival_time
            events.step()
            assert prefetch.promoted
            assert mc.prefetch_queue == []
            assert mc.read_queue == order


# Arrivals as (gap to the previous arrival in CPU cycles, prefetch?,
# bank, row); a small read queue also exercises rejected enqueues.
ARRIVALS = st.lists(
    st.tuples(st.integers(0, 150), st.booleans(), st.integers(0, 7),
              st.integers(0, 3)),
    min_size=1, max_size=40)


class ReferencePromotion(MemoryController):
    """Promotion as the rule states it, with no shortcut: on every tick
    every queued prefetch that has waited the threshold is promoted, and
    the demand queue is re-sorted into ``(arrival_time, request_id)``
    order. The controller's own promotion then finds nothing left."""

    __slots__ = ()

    def _tick(self) -> None:
        now = self.events.now
        aged = [r for r in self.prefetch_queue
                if now >= r.arrival_time + self._age_threshold]
        for r in aged:
            r.promoted = True
            self.prefetch_queue.remove(r)
        self.read_queue.extend(aged)
        self.read_queue.sort(key=lambda r: (r.arrival_time, r.request_id))
        self.stats.prefetch_promotions += len(aged)
        super()._tick()


def promotion_log(arrivals, threshold, controller_cls):
    """Run ``arrivals`` through one controller to the end.

    Returns both queues (as request ids) after every event, every
    request's command and data times, and the promotion count.
    """
    events, mc = make_controller(
        ControllerConfig(refresh_enabled=False, read_queue_size=12,
                         prefetch_age_threshold=threshold),
        controller_cls)
    accepted = []
    log = []

    def run_to(deadline):
        while True:
            t = events.peek_time()
            if t is None or (deadline is not None and t > deadline):
                break
            events.step()
            log.append((events.now,
                        [r.request_id for r in mc.read_queue],
                        [r.request_id for r in mc.prefetch_queue]))
        if deadline is not None:
            events.run_until(deadline)

    now = 0
    for i, (gap, is_prefetch, bank, row) in enumerate(arrivals):
        now += gap
        run_to(now)
        r = MemoryRequest(kind=RequestKind.READ, address=0,
                          is_prefetch=is_prefetch, request_id=i,
                          decoded=DecodedAddress(0, 0, bank, row, 0))
        if mc.enqueue(r):
            accepted.append(r)
    run_to(None)
    times = [(r.first_command_time, r.data_start_time) for r in accepted]
    return log, times, mc.stats.prefetch_promotions


class TestPromotionGate:
    @settings(max_examples=150, deadline=None)
    @given(arrivals=ARRIVALS, threshold=st.integers(0, 400))
    def test_gate_promotes_as_a_scan_on_every_tick(self, arrivals, threshold):
        gated = promotion_log(arrivals, threshold, MemoryController)
        every = promotion_log(arrivals, threshold, ReferencePromotion)
        assert gated == every
