"""Event-driven core model: fetch/retire arithmetic and ROB blocking."""

from repro.cpu.core import PENDING, STALL, Core, CoreConfig, TraceRecord
from repro.util.events import EventQueue


class FakeUncore:
    """Scriptable memory: per-address fixed latency, or STALL count."""

    def __init__(self, events, latency=100, stalls=0):
        self.events = events
        self.latency = latency
        self.stalls_left = stalls
        self.accesses = []

    def access(self, core_id, is_write, address, wake):
        self.accesses.append((self.events.now, is_write, address))
        if self.stalls_left > 0:
            self.stalls_left -= 1
            return STALL
        if is_write:
            return self.events.now + 1
        if self.latency <= 2:
            return self.events.now + self.latency
        self.events.schedule(self.events.now + self.latency,
                             lambda w=wake: w(self.events.now))
        return PENDING


def run_core(trace, latency=100, stalls=0, config=None):
    events = EventQueue()
    uncore = FakeUncore(events, latency=latency, stalls=stalls)
    core = Core(0, trace, uncore, events, config or CoreConfig())
    core.start()
    guard = 0
    while not core.finished:
        assert events.step(), "deadlock"
        guard += 1
        assert guard < 1_000_000
    return core, uncore


class TestComputeOnly:
    def test_pure_writes_retire_at_width(self):
        # 10 records x (gap 7 + 1 store) = 80 instructions, no stalls:
        # finish ~ 80/4 = 20 cycles.
        trace = [TraceRecord(gap=7, is_write=True, address=i * 64)
                 for i in range(10)]
        core, _ = run_core(trace)
        assert core.instructions == 80
        assert core.finish_time <= 25

    def test_ipc_capped_at_width(self):
        trace = [TraceRecord(gap=99, is_write=True, address=0)
                 for _ in range(5)]
        core, _ = run_core(trace)
        assert core.ipc() <= 4.0 + 1e-9


class TestLoadStalls:
    def test_single_load_latency_visible(self):
        trace = [TraceRecord(gap=0, is_write=False, address=0)]
        core, _ = run_core(trace, latency=500)
        # use_latency (10) rides on top of the 500-cycle wake.
        assert core.finish_time >= 500
        assert core.finish_time <= 520

    def test_serial_loads_sum(self):
        # Loads far apart in the trace (gap > ROB) cannot overlap.
        trace = [TraceRecord(gap=100, is_write=False, address=i * 4096)
                 for i in range(4)]
        core, _ = run_core(trace, latency=300)
        assert core.finish_time >= 4 * 300

    def test_independent_loads_overlap(self):
        # Loads close together overlap inside the 64-entry window:
        # 8 loads of 300 cycles must take far less than 8 * 300.
        trace = [TraceRecord(gap=2, is_write=False, address=i * 4096)
                 for i in range(8)]
        core, _ = run_core(trace, latency=300)
        assert core.finish_time < 8 * 300 * 0.5

    def test_rob_bounds_mlp(self):
        # 64-entry ROB with gap 0: at most 64 loads in flight; with
        # 1000-cycle latency, 128 loads take >= 2 "waves".
        trace = [TraceRecord(gap=0, is_write=False, address=i * 4096)
                 for i in range(128)]
        core, _ = run_core(trace, latency=1000)
        assert core.finish_time >= 2000

    def test_cache_hits_are_fast(self):
        trace = [TraceRecord(gap=3, is_write=False, address=0)
                 for _ in range(50)]
        core, _ = run_core(trace, latency=1)
        # ~200 instructions at ~IPC 2+: well under serialised misses.
        assert core.finish_time < 300


class TestStallRetry:
    def test_stalled_access_retries(self):
        trace = [TraceRecord(gap=0, is_write=False, address=0)]
        core, uncore = run_core(trace, latency=50, stalls=3)
        assert core.stall_retries == 3
        assert len(uncore.accesses) == 4
        assert core.finished

    def test_stalled_store_retries(self):
        trace = [TraceRecord(gap=0, is_write=True, address=0),
                 TraceRecord(gap=0, is_write=False, address=64)]
        core, _ = run_core(trace, latency=20, stalls=1)
        assert core.finished


class TestOutOfOrderArrivals:
    def test_late_head_blocks_retire_but_not_completion(self):
        events = EventQueue()

        class TwoLatency:
            def __init__(self):
                self.calls = 0

            def access(self, core_id, is_write, address, wake):
                self.calls += 1
                delay = 800 if self.calls == 1 else 50
                events.schedule(events.now + delay,
                                lambda w=wake: w(events.now))
                return PENDING

        trace = [TraceRecord(gap=0, is_write=False, address=0),
                 TraceRecord(gap=0, is_write=False, address=4096)]
        core = Core(0, trace, TwoLatency(), events)
        core.start()
        while not core.finished:
            assert events.step()
        # Finish is governed by the slow head load, not the sum.
        assert 800 <= core.finish_time < 900


class TestBookkeeping:
    def test_counts(self):
        trace = [TraceRecord(gap=1, is_write=False, address=0),
                 TraceRecord(gap=1, is_write=True, address=64),
                 TraceRecord(gap=1, is_write=False, address=128)]
        core, _ = run_core(trace, latency=50)
        assert core.loads_issued == 2
        assert core.stores_issued == 1
        assert core.instructions == 6

    def test_empty_trace_finishes_immediately(self):
        events = EventQueue()
        core = Core(0, [], FakeUncore(events), events)
        core.start()
        assert core.finished
        assert core.ipc() == 0.0
