"""Uncore: cache hierarchy paths, write-allocate, CWF wake plumbing."""

from repro.cpu.cache import IMAGE_DIRTY, CacheConfig
from repro.cpu.core import PENDING, STALL
from repro.cpu.prefetch import PrefetcherConfig
from repro.cpu.uncore import Uncore, UncoreConfig
from repro.util.events import EventQueue


class ScriptMemory:
    """Memory system double with controllable callbacks."""

    def __init__(self, events, accept=True, crit_delay=100, fill_delay=150):
        self.events = events
        self.accept = accept
        self.crit_delay = crit_delay
        self.fill_delay = fill_delay
        self.reads = []
        self.writes = []

    def issue_read(self, line_address, critical_word, core_id, is_prefetch,
                   on_critical, on_complete):
        if not self.accept:
            return False
        self.reads.append((line_address, critical_word, is_prefetch))
        now = self.events.now
        self.events.schedule(now + self.crit_delay,
                             lambda: on_critical(now + self.crit_delay))
        self.events.schedule(now + self.fill_delay,
                             lambda: on_complete(now + self.fill_delay))
        return True

    def issue_write(self, line_address, critical_word_tag, core_id):
        self.writes.append((line_address, critical_word_tag))
        return True

    def chip_activities(self, elapsed):
        return {}

    def bus_utilization(self, elapsed):
        return 0.0


def tiny_uncore(events, num_cores=1, accept=True, mshrs=4,
                path_latency=0, prefetch=False):
    config = UncoreConfig(
        l1=CacheConfig(name="L1", size_bytes=4 * 64 * 2, associativity=2),
        l2=CacheConfig(name="L2", size_bytes=16 * 64 * 4, associativity=4,
                       latency=10),
        mshr_capacity=mshrs,
        prefetcher=PrefetcherConfig(enabled=prefetch,
                                    confidence_threshold=2, degree=1,
                                    distance=1),
        dram_path_latency=path_latency)
    memory = ScriptMemory(events, accept=accept)
    return Uncore(num_cores, memory, events, config), memory


class TestHitPaths:
    def test_miss_then_l1_hit(self):
        events = EventQueue()
        uncore, memory = tiny_uncore(events)
        woken = []
        result = uncore.access(0, False, 0x1000, woken.append)
        assert result == PENDING
        events.run(100)
        assert woken  # critical wake fired
        # After the fill the line is in L1.
        result = uncore.access(0, False, 0x1000, None)
        assert result == events.now + 1  # L1 latency

    def test_l2_hit_after_other_core_fetch(self):
        events = EventQueue()
        uncore, memory = tiny_uncore(events, num_cores=2)
        uncore.access(0, False, 0x2000, lambda t: None)
        events.run(100)
        result = uncore.access(1, False, 0x2000, None)
        assert result == events.now + 10  # L2 latency

    def test_wake_time_includes_path_latency(self):
        events = EventQueue()
        uncore, memory = tiny_uncore(events, path_latency=36)
        woken = []
        uncore.access(0, False, 0, woken.append)
        events.run(100)
        assert woken[0] == 100 + 36


class TestCriticalWake:
    def test_primary_wakes_before_fill(self):
        events = EventQueue()
        uncore, memory = tiny_uncore(events)
        woken = []
        uncore.access(0, False, 0, woken.append)
        events.run_until(120)   # critical at 100, fill at 150
        assert woken == [100]
        assert uncore.mshrs.get(0) is not None   # fill still pending
        events.run(100)
        assert uncore.mshrs.get(0) is None

    def test_secondary_same_word_wakes_with_critical(self):
        events = EventQueue()
        uncore, memory = tiny_uncore(events, num_cores=2)
        first, second = [], []
        uncore.access(0, False, 0x18, first.append)    # word 3
        uncore.access(1, False, 0x18, second.append)   # same word, merged
        events.run(300)
        assert first == [100]
        assert second == [100]
        assert len(memory.reads) == 1  # merged, not re-issued

    def test_secondary_other_word_waits_for_fill(self):
        events = EventQueue()
        uncore, memory = tiny_uncore(events, num_cores=2)
        first, second = [], []
        uncore.access(0, False, 0x18, first.append)   # word 3
        uncore.access(1, False, 0x28, second.append)  # word 5, same line
        events.run(300)
        assert first == [100]
        assert second == [150]


class TestWrites:
    def test_write_miss_allocates_and_fetches(self):
        events = EventQueue()
        uncore, memory = tiny_uncore(events)
        result = uncore.access(0, True, 0x40, None)
        assert result == PENDING
        assert memory.reads  # write-allocate fetch
        events.run(300)
        meta = uncore.l2.peek(1)
        assert meta is not None and meta >= IMAGE_DIRTY

    def test_dirty_l2_eviction_writes_back(self):
        events = EventQueue()
        uncore, memory = tiny_uncore(events)
        # Fill one L2 set (4 ways, set 0 holds lines 0,16,32,48,...) with
        # dirty lines, then one more to force a dirty eviction.
        for i in range(5):
            uncore.access(0, True, i * 16 * 64, None)
            events.run(400)
        assert memory.writes, "dirty eviction should reach DRAM"

    def test_writeback_carries_critical_word_tag(self):
        events = EventQueue()
        uncore, memory = tiny_uncore(events)
        # Fetch with critical word 5, dirty it, then evict.
        uncore.access(0, True, 0 * 16 * 64 + 5 * 8, None)
        events.run(400)
        for i in range(1, 5):
            uncore.access(0, True, i * 16 * 64, None)
            events.run(400)
        assert memory.writes[0] == (0, 5)


class TestBackPressure:
    def test_mshr_full_stalls(self):
        events = EventQueue()
        uncore, memory = tiny_uncore(events, mshrs=1)
        assert uncore.access(0, False, 0x0, lambda t: None) == PENDING
        assert uncore.access(0, False, 0x4000, lambda t: None) == STALL

    def test_memory_reject_rolls_back_mshr(self):
        events = EventQueue()
        uncore, memory = tiny_uncore(events, accept=False)
        result = uncore.access(0, False, 0x0, lambda t: None)
        assert result == STALL
        assert len(uncore.mshrs) == 0

    def test_writeback_overflow_retries(self):
        events = EventQueue()
        uncore, memory = tiny_uncore(events)
        memory.issue_write_ok = True
        rejections = [3]
        real_issue = memory.issue_write

        def flaky(line, tag, core):
            if rejections[0] > 0:
                rejections[0] -= 1
                return False
            return real_issue(line, tag, core)

        memory.issue_write = flaky
        uncore._issue_writeback(1, 0, 0)
        events.run(100)
        assert memory.writes == [(1, 0)]


class TestPrefetchPath:
    def test_prefetches_issue_tagged(self):
        events = EventQueue()
        uncore, memory = tiny_uncore(events, prefetch=True)
        for i in range(6):
            uncore.access(0, False, i * 64, lambda t: None)
            events.run_until(events.now + 200)
        events.run(200)
        assert any(is_pf for (_, _, is_pf) in memory.reads)

    def test_prefetch_to_cached_line_dropped(self):
        events = EventQueue()
        uncore, memory = tiny_uncore(events, prefetch=True)
        uncore.access(0, False, 0, lambda t: None)
        events.run(300)
        before = len(memory.reads)
        uncore._issue_prefetch(0, 0)   # line already in L2
        assert len(memory.reads) == before

    def test_demand_counter(self):
        events = EventQueue()
        uncore, memory = tiny_uncore(events)
        seen = []
        uncore.demand_miss_observer = (
            lambda c, line, w: seen.append((c, line, w)))
        uncore.access(0, False, 3 * 64 + 2 * 8, lambda t: None)
        assert seen == [(0, 3, 2)]
        assert uncore.dram_reads == 1
