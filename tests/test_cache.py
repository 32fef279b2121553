"""Set-associative cache behaviour."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.cache import (
    IMAGE_DIRTY,
    L1_CONFIG,
    L2_CONFIG,
    Cache,
    CacheConfig,
)


def small_cache(sets=4, ways=2):
    return Cache(CacheConfig(name="t", size_bytes=sets * ways * 64,
                             associativity=ways))


class TestConfig:
    def test_paper_geometries(self):
        assert L1_CONFIG.num_sets == 256       # 32 KB / (2 * 64B)
        assert L2_CONFIG.num_sets == 8192      # 4 MB / (8 * 64B)
        assert L2_CONFIG.latency == 10
        assert L1_CONFIG.latency == 1

    def test_rejects_unaligned_size(self):
        with pytest.raises(ValueError):
            CacheConfig(name="bad", size_bytes=1000, associativity=3)


class TestHitMiss:
    def test_miss_then_hit(self):
        c = small_cache()
        assert c.lookup(5) is None
        c.insert(5)
        assert c.lookup(5) is not None
        assert c.hits == 1
        assert c.misses == 1

    def test_peek_does_not_count(self):
        c = small_cache()
        c.insert(5)
        c.peek(5)
        c.peek(6)
        assert c.hits == 0 and c.misses == 0

    def test_hit_rate(self):
        c = small_cache()
        c.insert(1)
        c.lookup(1)
        c.lookup(2)
        assert c.hit_rate == pytest.approx(0.5)


class TestLRU:
    def test_eviction_order_is_lru(self):
        c = small_cache(sets=1, ways=2)
        c.insert(0)
        c.insert(1)
        victim = c.insert(2)
        assert victim == (0, 0)

    def test_lookup_refreshes_recency(self):
        c = small_cache(sets=1, ways=2)
        c.insert(0)
        c.insert(1)
        c.lookup(0)          # 0 becomes MRU
        victim = c.insert(2)
        assert victim[0] == 1

    def test_reinsert_refreshes_and_merges_dirty(self):
        c = small_cache(sets=1, ways=2)
        c.insert(0, dirty=True)
        c.insert(1)
        assert c.insert(0) is None      # already present: no eviction
        assert c.peek(0) == IMAGE_DIRTY  # dirty bit sticks
        victim = c.insert(2)
        assert victim[0] == 1


class TestDirtyAndMetadata:
    def test_dirty_eviction_flagged(self):
        c = small_cache(sets=1, ways=1)
        c.insert(1, dirty=True, critical_word=3)
        victim = c.insert(2)
        assert victim == (1, 3 | IMAGE_DIRTY)
        assert c.dirty_evictions == 1

    def test_lookup_write_dirties_and_refreshes(self):
        c = small_cache(sets=1, ways=2)
        c.insert(0, critical_word=5)
        c.insert(1)
        assert c.lookup(0, write=True) == 5 | IMAGE_DIRTY
        assert c.peek(0) == 5 | IMAGE_DIRTY
        assert c.insert(2) == (1, 0)    # 0 became MRU

    def test_mark_dirty_keeps_recency(self):
        c = small_cache(sets=1, ways=2)
        c.insert(0, critical_word=2)
        c.insert(1)
        assert c.mark_dirty(0)
        assert not c.mark_dirty(7)
        assert c.peek(7) is None
        assert c.hits == 0 and c.misses == 0
        assert c.insert(2) == (0, 2 | IMAGE_DIRTY)  # 0 is still LRU

    def test_invalidate_returns_line(self):
        c = small_cache()
        c.insert(9, dirty=True)
        assert c.invalidate(9) == IMAGE_DIRTY
        assert c.peek(9) is None
        assert c.invalidate(9) is None


class TestSetMapping:
    def test_different_sets_do_not_conflict(self):
        c = small_cache(sets=4, ways=1)
        for line in range(4):
            c.insert(line)
        assert all(c.peek(line) is not None for line in range(4))

    def test_same_set_conflicts(self):
        c = small_cache(sets=4, ways=1)
        c.insert(0)
        victim = c.insert(4)  # 4 % 4 == 0: same set
        assert victim[0] == 0

    def test_occupancy(self):
        c = small_cache(sets=4, ways=2)
        for line in range(6):
            c.insert(line)
        assert c.occupancy() == 6


class TestAgainstReferenceModel:
    @settings(max_examples=50)
    @given(st.lists(st.tuples(st.booleans(),
                              st.integers(min_value=0, max_value=15)),
                    max_size=200))
    def test_matches_reference_lru(self, ops):
        """Compare against a brute-force LRU model."""
        sets, ways = 2, 2
        cache = small_cache(sets=sets, ways=ways)
        reference = [[] for _ in range(sets)]  # MRU at end
        for is_insert, line in ops:
            bucket = reference[line % sets]
            if is_insert:
                cache.insert(line)
                if line in bucket:
                    bucket.remove(line)
                elif len(bucket) == ways:
                    bucket.pop(0)
                bucket.append(line)
            else:
                hit = cache.lookup(line) is not None
                assert hit == (line in bucket)
                if hit:
                    bucket.remove(line)
                    bucket.append(line)
        for s in range(sets):
            for line in reference[s]:
                assert cache.peek(line) is not None
