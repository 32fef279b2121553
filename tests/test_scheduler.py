"""Scheduler policy helpers."""

from repro.dram.request import DecodedAddress, MemoryRequest, RequestKind
from repro.dram.scheduler import (
    priority_key,
    promote_aged_prefetches,
    select_oldest,
)


def req(arrival=0, is_prefetch=False, promoted=False):
    r = MemoryRequest(kind=RequestKind.READ, address=0,
                      is_prefetch=is_prefetch,
                      decoded=DecodedAddress(0, 0, 0, 0, 0))
    r.arrival_time = arrival
    r.promoted = promoted
    return r


class TestPriorityKey:
    def test_demand_outranks_older_prefetch(self):
        demand = req(arrival=100)
        prefetch = req(arrival=0, is_prefetch=True)
        assert priority_key(demand) < priority_key(prefetch)

    def test_promoted_prefetch_competes_as_demand(self):
        promoted = req(arrival=0, is_prefetch=True, promoted=True)
        demand = req(arrival=50)
        assert priority_key(promoted) < priority_key(demand)

    def test_age_breaks_ties(self):
        older = req(arrival=10)
        newer = req(arrival=20)
        assert priority_key(older) < priority_key(newer)


class TestPromotion:
    def test_promotes_only_aged(self):
        young = req(arrival=900, is_prefetch=True)
        old = req(arrival=0, is_prefetch=True)
        count = promote_aged_prefetches([young, old], now=1000,
                                        age_threshold=500)
        assert count == 1
        assert old.promoted and not young.promoted

    def test_demands_untouched(self):
        demand = req(arrival=0)
        assert promote_aged_prefetches([demand], now=10_000,
                                       age_threshold=1) == 0
        assert not demand.promoted


class TestSelection:
    def test_select_oldest(self):
        a, b = req(arrival=5), req(arrival=3)
        assert select_oldest([a, b]) is b
        assert select_oldest([]) is None
