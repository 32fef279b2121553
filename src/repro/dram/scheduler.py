"""Scheduling policy for the memory controller.

``FR_FCFS`` (the paper's policy for DDR3/LPDDR2): column-ready row hits
first, then first-come-first-served progress on the oldest request.
``FCFS`` is kept as an ablation point.

Demand requests outrank prefetches unless a prefetch has aged past the
promotion threshold (paper Sec 5), at which point it competes as a demand.
"""

from __future__ import annotations

import enum
from typing import Iterable, List, Optional, Tuple

from repro.dram.request import MemoryRequest


class SchedulingPolicy(enum.Enum):
    FR_FCFS = "fr_fcfs"
    FCFS = "fcfs"


def priority_key(req: MemoryRequest) -> Tuple[int, int, int]:
    """Lower sorts first: demands/promoted prefetches, then oldest."""
    demand_class = 0 if (not req.is_prefetch or req.promoted) else 1
    return (demand_class, req.arrival_time, req.request_id)


def promote_aged_prefetches(queue: Iterable[MemoryRequest], now: int,
                            age_threshold: int) -> int:
    """Promote prefetches older than ``age_threshold``; returns count."""
    promoted = 0
    for req in queue:
        if req.is_prefetch and not req.promoted:
            if now - req.arrival_time >= age_threshold:
                req.promoted = True
                promoted += 1
    return promoted


def select_oldest(queue: List[MemoryRequest]) -> Optional[MemoryRequest]:
    """FCFS step: highest-priority oldest request."""
    best: Optional[MemoryRequest] = None
    best_key: Optional[Tuple[int, int, int]] = None
    for req in queue:
        key = priority_key(req)
        if best_key is None or key < best_key:
            best, best_key = req, key
    return best
