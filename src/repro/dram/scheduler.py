"""Scheduling policy for the memory controller.

``FR_FCFS`` (the paper's policy for DDR3/LPDDR2): column-ready row hits
first, then first-come-first-served PRE/ACT progress, oldest request
first within each bank. ``FCFS`` is kept as an ablation point: the same
scan restricted to the oldest request of each demand class.

Both policies are implemented by
:meth:`~repro.dram.controller.MemoryController._issue_open_page`, which
relies on the controller's queue-order invariant (queues stay sorted by
``(arrival_time, request_id)``) instead of a priority key.

Demand requests outrank prefetches unless a prefetch has aged past the
promotion threshold (paper Sec 5), at which point it competes as a demand.
The controller keeps the two classes in two queues: unpromoted
prefetches in ``prefetch_queue``, everything else in ``read_queue``.
:func:`promote_aged_prefetches` moves aged prefetches from the first to
the second.
"""

from __future__ import annotations

import enum
from typing import List

from repro.dram.request import MemoryRequest


class SchedulingPolicy(enum.Enum):
    FR_FCFS = "fr_fcfs"
    FCFS = "fcfs"


def promote_aged_prefetches(prefetches: List[MemoryRequest],
                            demands: List[MemoryRequest], now: int,
                            age_threshold: int) -> int:
    """Promote the prefetches that have waited ``age_threshold`` cycles.

    ``prefetches`` is in arrival order, so the aged ones are a prefix.
    Each is marked promoted and moved into ``demands`` at its
    ``(arrival_time, request_id)`` place, which keeps ``demands`` in
    queue order. Returns how many were promoted.
    """
    count = 0
    for req in prefetches:
        if now < req.arrival_time + age_threshold:
            break
        count += 1
    i = 0
    for req in prefetches[:count]:
        req.promoted = True
        key = (req.arrival_time, req.request_id)
        while i < len(demands) and (demands[i].arrival_time,
                                    demands[i].request_id) < key:
            i += 1
        demands.insert(i, req)
        i += 1
    del prefetches[:count]
    return count
