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
The controller does not scan for aged prefetches on every tick: it keeps
the time the oldest unpromoted prefetch will age, which
:func:`promote_aged_prefetches` returns, and scans again only once that
time is reached.
"""

from __future__ import annotations

import enum
from typing import Iterable, Tuple

from repro.dram.bank import FAR_FUTURE
from repro.dram.request import MemoryRequest


class SchedulingPolicy(enum.Enum):
    FR_FCFS = "fr_fcfs"
    FCFS = "fcfs"


def promote_aged_prefetches(queue: Iterable[MemoryRequest], now: int,
                            age_threshold: int) -> Tuple[int, int]:
    """Promote prefetches older than ``age_threshold``.

    Returns ``(promoted, next_due)``: how many were promoted, and the
    time the oldest prefetch left unpromoted will age (``FAR_FUTURE``
    when none is left). Before ``next_due`` a scan would promote
    nothing.
    """
    promoted = 0
    next_due = FAR_FUTURE
    for req in queue:
        if req.is_prefetch and not req.promoted:
            due = req.arrival_time + age_threshold
            if now >= due:
                req.promoted = True
                promoted += 1
            elif due < next_due:
                next_due = due
    return promoted, next_due
