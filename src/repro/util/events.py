"""A minimal deterministic discrete-event queue.

Events fire in (time, sequence) order so that ties are broken by insertion
order, which keeps multi-component simulations reproducible run to run.

A heap entry is a mutable ``[time, seq, callback]`` list, and
:meth:`EventQueue.schedule` returns the entry itself as the event's
handle. ``seq`` is unique, so heap comparisons are resolved by the
first two integer fields at C level and never reach the callback. To
cancel an event, set ``entry[2] = None``: the entry is skipped when
popped. Cancelling twice, cancelling an event that already ran and
cancelling after :meth:`EventQueue.clear` are all harmless, because
only the entry itself changes. No live-event count is kept: ``len()``
counts the heap's entries that still hold a callback, and only
end-of-run checks and tests ask for it.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

#: A scheduled event: ``[time, seq, callback]``; ``callback`` is None
#: once cancelled.
Entry = List[Any]


class EventQueue:
    """Deterministic priority queue of ``[time, seq, callback]`` entries.

    ``_heap`` is one list for the queue's whole life (:meth:`clear`
    empties it in place), so a caller may bind it once and pop it
    directly, as ``SimulationSystem``'s run loop does.
    """

    __slots__ = ("_heap", "_seq", "now")

    def __init__(self) -> None:
        self._heap: List[Entry] = []
        self._seq = 0
        self.now = 0

    def __len__(self) -> int:
        """Pending non-cancelled events (a heap scan: not for hot paths)."""
        return sum(1 for entry in self._heap if entry[2] is not None)

    def schedule(self, time: int, callback: Callable[[], Any]) -> Entry:
        """Schedule ``callback`` to run at absolute ``time`` (>= now)."""
        if time < self.now:
            raise ValueError(f"cannot schedule at {time}, now is {self.now}")
        seq = self._seq
        self._seq = seq + 1
        entry = [time, seq, callback]
        heapq.heappush(self._heap, entry)
        return entry

    def schedule_after(self, delay: int, callback: Callable[[], Any]) -> Entry:
        """Schedule ``callback`` to run ``delay`` cycles from now."""
        return self.schedule(self.now + delay, callback)

    def clear(self) -> None:
        """Cancel every pending event and drop its callback.

        A pending callback is bound to a component that holds this
        queue, so a finished run's leftover events tie its components
        into reference cycles; clearing them lets the run be freed by
        reference counting. ``now`` and the sequence counter carry on,
        so events scheduled afterwards still fire in (time, seq) order.
        """
        for entry in self._heap:
            entry[2] = None
        self._heap.clear()

    def peek_time(self) -> Optional[int]:
        """Time of the next live event, or None if the queue is empty."""
        heap = self._heap
        while heap and heap[0][2] is None:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Run the next live event. Returns False if the queue was empty."""
        heap = self._heap
        pop = heapq.heappop
        while heap:
            time, _seq, callback = pop(heap)
            if callback is None:
                continue
            self.now = time
            callback()
            return True
        return False

    def run_until(self, deadline: int) -> None:
        """Run events with time <= deadline; advances now to the deadline."""
        while True:
            nxt = self.peek_time()
            if nxt is None or nxt > deadline:
                break
            self.step()
        if self.now < deadline:
            self.now = deadline

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the queue (optionally capped); returns events executed."""
        count = 0
        while self.step():
            count += 1
            if max_events is not None and count >= max_events:
                break
        return count
