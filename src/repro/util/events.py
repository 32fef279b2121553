"""A minimal deterministic discrete-event queue.

Events fire in (time, sequence) order so that ties are broken by insertion
order, which keeps multi-component simulations reproducible run to run.

The heap stores ``(time, seq, event)`` tuples rather than the events
themselves: ``seq`` is unique, so heap comparisons are resolved by the
first two integer fields at C level and never reach the event object.
Combined with ``__slots__`` on :class:`Event`, this keeps the simulator's
single hottest data structure free of generated-``__lt__`` dispatch and
per-event ``__dict__`` allocations while preserving the exact firing
order of the original dataclass implementation (ordered by
``(time, seq)``, cancellation skipped at pop). No live-event count is
kept: ``len()`` counts the heap's non-cancelled entries, and only
end-of-run checks and tests ask for it.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple


class Event:
    """A scheduled callback. Fires in (time, seq) order for determinism."""

    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time: int, seq: int,
                 callback: Callable[[], Any]) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event dead; it will be skipped when popped."""
        self.cancelled = True

    def __repr__(self) -> str:  # debugging aid; never on the hot path
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(time={self.time}, seq={self.seq}, {state})"


class EventQueue:
    """Deterministic priority queue of :class:`Event` objects."""

    __slots__ = ("_heap", "_seq", "now")

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Event]] = []
        self._seq = 0
        self.now = 0

    def __len__(self) -> int:
        """Pending non-cancelled events (a heap scan: not for hot paths)."""
        return sum(1 for entry in self._heap if not entry[2].cancelled)

    def schedule(self, time: int, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` to run at absolute ``time`` (>= now)."""
        if time < self.now:
            raise ValueError(f"cannot schedule at {time}, now is {self.now}")
        seq = self._seq
        event = Event(time, seq, callback)
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def schedule_after(self, delay: int, callback: Callable[[], Any]) -> Event:
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
        for _time, _seq, event in self._heap:
            event.cancelled = True
            event.callback = None
        self._heap.clear()

    def peek_time(self) -> Optional[int]:
        """Time of the next live event, or None if the queue is empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Run the next live event. Returns False if the queue was empty."""
        heap = self._heap
        pop = heapq.heappop
        while heap:
            time, _seq, event = pop(heap)
            if event.cancelled:
                continue
            self.now = time
            event.callback()
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
