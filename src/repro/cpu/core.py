"""Event-driven out-of-order core model (USIMM-style front end).

The model captures exactly what matters for main-memory studies:

* instructions fetch at ``width`` per cycle into a ``rob_size`` window;
* non-memory instructions and stores complete one cycle after fetch;
* loads complete when their **critical word** arrives from the cache
  hierarchy / DRAM;
* retirement is in-order at ``width`` per cycle, so a load at the ROB
  head stalls everything behind it — but independent loads inside the
  window overlap (memory-level parallelism).

Rather than stepping every CPU cycle, the core exploits the structure of
the recurrence: retirement advances at a fixed rate between *stall
breakpoints*, and breakpoints only occur at loads. Fetch is tracked in
quarter-cycles (4-wide ⇒ one instruction per quarter cycle), and the
ROB-full condition — fetch may not run more than ``rob_size``
instructions past the oldest unresolved load — is what throttles run-
ahead. This yields an O(#memory-ops) simulation that matches a per-cycle
model to within a cycle or two per stall.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, NamedTuple, Optional

from repro.util.cycles import ceil_div
from repro.util.events import EventQueue


class TraceRecord(NamedTuple):
    """One memory instruction preceded by ``gap`` non-memory instructions."""

    gap: int
    is_write: bool
    address: int


@dataclass(frozen=True)
class CoreConfig:
    """Paper Table 1 processor parameters."""

    rob_size: int = 64
    width: int = 4
    retry_interval: int = 16   # cycles between retries on MSHR/queue stalls
    use_latency: int = 10      # L2-to-register path after wake-up


#: What ``Uncore.access`` returns when the access does not complete at
#: a known time: memory will call back (``PENDING``), or resources are
#: full and the core retries later (``STALL``). A hit returns its
#: completion time instead, which is never negative.
PENDING = -1
STALL = -2


class _IssueEvent:
    """Deferred ``core._issue(record, index)`` call.

    A plain slotted callable instead of a closure so a scheduled (or
    retry-pending) issue survives pickling when the simulator is
    checkpointed mid-run.
    """

    __slots__ = ("core", "record", "index")

    def __init__(self, core: "Core", record: "TraceRecord",
                 index: int) -> None:
        self.core = core
        self.record = record
        self.index = index

    def __call__(self) -> None:
        self.core._issue(self.record, self.index)


class _LoadWake:
    """Wake callback handed to the uncore for a pending load."""

    __slots__ = ("core", "index")

    def __init__(self, core: "Core", index: int) -> None:
        self.core = core
        self.index = index

    def __call__(self, time: int) -> None:
        core = self.core
        core._resolve(self.index, time + core.config.use_latency)


class Core:
    """One trace-driven core attached to an uncore.

    Slotted — a run holds only a handful of cores, but the fetch engine
    reads/writes these fields once per trace record. ``trace`` is any
    iterable of records — a materialized list or a lazy generator. The
    core consumes it through a one-record lookahead (``_next``), pulling
    records only as fetch advances, so a streaming source never holds a
    whole per-core trace in memory. The core takes ownership of the
    iterable; callers must not consume or mutate it afterwards.
    """

    __slots__ = ("core_id", "_records", "_next", "uncore", "events",
                 "config", "on_finish", "gap_left", "index", "fetch_q",
                 "bp_index", "bp_time", "unresolved", "arrivals",
                 "finished", "finish_time", "loads_issued",
                 "stores_issued", "stall_retries")

    def __init__(self, core_id: int, trace: Iterable[TraceRecord],
                 uncore, events: EventQueue,
                 config: CoreConfig = CoreConfig(),
                 on_finish: Optional[Callable[["Core"], None]] = None) -> None:
        self.core_id = core_id
        self._records = iter(trace)
        self._next = next(self._records, None)  # one-record lookahead
        self.uncore = uncore
        self.events = events
        self.config = config
        self.on_finish = on_finish
        # --- pipeline state ---
        self.gap_left = self._next.gap if self._next is not None else 0
        self.index = 0               # global index of next instr to fetch
        self.fetch_q = 0             # fetch clock in quarter cycles
        self.bp_index = -1           # last retirement breakpoint (instr idx)
        self.bp_time = 0             # ... and its retire time (cycles)
        self.unresolved: deque[int] = deque()   # load indices, in order
        self.arrivals: Dict[int, int] = {}
        self.finished = False
        self.finish_time: Optional[int] = None
        # --- statistics ---
        self.loads_issued = 0
        self.stores_issued = 0
        self.stall_retries = 0

    # ------------------------------------------------------------------

    @property
    def instructions(self) -> int:
        """Instructions retired once finished (trace length in instrs)."""
        return self.index

    def ipc(self) -> float:
        if not self.finish_time:
            return 0.0
        return self.index / self.finish_time

    def telemetry_items(self) -> dict:
        """End-of-run counters exported as ``core<i>.*`` gauges."""
        return {
            "instructions": self.index,
            "loads_issued": self.loads_issued,
            "stores_issued": self.stores_issued,
            "rob_stall_retries": self.stall_retries,
            "finish_cycle": self.finish_time or 0,
            "ipc": self.ipc(),
        }

    def start(self) -> None:
        """Kick off the core at the current event time."""
        self.advance()

    # ------------------------------------------------------------------
    # Fetch engine
    # ------------------------------------------------------------------

    def _window_room(self) -> int:
        """Instructions fetchable before the ROB-full condition binds."""
        if not self.unresolved:
            return 1 << 30
        return self.unresolved[0] + self.config.rob_size - self.index

    def advance(self) -> None:
        """Run the fetch engine until it blocks or the trace ends."""
        if self.finished:
            return
        while True:
            record = self._next
            if record is None:
                if not self.unresolved:
                    self._finish()
                return
            room = self._window_room()
            if room <= 0:
                return  # ROB full behind the oldest outstanding load
            if self.gap_left > 0:
                take = min(self.gap_left, room)
                self.fetch_q += take
                self.index += take
                self.gap_left -= take
                if take == room:
                    return
            # Fetch the memory instruction itself.
            if self._window_room() <= 0:
                return
            self.fetch_q += 1
            instr_index = self.index
            self.index += 1
            fetch_time = self.fetch_q // 4
            if not record.is_write:
                self.unresolved.append(instr_index)
            self._next = next(self._records, None)
            if self._next is not None:
                self.gap_left = self._next.gap
            issue_at = max(self.events.now, fetch_time)
            self.events.schedule(issue_at,
                                 _IssueEvent(self, record, instr_index))

    # ------------------------------------------------------------------
    # Memory interface
    # ------------------------------------------------------------------

    def _issue(self, record: TraceRecord, instr_index: int) -> None:
        if record.is_write:
            result = self.uncore.access(self.core_id, True, record.address,
                                        wake=None)
            if result == STALL:
                self._retry(record, instr_index)
                return
            self.stores_issued += 1
            return
        # Load: completion resolves the instruction.
        wake = _LoadWake(self, instr_index)
        result = self.uncore.access(self.core_id, False, record.address,
                                    wake=wake)
        if result == STALL:
            self._retry(record, instr_index)
            return
        self.loads_issued += 1
        if result >= 0:
            self._resolve(instr_index, result)

    def _retry(self, record: TraceRecord, instr_index: int) -> None:
        self.stall_retries += 1
        self.events.schedule(self.events.now + self.config.retry_interval,
                             _IssueEvent(self, record, instr_index))

    # ------------------------------------------------------------------
    # Retirement bookkeeping
    # ------------------------------------------------------------------

    def _retire_linear(self, idx: int) -> int:
        """Retirement time of ``idx`` assuming no stalls after the last
        breakpoint (width instructions per cycle)."""
        return self.bp_time + ceil_div(max(0, idx - self.bp_index),
                                       self.config.width)

    def _resolve(self, instr_index: int, arrival: int) -> None:
        """A load's data is usable at ``arrival``."""
        self.arrivals[instr_index] = arrival
        progressed = False
        while self.unresolved and self.unresolved[0] in self.arrivals:
            idx = self.unresolved.popleft()
            time = self.arrivals.pop(idx)
            retire = max(time, self._retire_linear(idx))
            self.bp_index, self.bp_time = idx, retire
            # Refill gate: if fetch had hit the ROB-full wall for this
            # load, it resumes when the load retires.
            if self.index >= idx + self.config.rob_size:
                self.fetch_q = max(self.fetch_q, retire * 4)
            progressed = True
        if progressed:
            self.advance()

    def _finish(self) -> None:
        self.finished = True
        last = max(self._retire_linear(self.index - 1),
                   self.fetch_q // 4 + 1) if self.index else 0
        self.finish_time = last
        if self.on_finish is not None:
            self.on_finish(self)
