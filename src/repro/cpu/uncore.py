"""Uncore: private L1s, shared L2, MSHRs, prefetcher, memory interface.

This is the glue between cores and a :class:`~repro.memsys.base.MemorySystem`.
It implements:

* the inclusive two-level hierarchy of paper Table 1 (32 KB 2-way private
  L1s, 4 MB 8-way shared L2, both 64 B lines),
* write-allocate write-back semantics — a store miss fetches the line
  (a demand read with no waiter) and dirties it; dirty L2 evictions
  become DRAM writes carrying the line's observed critical word,
* MSHR allocation with back-pressure (core retries on STALL), secondary-
  miss merging, and the CWF wake protocol (primary waiters wake on the
  critical word, secondaries on the completed fill),
* a per-core stride prefetcher whose requests go out tagged low-priority.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Deque, List, Optional, Tuple

from repro.cpu.cache import (
    IMAGE_DIRTY,
    IMAGE_WORD,
    L1_CONFIG,
    L2_CONFIG,
    Cache,
    CacheConfig,
    back_invalidate,
)
from repro.cpu.core import PENDING, STALL
from repro.cpu.mshr import MSHRFile
from repro.cpu.prefetch import PrefetcherConfig, StridePrefetcher
from repro.dram.request import LINE_BYTES, WORD_BYTES, WORDS_PER_LINE
from repro.memsys.base import MemorySystem
from repro.util.events import EventQueue

WakeFn = Callable[[int], None]


@dataclass(frozen=True)
class UncoreConfig:
    l1: CacheConfig = L1_CONFIG
    l2: CacheConfig = L2_CONFIG
    mshr_capacity: int = 256
    prefetcher: PrefetcherConfig = PrefetcherConfig()
    writeback_retry_interval: int = 32
    # Fixed on-chip path cost of a DRAM access (L2-miss handling, MC
    # front end, response interconnect) added to every fill part.
    dram_path_latency: int = 36
    # Ablation: without MSHR split-transfer support, loads wake only
    # when the whole line arrives (no early critical-word wake).
    critical_word_wakeup: bool = True


class Uncore:
    """Shared cache hierarchy in front of a memory system."""

    __slots__ = ("config", "memory", "events", "l1s", "l2", "mshrs",
                 "prefetchers", "_writeback_overflow",
                 "_writeback_retry_scheduled", "demand_miss_observer",
                 "dram_reads", "dram_writes", "prefetch_drops",
                 "_l1_latency", "_l2_latency", "_path_latency",
                 "_cw_wakeup", "_san")

    def __init__(self, num_cores: int, memory: MemorySystem,
                 events: EventQueue,
                 config: UncoreConfig = UncoreConfig()) -> None:
        self.config = config
        self.memory = memory
        self.events = events
        self.l1s: List[Cache] = [Cache(config.l1) for _ in range(num_cores)]
        self.l2 = Cache(config.l2)
        self.mshrs = MSHRFile(config.mshr_capacity)
        self.prefetchers: List[StridePrefetcher] = [
            StridePrefetcher(config.prefetcher) for _ in range(num_cores)
        ]
        # Writebacks that bounced off a full write queue.
        self._writeback_overflow: Deque[Tuple[int, int, int]] = deque()
        self._writeback_retry_scheduled = False
        # Optional observer called on every DRAM-bound demand read:
        # (core_id, line_address, critical_word). Used by the criticality
        # profiler (paper Figures 3 and 4).
        self.demand_miss_observer: Optional[Callable[[int, int, int], None]] = None
        # --- statistics ---
        self.dram_reads = 0
        self.dram_writes = 0
        self.prefetch_drops = 0
        # Per-access latency constants, flattened off the frozen config.
        self._l1_latency = config.l1.latency
        self._l2_latency = config.l2.latency
        self._path_latency = config.dram_path_latency
        self._cw_wakeup = config.critical_word_wakeup
        # Optional protocol sanitizer (read-conservation invariant);
        # attached by SimulationSystem.attach_sanitizer.
        self._san = None

    # ------------------------------------------------------------------
    # Core-facing access path
    # ------------------------------------------------------------------

    def access(self, core_id: int, is_write: bool, address: int,
               wake: Optional[WakeFn]) -> int:
        """One memory instruction. Returns the completion time on a
        hit, else :data:`~repro.cpu.core.PENDING` or
        :data:`~repro.cpu.core.STALL`."""
        now = self.events.now
        line = address // LINE_BYTES
        word = (address // WORD_BYTES) % WORDS_PER_LINE

        if self.l1s[core_id].lookup(line, is_write) is not None:
            return now + self._l1_latency

        l2_meta = self.l2.lookup(line, is_write)
        self._train_prefetcher(core_id, line)
        if l2_meta is not None:
            self._fill_l1(core_id, line, l2_meta & IMAGE_WORD)
            return now + self._l2_latency

        # L2 miss -> MSHR.
        entry = self.mshrs.get(line)
        if entry is not None:
            self.mshrs.merge(entry, wake if not is_write else None,
                             is_prefetch=False, write_intent=is_write,
                             word=word, now=now)
            return PENDING

        entry = self.mshrs.allocate(line, critical_word=word,
                                    core_id=core_id,
                                    is_prefetch=False,
                                    write_intent=is_write)
        if entry is None:
            return STALL
        if not is_write and wake is not None:
            entry.primary_waiters.append(wake)
        # The fill callbacks are partials of the plain methods: one C
        # object each, no helper class and no bound method.
        accepted = self.memory.issue_read(
            line_address=line, critical_word=word, core_id=core_id,
            is_prefetch=False,
            on_critical=partial(Uncore._on_critical, self, line),
            on_complete=partial(Uncore._on_complete, self, line))
        if not accepted:
            # Roll the allocation back; the core will retry.
            self.mshrs.deallocate(line)
            return STALL
        self.dram_reads += 1
        if self._san is not None:
            self._san.note_read_issued(line, self.events.now)
        if self.demand_miss_observer is not None:
            self.demand_miss_observer(core_id, line, word)
        return PENDING

    # ------------------------------------------------------------------
    # Fill path
    # ------------------------------------------------------------------

    def _on_critical(self, line: int, time: int) -> None:
        entry = self.mshrs.get(line)
        if entry is None:
            return
        if not self._cw_wakeup:
            return  # ablation: wait for the full line
        time += self._path_latency
        entry.critical_time = time
        entry.wake_primaries(time)

    def _on_complete(self, line: int, time: int) -> None:
        entry = self.mshrs.get(line)
        if entry is None:
            return
        time += self._path_latency
        entry.complete_time = time
        released = self.mshrs.release(line, time)
        if self._san is not None:
            self._san.note_read_retired(line, time)
        victim = self.l2.insert(line, released.write_intent,
                                released.critical_word)
        if victim is not None:
            self._handle_l2_eviction(*victim)
        if not released.is_prefetch:
            self._fill_l1(released.core_id, line, released.critical_word)

    def _fill_l1(self, core_id: int, line: int, critical_word: int) -> None:
        """Fill ``line`` clean into ``core_id``'s L1."""
        victim = self.l1s[core_id].insert(line, False, critical_word)
        if victim is not None:
            victim_line, meta = victim
            # Inclusive hierarchy: a dirty victim is (normally) in L2.
            if meta >= IMAGE_DIRTY and not self.l2.mark_dirty(victim_line):
                self._issue_writeback(victim_line, meta & IMAGE_WORD,
                                      core_id)

    def _handle_l2_eviction(self, line: int, meta: int) -> None:
        # Back-invalidate all L1 copies (inclusion).
        if back_invalidate(self.l1s, line) or meta >= IMAGE_DIRTY:
            self._issue_writeback(line, meta & IMAGE_WORD, core_id=0)

    # ------------------------------------------------------------------
    # Writebacks
    # ------------------------------------------------------------------

    def _issue_writeback(self, line: int, critical_word: int,
                         core_id: int) -> None:
        if self.memory.issue_write(line, critical_word, core_id):
            self.dram_writes += 1
            return
        self._writeback_overflow.append((line, critical_word, core_id))
        self._schedule_writeback_retry()

    def _schedule_writeback_retry(self) -> None:
        if self._writeback_retry_scheduled:
            return
        self._writeback_retry_scheduled = True
        self.events.schedule_after(self.config.writeback_retry_interval,
                                   self._drain_writeback_overflow)

    def _drain_writeback_overflow(self) -> None:
        self._writeback_retry_scheduled = False
        while self._writeback_overflow:
            line, critical_word, core_id = self._writeback_overflow[0]
            if not self.memory.issue_write(line, critical_word, core_id):
                self._schedule_writeback_retry()
                return
            self.dram_writes += 1
            self._writeback_overflow.popleft()

    # ------------------------------------------------------------------
    # Prefetch
    # ------------------------------------------------------------------

    def _train_prefetcher(self, core_id: int, line: int) -> None:
        targets = self.prefetchers[core_id].observe(line)
        for target in targets:
            self._issue_prefetch(core_id, target)

    def _issue_prefetch(self, core_id: int, line: int) -> None:
        if self.l2.peek(line) is not None or self.mshrs.get(line) is not None:
            return
        if self.mshrs.full:
            self.prefetch_drops += 1
            return
        entry = self.mshrs.allocate(line, critical_word=0, core_id=core_id,
                                    is_prefetch=True, write_intent=False)
        accepted = self.memory.issue_read(
            line_address=line, critical_word=0, core_id=core_id,
            is_prefetch=True,
            on_critical=partial(Uncore._on_critical, self, line),
            on_complete=partial(Uncore._on_complete, self, line))
        if not accepted:
            self.mshrs.deallocate(line)
            self.prefetch_drops += 1
            return
        self.dram_reads += 1
        if self._san is not None:
            self._san.note_read_issued(line, self.events.now)
