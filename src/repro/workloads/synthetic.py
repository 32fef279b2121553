"""Synthetic trace generator driven by a :class:`BenchmarkProfile`.

Traces are deterministic given (profile, core, seed): all randomness
comes from a seeded ``random.Random`` and per-line preferred words come
from a multiplicative hash, so every memory configuration replays the
identical instruction stream — the paper's methodology (same workload,
different memory system).
"""

from __future__ import annotations

import math
import random
import zlib
from collections import deque
from itertools import islice
from typing import Deque, Dict, Iterator, List

from repro.cpu.core import TraceRecord
from repro.dram.request import LINE_BYTES, WORD_BYTES, WORDS_PER_LINE
from repro.workloads.profiles import BenchmarkProfile

# Each core gets a disjoint 64 GB slice of the physical address space.
CORE_ADDRESS_STRIDE = 1 << 36
_HASH_MULT = 0x9E3779B97F4A7C15
_HASH_MASK = (1 << 64) - 1
_BUCKETS = 1024


def _word_lookup_table(weights: dict) -> List[int]:
    """Map hash buckets to words proportionally to ``weights``."""
    total = float(sum(weights.values()))
    table: List[int] = []
    acc = 0.0
    items = sorted(weights.items())
    for word, weight in items:
        acc += weight / total
        target = int(round(acc * _BUCKETS))
        while len(table) < target:
            table.append(word)
    while len(table) < _BUCKETS:
        table.append(items[-1][0])
    return table[:_BUCKETS]


# Word tables by chase-word distribution, shared read-only by every
# generator, the warm-L2 fill and adaptive-tag seeding. Keyed by the
# weights rather than the profile name, so a profile re-registered with
# other weights under the same name gets its own table.
_table_cache: Dict[tuple, List[int]] = {}


def word_table(weights: dict) -> List[int]:
    """The (cached, never mutated) lookup table for ``weights``."""
    key = tuple(sorted(weights.items()))
    table = _table_cache.get(key)
    if table is None:
        table = _table_cache[key] = _word_lookup_table(weights)
    return table


def preferred_word(line: int, table: List[int]) -> int:
    """Deterministic per-line preferred critical word."""
    h = (line * _HASH_MULT) & _HASH_MASK
    return table[(h >> 32) % _BUCKETS]


class TraceGenerator:
    """Generates the instruction trace for one core of one benchmark.

    All records come from one loop (:func:`_record_stream`) that binds
    the profile constants and RNG methods once; :meth:`record`,
    :meth:`records` and :meth:`iter_records` pull from that same loop,
    so any mix of them sees one continuous, deterministic stream.
    """

    def __init__(self, profile: BenchmarkProfile, core_id: int,
                 seed: int = 42) -> None:
        self.profile = profile
        self.core_id = core_id
        self.rng = _trace_rng(profile, core_id, seed)
        self.word_table = word_table(profile.chase_word_weights)
        self._stream = _record_stream(profile, core_id, self.rng,
                                      self.word_table)

    def record(self) -> TraceRecord:
        """Produce the next trace record."""
        return next(self._stream)

    def records(self, count: int) -> List[TraceRecord]:
        """The next ``count`` records, as a list."""
        return list(islice(self._stream, count))

    def iter_records(self, count: int) -> Iterator[TraceRecord]:
        """Yield the next ``count`` records lazily.

        Same records as :meth:`records`: all randomness lives in this
        generator's private RNG, so pulling records one at a time
        (interleaved with other cores' pulls) produces byte-identical
        traces to materializing up front.
        """
        return islice(self._stream, count)


def _trace_rng(profile: BenchmarkProfile, core_id: int,
               seed: int) -> random.Random:
    """Check ``profile`` can drive a trace; seed core ``core_id``'s RNG."""
    if profile.footprint_lines < 1:
        raise ValueError(f"{profile.name}: footprint_lines must be >= 1")
    if profile.hot_fraction and min(profile.hot_lines,
                                    profile.footprint_lines) < 1:
        raise ValueError(f"{profile.name}: hot_lines must be >= 1")
    # zlib.crc32 is stable across processes (unlike hash(), which is
    # randomised per interpreter) — required for reproducible traces
    # and for the on-disk result cache to be meaningful.
    key = f"{profile.name}/{core_id}/{seed}".encode()
    return random.Random(zlib.crc32(key) or 1)


# ``randrange(n)`` for a positive int ``n`` is ``_randbelow(n)``, which
# is CPython's ``_randbelow_with_getrandbits``: draw ``getrandbits(k)``
# with ``k = n.bit_length()`` until the draw is below ``n``. The loops
# below inline that rejection loop with ``k`` precomputed;
# tests/test_workloads.py checks it against ``Random._randbelow``.
_WORD_BITS = WORDS_PER_LINE.bit_length()
_OTHER_WORD_BITS = (WORDS_PER_LINE - 1).bit_length()
_DELAY_BITS = (4).bit_length()


def _record_stream(p: BenchmarkProfile, core_id: int, rng: random.Random,
                   table: List[int]) -> Iterator[TraceRecord]:
    """The endless record stream of one core.

    Each record is one access — a due second touch, else a hot, stream
    or chase access — then its write flag and its gap, in that draw
    order. ``randrange(n)`` is inlined as the ``getrandbits`` rejection
    loop above and ``expovariate(lambd)`` as
    ``-log(1 - random()) / lambd``, with the same draws and the same
    float operations.

    :func:`_page_stream` makes exactly these draws in this order for
    page-heat profiling: a change to one loop's draws must be made to
    the other.
    """
    random_ = rng.random
    getrandbits = rng.getrandbits
    log = math.log
    new_record = tuple.__new__
    base = core_id * CORE_ADDRESS_STRIDE
    footprint = p.footprint_lines
    footprint_bits = footprint.bit_length()
    footprint_words = footprint * WORDS_PER_LINE
    hot_fraction = p.hot_fraction
    hot_span = min(p.hot_lines, footprint)
    hot_bits = hot_span.bit_length()
    stream_fraction = p.stream_fraction
    stride = p.stream_stride_words
    run_lambd = 1.0 / p.stream_run_lines
    chase_popularity = p.chase_popularity
    popular = max(1, int(footprint * 0.076))
    popular_bits = popular.bit_length()
    chase_line_bias = p.chase_line_bias
    chase_second_touch = p.chase_second_touch
    write_fraction = p.write_fraction
    mean_gap = p.mean_gap
    gap_lambd = 1.0 / mean_gap if mean_gap > 0 else 0.0
    gap_cap = max(1000, int(6 * mean_gap))
    # Streams: word cursor within the footprint, and accesses left
    # before the stream jumps (>= 4 so prefetchers can train).
    cursors: List[int] = []
    runs_left: List[int] = []
    for _ in range(max(1, p.num_streams)):
        line = getrandbits(footprint_bits)
        while line >= footprint:
            line = getrandbits(footprint_bits)
        cursors.append(line * WORDS_PER_LINE)
        runs_left.append(max(4, int(-log(1.0 - random_()) / run_lambd)))
    num_streams = len(cursors)
    next_stream = 0
    # Scheduled "second touch" accesses: [records_remaining, address].
    queued: Deque[List[int]] = deque()

    while True:
        if queued and queued[0][0] <= 0:
            address = queued.popleft()[1]
        else:
            if queued:
                queued[0][0] -= 1
            if hot_fraction and random_() < hot_fraction:
                # Hot lines keep stable preferred words like the
                # chase (criticality regularity holds for hot data
                # too, Fig 3).
                line = getrandbits(hot_bits)
                while line >= hot_span:
                    line = getrandbits(hot_bits)
                if random_() < chase_line_bias:
                    word = table[(((line * _HASH_MULT) & _HASH_MASK)
                                  >> 32) % _BUCKETS]
                else:
                    word = getrandbits(_WORD_BITS)
                    while word >= WORDS_PER_LINE:
                        word = getrandbits(_WORD_BITS)
                address = base + line * LINE_BYTES + word * WORD_BYTES
            elif random_() < stream_fraction:
                i = next_stream
                next_stream = (i + 1) % num_streams
                word_index = cursors[i]
                cursor = word_index + stride
                left = runs_left[i] - 1
                if left <= 0 or cursor >= footprint_words:
                    line = getrandbits(footprint_bits)
                    while line >= footprint:
                        line = getrandbits(footprint_bits)
                    cursor = line * WORDS_PER_LINE
                    left = max(4, int(-log(1.0 - random_()) / run_lambd))
                cursors[i] = cursor
                runs_left[i] = left
                address = base + word_index * WORD_BYTES
            else:
                if random_() < chase_popularity:
                    # Page-popularity skew: a small region absorbs a
                    # disproportionate share of accesses (Sec 7.1's
                    # profiling target).
                    line = getrandbits(popular_bits)
                    while line >= popular:
                        line = getrandbits(popular_bits)
                else:
                    line = getrandbits(footprint_bits)
                    while line >= footprint:
                        line = getrandbits(footprint_bits)
                if random_() < chase_line_bias:
                    word = table[(((line * _HASH_MULT) & _HASH_MASK)
                                  >> 32) % _BUCKETS]
                else:
                    word = getrandbits(_WORD_BITS)
                    while word >= WORDS_PER_LINE:
                        word = getrandbits(_WORD_BITS)
                address = base + line * LINE_BYTES
                if random_() < chase_second_touch:
                    other = getrandbits(_OTHER_WORD_BITS)
                    while other >= WORDS_PER_LINE - 1:
                        other = getrandbits(_OTHER_WORD_BITS)
                    other = (word + 1 + other) % WORDS_PER_LINE
                    delay = getrandbits(_DELAY_BITS)
                    while delay >= 4:
                        delay = getrandbits(_DELAY_BITS)
                    queued.append([2 + delay, address + other * WORD_BYTES])
                address += word * WORD_BYTES
        is_write = random_() < write_fraction
        if mean_gap > 0:
            gap = int(-log(1.0 - random_()) / gap_lambd)
            if gap > gap_cap:
                gap = gap_cap
        else:
            gap = 0
        yield new_record(TraceRecord, (gap, is_write, address))


def trace_pages(profile: BenchmarkProfile, core_id: int, seed: int,
                count: int, page_lines: int) -> List[int]:
    """Page numbers of the first ``count`` records of a core's trace.

    Entry *i* is ``TraceGenerator(profile, core_id, seed)``'s record
    *i* address ``// (page_lines * LINE_BYTES)``, for a power-of-two
    ``page_lines``; page-heat profiling needs nothing else of a record.
    """
    if page_lines < 1 or page_lines & (page_lines - 1):
        raise ValueError(f"page_lines must be a power of two: {page_lines}")
    rng = _trace_rng(profile, core_id, seed)
    return _page_stream(profile, core_id, rng, count,
                        page_lines.bit_length() - 1)


def _page_stream(p: BenchmarkProfile, core_id: int, rng: random.Random,
                 count: int, line_shift: int) -> List[int]:
    """:func:`_record_stream`'s pages, without building its records.

    Makes exactly :func:`_record_stream`'s draws in the same order — a
    change to one loop's draws must be made to the other — but keeps
    only the page of each access: ``line >> line_shift`` of a hot,
    chase or second-touch line, the word index shifted by as much
    more for a stream. The gap's ``log``, the write compare, the
    preferred word and the record are skipped. Kept apart from
    :func:`_record_stream` because a branch on its caller there would
    slow every simulation.
    """
    random_ = rng.random
    getrandbits = rng.getrandbits
    log = math.log
    pages: List[int] = []
    add = pages.append
    base_page = core_id * CORE_ADDRESS_STRIDE // (LINE_BYTES << line_shift)
    word_shift = line_shift + _WORD_BITS - 1
    footprint = p.footprint_lines
    footprint_bits = footprint.bit_length()
    footprint_words = footprint * WORDS_PER_LINE
    hot_fraction = p.hot_fraction
    hot_span = min(p.hot_lines, footprint)
    hot_bits = hot_span.bit_length()
    stream_fraction = p.stream_fraction
    stride = p.stream_stride_words
    run_lambd = 1.0 / p.stream_run_lines
    chase_popularity = p.chase_popularity
    popular = max(1, int(footprint * 0.076))
    popular_bits = popular.bit_length()
    chase_line_bias = p.chase_line_bias
    chase_second_touch = p.chase_second_touch
    has_gap = p.mean_gap > 0
    cursors: List[int] = []
    runs_left: List[int] = []
    for _ in range(max(1, p.num_streams)):
        line = getrandbits(footprint_bits)
        while line >= footprint:
            line = getrandbits(footprint_bits)
        cursors.append(line * WORDS_PER_LINE)
        runs_left.append(max(4, int(-log(1.0 - random_()) / run_lambd)))
    num_streams = len(cursors)
    next_stream = 0
    # Scheduled second touches: [records_remaining, page].
    queued: Deque[List[int]] = deque()

    for _ in range(count):
        if queued and queued[0][0] <= 0:
            add(queued.popleft()[1])
        else:
            if queued:
                queued[0][0] -= 1
            if hot_fraction and random_() < hot_fraction:
                line = getrandbits(hot_bits)
                while line >= hot_span:
                    line = getrandbits(hot_bits)
                if random_() >= chase_line_bias:
                    while getrandbits(_WORD_BITS) >= WORDS_PER_LINE:
                        pass
                add(base_page + (line >> line_shift))
            elif random_() < stream_fraction:
                i = next_stream
                next_stream = (i + 1) % num_streams
                word_index = cursors[i]
                cursor = word_index + stride
                left = runs_left[i] - 1
                if left <= 0 or cursor >= footprint_words:
                    line = getrandbits(footprint_bits)
                    while line >= footprint:
                        line = getrandbits(footprint_bits)
                    cursor = line * WORDS_PER_LINE
                    left = max(4, int(-log(1.0 - random_()) / run_lambd))
                cursors[i] = cursor
                runs_left[i] = left
                add(base_page + (word_index >> word_shift))
            else:
                if random_() < chase_popularity:
                    line = getrandbits(popular_bits)
                    while line >= popular:
                        line = getrandbits(popular_bits)
                else:
                    line = getrandbits(footprint_bits)
                    while line >= footprint:
                        line = getrandbits(footprint_bits)
                if random_() >= chase_line_bias:
                    while getrandbits(_WORD_BITS) >= WORDS_PER_LINE:
                        pass
                page = base_page + (line >> line_shift)
                if random_() < chase_second_touch:
                    while getrandbits(_OTHER_WORD_BITS) >= WORDS_PER_LINE - 1:
                        pass
                    delay = getrandbits(_DELAY_BITS)
                    while delay >= 4:
                        delay = getrandbits(_DELAY_BITS)
                    queued.append([2 + delay, page])
                add(page)
        # The write flag's draw, then the gap's.
        random_()
        if has_gap:
            random_()
    return pages


def preferred_word_for_global_line(profile: BenchmarkProfile,
                                   global_line: int) -> int:
    """Preferred critical word of a global line address.

    The generator draws per-line preferred words from the profile's
    chase distribution using the *core-local* line index; this recovers
    the same word from a global line number (as seen by the memory
    system), for L2 prewarming and adaptive-tag seeding.
    """
    lines_per_core = CORE_ADDRESS_STRIDE // LINE_BYTES
    local_line = global_line % lines_per_core
    return preferred_word(local_line, word_table(profile.chase_word_weights))


def expected_critical_word(profile: BenchmarkProfile, global_line: int,
                           rng: random.Random) -> int:
    """Sample the critical word a fetch of this line would observe."""
    if rng.random() < profile.stream_fraction:
        return 0
    if rng.random() < profile.chase_line_bias:
        return preferred_word_for_global_line(profile, global_line)
    return rng.randrange(WORDS_PER_LINE)


def records_for_reads(profile: BenchmarkProfile, target_dram_reads: int) -> int:
    """Trace length that should yield about ``target_dram_reads`` demand
    fetches on a cold cache."""
    est = profile.estimated_misses_per_record()
    return max(64, int(target_dram_reads / est))


def generate_core_trace(profile: BenchmarkProfile, core_id: int,
                        target_dram_reads: int,
                        seed: int = 42) -> List[TraceRecord]:
    """Deterministic trace sized for roughly ``target_dram_reads``."""
    generator = TraceGenerator(profile, core_id, seed)
    return generator.records(records_for_reads(profile, target_dram_reads))


def stream_core_trace(profile: BenchmarkProfile, core_id: int,
                      target_dram_reads: int,
                      seed: int = 42) -> Iterator[TraceRecord]:
    """Streaming :func:`generate_core_trace`: same records, same order,
    no up-front list — cores pull records as they fetch."""
    generator = TraceGenerator(profile, core_id, seed)
    return generator.iter_records(records_for_reads(profile, target_dram_reads))
