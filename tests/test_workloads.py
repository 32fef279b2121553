"""Benchmark profiles and the synthetic trace generator."""

import dataclasses
import random
import statistics
import zlib
from collections import Counter, deque
from dataclasses import dataclass
from itertools import islice
from typing import Deque, List, Optional, Tuple

import pytest

from repro.core.placement import PAGE_LINES, rank_pages
from repro.cpu.core import TraceRecord
from repro.dram.request import LINE_BYTES, WORD_BYTES, WORDS_PER_LINE
from repro.memsys.registry import build_memory
from repro.sim.config import SimConfig
from repro.util.events import EventQueue
from repro.workloads.profiles import (
    BenchmarkProfile,
    HIGH_BANDWIDTH,
    PROFILES,
    SUITE_NPB,
    SUITE_SPEC,
    benchmark_names,
    profile_for,
)
from repro.workloads.synthetic import (
    CORE_ADDRESS_STRIDE,
    TraceGenerator,
    expected_critical_word,
    generate_core_trace,
    preferred_word,
    preferred_word_for_global_line,
    records_for_reads,
    trace_pages,
    _word_lookup_table,
)


class TestProfiles:
    def test_suite_size(self):
        # 18 SPEC + GemsFDTD + 6 NPB + STREAM = 26 programs.
        assert len(PROFILES) == 26
        assert len(benchmark_names(SUITE_SPEC)) == 19
        assert len(benchmark_names(SUITE_NPB)) == 6

    def test_all_fields_sane(self):
        for profile in PROFILES.values():
            assert 0 <= profile.stream_fraction <= 1
            assert profile.mean_gap > 0
            assert profile.footprint_lines > 0
            assert 0 <= profile.write_fraction < 1
            assert abs(sum([profile.stream_fraction,
                            profile.chase_fraction]) - 1.0) < 1e-9

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            profile_for("nonexistent")

    def test_unknown_benchmark_suggests_close_match(self):
        with pytest.raises(KeyError) as excinfo:
            profile_for("lesliee3d")
        assert "did you mean" in str(excinfo.value)
        assert "leslie3d" in str(excinfo.value)

    def test_high_bandwidth_group_is_intense(self):
        heavy = [PROFILES[name].mean_gap for name in HIGH_BANDWIDTH]
        light = [p.mean_gap for n, p in PROFILES.items()
                 if n not in HIGH_BANDWIDTH]
        assert max(heavy) < statistics.mean(light)

    def test_validation_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            BenchmarkProfile(name="x", suite="spec2006", mean_gap=10,
                             stream_fraction=1.5)

    def test_estimated_misses_positive(self):
        for profile in PROFILES.values():
            assert profile.estimated_misses_per_record() > 0


class TestWordTables:
    def test_lookup_table_respects_weights(self):
        table = _word_lookup_table({0: 3.0, 1: 1.0})
        f0 = table.count(0) / len(table)
        assert 0.70 < f0 < 0.80

    def test_preferred_word_deterministic(self):
        table = _word_lookup_table({w: 1.0 for w in range(8)})
        assert [preferred_word(line, table) for line in range(100)] == \
               [preferred_word(line, table) for line in range(100)]

    def test_global_line_recovery_matches_generator(self):
        profile = profile_for("mcf")
        gen = TraceGenerator(profile, core_id=3)
        lines_per_core = CORE_ADDRESS_STRIDE // 64
        for local in (0, 17, 12345):
            global_line = 3 * lines_per_core + local
            assert (preferred_word_for_global_line(profile, global_line)
                    == preferred_word(local, gen.word_table))

    def test_cores_share_one_word_table(self):
        profile = profile_for("mcf")
        tables = [TraceGenerator(profile, core_id).word_table
                  for core_id in range(4)]
        assert all(table is tables[0] for table in tables)
        assert tables[0] == _word_lookup_table(profile.chase_word_weights)

    def test_table_follows_the_weights_not_the_name(self):
        from repro.cpu.cache import IMAGE_DIRTY
        from repro.sim.system import _warm_image

        mcf = profile_for("mcf")
        preferred_word_for_global_line(mcf, 5)   # mcf's table is cached
        # Same name, other chase distribution: every chase access and
        # every warm line must use word 3.
        only3 = dataclasses.replace(mcf, chase_word_weights={3: 1.0},
                                    stream_fraction=0.0, chase_line_bias=1.0)
        assert TraceGenerator(only3, 0).word_table == [3] * 1024
        assert {preferred_word_for_global_line(only3, line)
                for line in range(256)} == {3}
        (_, _, metas), _, _ = _warm_image(only3, 2, 64, 4)
        assert {meta & ~IMAGE_DIRTY for meta in metas} == {3}


class TestGenerator:
    def test_deterministic(self):
        a = TraceGenerator(profile_for("mcf"), 0, seed=1).records(500)
        b = TraceGenerator(profile_for("mcf"), 0, seed=1).records(500)
        assert a == b

    def test_seed_changes_trace(self):
        a = TraceGenerator(profile_for("mcf"), 0, seed=1).records(500)
        b = TraceGenerator(profile_for("mcf"), 0, seed=2).records(500)
        assert a != b

    def test_cores_have_disjoint_address_spaces(self):
        t0 = TraceGenerator(profile_for("mcf"), 0).records(300)
        t1 = TraceGenerator(profile_for("mcf"), 1).records(300)
        assert all(r.address < CORE_ADDRESS_STRIDE for r in t0)
        assert all(CORE_ADDRESS_STRIDE <= r.address < 2 * CORE_ADDRESS_STRIDE
                   for r in t1)

    def test_addresses_within_footprint(self):
        profile = profile_for("bzip2")
        trace = TraceGenerator(profile, 0).records(2000)
        limit = profile.footprint_lines * 64
        assert all(r.address < limit for r in trace)

    def test_gap_mean_approximates_profile(self):
        profile = profile_for("leslie3d")
        trace = TraceGenerator(profile, 0).records(4000)
        mean = statistics.mean(r.gap for r in trace)
        assert 0.7 * profile.mean_gap < mean < 1.3 * profile.mean_gap

    def test_write_fraction_approximated(self):
        profile = profile_for("stream")
        trace = TraceGenerator(profile, 0).records(4000)
        frac = sum(r.is_write for r in trace) / len(trace)
        assert abs(frac - profile.write_fraction) < 0.05

    def test_streaming_profile_biases_word0(self):
        # First touches of lines in a stride-8 stream are word 0.
        profile = profile_for("leslie3d")
        trace = TraceGenerator(profile, 0).records(4000)
        words = [(r.address // 8) % 8 for r in trace]
        assert words.count(0) / len(words) > 0.7

    def test_chase_profile_spreads_words(self):
        profile = profile_for("mcf")
        trace = TraceGenerator(profile, 0).records(4000)
        words = [(r.address // 8) % 8 for r in trace]
        assert words.count(0) / len(words) < 0.6
        assert len(set(words)) == 8

    def test_second_touches_hit_same_line(self):
        profile = profile_for("omnetpp")
        trace = TraceGenerator(profile, 0, seed=5).records(6000)
        lines = [r.address // 64 for r in trace]
        repeats = sum(1 for i, line in enumerate(lines)
                      if line in lines[max(0, i - 8):i])
        assert repeats > 20  # scheduled second touches land nearby


# ---------------------------------------------------------------------------
# Reference generator: the per-method formulation the single-loop
# TraceGenerator replaced. Every draw, in order, must match it.
# ---------------------------------------------------------------------------


@dataclass
class _Stream:
    cursor_word: int   # word index within the core's footprint
    stride: int
    run_left: int = 0  # accesses before the stream jumps elsewhere


class _ReferenceGenerator:
    def __init__(self, profile: BenchmarkProfile, core_id: int,
                 seed: int = 42) -> None:
        self.profile = profile
        key = f"{profile.name}/{core_id}/{seed}".encode()
        self.rng = random.Random(zlib.crc32(key) or 1)
        self.base = core_id * CORE_ADDRESS_STRIDE
        self.word_table = _word_lookup_table(profile.chase_word_weights)
        self.footprint_words = profile.footprint_lines * WORDS_PER_LINE
        self.streams: List[_Stream] = [
            _Stream(cursor_word=self._random_line_start(),
                    stride=profile.stream_stride_words,
                    run_left=self._run_length())
            for _ in range(max(1, profile.num_streams))
        ]
        self._next_stream = 0
        self._queued: Deque[Tuple[int, int]] = deque()

    def _random_line_start(self) -> int:
        line = self.rng.randrange(self.profile.footprint_lines)
        return line * WORDS_PER_LINE

    def _gap(self) -> int:
        mean = self.profile.mean_gap
        if mean <= 0:
            return 0
        cap = max(1000, int(6 * mean))
        return min(cap, int(self.rng.expovariate(1.0 / mean)))

    def _address(self, line: int, word: int) -> int:
        return self.base + line * LINE_BYTES + word * WORD_BYTES

    def _run_length(self) -> int:
        mean = self.profile.stream_run_lines
        return max(4, int(self.rng.expovariate(1.0 / mean)))

    def _stream_access(self) -> int:
        stream = self.streams[self._next_stream]
        self._next_stream = (self._next_stream + 1) % len(self.streams)
        word_index = stream.cursor_word
        stream.cursor_word += stream.stride
        stream.run_left -= 1
        if stream.run_left <= 0 or stream.cursor_word >= self.footprint_words:
            stream.cursor_word = self._random_line_start()
            stream.run_left = self._run_length()
        line, word = divmod(word_index, WORDS_PER_LINE)
        return self._address(line, word)

    def _chase_access(self) -> int:
        p = self.profile
        if self.rng.random() < p.chase_popularity:
            popular = max(1, int(p.footprint_lines * 0.076))
            line = self.rng.randrange(popular)
        else:
            line = self.rng.randrange(p.footprint_lines)
        if self.rng.random() < p.chase_line_bias:
            word = preferred_word(line, self.word_table)
        else:
            word = self.rng.randrange(WORDS_PER_LINE)
        if self.rng.random() < p.chase_second_touch:
            other = (word + 1 + self.rng.randrange(WORDS_PER_LINE - 1)) \
                % WORDS_PER_LINE
            delay = 2 + self.rng.randrange(4)
            self._queued.append((delay, self._address(line, other)))
        return self._address(line, word)

    def _hot_access(self) -> int:
        p = self.profile
        line = self.rng.randrange(min(p.hot_lines, p.footprint_lines))
        if self.rng.random() < p.chase_line_bias:
            word = preferred_word(line, self.word_table)
        else:
            word = self.rng.randrange(WORDS_PER_LINE)
        return self._address(line, word)

    def record(self) -> TraceRecord:
        p = self.profile
        rng = self.rng
        address: Optional[int] = None
        if self._queued:
            remaining, addr = self._queued[0]
            if remaining <= 0:
                self._queued.popleft()
                address = addr
            else:
                self._queued[0] = (remaining - 1, addr)
        if address is None:
            if p.hot_fraction and rng.random() < p.hot_fraction:
                address = self._hot_access()
            elif rng.random() < p.stream_fraction:
                address = self._stream_access()
            else:
                address = self._chase_access()
        is_write = rng.random() < p.write_fraction
        return TraceRecord(gap=self._gap(), is_write=is_write,
                           address=address)

    def records(self, count: int) -> List[TraceRecord]:
        return [self.record() for _ in range(count)]


REFERENCE_RECORDS = 1500


class TestReferenceEquivalence:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_records_match_reference(self, name):
        profile = profile_for(name)
        for core_id in (0, 5):
            for seed in (1, 42):
                expected = _ReferenceGenerator(profile, core_id, seed) \
                    .records(REFERENCE_RECORDS)
                got = TraceGenerator(profile, core_id, seed) \
                    .records(REFERENCE_RECORDS)
                assert got == expected, (name, core_id, seed)

    @pytest.mark.parametrize("name", ["mcf", "leslie3d", "omnetpp", "is"])
    def test_mixed_pulls_share_one_stream(self, name):
        profile = profile_for(name)
        expected = _ReferenceGenerator(profile, 2, 7).records(1200)
        gen = TraceGenerator(profile, 2, 7)
        lazy = gen.iter_records(300)
        got = [gen.record()]
        got += gen.records(100)
        got += list(islice(lazy, 50))   # a lazy view drawn mid-way
        got.append(gen.record())
        got += list(lazy)               # the rest of its 300
        got += list(gen.iter_records(400))
        got += gen.records(1200 - len(got))
        assert got == expected
        assert gen.records(0) == []

    def test_invalid_footprint_rejected(self):
        profile = BenchmarkProfile(name="x", suite="spec2006", mean_gap=10,
                                   stream_fraction=0.5, footprint_lines=0)
        with pytest.raises(ValueError, match="footprint_lines"):
            TraceGenerator(profile, 0)


class TestInlinedRandbelow:
    """The trace and warm-up loops inline ``randrange(n)`` as a
    ``getrandbits(n.bit_length())`` rejection loop. That is CPython's
    ``Random._randbelow``; if a future CPython draws differently, every
    trace changes and this test says why."""

    @pytest.mark.parametrize("n", sorted(
        {1, 2, 3, 4, 7, 8}
        | {2 ** k + d for k in (4, 10, 17, 30, 40) for d in (-1, 1)}))
    def test_rejection_loop_matches_randbelow(self, n):
        reference = random.Random(n)
        inlined = random.Random(n)
        getrandbits = inlined.getrandbits
        k = n.bit_length()
        expected, got = [], []
        for _ in range(500):
            expected.append(reference._randbelow(n))
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            got.append(r)
        assert got == expected
        assert inlined.getstate() == reference.getstate()
        assert random.Random(n).randrange(n) == expected[0]


PAGE_RECORDS = 4000


def _most_common_order(page_streams):
    """Reference page ranking: ``Counter.most_common()``'s order."""
    counts = Counter()
    for pages in page_streams:
        counts.update(pages)
    return [page for page, _ in counts.most_common()]


class TestRankPages:
    """``rank_pages`` sorts the pages themselves; hot first, ties in
    first-seen order, exactly as ``most_common()`` ranks them."""

    @pytest.mark.parametrize("name", benchmark_names())
    def test_matches_most_common_order(self, name):
        profile = profile_for(name)
        for seed in (1, 42):
            streams = [trace_pages(profile, core, seed, PAGE_RECORDS,
                                   PAGE_LINES) for core in range(8)]
            ranking = rank_pages(streams)
            assert ranking == _most_common_order(streams)
            assert len(ranking) == len(set().union(*streams))


class TestTracePages:
    """``trace_pages`` makes ``_record_stream``'s draws without building
    records; its pages, and the ranking, must match the records'."""

    @pytest.mark.parametrize("name", benchmark_names())
    def test_ranking_matches_record_profile(self, name):
        profile = profile_for(name)
        page_bytes = PAGE_LINES * LINE_BYTES
        for core_id in (0, 5, 7):
            for seed in (1, 42, 43):
                records = TraceGenerator(profile, core_id, seed) \
                    .records(PAGE_RECORDS)
                pages = trace_pages(profile, core_id, seed, PAGE_RECORDS,
                                    PAGE_LINES)
                record_pages = [r.address // page_bytes for r in records]
                assert pages == record_pages
                assert rank_pages([pages]) == _most_common_order(
                    [record_pages])

    def test_rejects_non_power_of_two_pages(self):
        with pytest.raises(ValueError, match="power of two"):
            trace_pages(profile_for("mcf"), 0, 1, 10, 48)

    def test_page_placement_build_matches_traces_path(self):
        profile = profile_for("mcf")
        config = SimConfig(memory="page_placement", num_cores=4)
        from_profile = build_memory(config, EventQueue(), profile=profile)
        traces = [TraceGenerator(profile, core, config.seed)
                  .iter_records(30_000) for core in range(4)]
        from_traces = build_memory(config, EventQueue(), traces=traces)
        assert from_profile._hot_slots == from_traces._hot_slots


class TestSizing:
    def test_records_for_reads_scales(self):
        profile = profile_for("leslie3d")
        assert records_for_reads(profile, 2000) > \
            records_for_reads(profile, 200)

    def test_generate_core_trace_shape(self):
        trace = generate_core_trace(profile_for("mcf"), 0, 100)
        assert all(isinstance(r, TraceRecord) for r in trace)
        assert len(trace) >= 64


class TestExpectedCriticalWord:
    def test_stream_heavy_yields_word0(self):
        import random
        profile = profile_for("stream")
        rng = random.Random(0)
        words = [expected_critical_word(profile, line, rng)
                 for line in range(500)]
        assert words.count(0) / len(words) > 0.9
