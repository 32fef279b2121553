"""Criticality profiler (Figures 3/4 machinery)."""

import pytest

from repro.core.criticality import CriticalityProfiler, PerLineProfiler


class TestDistribution:
    def test_empty(self):
        p = CriticalityProfiler()
        assert p.distribution() == [0.0] * 8
        assert p.word0_fraction == 0.0

    def test_simple_counts(self):
        p = CriticalityProfiler()
        for _ in range(3):
            p.observe(0, line_address=1, critical_word=0)
        p.observe(0, line_address=2, critical_word=5)
        dist = p.distribution()
        assert dist[0] == pytest.approx(0.75)
        assert dist[5] == pytest.approx(0.25)
        assert p.word0_fraction == pytest.approx(0.75)


class TestRepeatPrediction:
    def test_stable_word_repeats(self):
        p = CriticalityProfiler()
        for _ in range(5):
            p.observe(0, line_address=9, critical_word=3)
        assert p.repeat_fraction == 1.0

    def test_alternating_words_never_repeat(self):
        p = CriticalityProfiler()
        for i in range(6):
            p.observe(0, line_address=9, critical_word=i % 2)
        assert p.repeat_fraction == 0.0

    def test_falls_back_to_word0_without_refetches(self):
        p = CriticalityProfiler()
        p.observe(0, 1, 0)
        p.observe(0, 2, 0)
        p.observe(0, 3, 4)
        assert p.repeat_fraction == p.word0_fraction


class TestTopLines:
    def test_ranked_by_fetch_count(self):
        p = PerLineProfiler()
        for _ in range(10):
            p.observe(0, line_address=100, critical_word=2)
        for _ in range(3):
            p.observe(0, line_address=200, critical_word=0)
        top = p.top_lines(2)
        assert top[0].line_address == 100
        assert top[0].total == 10
        assert top[0].dominant_word() == 2
        assert top[1].line_address == 200

    def test_fractions_sum_to_one(self):
        p = PerLineProfiler()
        p.observe(0, 7, 1)
        p.observe(0, 7, 1)
        p.observe(0, 7, 4)
        hist = p.top_lines(1)[0]
        assert sum(hist.fractions()) == pytest.approx(1.0)

    def test_dominance_metric(self):
        p = PerLineProfiler()
        # Line 1: 3-of-4 to word 2; line 2: only one fetch (excluded).
        for w in (2, 2, 2, 6):
            p.observe(0, 1, w)
        p.observe(0, 2, 0)
        assert p.per_line_dominance() == pytest.approx(0.75)


class TestGlobalOnly:
    def test_base_profiler_keeps_no_per_line_histograms(self):
        p = CriticalityProfiler()
        p.observe(0, 7, 1)
        assert not hasattr(p, "per_line")
        assert not hasattr(p, "top_lines")

    def test_per_line_profiler_keeps_the_global_counts(self):
        base, per_line = CriticalityProfiler(), PerLineProfiler()
        for line, word in ((1, 0), (1, 0), (2, 5), (1, 3), (2, 5)):
            base.observe(0, line, word)
            per_line.observe(0, line, word)
        assert per_line.distribution() == base.distribution()
        assert per_line.repeat_fraction == base.repeat_fraction
        assert per_line.word0_fraction == base.word0_fraction
