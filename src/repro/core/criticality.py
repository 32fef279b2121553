"""Critical-word profiling (paper Figures 3 and 4, and the Appendix).

The profiler observes every demand LLC miss — the events whose requested
word is, by definition, the cache line's *critical word* at the DRAM
level — and accumulates:

* a global histogram of critical words (Fig 4: fraction of fetches whose
  critical word is word 0, word 1, ...),
* per-line histograms (Fig 3: for the most-accessed lines, the
  distribution of which word was critical), and
* the adaptive-predictor hit rate: how often the critical word of a
  fetch equals the critical word of the line's *previous* fetch
  (the 79 % the paper reports for adaptive placement, vs. 67 % static).

Every run keeps the global counts (:class:`CriticalityProfiler`); only
the Fig 3 profiling pass pays for the per-line histograms
(:class:`PerLineProfiler`).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List

from repro.dram.request import WORDS_PER_LINE


@dataclass
class LineHistogram:
    """Access counts per word for one cache line."""

    line_address: int
    counts: Counter = field(default_factory=Counter)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def fractions(self) -> List[float]:
        total = self.total
        return [self.counts.get(w, 0) / total if total else 0.0
                for w in range(WORDS_PER_LINE)]

    def dominant_word(self) -> int:
        if not self.counts:
            return 0
        return self.counts.most_common(1)[0][0]


class CriticalityProfiler:
    """Attach via ``uncore.demand_miss_observer = profiler.observe``."""

    def __init__(self) -> None:
        self.global_counts: List[int] = [0] * WORDS_PER_LINE
        self._last_word: Dict[int, int] = {}
        self.total = 0
        self.static_hits = 0     # critical word == 0
        self.repeat_hits = 0     # critical word == previous fetch's word
        self.repeat_total = 0

    def observe(self, core_id: int, line_address: int,
                critical_word: int) -> None:
        self.total += 1
        self.global_counts[critical_word] += 1
        if critical_word == 0:
            self.static_hits += 1
        previous = self._last_word.get(line_address)
        if previous is not None:
            self.repeat_total += 1
            if previous == critical_word:
                self.repeat_hits += 1
        self._last_word[line_address] = critical_word

    # ------------------------------------------------------------------

    def distribution(self) -> List[float]:
        """Fraction of fetches per critical word (Fig 4, one bar group)."""
        if not self.total:
            return [0.0] * WORDS_PER_LINE
        return [count / self.total for count in self.global_counts]

    @property
    def word0_fraction(self) -> float:
        return self.static_hits / self.total if self.total else 0.0

    @property
    def repeat_fraction(self) -> float:
        """Adaptive-predictor upper bound (last word predicts next)."""
        if not self.repeat_total:
            return self.word0_fraction
        return self.repeat_hits / self.repeat_total


class PerLineProfiler(CriticalityProfiler):
    """A profiler that also keeps each line's word histogram (Fig 3)."""

    def __init__(self) -> None:
        super().__init__()
        self.per_line: Dict[int, Counter] = defaultdict(Counter)

    def observe(self, core_id: int, line_address: int,
                critical_word: int) -> None:
        super().observe(core_id, line_address, critical_word)
        self.per_line[line_address][critical_word] += 1

    def top_lines(self, n: int = 10) -> List[LineHistogram]:
        """Most-fetched lines with their word histograms (Fig 3)."""
        ranked = sorted(self.per_line.items(),
                        key=lambda kv: sum(kv[1].values()), reverse=True)
        return [LineHistogram(line_address=line, counts=Counter(counts))
                for line, counts in ranked[:n]]

    def per_line_dominance(self) -> float:
        """Mean fraction of each line's fetches going to its dominant
        word — the "well-defined bias" of Fig 3."""
        if not self.per_line:
            return 0.0
        fractions = []
        for counts in self.per_line.values():
            total = sum(counts.values())
            if total >= 2:
                fractions.append(counts.most_common(1)[0][1] / total)
        if not fractions:
            return 1.0
        return sum(fractions) / len(fractions)
