"""Small statistics helpers shared by the benchmark workloads.

* percentiles by the nearest-rank rule, and the tail rule: a tail
  percentile is reported only when at least :data:`MIN_BEYOND_TAIL`
  samples lie beyond it;
* schedule lateness: how far behind a fixed-rate schedule the client
  sent each request;
* failure counting against attempts;
* metric-name validity.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, List, Sequence

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND_TAIL = 10

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def valid_name(name: object) -> bool:
    """A metric or workload name: ``[A-Za-z0-9_.-]``, at most 64, no
    leading punctuation."""
    return isinstance(name, str) and bool(_NAME.match(name))


def check_names(names: Iterable[str]) -> None:
    """Raise ValueError on an invalid or repeated name."""
    seen = set()
    for name in names:
        if not valid_name(name):
            raise ValueError(f"invalid metric name {name!r}")
        if name in seen:
            raise ValueError(f"metric name {name!r} used twice")
        seen.add(name)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank
    ``q``-th percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def samples_needed(q: float) -> int:
    """Smallest sample count with :data:`MIN_BEYOND_TAIL` beyond ``q``."""
    n = MIN_BEYOND_TAIL
    while samples_beyond(n, q) < MIN_BEYOND_TAIL:
        n += 1
    return n


def tail_supported(n: int, q: float) -> bool:
    return samples_beyond(n, q) >= MIN_BEYOND_TAIL


class Schedule:
    """A fixed-rate send schedule and its lateness ledger.

    Request ``i`` is due at ``start + i / rate``. :meth:`sent` records
    when it actually went out, so a client that falls behind its
    schedule shows in :meth:`late_p90`.
    """

    def __init__(self, rate_per_s: float, start: float) -> None:
        if rate_per_s <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate_per_s
        self.start = start
        self.late: List[float] = []

    def due(self, index: int) -> float:
        return self.start + index / self.rate

    def sent(self, index: int, when: float) -> float:
        """Record request ``index`` leaving at ``when``; returns lateness."""
        late = max(0.0, when - self.due(index))
        self.late.append(late)
        return late

    def late_p90(self) -> float:
        return percentile(self.late, 90.0) if self.late else 0.0


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def check(self, condition: bool, reason: str) -> bool:
        """Count one operation; a false ``condition`` is a failure."""
        if condition:
            self.ok()
        else:
            self.fail(reason)
        return condition

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
