"""Unified metrics registry: counters, gauges, and log2 histograms.

Metrics are hierarchically named with dot-separated components
(``dram.bulk-lpddr2-ch0.queue_latency_cycles``,
``core2.rob_stall_retries``) so exports can be grouped per channel,
bank, or core without any registry-side tree structure.

Telemetry is off unless a run attaches a registry. Simulator
components hold their metric handles as plain attributes that are
``None`` until then, and test the handle itself once per event before
using it; an un-instrumented run pays that one ``is not None`` test and
no call.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

# 64 buckets cover every int a simulation can produce: bucket i holds
# values whose bit_length is i (i.e. [2**(i-1), 2**i - 1]), bucket 0
# holds zero and negatives (clamped).
HISTOGRAM_BUCKETS = 64

_PERCENTILES = (50.0, 95.0, 99.0)


class Metric:
    """Base class: a named datum in a registry."""

    kind = "metric"

    def __init__(self, name: str) -> None:
        self.name = name

    def snapshot(self) -> dict:
        raise NotImplementedError


class Counter(Metric):
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self) -> dict:
        return {"type": self.kind, "value": self.value}


class Gauge(Metric):
    """Last-write-wins instantaneous value."""

    kind = "gauge"

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> dict:
        return {"type": self.kind, "value": self.value}


class Histogram(Metric):
    """Fixed-bucket log2 histogram of non-negative integer samples.

    Bucket *i* collects samples with ``bit_length() == i``; bucket 0
    collects zeros. Percentiles interpolate linearly inside the bucket
    that crosses the requested rank, so p50/p95/p99 are approximate
    (within a factor-of-2 bucket) while ``mean``/``sum``/``count``/
    ``min``/``max`` are exact.
    """

    kind = "histogram"

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.buckets: List[int] = [0] * HISTOGRAM_BUCKETS
        self.count = 0
        self.sum = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def observe(self, value: int) -> None:
        v = int(value)
        if v < 0:
            v = 0
        idx = v.bit_length()
        if idx >= HISTOGRAM_BUCKETS:
            idx = HISTOGRAM_BUCKETS - 1
        self.buckets[idx] += 1
        self.count += 1
        self.sum += v
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    @staticmethod
    def bucket_bounds(index: int) -> Tuple[int, int]:
        """Inclusive [lo, hi] value range of bucket ``index``."""
        if index == 0:
            return (0, 0)
        return (1 << (index - 1), (1 << index) - 1)

    def percentile(self, p: float) -> float:
        """Approximate p-th percentile, defined at every edge.

        An empty histogram answers 0.0 for any ``p``; ``p <= 0``
        answers the exact tracked minimum and ``p >= 100`` the exact
        tracked maximum (both are stored precisely, so the edges are
        not subject to bucket approximation). Interior percentiles
        interpolate linearly inside the crossing bucket, clamped to
        the observed [min, max] — comparisons are explicit ``is not
        None`` checks, so a legitimate minimum of 0 clamps too
        (``self.min or lo`` used to discard it as falsy).
        """
        if not self.count:
            return 0.0
        if p <= 0:
            return float(self.min if self.min is not None else 0)
        if p >= 100:
            return float(self.max if self.max is not None else 0)
        rank = p / 100.0 * self.count
        seen = 0
        for idx, n in enumerate(self.buckets):
            if not n:
                continue
            if seen + n >= rank:
                lo, hi = self.bucket_bounds(idx)
                if self.min is not None:
                    lo = max(lo, self.min)
                if self.max is not None:
                    hi = min(hi, self.max)
                if n == 1 or hi <= lo:
                    return float(hi)
                # Linear interpolation within the crossing bucket.
                frac = (rank - seen) / n
                return lo + frac * (hi - lo)
            seen += n
        return float(self.max if self.max is not None else 0)

    def snapshot(self) -> dict:
        out = {
            "type": self.kind,
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0,
            "max": self.max if self.max is not None else 0,
        }
        for p in _PERCENTILES:
            out[f"p{p:g}"] = self.percentile(p)
        # Sparse bucket encoding: {bit_length: count}.
        out["buckets"] = {str(i): n for i, n in enumerate(self.buckets) if n}
        return out


class MetricsRegistry:
    """Flat namespace of metrics, created on first use.

    Asking twice for the same name and type returns the same object;
    asking for an existing name with a *different* type raises, which
    catches accidental collisions between components.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get(self, name: str, cls) -> Metric:
        metric = self._metrics.get(name)
        if metric is not None:
            if type(metric) is not cls:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{metric.kind}, requested {cls.kind}")
            return metric
        metric = cls(name)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self, prefix: str = "") -> List[str]:
        return sorted(n for n in self._metrics if n.startswith(prefix))

    def items(self, prefix: str = "") -> Iterable[Tuple[str, Metric]]:
        for name in self.names(prefix):
            yield name, self._metrics[name]

    def snapshot(self, prefix: str = "") -> Dict[str, dict]:
        """Machine-readable dump of every metric under ``prefix``."""
        return {name: metric.snapshot() for name, metric in self.items(prefix)}
