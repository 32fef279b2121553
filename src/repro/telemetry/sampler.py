"""Periodic EventQueue-driven sampling of live simulator state.

The sampler rides the simulation's own event queue: every
``interval_cycles`` it evaluates its probes (queue occupancy, bus
utilisation, MSHR fill, ...) and records each value into a gauge (last
value) and a histogram (distribution over the run) under
``sample.<probe>``. It is only ever constructed when telemetry is
active, so an un-instrumented run schedules no events at all.

The sampler keeps rescheduling itself until :meth:`stop`; the
simulation loop exits on core completion, so a pending sample event
left in the queue is simply never executed.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.telemetry.registry import MetricsRegistry
from repro.util.events import Entry, EventQueue

DEFAULT_INTERVAL = 2048  # CPU cycles between samples


class Sampler:
    """Samples scalar probes on a fixed cycle cadence."""

    def __init__(self, events: EventQueue, registry: MetricsRegistry,
                 interval_cycles: int = DEFAULT_INTERVAL) -> None:
        if interval_cycles <= 0:
            raise ValueError("interval_cycles must be positive")
        self.events = events
        self.registry = registry
        self.interval = interval_cycles
        self.samples_taken = 0
        self._probes: List[Tuple[str, Callable[[], float]]] = []
        self._pending: Optional[Entry] = None
        self._running = False

    def add_probe(self, name: str, fn: Callable[[], float]) -> None:
        """Register ``fn`` to be sampled as ``sample.<name>``."""
        full = f"sample.{name}"
        # Create the metrics eagerly so name collisions surface at
        # registration time, not mid-run.
        self.registry.gauge(full)
        self.registry.histogram(full + ".hist")
        self._probes.append((full, fn))

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._pending = self.events.schedule_after(self.interval, self._tick)

    def stop(self) -> None:
        self._running = False
        if self._pending is not None:
            self._pending[2] = None
            self._pending = None

    def _tick(self) -> None:
        self._pending = None
        if not self._running:
            return
        self.samples_taken += 1
        for name, fn in self._probes:
            value = fn()
            self.registry.gauge(name).set(value)
            self.registry.histogram(name + ".hist").observe(int(value))
        self._pending = self.events.schedule_after(self.interval, self._tick)
