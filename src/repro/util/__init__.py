"""Small shared utilities: event queue, cycle math, deterministic RNG helpers."""

from repro.util.events import EventQueue
from repro.util.cycles import ns_to_cycles, cycles_to_ns, ceil_div
from repro.util.sizes import parse_size, format_size

__all__ = ["EventQueue", "ns_to_cycles", "cycles_to_ns", "ceil_div",
           "parse_size", "format_size"]
