"""Set-associative write-back caches (paper Table 1 hierarchy).

Functional model with LRU replacement; latency is applied by the uncore.
Lines carry two bits of metadata the CWF architecture needs: the dirty
bit, and the *observed critical word* — the word whose demand miss
fetched the line, which the adaptive placement scheme stores back to
memory on dirty eviction (paper Sec 4.2.5).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.dram.request import LINE_BYTES, WORDS_PER_LINE

#: A warm tag store as flat buffers ``(offsets, lines, meta)``; see
#: :class:`_SetTable`.
WarmImage = Tuple[array, array, bytes]

#: Set in a warm-image ``meta`` byte when the line is dirty; the bits
#: below it hold the critical word.
IMAGE_DIRTY = WORDS_PER_LINE
_IMAGE_WORD = IMAGE_DIRTY - 1


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    name: str
    size_bytes: int
    associativity: int
    line_bytes: int = LINE_BYTES
    latency: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes % (self.associativity * self.line_bytes):
            raise ValueError(f"{self.name}: size not divisible by way size")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_bytes)


L1_CONFIG = CacheConfig(name="L1D", size_bytes=32 * 1024, associativity=2,
                        latency=1)
L2_CONFIG = CacheConfig(name="L2", size_bytes=4 * 1024 * 1024,
                        associativity=8, latency=10)


class CacheLine:
    """Tag-store entry.

    Slotted: one is allocated per resident line of every set a run
    touches, and probed on every access.
    """

    __slots__ = ("line_address", "dirty", "critical_word")

    def __init__(self, line_address: int, dirty: bool = False,
                 critical_word: int = 0) -> None:
        self.line_address = line_address
        self.dirty = dirty
        self.critical_word = critical_word

    def __repr__(self) -> str:
        return (f"CacheLine(line_address={self.line_address:#x}, "
                f"dirty={self.dirty}, critical_word={self.critical_word})")


class EvictedLine:
    """What :meth:`Cache.insert` pushed out, if anything."""

    __slots__ = ("line_address", "dirty", "critical_word")

    def __init__(self, line_address: int, dirty: bool,
                 critical_word: int) -> None:
        self.line_address = line_address
        self.dirty = dirty
        self.critical_word = critical_word

    def __repr__(self) -> str:
        return (f"EvictedLine(line_address={self.line_address:#x}, "
                f"dirty={self.dirty}, critical_word={self.critical_word})")


class _SetTable(dict):
    """Set index -> that set's recency-ordered ``{line: CacheLine}``.

    Sets are built on first probe (``__missing__``): empty, or copied
    from the warm ``image``. The image is three flat buffers: per-set
    start ``offsets`` (one more than there are sets), the resident
    ``lines`` in LRU order per set (``array('q')``), and one ``meta``
    byte per line that packs the critical word (low bits) with the
    dirty bit (:data:`IMAGE_DIRTY`). The image is shared and never
    mutated, so a cache loaded from it costs nothing up front and
    allocates lines only in the sets a run touches.
    """

    __slots__ = ("image",)

    def __init__(self, image: Optional[WarmImage] = None) -> None:
        super().__init__()
        self.image = image

    def __missing__(self, index: int) -> Dict[int, CacheLine]:
        if self.image is None:
            s = self[index] = {}
            return s
        offsets, lines, meta = self.image
        lo = offsets[index]
        hi = offsets[index + 1]
        s = self[index] = {
            line: CacheLine(line, m >= IMAGE_DIRTY, m & _IMAGE_WORD)
            for line, m in zip(lines[lo:hi], meta[lo:hi])}
        return s

    def occupancy(self) -> int:
        built = sum(len(s) for s in self.values())
        if self.image is None:
            return built
        offsets = self.image[0]
        return built + offsets[-1] - sum(offsets[index + 1] - offsets[index]
                                         for index in self)


class Cache:
    """One set-associative LRU cache level.

    Sets are dicts ordered by recency (Python dicts preserve insertion
    order; re-inserting moves a key to MRU position), created on first
    probe; see :class:`_SetTable` and :meth:`load_image`.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        # Geometry flattened to ints: ``num_sets`` is a derived property
        # on the (frozen) config, and the set-index modulo runs on every
        # probe and fill, so both are resolved once here.
        self._num_sets = config.num_sets
        self._assoc = config.associativity
        self._sets = _SetTable()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_evictions = 0

    def load_image(self, image: WarmImage, evictions: int = 0,
                   dirty_evictions: int = 0) -> None:
        """Start an untouched cache from a warm ``image``.

        ``image`` is ``(offsets, lines, meta)`` as :class:`_SetTable`
        describes; ``evictions`` and ``dirty_evictions`` are what
        filling it cost. Each set is copied out of the image the first
        time it is probed.
        """
        if self.occupancy():
            raise ValueError(f"{self.config.name}: load_image needs an "
                             f"empty cache")
        self._sets = _SetTable(image)
        self.evictions += evictions
        self.dirty_evictions += dirty_evictions

    def lookup(self, line_address: int, touch: bool = True) -> Optional[CacheLine]:
        """Probe; returns the line and updates LRU on hit."""
        s = self._sets[line_address % self._num_sets]
        line = s.get(line_address)
        if line is None:
            self.misses += 1
            return None
        self.hits += 1
        if touch:
            del s[line_address]
            s[line_address] = line
        return line

    def peek(self, line_address: int) -> Optional[CacheLine]:
        """Probe without updating LRU or hit/miss counters."""
        return self._sets[line_address % self._num_sets].get(line_address)

    def insert(self, line_address: int, dirty: bool = False,
               critical_word: int = 0) -> Optional[EvictedLine]:
        """Fill a line; returns the victim if one was evicted."""
        s = self._sets[line_address % self._num_sets]
        existing = s.get(line_address)
        if existing is not None:
            del s[line_address]
            if dirty:
                existing.dirty = True
            s[line_address] = existing
            return None
        victim: Optional[EvictedLine] = None
        if len(s) >= self._assoc:
            lru_addr = next(iter(s))
            lru = s.pop(lru_addr)
            self.evictions += 1
            if lru.dirty:
                self.dirty_evictions += 1
            victim = EvictedLine(lru.line_address, lru.dirty,
                                 lru.critical_word)
        s[line_address] = CacheLine(line_address, dirty, critical_word)
        return victim

    def invalidate(self, line_address: int) -> Optional[CacheLine]:
        """Remove a line (no writeback here; caller decides)."""
        return self._sets[line_address % self._num_sets].pop(line_address, None)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def occupancy(self) -> int:
        return self._sets.occupancy()
