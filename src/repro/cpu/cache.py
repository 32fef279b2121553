"""Set-associative write-back caches (paper Table 1 hierarchy).

Functional model with LRU replacement; latency is applied by the uncore.
Lines carry two pieces of metadata the CWF architecture needs: the dirty
bit, and the *observed critical word* — the word whose demand miss
fetched the line, which the adaptive placement scheme stores back to
memory on dirty eviction (paper Sec 4.2.5). Both are packed into one
``meta`` int per line, the same encoding a warm image stores, so a live
set maps each resident line to a plain int.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.dram.request import LINE_BYTES, WORDS_PER_LINE

#: A warm tag store as flat buffers ``(offsets, lines, meta)``; see
#: :class:`_SetTable`.
WarmImage = Tuple[array, array, bytes]

#: Set in a line's ``meta`` (live or in a warm image) when the line is
#: dirty; the bits below it, :data:`IMAGE_WORD`, hold the critical word.
IMAGE_DIRTY = WORDS_PER_LINE
IMAGE_WORD = IMAGE_DIRTY - 1


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


class _SetTable(dict):
    """Set index -> that set's recency-ordered ``{line: meta}``.

    A line's ``meta`` int packs its critical word (low bits) with the
    dirty bit (:data:`IMAGE_DIRTY`), the encoding a warm image stores.
    Sets are built on first probe (``__missing__``): empty, or copied
    from the warm ``image``. The image is three flat buffers: per-set
    start ``offsets`` (one more than there are sets), the resident
    ``lines`` in LRU order per set (``array('q')``), and one ``meta``
    byte per line. The image is shared and never mutated, so a cache
    loaded from it costs nothing up front and copies only the sets a
    run touches.
    """

    __slots__ = ("image",)

    def __init__(self, image: Optional[WarmImage] = None) -> None:
        super().__init__()
        self.image = image

    def __missing__(self, index: int) -> Dict[int, int]:
        if self.image is None:
            s = self[index] = {}
        else:
            offsets, lines, meta = self.image
            lo, hi = offsets[index], offsets[index + 1]
            s = self[index] = dict(zip(lines[lo:hi], meta[lo:hi]))
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

    def lookup(self, line_address: int, write: bool = False) -> Optional[int]:
        """Probe; on a hit, make the line MRU (dirty if ``write``) and
        return its meta."""
        s = self._sets[line_address % self._num_sets]
        meta = s.pop(line_address, None)
        if meta is None:
            self.misses += 1
            return None
        self.hits += 1
        if write:
            meta |= IMAGE_DIRTY
        s[line_address] = meta
        return meta

    def peek(self, line_address: int) -> Optional[int]:
        """A line's meta, without updating LRU or hit/miss counters."""
        return self._sets[line_address % self._num_sets].get(line_address)

    def mark_dirty(self, line_address: int) -> bool:
        """Dirty a resident line in place (LRU untouched); False if the
        line is not resident."""
        s = self._sets[line_address % self._num_sets]
        meta = s.get(line_address)
        if meta is None:
            return False
        s[line_address] = meta | IMAGE_DIRTY
        return True

    def insert(self, line_address: int, dirty: bool = False,
               critical_word: int = 0) -> Optional[Tuple[int, int]]:
        """Fill a line; returns the victim's ``(line, meta)`` if one was
        evicted. Refilling a resident line makes it MRU and keeps its
        critical word; ``dirty`` is sticky."""
        s = self._sets[line_address % self._num_sets]
        meta = s.pop(line_address, None)
        if meta is not None:
            s[line_address] = meta | IMAGE_DIRTY if dirty else meta
            return None
        victim = None
        if len(s) >= self._assoc:
            lru = next(iter(s))
            lru_meta = s.pop(lru)
            self.evictions += 1
            if lru_meta >= IMAGE_DIRTY:
                self.dirty_evictions += 1
            victim = (lru, lru_meta)
        s[line_address] = critical_word | IMAGE_DIRTY if dirty else critical_word
        return victim

    def invalidate(self, line_address: int) -> Optional[int]:
        """Remove a line and return its meta (no writeback here; caller
        decides)."""
        return self._sets[line_address % self._num_sets].pop(line_address, None)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def occupancy(self) -> int:
        return self._sets.occupancy()
