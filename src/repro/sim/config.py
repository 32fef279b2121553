"""Top-level simulation configuration (paper Table 1).

``SimConfig.memory`` names a row of the organisation table in
:mod:`repro.memsys.registry` (canonical name or alias), canonicalised
at construction time; :func:`repro.memsys.registry.build_memory` builds
the organisation it names.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cpu.core import CoreConfig
from repro.cpu.uncore import UncoreConfig
from repro.memsys.registry import resolve_name
from repro.workloads.synthetic import preferred_word_for_global_line


@dataclass(frozen=True)
class SimConfig:
    """Paper Table 1 defaults."""

    memory: str = "ddr3"
    num_cores: int = 8
    cpu_freq_ghz: float = 3.2
    core: CoreConfig = field(default_factory=CoreConfig)
    uncore: UncoreConfig = field(default_factory=UncoreConfig)
    seed: int = 42
    # Target demand DRAM fetches per run (the paper uses 2M; scale down
    # for pure-Python wall-clock, the shape is preserved).
    target_dram_reads: int = 12000

    def __post_init__(self) -> None:
        # Canonicalise eagerly (accepting aliases) so an unknown
        # organisation fails at config construction, not mid-run, and
        # equal configs hash equally.
        object.__setattr__(self, "memory", resolve_name(self.memory))

    def with_memory(self, memory) -> "SimConfig":
        """A copy running on ``memory`` (backend name or alias)."""
        return replace(self, memory=resolve_name(memory))


class _AdaptiveTagSeeder:
    """The warm-tag fallback of :func:`adaptive_tag_seeder`.

    A slotted callable rather than a closure, so a memory holding one
    can be pickled into a checkpoint.
    """

    __slots__ = ("profile", "seed_probability")

    def __init__(self, profile, seed_probability: float) -> None:
        self.profile = profile
        self.seed_probability = seed_probability

    def __call__(self, line_address: int) -> int:
        h = (line_address * 0x2545F4914F6CDD1D) & ((1 << 64) - 1)
        if (h >> 33) % 1000 >= self.seed_probability * 1000:
            return 0  # never written during warm-up: layout unaltered
        # Re-organised to its last critical word: word 0 for lines
        # touched by streams, the stable preferred word for chased lines.
        profile = self.profile
        if ((h >> 13) % 1000) < profile.stream_fraction * 1000:
            return 0
        return preferred_word_for_global_line(profile, line_address)


def adaptive_tag_seeder(profile, seed_probability: float = 0.8):
    """Steady-state adaptive tags (paper Sec 4.2.5).

    The paper measures after a 2 B-instruction fast-forward, by which
    time most previously-written lines have been re-organised so their
    last critical word sits on the fast DIMM. We model that warm state:
    a line not yet written during the measured window falls back to its
    expected preferred word with probability ``seed_probability``
    (the chance it was dirtied and re-organised before measurement),
    else to word 0 (never written — layout never altered).
    """
    return _AdaptiveTagSeeder(profile, seed_probability)


# Paper Table 1, for the table-reproduction bench and the README.
TABLE1 = {
    "ISA": "UltraSPARC III ISA",
    "CMP size and Core Freq.": "8-core, 3.2 GHz",
    "Re-Order-Buffer": "64 entry",
    "Fetch, Dispatch, Execute, Retire": "Maximum 4 per cycle",
    "L1 I-cache": "32KB/2-way, private, 1-cycle",
    "L1 D-cache": "32KB/2-way, private, 1-cycle",
    "L2 Cache": "4MB/64B/8-way, shared, 10-cycle",
    "Coherence Protocol": "Snooping MESI",
    "DDR3": "MT41J256M8 DDR3-1600",
    "RLDRAM3": "Micron MT44K32M18",
    "LPDDR-2": "Micron MT42L128M16D1 (400MHz)",
    "Baseline DRAM": "4 72-bit channels, 1 DIMM/channel, "
                     "1 rank/DIMM, 9 devices/rank (unbuffered, ECC)",
    "Total DRAM Capacity": "8 GB",
    "DRAM Bus Frequency": "800MHz",
    "DRAM Read Queue": "48 entries per channel",
    "DRAM Write Queue Size": "48 entries per channel",
    "High/Low Watermarks": "32/16",
}
