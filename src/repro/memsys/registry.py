"""The closed table of memory organisations the paper evaluates.

:data:`BACKENDS` holds one :class:`Backend` row per organisation: the
three homogeneous parts (Fig 1), the RD/RL/DL critical-word-first pairs
with RL's adaptive, oracle and random variants (Sec 4.2, 6.1), page
placement (Sec 7.1) and the Sec 10 HMC sketch. A row carries the
canonical name, its build function, aliases, and the description and
flags that ``repro list-backends`` prints. :func:`resolve_name` maps a
name or alias to its canonical name and :func:`build_memory` builds the
organisation a :class:`~repro.sim.config.SimConfig` names.

Adding an organisation is adding a row: a build function
``build(config, events, traces, profile)`` returning a
:class:`~repro.memsys.base.MemorySystem` subclass, and its listing
facts. ``traces``/``profile`` only matter to organisations that profile
the workload (page heat, warm adaptive tags); the profile is passed to
every build that has one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.cwf import CriticalWordMemory, CWFConfig, CWFPolicy, HeteroPair
from repro.core.hmc import build_hmc_memory, HMC_HF_DEVICE, HMC_LP_DEVICE
from repro.core.placement import (
    PagePlacementConfig,
    PagePlacementMemory,
    PAGE_LINES,
    rank_pages,
)
from repro.dram.device import DeviceConfig, DRAMKind
from repro.dram.request import LINE_BYTES
from repro.memsys.base import MemorySystem
from repro.memsys.homogeneous import HomogeneousConfig, HomogeneousMemory
from repro.util.suggest import close_matches, did_you_mean
from repro.workloads.synthetic import trace_pages


class BackendError(ValueError):
    """A memory backend name that cannot be looked up."""


class UnknownBackendError(BackendError):
    """Lookup of a name no backend answers (carries a did-you-mean)."""

    def __init__(self, name: str, suggestions: Sequence[str] = ()) -> None:
        self.name = name
        self.suggestions = list(suggestions)
        message = (f"unknown memory backend {name!r}"
                   + did_you_mean(self.suggestions)
                   + " (run 'repro list-backends' for the full list)")
        super().__init__(message)


# ---------------------------------------------------------------------------
# Build functions: build(config, events, traces, profile) -> MemorySystem
# ---------------------------------------------------------------------------


def _homogeneous(kind: DRAMKind, config, events, traces, profile,
                 device: Optional[DeviceConfig] = None) -> MemorySystem:
    return HomogeneousMemory(
        events, HomogeneousConfig(kind=kind, cpu_freq_ghz=config.cpu_freq_ghz),
        device=device)


def _cwf(pair: HeteroPair, policy: CWFPolicy, config, events, traces,
         profile) -> MemorySystem:
    seeder = None
    if policy is CWFPolicy.ADAPTIVE and profile is not None:
        # Deferred: repro.sim.config imports this module for
        # resolve_name, so this module cannot import it at load time.
        from repro.sim.config import adaptive_tag_seeder
        seeder = adaptive_tag_seeder(profile)
    return CriticalWordMemory(
        events, CWFConfig(pair=pair, policy=policy,
                          cpu_freq_ghz=config.cpu_freq_ghz),
        tag_seeder=seeder)


def _page_placement(config, events, traces, profile) -> MemorySystem:
    # Offline profiling pass: rank pages over a long profiling trace —
    # the paper profiles the whole execution, not the measured window.
    # A profile is profiled from its trace's page numbers alone, one
    # core at a time, without building the records.
    if profile is not None:
        ranking = rank_pages(
            trace_pages(profile, core, config.seed, 30_000, PAGE_LINES)
            for core in range(config.num_cores))
    elif traces is not None:
        page_bytes = PAGE_LINES * LINE_BYTES
        ranking = rank_pages((record.address // page_bytes for record in trace)
                             for trace in traces)
    else:
        raise ValueError("page_placement needs a profile or traces")
    return PagePlacementMemory(
        events, ranking,
        PagePlacementConfig(cpu_freq_ghz=config.cpu_freq_ghz))


def _hmc_cwf(config, events, traces, profile) -> MemorySystem:
    return build_hmc_memory(events, cpu_freq_ghz=config.cpu_freq_ghz)


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Backend:
    """One organisation: its name, build function and listing facts.

    * ``dram_families`` — power-model families it draws from, fast part
      first;
    * ``is_heterogeneous`` — more than one DRAM family serves demand
      fetches;
    * ``needs_profile`` — the build profiles the workload (it is given
      the benchmark profile, or materialised traces).
    """

    name: str
    build: Callable[..., MemorySystem]
    aliases: Tuple[str, ...]
    description: str
    paper_section: str
    dram_families: Tuple[str, ...]
    is_heterogeneous: bool = False
    needs_profile: bool = False


_RL = ("rldram3", "lpddr2")

BACKENDS: Tuple[Backend, ...] = (
    Backend("ddr3", partial(_homogeneous, DRAMKind.DDR3), ("baseline",),
            "baseline: 4 x 72-bit DDR3-1600 channels", "Fig 1", ("ddr3",)),
    Backend("rldram3", partial(_homogeneous, DRAMKind.RLDRAM3), ("rldram",),
            "all-RLDRAM3: fast, power-hungry homogeneous system", "Fig 1",
            ("rldram3",)),
    Backend("lpddr2", partial(_homogeneous, DRAMKind.LPDDR2), ("lpddr",),
            "all-LPDDR2: low-power, slow homogeneous system", "Fig 1",
            ("lpddr2",)),
    Backend("rd", partial(_cwf, HeteroPair.RD, CWFPolicy.STATIC), (),
            "CWF: RLDRAM3 critical word + DDR3 bulk", "Sec 6.1",
            ("rldram3", "ddr3"), is_heterogeneous=True),
    Backend("rl", partial(_cwf, HeteroPair.RL, CWFPolicy.STATIC), (),
            "CWF: RLDRAM3 critical word + LPDDR2 bulk (flagship)", "Sec 6.1",
            _RL, is_heterogeneous=True),
    Backend("dl", partial(_cwf, HeteroPair.DL, CWFPolicy.STATIC), (),
            "CWF: DDR3 critical word + LPDDR2 bulk", "Sec 6.1",
            ("ddr3", "lpddr2"), is_heterogeneous=True),
    Backend("rl_adaptive", partial(_cwf, HeteroPair.RL, CWFPolicy.ADAPTIVE),
            (), "RL with per-line adaptive critical-word tags", "Sec 4.2.5",
            _RL, is_heterogeneous=True, needs_profile=True),
    Backend("rl_oracle", partial(_cwf, HeteroPair.RL, CWFPolicy.ORACLE), (),
            "RL upper bound: every critical word at fast latency",
            "Sec 6.1.2", _RL, is_heterogeneous=True),
    Backend("rl_random", partial(_cwf, HeteroPair.RL, CWFPolicy.RANDOM), (),
            "RL control: hash-random word on the fast DIMM", "Sec 6.1.1",
            _RL, is_heterogeneous=True),
    Backend("page_placement", _page_placement, ("pp",),
            "hot 7.6% of pages in RLDRAM3, rest LPDDR2", "Sec 7.1", _RL,
            is_heterogeneous=True, needs_profile=True),
    Backend("hmc_hf", partial(_homogeneous, HMC_HF_DEVICE.kind,
                              device=HMC_HF_DEVICE), (),
            "all high-frequency HMC cubes "
            "(fast stacked arrays, power-hungry SerDes)", "Sec 10",
            (HMC_HF_DEVICE.kind.value,)),
    Backend("hmc_lp", partial(_homogeneous, HMC_LP_DEVICE.kind,
                              device=HMC_LP_DEVICE), (),
            "all low-power HMC cubes (slow link, deep power-down)", "Sec 10",
            (HMC_LP_DEVICE.kind.value,)),
    Backend("hmc_cwf", _hmc_cwf, ("hmc",),
            "CWF across cubes: critical word from high-frequency HMC, "
            "bulk from low-power HMC", "Sec 10",
            (HMC_HF_DEVICE.kind.value, HMC_LP_DEVICE.kind.value),
            is_heterogeneous=True),
)

# Canonical name or alias -> its row.
_BY_NAME: Dict[str, Backend] = {key: row for row in BACKENDS
                                for key in (row.name,) + row.aliases}


def resolve_name(name) -> str:
    """Canonical backend name for ``name`` (canonical name or alias).

    Raises :class:`UnknownBackendError` — with close-match suggestions —
    when no row answers the name.
    """
    if not isinstance(name, str):
        raise BackendError(
            f"memory backend must be a name, got {type(name).__name__}")
    key = name.strip().lower().replace("-", "_")
    row = _BY_NAME.get(key)
    if row is None:
        raise UnknownBackendError(name, close_matches(key, _BY_NAME))
    return row.name


def backend_names() -> List[str]:
    """Canonical names of every backend, sorted."""
    return sorted(row.name for row in BACKENDS)


def build_memory(config, events, traces=None, profile=None) -> MemorySystem:
    """Build the organisation ``config.memory`` names on ``events``.

    ``traces`` feeds offline profiling passes (page placement);
    ``profile`` enables warm adaptive tags and synthetic profiling
    traces for the organisations that want them.
    """
    row = _BY_NAME[resolve_name(config.memory)]
    memory = row.build(config, events, traces, profile)
    memory.backend_name = row.name
    return memory
