"""Built-in memory-organisation backends.

Every organisation the paper evaluates — plus the Sec 10 HMC sketches —
registered with :mod:`repro.memsys.registry`. Imported lazily by the
registry on first lookup; importing this module has no side effect
beyond populating the registry.

Factory contract: ``factory(config, events, traces=None, profile=None)``
where ``config`` is the run's :class:`~repro.sim.config.SimConfig`.
``traces``/``profile`` only matter to backends that declare
``needs_profile`` (offline page-heat profiling, warm adaptive tags).
"""

from __future__ import annotations

from repro.core.cwf import (
    CriticalWordMemory,
    CWFConfig,
    CWFPolicy,
    HeteroPair,
)
from repro.core.hmc import build_hmc_memory, HMC_HF_DEVICE, HMC_LP_DEVICE
from repro.core.placement import (
    PagePlacementConfig,
    PagePlacementMemory,
    PAGE_LINES,
    rank_pages,
)
from repro.dram.device import DRAMKind
from repro.dram.request import LINE_BYTES
from repro.memsys.homogeneous import HomogeneousConfig, HomogeneousMemory
from repro.memsys.registry import register_backend

# ---------------------------------------------------------------------------
# Homogeneous organisations (paper Fig 1)
# ---------------------------------------------------------------------------


def _register_homogeneous(name: str, kind: DRAMKind, description: str,
                          aliases=()) -> None:
    @register_backend(name, aliases=aliases, description=description,
                      dram_families=(kind.value,), paper_section="Fig 1")
    def _build(config, events, traces=None, profile=None, _kind=kind):
        return HomogeneousMemory(
            events, HomogeneousConfig(kind=_kind,
                                      cpu_freq_ghz=config.cpu_freq_ghz))


_register_homogeneous(
    "ddr3", DRAMKind.DDR3, "baseline: 4 x 72-bit DDR3-1600 channels",
    aliases=("baseline",))
_register_homogeneous(
    "rldram3", DRAMKind.RLDRAM3,
    "all-RLDRAM3: fast, power-hungry homogeneous system",
    aliases=("rldram",))
_register_homogeneous(
    "lpddr2", DRAMKind.LPDDR2,
    "all-LPDDR2: low-power, slow homogeneous system",
    aliases=("lpddr",))

# ---------------------------------------------------------------------------
# Critical-word-first pairs (paper Sec 4.2 / 6.1)
# ---------------------------------------------------------------------------

_CWF_FAMILIES = {
    HeteroPair.RD: ("rldram3", "ddr3"),
    HeteroPair.RL: ("rldram3", "lpddr2"),
    HeteroPair.DL: ("ddr3", "lpddr2"),
}


def _register_cwf(name: str, pair: HeteroPair, policy: CWFPolicy,
                  description: str, section: str, aliases=(),
                  needs_profile: bool = False) -> None:
    @register_backend(name, aliases=aliases, description=description,
                      needs_profile=needs_profile, is_heterogeneous=True,
                      dram_families=_CWF_FAMILIES[pair],
                      paper_section=section)
    def _build(config, events, traces=None, profile=None,
               _pair=pair, _policy=policy):
        seeder = None
        if _policy is CWFPolicy.ADAPTIVE and profile is not None:
            from repro.sim.config import adaptive_tag_seeder
            seeder = adaptive_tag_seeder(profile)
        return CriticalWordMemory(
            events, CWFConfig(pair=_pair, policy=_policy,
                              cpu_freq_ghz=config.cpu_freq_ghz),
            tag_seeder=seeder)


_register_cwf("rd", HeteroPair.RD, CWFPolicy.STATIC,
              "CWF: RLDRAM3 critical word + DDR3 bulk", "Sec 6.1")
_register_cwf("rl", HeteroPair.RL, CWFPolicy.STATIC,
              "CWF: RLDRAM3 critical word + LPDDR2 bulk (flagship)",
              "Sec 6.1")
_register_cwf("dl", HeteroPair.DL, CWFPolicy.STATIC,
              "CWF: DDR3 critical word + LPDDR2 bulk", "Sec 6.1")
_register_cwf("rl_adaptive", HeteroPair.RL, CWFPolicy.ADAPTIVE,
              "RL with per-line adaptive critical-word tags", "Sec 4.2.5",
              needs_profile=True)
_register_cwf("rl_oracle", HeteroPair.RL, CWFPolicy.ORACLE,
              "RL upper bound: every critical word at fast latency",
              "Sec 6.1.2")
_register_cwf("rl_random", HeteroPair.RL, CWFPolicy.RANDOM,
              "RL control: hash-random word on the fast DIMM", "Sec 6.1.1")

# ---------------------------------------------------------------------------
# Page placement (paper Sec 7.1)
# ---------------------------------------------------------------------------


@register_backend("page_placement", aliases=("pp",),
                  description="hot 7.6% of pages in RLDRAM3, rest LPDDR2",
                  needs_profile=True, is_heterogeneous=True,
                  dram_families=("rldram3", "lpddr2"),
                  paper_section="Sec 7.1")
def _build_page_placement(config, events, traces=None, profile=None):
    # Offline profiling pass: rank pages over a long profiling trace —
    # the paper profiles the whole execution, not the measured window.
    # A profile is profiled from its trace's page numbers alone, one
    # core at a time, without building the records.
    if profile is not None:
        from repro.workloads.synthetic import trace_pages
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


# ---------------------------------------------------------------------------
# HMC embodiments (paper Sec 10 future work)
# ---------------------------------------------------------------------------


@register_backend("hmc_hf", description="all high-frequency HMC cubes "
                  "(fast stacked arrays, power-hungry SerDes)",
                  dram_families=(HMC_HF_DEVICE.kind.value,),
                  paper_section="Sec 10")
def _build_hmc_hf(config, events, traces=None, profile=None):
    return HomogeneousMemory(
        events,
        HomogeneousConfig(kind=HMC_HF_DEVICE.kind,
                          cpu_freq_ghz=config.cpu_freq_ghz),
        device=HMC_HF_DEVICE)


@register_backend("hmc_lp", description="all low-power HMC cubes "
                  "(slow link, deep power-down)",
                  dram_families=(HMC_LP_DEVICE.kind.value,),
                  paper_section="Sec 10")
def _build_hmc_lp(config, events, traces=None, profile=None):
    return HomogeneousMemory(
        events,
        HomogeneousConfig(kind=HMC_LP_DEVICE.kind,
                          cpu_freq_ghz=config.cpu_freq_ghz),
        device=HMC_LP_DEVICE)


@register_backend("hmc_cwf", aliases=("hmc",),
                  description="CWF across cubes: critical word from "
                  "high-frequency HMC, bulk from low-power HMC",
                  is_heterogeneous=True,
                  dram_families=(HMC_HF_DEVICE.kind.value,
                                 HMC_LP_DEVICE.kind.value),
                  paper_section="Sec 10")
def _build_hmc_cwf(config, events, traces=None, profile=None):
    return build_hmc_memory(events, cpu_freq_ghz=config.cpu_freq_ghz)
