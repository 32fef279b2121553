"""Future-work extension: critical-data-first with Hybrid Memory Cubes.

The paper's conclusion (Sec 10) sketches two HMC-era embodiments of the
idea; this module implements the second: *"one could imagine having a
mix of high-power, high-performance and low-power, low-frequency HMCs.
... a critical data bit could be obtained from a high-frequency HMC and
the rest of the data from a low-power HMC."*

We model the two HMC classes as DRAM device presets — stacked DRAM with
TSV-connected banks behind a fast serialised link:

* **HMC-HF** — high-frequency cube: aggressive timing (short tRC from
  small stacked arrays), very high link frequency, power-hungry SerDes
  (high static I/O power).
* **HMC-LP** — low-power cube: slower link and arrays, deep power-down.

Both use close-page policy (HMC's packetised interface abstracts row
management) and plug straight into :class:`CriticalWordMemory` — the
paper's CWF architecture is organisation-agnostic once a device has
timing and a channel.
"""

from __future__ import annotations

from repro.core.cwf import CriticalWordMemory, CWFConfig, CWFPolicy
from repro.dram.device import DeviceConfig, DRAMKind, PagePolicy
from repro.dram.timing import TimingParameters
from repro.util.events import EventQueue

# High-frequency cube: 2.5 GHz-class link (we model the vault access;
# the link adds fixed latency via the uncore path constant).
HMC_HF_TIMING = TimingParameters(
    name="HMC-HF",
    t_rc=18.0, t_rcd=0.0, t_rl=8.0, t_rp=0.0, t_ras=0.0,
    t_rtrs_bus_cycles=1, t_faw=0.0, t_wtr=0.0, t_wl=9.0,
    t_rrd=1.0,
    bus_freq_mhz=1250.0,
    t_pd_entry=200.0, t_pd_exit=400.0,  # SerDes links hate sleeping
)

# Low-power cube: slower vaults and link, fast power-state transitions.
HMC_LP_TIMING = TimingParameters(
    name="HMC-LP",
    t_rc=40.0, t_rcd=0.0, t_rl=16.0, t_rp=0.0, t_ras=0.0,
    t_rtrs_bus_cycles=1, t_faw=0.0, t_wtr=0.0, t_wl=16.0,
    t_rrd=2.0,
    bus_freq_mhz=625.0,
    t_pd_entry=10.0, t_pd_exit=20.0,
)

HMC_HF_DEVICE = DeviceConfig(
    kind=DRAMKind.RLDRAM3,   # reuses the "fast, power-hungry" power class
    part_number="HMC-HF-vault",
    timing=HMC_HF_TIMING,
    capacity_mbit=576,
    data_width_bits=9,
    num_banks=16,            # vaults x banks, abstracted
    num_rows=8192,
    num_cols=512,
    page_policy=PagePolicy.CLOSE,
    supports_power_down=False,
    single_command_addressing=True,
)

HMC_LP_DEVICE = DeviceConfig(
    kind=DRAMKind.LPDDR2,    # reuses the low-power power class
    part_number="HMC-LP-vault",
    timing=HMC_LP_TIMING,
    capacity_mbit=2048,
    data_width_bits=8,
    num_banks=8,
    num_rows=32768,
    num_cols=1024,
    page_policy=PagePolicy.CLOSE,
    single_command_addressing=True,
)


class HMCConfig(CWFConfig):
    """CWF geometry with the critical word on HMC-HF, the bulk on HMC-LP.

    CWFConfig resolves devices through properties, so this subclass
    swaps in the HMC presets without touching the CWF machinery. It
    lives at module level so a memory built from it can be pickled.
    """

    @property
    def fast_device(self) -> DeviceConfig:   # type: ignore[override]
        return HMC_HF_DEVICE

    @property
    def bulk_device(self) -> DeviceConfig:   # type: ignore[override]
        return HMC_LP_DEVICE


# The backends "hmc_hf" / "hmc_lp" / "hmc_cwf" (see
# repro.memsys.registry) expose these presets to the CLI, sweeps, and
# RunSpecs; this factory remains the programmatic entry point.


def build_hmc_memory(events: EventQueue,
                     policy: CWFPolicy = CWFPolicy.STATIC,
                     num_channels: int = 4,
                     cpu_freq_ghz: float = 3.2,
                     tag_seeder=None) -> CriticalWordMemory:
    """A critical-data-first memory built from two HMC classes.

    The critical word lives in high-frequency cubes, the bulk in
    low-power cubes — structurally identical to the RL organisation, so
    the whole CWF machinery (split fills, parity, adaptive tags) applies
    unchanged.
    """
    hmc_config = HMCConfig(policy=policy, num_bulk_channels=num_channels,
                           cpu_freq_ghz=cpu_freq_ghz)
    return CriticalWordMemory(events, hmc_config, tag_seeder=tag_seeder)
