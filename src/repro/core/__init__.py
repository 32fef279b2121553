"""The paper's contribution: critical-word-first heterogeneous memory.

* :mod:`repro.core.cwf` — the Static/Adaptive/Oracle/Random CWF
  organisations (RD, RL, DL configurations, Sec 4.2).
* :mod:`repro.core.criticality` — the critical-word profiler behind
  Figures 3 and 4.
* :mod:`repro.core.placement` — the page-placement alternative of
  Section 7.1 (Phadke-style offline profiling).
* :mod:`repro.core.ecc` — SECDED + byte-parity codes and the
  wake-before-check protocol of Section 4.2.3.
* :mod:`repro.core.hmc` — the critical-data-first HMC extension the
  paper's conclusion sketches (Sec 10).
"""

from repro.core.cwf import (
    CriticalWordMemory,
    CWFConfig,
    CWFPolicy,
    HeteroPair,
)
from repro.core.criticality import CriticalityProfiler
from repro.core.placement import PagePlacementMemory, PagePlacementConfig
from repro.core.ecc import SECDED, byte_parity, FaultInjector
from repro.core.hmc import build_hmc_memory

__all__ = [
    "CriticalWordMemory", "CWFConfig", "CWFPolicy", "HeteroPair",
    "CriticalityProfiler",
    "PagePlacementMemory", "PagePlacementConfig",
    "SECDED", "byte_parity", "FaultInjector",
    "build_hmc_memory",
]
