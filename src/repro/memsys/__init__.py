"""Memory-system assemblies and the table of organisations.

:mod:`repro.memsys.base` defines the :class:`MemorySystem` base class
every organisation subclasses; :mod:`repro.memsys.registry` holds the
closed table of the 13 organisations the paper evaluates (``"ddr3"``,
``"rl"``, ``"hmc_cwf"``, ...) with their build functions. The
heterogeneous critical-word-first systems (the paper's contribution)
live in :mod:`repro.core`; they subclass the same base, so the uncore
and experiment harness are agnostic to the memory organisation.

The table is not re-exported here: it imports :mod:`repro.core`, whose
modules import :mod:`repro.memsys.base` and so this package.
"""

from repro.memsys.base import MemorySystem, MemorySystemStats
from repro.memsys.homogeneous import HomogeneousMemory

__all__ = ["MemorySystem", "MemorySystemStats", "HomogeneousMemory"]
