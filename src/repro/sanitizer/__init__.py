"""DRAM protocol sanitizer: an always-available runtime invariant checker.

Off by default. Enable with ``REPRO_SANITIZE=1`` (collect violations),
``REPRO_SANITIZE=strict`` (raise on the first one), or ``repro run
--check``; the mode travels in ``ExperimentConfig.sanitize``. When
active, every memory controller replays its command stream against a
shadow protocol model re-derived from the timing set
(bank FSM legality, tRC/tRCD/tRP/tRAS windows, tFAW/tRRD rank spacing,
tRTRS/tWTR bus turnaround, single-driver bus occupancy, power-down
legality), and the uncore checks read conservation. Violations are
reported out-of-band — results stay byte-identical to unsanitized runs.
"""

from repro.sanitizer.runtime import (
    MODE_COLLECT,
    MODE_OFF,
    MODE_STRICT,
    ControllerSanitizer,
    UncoreSanitizer,
    attach_sanitizers,
    parse_switch,
    sanitize_mode,
)
from repro.sanitizer.violations import (
    ProtocolViolation,
    SanitizerError,
    SanitizerReport,
    global_report,
    reset_global_report,
)

__all__ = [
    "MODE_COLLECT",
    "MODE_OFF",
    "MODE_STRICT",
    "ControllerSanitizer",
    "UncoreSanitizer",
    "ProtocolViolation",
    "SanitizerError",
    "SanitizerReport",
    "attach_sanitizers",
    "parse_switch",
    "global_report",
    "reset_global_report",
    "sanitize_mode",
]
