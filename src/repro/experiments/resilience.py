"""Resilience layer for the experiment pipeline.

Long figure suites fan hundreds of simulations out over a process pool;
one crashed, hung, or OOM-killed worker should cost *one cell*, not the
whole run. This module holds the pieces the executor composes:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  *deterministic* jitter (hashed from the spec label + attempt number,
  so two runs of the same suite sleep the same schedule), plus an
  optional per-spec wall-clock timeout.
* Failure classification — every failed attempt is bucketed as
  ``crash`` (the worker raised), ``timeout`` (deadline exceeded),
  ``broken-pool`` (the pool's process died under it), or
  ``corrupt-result`` (the worker returned something that is not a
  :class:`~repro.sim.system.SimResult`).
* :class:`FailedRun` — the sentinel recorded under ``--keep-going``
  when retries are exhausted. Any attribute a figure function would
  read off a real result answers :data:`MISSING`, an absorbing value
  that propagates through arithmetic and renders as ``—`` in tables,
  so a suite with N failures still emits every other cell
  byte-identical to a clean run.
* :class:`FaultPlan` — deterministic fault injection, consulted by
  :func:`~repro.experiments.specs.execute_spec` (serial *and* worker
  paths) through ``ExperimentConfig.fault_plan``, which
  ``REPRO_FAULT_PLAN`` sets. It chooses specs by label and makes them
  crash, hard-exit, hang, or return a corrupt payload on chosen
  attempts, which makes every branch above testable end-to-end.

Plan syntax (entries separated by ``;`` or ``,``)::

    REPRO_FAULT_PLAN="mcf/ddr3=crash;mcf/rldram3=hang:*:20;lbm/rl=corrupt:2"

Each entry is ``label=mode[:times][:seconds]`` where *label* is a
:attr:`RunSpec.label <repro.experiments.specs.RunSpec.label>`
(``benchmark/memory[/variant]``), *mode* is one of ``crash`` (raise
:class:`InjectedCrash`), ``kill`` (``os._exit(1)`` — a genuine
``BrokenProcessPool``), ``hang`` (sleep *seconds*, default 30, then
continue), or ``corrupt`` (return a non-``SimResult`` payload); *times*
is how many leading attempts fire (default 1, ``*`` = every attempt).
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.system import SimResult

# ---------------------------------------------------------------------------
# Failure classification
# ---------------------------------------------------------------------------

CRASH = "crash"
TIMEOUT = "timeout"
BROKEN_POOL = "broken-pool"
CORRUPT_RESULT = "corrupt-result"

FAILURE_KINDS = (CRASH, TIMEOUT, BROKEN_POOL, CORRUPT_RESULT)


def classify_failure(exc: BaseException) -> str:
    """Bucket an exception from a run attempt into a failure kind."""
    if isinstance(exc, concurrent.futures.BrokenExecutor):
        return BROKEN_POOL
    if isinstance(exc, (TimeoutError, concurrent.futures.TimeoutError)):
        return TIMEOUT
    return CRASH


def is_valid_result(result: object) -> bool:
    """True when a worker handed back a genuine simulation result."""
    return isinstance(result, SimResult)


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries, exponential backoff, deterministic jitter.

    ``max_retries`` is the number of *re*-tries: a spec runs at most
    ``max_retries + 1`` times. ``timeout_s`` is a per-spec wall-clock
    deadline, enforced by the parallel executor (the in-process serial
    path cannot interrupt a running simulation and documents that).
    Jitter is derived from a hash of ``(key, attempt)`` rather than a
    clock or RNG, so the backoff schedule — like everything else in the
    pipeline — is reproducible run to run.
    """

    max_retries: int = 0
    timeout_s: Optional[float] = None
    backoff_base_s: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_max_s: float = 5.0
    jitter_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")

    @property
    def attempts_allowed(self) -> int:
        return self.max_retries + 1

    def backoff_s(self, failed_attempt: int, key: str = "") -> float:
        """Sleep before re-running after ``failed_attempt`` (1-based)."""
        if failed_attempt < 1:
            return 0.0
        raw = self.backoff_base_s * (
            self.backoff_multiplier ** (failed_attempt - 1))
        raw = min(raw, self.backoff_max_s)
        digest = hashlib.sha256(f"{key}|{failed_attempt}".encode()).digest()
        unit = digest[0] / 255.0  # deterministic in [0, 1]
        return raw * (1.0 - self.jitter_fraction * unit)


# ---------------------------------------------------------------------------
# MISSING: the absorbing value failed cells resolve to
# ---------------------------------------------------------------------------


class _Missing:
    """Absorbing singleton: arithmetic/attribute/indexing all yield it.

    Figure functions compute cells with expressions like
    ``rld.speedup_over(base)`` or ``sum(...) / len(rows)``; when any
    contributor is a :class:`FailedRun`, the whole expression collapses
    to ``MISSING`` instead of raising, and the table renders ``—``.
    """

    _instance: Optional["_Missing"] = None

    def __new__(cls) -> "_Missing":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "—"

    def __format__(self, spec: str) -> str:
        return "—"

    def __bool__(self) -> bool:
        return False

    def __call__(self, *args: object, **kwargs: object) -> "_Missing":
        return self

    def __getattr__(self, name: str) -> "_Missing":
        if name.startswith("__") and name.endswith("__"):
            raise AttributeError(name)
        return self

    def __getitem__(self, key: object) -> "_Missing":
        return self

    def __iter__(self):
        return iter(())

    def __float__(self) -> float:
        raise TypeError("value is MISSING: a contributing run failed")

    def __reduce__(self):
        return (_missing, ())

    def _absorb(self, *args: object) -> "_Missing":
        return self

    __add__ = __radd__ = __sub__ = __rsub__ = _absorb
    __mul__ = __rmul__ = __truediv__ = __rtruediv__ = _absorb
    __floordiv__ = __rfloordiv__ = __mod__ = __rmod__ = _absorb
    __pow__ = __rpow__ = __neg__ = __pos__ = __abs__ = _absorb
    __round__ = _absorb


def _missing() -> "_Missing":
    return _Missing()


MISSING = _Missing()


# ---------------------------------------------------------------------------
# FailedRun sentinel
# ---------------------------------------------------------------------------


@dataclass
class FailedRun:
    """Recorded in the results map when a spec exhausts its retries.

    Reading any :class:`SimResult` attribute off it answers
    :data:`MISSING`, so downstream table code degrades to ``—`` cells
    instead of raising. Never written to the result cache.
    """

    benchmark: str
    memory: str
    variant: str = ""
    kind: str = CRASH
    attempts: int = 1
    error: str = ""

    @property
    def label(self) -> str:
        parts = [self.benchmark, self.memory]
        if self.variant:
            parts.append(self.variant)
        return "/".join(parts)

    def __getattr__(self, name: str) -> "_Missing":
        if name.startswith("_"):
            raise AttributeError(name)
        return MISSING


class SuiteError(RuntimeError):
    """Raised (fail-fast mode) when a spec fails beyond its retry budget."""

    def __init__(self, failed: FailedRun) -> None:
        self.failed = failed
        super().__init__(
            f"spec {failed.label} failed ({failed.kind}) after "
            f"{failed.attempts} attempt(s): {failed.error}")


def failure_appendix(failures: Sequence[FailedRun],
                     markdown: bool = False) -> str:
    """Human-readable appendix listing every FailedRun of a suite."""
    if not failures:
        return ""
    lines: List[str] = []
    if markdown:
        lines.append("## Failure appendix")
        lines.append("")
        lines.append(f"{len(failures)} run(s) failed after exhausting "
                     "retries; their cells render as `—` above.")
        lines.append("")
        lines.append("| spec | failure | attempts | error |")
        lines.append("|---|---|---|---|")
        for f in failures:
            lines.append(f"| {f.label} | {f.kind} | {f.attempts} "
                         f"| {f.error} |")
    else:
        lines.append("== Failure appendix ==")
        lines.append(f"{len(failures)} run(s) failed after exhausting "
                     "retries; their cells render as '—' above.")
        for f in failures:
            lines.append(f"  {f.label}: {f.kind} after {f.attempts} "
                         f"attempt(s) — {f.error}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Deterministic fault injection
# ---------------------------------------------------------------------------


class InjectedCrash(RuntimeError):
    """Raised by a ``crash``-mode fault."""


FAULT_MODES = ("crash", "kill", "hang", "corrupt", "ckptkill")

#: What a ``corrupt``-mode fault returns in place of a SimResult.
CORRUPT_PAYLOAD: Dict[str, bool] = {"__injected_corrupt__": True}


@dataclass(frozen=True)
class Fault:
    """One planned fault: fire ``mode`` on a spec's leading attempts."""

    label: str
    mode: str
    times: Optional[int] = 1  # None = every attempt
    seconds: float = 30.0     # hang duration

    def __post_init__(self) -> None:
        if self.mode not in FAULT_MODES:
            raise ValueError(
                f"unknown fault mode {self.mode!r}; known: {FAULT_MODES}")
        if self.times is not None and self.times < 1:
            raise ValueError("fault times must be >= 1 (or '*')")
        if self.seconds <= 0:
            raise ValueError("hang seconds must be positive")

    def fires(self, attempt: int) -> bool:
        return self.times is None or attempt <= self.times


@dataclass(frozen=True)
class FaultPlan:
    """A set of planned faults, keyed by spec label.

    Consulted by ``execute_spec`` around every real run attempt —
    identically in the serial path and in pool workers, which receive
    it with the pickled ``ExperimentConfig.fault_plan``. ``attempt`` numbering
    makes the plan fully deterministic: ``crash`` with ``times=1``
    always fails the first attempt and always lets the retry succeed.
    """

    faults: Tuple[Fault, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        faults: List[Fault] = []
        entries = [e.strip() for chunk in text.split(";")
                   for e in chunk.split(",") if e.strip()]
        for entry in entries:
            if "=" not in entry:
                raise ValueError(
                    f"bad fault entry {entry!r}: expected "
                    "'label=mode[:times][:seconds]'")
            label, _, rest = entry.partition("=")
            parts = rest.split(":")
            mode = parts[0].strip()
            times: Optional[int] = 1
            # The third slot is mode-dependent: hang duration in seconds,
            # or — for ckptkill — the save ordinal to die after.
            seconds = 1.0 if mode == "ckptkill" else 30.0
            if len(parts) > 1 and parts[1].strip():
                raw = parts[1].strip()
                times = None if raw == "*" else int(raw)
            if len(parts) > 2 and parts[2].strip():
                seconds = float(parts[2].strip())
            if len(parts) > 3:
                raise ValueError(f"bad fault entry {entry!r}: too many ':'")
            faults.append(Fault(label=label.strip(), mode=mode,
                                times=times, seconds=seconds))
        return cls(faults=tuple(faults))

    def fault_for(self, label: str, attempt: int) -> Optional[Fault]:
        for fault in self.faults:
            if fault.label == label and fault.fires(attempt):
                return fault
        return None

    # -- hooks called by execute_spec ----------------------------------

    def before_run(self, label: str, attempt: int) -> None:
        """Fire crash / kill / hang faults planned for this attempt."""
        fault = self.fault_for(label, attempt)
        if fault is None:
            return
        if fault.mode == "crash":
            raise InjectedCrash(
                f"injected crash: {label} attempt {attempt}")
        if fault.mode == "kill":
            os._exit(1)  # simulate an OOM-kill: no cleanup, no excuses
        if fault.mode == "hang":
            time.sleep(fault.seconds)
        # "ckptkill" deliberately does NOT fire here: it is consumed by
        # the checkpoint layer (see kill_after_saves), which hard-exits
        # right after the N-th snapshot lands — a mid-flight death that
        # leaves a valid checkpoint for the retry to resume from.

    def kill_after_saves(self, label: str, attempt: int) -> Optional[int]:
        """``ckptkill`` plan for this attempt: die after the N-th save.

        The entry ``label=ckptkill[:times][:N]`` reuses the *seconds*
        slot as the save ordinal N (default 1: die right after the
        first snapshot). Returns None when no such fault is planned.
        """
        fault = self.fault_for(label, attempt)
        if fault is not None and fault.mode == "ckptkill":
            return max(1, int(fault.seconds))
        return None

    def after_run(self, label: str, attempt: int, result: object) -> object:
        """Replace the result with a corrupt payload when planned."""
        fault = self.fault_for(label, attempt)
        if fault is not None and fault.mode == "corrupt":
            return dict(CORRUPT_PAYLOAD)
        return result
