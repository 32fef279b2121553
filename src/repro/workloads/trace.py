"""Trace file I/O.

Traces are lists of :class:`~repro.cpu.core.TraceRecord`; this module
persists them in a compact line-oriented text format so users can
capture, inspect, edit, and replay workloads independently of the
generators:

    # repro-trace v1
    # benchmark=mcf core=0
    <gap> <R|W> <hex address>

Blank lines and ``#`` comments are ignored. The format is intentionally
diff-friendly and greppable.

Multi-core captures (one section per core) reuse the same format:
``# core=<i>`` comment lines delimit per-core sections, and a
``# records=<n>`` metadata line carries the total record count so a
truncated file is rejected instead of silently replaying short. Legacy
single-core readers see the markers as ordinary metadata comments and
flatten the sections — the format stays v1.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, TextIO, Tuple, Union

from repro.cpu.core import TraceRecord

MAGIC = "# repro-trace v1"

#: Addresses are unsigned 64-bit byte addresses.
ADDRESS_LIMIT = 1 << 64

#: Metadata keys written by :func:`save_multi_trace` itself; callers'
#: metadata must not collide with the structural keys.
RESERVED_KEYS = ("core", "cores", "records")


def save_trace(trace: Iterable[TraceRecord],
               destination: Union[str, Path, TextIO],
               metadata: Optional[Dict[str, str]] = None) -> None:
    """Write one core's trace."""
    own = isinstance(destination, (str, Path))
    handle = open(destination, "w") if own else destination
    try:
        handle.write(MAGIC + "\n")
        for key, value in (metadata or {}).items():
            handle.write(f"# {key}={value}\n")
        for record in trace:
            kind = "W" if record.is_write else "R"
            handle.write(f"{record.gap} {kind} {record.address:#x}\n")
    finally:
        if own:
            handle.close()


def save_multi_trace(traces: Sequence[Sequence[TraceRecord]],
                     destination: Union[str, Path, TextIO],
                     metadata: Optional[Dict[str, str]] = None) -> None:
    """Write a multi-core capture: metadata, then one section per core.

    ``cores`` and ``records`` metadata are derived from ``traces`` (a
    caller-supplied value for a :data:`RESERVED_KEYS` key is an error —
    those keys are structural).
    """
    for key in metadata or {}:
        if key in RESERVED_KEYS:
            raise ValueError(
                f"metadata key {key!r} is reserved (one of {RESERVED_KEYS})")
    own = isinstance(destination, (str, Path))
    handle = open(destination, "w") if own else destination
    try:
        handle.write(MAGIC + "\n")
        for key, value in (metadata or {}).items():
            handle.write(f"# {key}={value}\n")
        handle.write(f"# cores={len(traces)}\n")
        handle.write(f"# records={sum(len(t) for t in traces)}\n")
        for core_id, trace in enumerate(traces):
            handle.write(f"# core={core_id}\n")
            for record in trace:
                kind = "W" if record.is_write else "R"
                handle.write(f"{record.gap} {kind} {record.address:#x}\n")
    finally:
        if own:
            handle.close()


def _parse(handle: TextIO) -> Tuple[List[List[TraceRecord]], Dict[str, str]]:
    """Shared reader: per-core sections + metadata, fully validated.

    Records before any ``# core=`` marker form section 0; every marker
    must name the next sequential core. Raises :class:`ValueError` with
    the offending line number for malformed records (wrong field count,
    bad kind letter, unparseable integers, a negative gap, or an address
    outside ``[0, 2**64)``) and for inconsistent
    ``cores``/``records`` metadata (truncated or padded files).
    """
    first = handle.readline().rstrip("\n")
    if first != MAGIC:
        raise ValueError(f"not a repro trace (header {first!r})")
    sections: List[List[TraceRecord]] = [[]]
    current = sections[0]
    metadata: Dict[str, str] = {}
    for lineno, line in enumerate(handle, start=2):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                key, value = key.strip(), value.strip()
                if key == "core":
                    try:
                        core_id = int(value)
                    except ValueError:
                        raise ValueError(
                            f"line {lineno}: malformed core marker "
                            f"{line!r}") from None
                    if core_id == 0 and not sections[0]:
                        pass  # leading marker names the implicit section
                    elif core_id != len(sections):
                        raise ValueError(
                            f"line {lineno}: core sections must be "
                            f"sequential; marker names core {core_id}, "
                            f"expected {len(sections)}")
                    else:
                        sections.append([])
                        current = sections[-1]
                metadata[key] = value
            continue
        parts = line.split()
        if len(parts) != 3 or parts[1] not in ("R", "W"):
            raise ValueError(f"line {lineno}: malformed record {line!r}")
        try:
            gap = int(parts[0])
            address = int(parts[2], 16)
        except ValueError:
            raise ValueError(
                f"line {lineno}: malformed record {line!r} "
                "(gap must be a decimal integer, address hex)") from None
        if gap < 0:
            raise ValueError(f"line {lineno}: negative gap in {line!r}")
        if not 0 <= address < ADDRESS_LIMIT:
            raise ValueError(
                f"line {lineno}: address out of range in {line!r} "
                "(must be in [0, 2**64))")
        current.append(TraceRecord(gap=gap, is_write=parts[1] == "W",
                                   address=address))
    total = sum(len(s) for s in sections)
    declared = metadata.get("records")
    if declared is not None:
        try:
            expected = int(declared)
        except ValueError:
            raise ValueError(
                f"malformed records metadata {declared!r}") from None
        if expected != total:
            raise ValueError(
                f"truncated trace: records={expected} declared, "
                f"{total} found")
    declared_cores = metadata.get("cores")
    if declared_cores is not None:
        try:
            expected_cores = int(declared_cores)
        except ValueError:
            raise ValueError(
                f"malformed cores metadata {declared_cores!r}") from None
        if expected_cores != len(sections):
            raise ValueError(
                f"truncated trace: cores={expected_cores} declared, "
                f"{len(sections)} section(s) found")
    return sections, metadata


def load_trace(source: Union[str, Path, TextIO]
               ) -> Tuple[List[TraceRecord], Dict[str, str]]:
    """Read a trace; returns (records, metadata).

    Multi-core files flatten to one record list (sections in core
    order) — the single-core view of a capture.
    """
    sections, metadata = _load(source)
    return [record for section in sections for record in section], metadata


def load_multi_trace(source: Union[str, Path, TextIO]
                     ) -> Tuple[List[List[TraceRecord]], Dict[str, str]]:
    """Read a capture as per-core record lists; returns (traces, metadata).

    Files without ``# core=`` markers load as a single section.
    """
    return _load(source)


def _load(source: Union[str, Path, TextIO]
          ) -> Tuple[List[List[TraceRecord]], Dict[str, str]]:
    own = isinstance(source, (str, Path))
    handle = open(source) if own else source
    try:
        return _parse(handle)
    finally:
        if own:
            handle.close()


def trace_to_string(trace: Iterable[TraceRecord],
                    metadata: Optional[Dict[str, str]] = None) -> str:
    buffer = io.StringIO()
    save_trace(trace, buffer, metadata)
    return buffer.getvalue()


def trace_from_string(text: str) -> Tuple[List[TraceRecord], Dict[str, str]]:
    return load_trace(io.StringIO(text))


def trace_stats(trace: Iterable[TraceRecord]) -> Dict[str, float]:
    """Quick summary for inspection tools."""
    records = list(trace)
    if not records:
        return {"records": 0, "instructions": 0, "write_fraction": 0.0,
                "distinct_lines": 0, "mean_gap": 0.0}
    lines = {r.address // 64 for r in records}
    return {
        "records": len(records),
        "instructions": sum(r.gap + 1 for r in records),
        "write_fraction": sum(r.is_write for r in records) / len(records),
        "distinct_lines": len(lines),
        "mean_gap": sum(r.gap for r in records) / len(records),
    }
