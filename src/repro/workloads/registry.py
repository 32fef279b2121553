"""Workload names and the sources they build.

The paper's methodology replays one workload against every memory
organisation. A workload name resolves to one of two closed families,
and :func:`create_workload` builds its source — the object the
simulator drives:

* ``synthetic:<profile>`` (or the bare profile name — ``mcf`` and
  ``synthetic:mcf`` are the same workload and share cache entries) is a
  :class:`SyntheticSource`. The family is
  :data:`~repro.workloads.profiles.PROFILES` itself; profile names are
  case-sensitive (``GemsFDTD``, ``dealII``), and each also answers to
  its lowercase spelling;
* ``trace:<path>`` is a :class:`TraceFileSource` replaying a
  repro-trace v1 file recorded with ``repro trace record`` (or captured
  elsewhere), with the file's sha256 as its cache token.

Both sources offer:

* ``streams(config)`` — one lazy ``Iterator[TraceRecord]`` per core,
  pulled as the cores fetch;
* ``cache_token()`` — a content digest folded into the ``v8``
  result-cache key, so cached results invalidate when the workload's
  *contents* change (a profile edit, a re-recorded trace file) though
  its name does not;
* ``profile`` — the :class:`~repro.workloads.profiles.BenchmarkProfile`
  when one is known (drives L2 prewarming and profile-guided
  backends), else ``None``;
* ``display_benchmark()`` — the benchmark name reported on the
  :class:`~repro.sim.system.SimResult`.

Unknown names raise :class:`UnknownWorkloadError` with did-you-mean
suggestions, mirroring :class:`~repro.memsys.registry.UnknownBackendError`.
Adding a synthetic workload is adding a profile to ``PROFILES``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.cpu.core import TraceRecord
from repro.util.suggest import close_matches, did_you_mean
from repro.workloads.profiles import PROFILES, BenchmarkProfile, profile_for

SYNTHETIC_PREFIX = "synthetic:"
TRACE_PREFIX = "trace:"

# Lowercase spelling -> profile name, so lookups are case-forgiving.
_PROFILE_BY_LOWERCASE = {name.lower(): name for name in PROFILES}


class WorkloadError(ValueError):
    """A workload name or trace file that cannot be used."""


class UnknownWorkloadError(WorkloadError):
    """Lookup of a name no workload answers (carries a did-you-mean)."""

    def __init__(self, name: str, suggestions: Sequence[str] = ()) -> None:
        self.name = name
        self.suggestions = list(suggestions)
        message = (f"unknown workload {name!r}"
                   + did_you_mean(self.suggestions)
                   + " (run 'repro list-workloads' for the full list)")
        super().__init__(message)


class SyntheticSource:
    """Streams deterministic synthetic traces for one benchmark profile."""

    def __init__(self, name: str,
                 profile: Optional[BenchmarkProfile] = None) -> None:
        self.name = name
        self.profile = profile if profile is not None else profile_for(name)

    def streams(self, config) -> List[Iterator[TraceRecord]]:
        """One lazy per-core record stream, sized like ``make_traces``."""
        from repro.workloads.synthetic import stream_core_trace
        per_core = max(1, config.target_dram_reads // config.num_cores)
        return [stream_core_trace(self.profile, core_id, per_core,
                                  config.seed)
                for core_id in range(config.num_cores)]

    def cache_token(self) -> str:
        return _profile_token(self.profile)

    def display_benchmark(self) -> str:
        return self.name


class TraceFileSource:
    """Replays a repro-trace v1 file, one section per core.

    The file parses once at construction; ``streams`` hands out fresh
    iterators over the parsed sections, so one source can feed several
    runs. The benchmark named in the file's metadata links back to a
    profile when possible — that keeps L2 prewarming and
    profile-guided backends identical to the synthetic run the trace
    was recorded from, which is what makes replay bit-exact.
    """

    def __init__(self, path: str) -> None:
        from repro.workloads.trace import load_multi_trace
        self.path = str(path)
        self.name = TRACE_PREFIX + self.path
        try:
            self._traces, self.metadata = load_multi_trace(self.path)
        except OSError as exc:
            raise WorkloadError(
                f"cannot read trace file {self.path!r}: {exc}") from None
        except ValueError as exc:
            raise WorkloadError(
                f"bad trace file {self.path!r}: {exc}") from None
        self.profile: Optional[BenchmarkProfile] = None
        benchmark = self.metadata.get("benchmark", "")
        if benchmark and benchmark in PROFILES:
            self.profile = PROFILES[benchmark]

    @property
    def num_cores(self) -> int:
        return len(self._traces)

    def streams(self, config) -> List[Iterator[TraceRecord]]:
        if config.num_cores != len(self._traces):
            raise WorkloadError(
                f"trace {self.path!r} holds {len(self._traces)} core "
                f"section(s) but the run wants num_cores="
                f"{config.num_cores}; re-record with --cores "
                f"{config.num_cores} or match num_cores to the capture")
        return [iter(section) for section in self._traces]

    def cache_token(self) -> str:
        return _file_token(self.path)

    def display_benchmark(self) -> str:
        return self.metadata.get("benchmark") or self.name

    def describe(self) -> Dict[str, object]:
        return {"name": self.name, "kind": "trace",
                "path": self.path, "cores": len(self._traces),
                "records": sum(len(s) for s in self._traces),
                "metadata": dict(self.metadata),
                "cache_token": self.cache_token()}


# ---------------------------------------------------------------------------
# Lookup
# ---------------------------------------------------------------------------


def resolve_workload(name) -> str:
    """Canonical workload name for ``name``.

    Bare profile names and ``synthetic:<profile>`` canonicalise to the
    profile's spelling in ``PROFILES`` (so both key the cache
    identically); ``trace:<path>`` canonicalises to itself after
    checking the file exists. Raises :class:`UnknownWorkloadError` —
    with close-match suggestions — when nothing answers the name.
    """
    if not isinstance(name, str):
        raise WorkloadError(
            f"workload must be a name, got {type(name).__name__}")
    key = name.strip()
    if key.lower().startswith(TRACE_PREFIX):
        path = key[len(TRACE_PREFIX):].strip()
        if not path:
            raise WorkloadError("trace workload needs a path: trace:<path>")
        if not os.path.isfile(path):
            raise WorkloadError(f"trace file not found: {path!r}")
        return TRACE_PREFIX + path
    if key.lower().startswith(SYNTHETIC_PREFIX):
        key = key[len(SYNTHETIC_PREFIX):].strip()
    canonical = _PROFILE_BY_LOWERCASE.get(key.lower())
    if canonical is None:
        raise UnknownWorkloadError(name, close_matches(key, PROFILES))
    return canonical


def resolve_workloads(names: Iterable[str]) -> Tuple[str, ...]:
    """Canonical names for ``names``, each once, first spelling first
    (``mcf,synthetic:mcf`` is one workload)."""
    return tuple(dict.fromkeys(resolve_workload(name) for name in names))


def create_workload(name) -> Union[SyntheticSource, TraceFileSource]:
    """Build the source of workload ``name``."""
    canonical = resolve_workload(name)
    if canonical.startswith(TRACE_PREFIX):
        return TraceFileSource(canonical[len(TRACE_PREFIX):])
    return SyntheticSource(canonical, PROFILES[canonical])


def _profile_description(profile: BenchmarkProfile) -> str:
    if profile.stream_fraction >= 0.7:
        shape = "streaming"
    elif profile.stream_fraction <= 0.3:
        shape = "pointer-chasing"
    else:
        shape = "mixed"
    return (f"synthetic {shape} profile, "
            f"{profile.footprint_lines}-line footprint")


def list_workloads() -> List[Dict[str, object]]:
    """The ``repro list-workloads`` rows: every profile, sorted by
    name, then the ``trace:<path>`` family."""
    rows = [{"name": name,
             "aliases": [name.lower()] if name.lower() != name else [],
             "description": _profile_description(PROFILES[name]),
             "kind": "synthetic", "suite": PROFILES[name].suite,
             "streaming": True}
            for name in sorted(PROFILES)]
    rows.append({"name": "trace:<path>", "aliases": [],
                 "description": "replay a repro-trace v1 file "
                                "(record one with 'repro trace record')",
                 "kind": "trace", "suite": "", "streaming": True})
    return rows


# ---------------------------------------------------------------------------
# Cache tokens
# ---------------------------------------------------------------------------

_PROFILE_TOKENS: Dict[str, str] = {}
_FILE_TOKENS: Dict[Tuple[str, int, int], str] = {}


def _profile_token(profile: BenchmarkProfile) -> str:
    """Digest of the profile's full parameter set (any calibration edit
    must invalidate cached results for that benchmark)."""
    token = _PROFILE_TOKENS.get(profile.name)
    if token is None:
        payload = json.dumps(dataclasses.asdict(profile), sort_keys=True,
                             default=str)
        token = hashlib.sha256(payload.encode()).hexdigest()[:16]
        _PROFILE_TOKENS[profile.name] = token
    return token


def _file_token(path: str) -> str:
    """Digest of the trace file's bytes, memoized on (path, mtime, size)."""
    try:
        stat = os.stat(path)
        key = (os.path.abspath(path), stat.st_mtime_ns, stat.st_size)
        token = _FILE_TOKENS.get(key)
        if token is None:
            with open(path, "rb") as handle:
                token = hashlib.sha256(handle.read()).hexdigest()[:16]
            if len(_FILE_TOKENS) > 256:
                _FILE_TOKENS.clear()
            _FILE_TOKENS[key] = token
        return token
    except OSError as exc:
        raise WorkloadError(
            f"cannot read trace file {path!r}: {exc}") from None


def workload_cache_token(name) -> str:
    """The content token folded into ``v8`` cache keys for ``name``."""
    canonical = resolve_workload(name)
    if canonical.startswith(TRACE_PREFIX):
        return _file_token(canonical[len(TRACE_PREFIX):])
    return _profile_token(PROFILES[canonical])
