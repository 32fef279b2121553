"""Workload names: resolution, sources, replay fidelity, cache tokens."""

import dataclasses
import subprocess
import sys

import pytest

from repro.experiments.runner import ExperimentConfig
from repro.experiments.specs import RunSpec, spec_cache_key
from repro.sim.config import SimConfig
from repro.sim.system import make_traces, run_benchmark
from repro.workloads.profiles import PROFILES, profile_for
from repro.workloads.registry import (
    SYNTHETIC_PREFIX,
    SyntheticSource,
    TraceFileSource,
    UnknownWorkloadError,
    WorkloadError,
    create_workload,
    list_workloads,
    resolve_workload,
    resolve_workloads,
    workload_cache_token,
)
from repro.workloads.trace import save_multi_trace

ALL_WORKLOADS = sorted(PROFILES)
SMALL = SimConfig(target_dram_reads=200)


def record_trace(path, benchmark="mcf", config=SMALL):
    """Capture ``benchmark`` exactly like ``repro trace record`` does."""
    source = create_workload(benchmark)
    traces = [list(stream) for stream in source.streams(config)]
    save_multi_trace(traces, path, metadata={
        "benchmark": source.display_benchmark(),
        "seed": str(config.seed),
        "target_dram_reads": str(config.target_dram_reads)})
    return path


class TestResolution:
    def test_every_profile_is_a_workload(self):
        rows = list_workloads()
        assert [row["name"] for row in rows[:-1]] == ALL_WORKLOADS
        assert rows[-1]["name"] == "trace:<path>"

    def test_canonical_names_resolve_to_themselves(self):
        for name in ALL_WORKLOADS:
            assert resolve_workload(name) == name

    def test_synthetic_prefix_coalesces_with_bare_name(self):
        assert resolve_workload("synthetic:mcf") == "mcf"
        assert resolve_workload("  synthetic: mcf ") == "mcf"

    def test_lowercase_aliases(self):
        assert resolve_workload("gemsfdtd") == "GemsFDTD"
        assert resolve_workload("synthetic:dealii") == "dealII"

    def test_unknown_name_suggests(self):
        with pytest.raises(UnknownWorkloadError) as excinfo:
            resolve_workload("mcff")
        assert "mcf" in str(excinfo.value)
        assert "list-workloads" in str(excinfo.value)

    def test_non_string_rejected(self):
        with pytest.raises(WorkloadError):
            resolve_workload(42)

    def test_empty_trace_path_rejected(self):
        with pytest.raises(WorkloadError, match="needs a path"):
            resolve_workload("trace:")

    def test_missing_trace_file_rejected(self):
        with pytest.raises(WorkloadError, match="not found"):
            resolve_workload("trace:/no/such/file.trace")

    def test_lists_are_canonical_and_deduped(self):
        assert resolve_workloads(
            ["gemsfdtd", "synthetic:mcf", "mcf", " GemsFDTD "]) == (
                "GemsFDTD", "mcf")
        with pytest.raises(UnknownWorkloadError, match="mcff"):
            resolve_workloads(["mcf", "mcff"])


class TestRegistration:
    """The synthetic family is ``PROFILES`` itself, so the old
    registration-time checks are checks on the listing rows."""

    def test_duplicate_name_rejected(self):
        names = [row["name"] for row in list_workloads()[:-1]]
        assert names == ALL_WORKLOADS
        # Lookups fold case, so no two names may differ by case alone.
        assert len({name.lower() for name in names}) == len(names)

    def test_alias_clash_rejected(self):
        rows = list_workloads()[:-1]
        keys = [key for row in rows for key in [row["name"]] + row["aliases"]]
        assert len(keys) == len(set(keys))
        for row in rows:
            for key in [row["name"]] + row["aliases"]:
                assert resolve_workload(key) == row["name"]
                assert resolve_workload(SYNTHETIC_PREFIX + key) == row["name"]

    def test_prefixed_name_rejected(self):
        # No profile name carries a family prefix, so a prefixed name
        # only ever means its family.
        assert not any(":" in name for name in ALL_WORKLOADS)
        with pytest.raises(UnknownWorkloadError):
            resolve_workload(SYNTHETIC_PREFIX + "trace:mcf")

    def test_descriptors_expose_capabilities(self):
        for row in list_workloads():
            assert row["streaming"] is True
            assert row["description"]
            assert row["kind"] == ("trace" if row["name"] == "trace:<path>"
                                   else "synthetic")

    def test_get_workload_for_trace_family(self, tmp_path):
        path = record_trace(tmp_path / "t.trace")
        source = create_workload(f"trace:{path}")
        assert source.name == f"trace:{path}"
        assert source.describe()["kind"] == "trace"


class TestConformance:
    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_every_builtin_builds_conformant(self, name):
        source = create_workload(name)
        assert isinstance(source, SyntheticSource)
        assert source.profile is PROFILES[name]
        assert source.display_benchmark() == name
        assert source.cache_token() == workload_cache_token(name)


class TestSyntheticStreams:
    def test_streams_match_materialized_traces(self):
        """The streaming pipeline must reproduce the draw sequence of
        the list-building path exactly — this is what keeps the golden
        kernel matrix byte-identical."""
        source = create_workload("mcf")
        streamed = [list(s) for s in source.streams(SMALL)]
        assert streamed == make_traces(profile_for("mcf"), SMALL)

    def test_streams_are_lazy_iterators(self):
        streams = create_workload("leslie3d").streams(SMALL)
        assert len(streams) == SMALL.num_cores
        for stream in streams:
            assert iter(stream) is stream  # an iterator, not a list


class TestTraceReplay:
    def test_replay_reproduces_synthetic_result(self, tmp_path):
        """A recorded trace must replay to the *identical* SimResult:
        same records, same metadata-restored benchmark and profile
        (hence identical L2 prewarm)."""
        path = record_trace(tmp_path / "mcf.trace", "mcf", SMALL)
        synthetic = run_benchmark("mcf", SMALL)
        replayed = run_benchmark(f"trace:{path}", SMALL)
        assert dataclasses.asdict(replayed) == dataclasses.asdict(synthetic)

    def test_trace_source_restores_profile(self, tmp_path):
        path = record_trace(tmp_path / "mcf.trace")
        source = create_workload(f"trace:{path}")
        assert isinstance(source, TraceFileSource)
        assert source.profile is PROFILES["mcf"]
        assert source.display_benchmark() == "mcf"
        assert source.num_cores == SMALL.num_cores

    def test_core_count_mismatch_rejected(self, tmp_path):
        path = record_trace(tmp_path / "mcf.trace", config=SMALL)
        source = create_workload(f"trace:{path}")
        with pytest.raises(WorkloadError, match="num_cores"):
            source.streams(SimConfig(num_cores=SMALL.num_cores + 1))

    def test_corrupt_file_raises_workload_error(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("not a trace\n")
        with pytest.raises(WorkloadError, match="bad trace file"):
            create_workload(f"trace:{path}")


class TestCacheTokens:
    CONFIG = ExperimentConfig(target_dram_reads=100)

    def test_synthetic_prefix_shares_cache_keys(self):
        assert (spec_cache_key(RunSpec("synthetic:mcf", "rl"), self.CONFIG)
                == spec_cache_key(RunSpec("mcf", "rl"), self.CONFIG))

    def test_profiles_token_differ_per_benchmark(self):
        tokens = {workload_cache_token(name) for name in ALL_WORKLOADS}
        assert len(tokens) == len(ALL_WORKLOADS)

    def test_editing_trace_file_changes_key(self, tmp_path):
        """Same spec, same config — but re-recorded file contents must
        produce a different v8 key (the whole point of the token)."""
        path = record_trace(tmp_path / "t.trace")
        spec = RunSpec(f"trace:{path}", "ddr3")
        before = spec_cache_key(spec, self.CONFIG)
        with open(path, "a") as handle:
            handle.write("# note=edited\n")
        after = spec_cache_key(RunSpec(f"trace:{path}", "ddr3"), self.CONFIG)
        assert before != after
        # Only the workload-token part moved.
        diff = [i for i, (a, b) in enumerate(
            zip(before.split("|"), after.split("|"))) if a != b]
        assert diff == [8]

    def test_synthetic_key_stable_across_processes(self):
        local = spec_cache_key(RunSpec("synthetic:mcf", "rl"), self.CONFIG)
        script = (
            "from repro.experiments.runner import ExperimentConfig\n"
            "from repro.experiments.specs import RunSpec, spec_cache_key\n"
            "print(spec_cache_key(RunSpec('synthetic:mcf', 'rl'),"
            " ExperimentConfig(target_dram_reads=100)))\n")
        remote = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True).stdout.strip()
        assert remote == local

    def test_trace_key_stable_across_processes(self, tmp_path):
        path = record_trace(tmp_path / "t.trace")
        spec = RunSpec(f"trace:{path}", "rl")
        local = spec_cache_key(spec, self.CONFIG)
        script = (
            "import sys\n"
            "from repro.experiments.runner import ExperimentConfig\n"
            "from repro.experiments.specs import RunSpec, spec_cache_key\n"
            "print(spec_cache_key(RunSpec('trace:' + sys.argv[1], 'rl'),"
            " ExperimentConfig(target_dram_reads=100)))\n")
        remote = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            capture_output=True, text=True, check=True).stdout.strip()
        assert remote == local


class TestRunSpecValidation:
    def test_runspec_canonicalises_workload(self):
        assert RunSpec("synthetic:mcf", "rl") == RunSpec("mcf", "rl")
        assert RunSpec("gemsfdtd", "ddr3").benchmark == "GemsFDTD"

    def test_runspec_rejects_unknown_workload(self):
        with pytest.raises(UnknownWorkloadError):
            RunSpec("quake", "ddr3")
