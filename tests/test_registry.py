"""Backend table: resolution, builds, cache-key version."""

import enum
import subprocess
import sys

import pytest

from repro.experiments.runner import ExperimentConfig
from repro.experiments.specs import RunSpec, spec_cache_key
from repro.memsys.base import MemorySystem
from repro.memsys.registry import (
    BACKENDS,
    BackendError,
    UnknownBackendError,
    backend_names,
    build_memory,
    resolve_name,
)
from repro.sim.config import SimConfig
from repro.sim.system import run_benchmark
from repro.util.events import EventQueue
from repro.workloads.profiles import profile_for

ALL_BACKENDS = backend_names()
TINY = SimConfig(target_dram_reads=60)


class TestResolution:
    def test_canonical_names_resolve_to_themselves(self):
        for name in ALL_BACKENDS:
            assert resolve_name(name) == name

    @pytest.mark.parametrize("alias,canonical", [
        ("baseline", "ddr3"),
        ("rldram", "rldram3"),
        ("lpddr", "lpddr2"),
        ("pp", "page_placement"),
        ("hmc", "hmc_cwf"),
    ])
    def test_aliases(self, alias, canonical):
        assert resolve_name(alias) == canonical

    def test_normalisation(self):
        assert resolve_name("  DDR3 ") == "ddr3"
        assert resolve_name("hmc-cwf") == "hmc_cwf"

    def test_unknown_name_suggests(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            resolve_name("hmc_cfw")
        assert "hmc_cwf" in str(excinfo.value)
        assert "list-backends" in str(excinfo.value)

    def test_non_string_rejected(self):
        with pytest.raises(BackendError):
            resolve_name(42)

        class Organisation(enum.Enum):
            RL = "rl"

        # A str-valued enum member is not a name, even when its value is.
        with pytest.raises(BackendError):
            resolve_name(Organisation.RL)

    def test_runspec_and_simconfig_canonicalise(self):
        assert RunSpec("mcf", "RL") == RunSpec("mcf", "rl")
        assert SimConfig(memory="baseline").memory == "ddr3"
        with pytest.raises(UnknownBackendError):
            SimConfig(memory="ddr4")


class TestRegistration:
    """The table is closed: a new organisation is one more row, so the
    old registration-time checks are checks on the rows themselves."""

    def test_duplicate_name_rejected(self):
        names = [row.name for row in BACKENDS]
        assert len(names) == len(set(names))
        assert sorted(names) == ALL_BACKENDS

    def test_alias_clash_rejected(self):
        keys = [key for row in BACKENDS for key in (row.name,) + row.aliases]
        assert len(keys) == len(set(keys))
        for row in BACKENDS:
            for key in (row.name,) + row.aliases:
                assert key == key.lower().replace("-", "_")
                assert resolve_name(key) == row.name

    def test_descriptors_expose_capabilities(self):
        assert len(BACKENDS) == 13
        for row in BACKENDS:
            assert row.description and row.paper_section
            assert row.is_heterogeneous == (len(row.dram_families) > 1)


class TestConformance:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_every_backend_builds_conformant(self, name):
        memory = build_memory(TINY.with_memory(name), EventQueue(),
                              profile=profile_for("mcf"))
        assert isinstance(memory, MemorySystem)
        described = memory.describe()
        assert described["backend"] == name
        assert described["controllers"]

    def test_nonconformant_rejected(self):
        class Bogus(MemorySystem):
            def chip_groups(self):
                return []

        with pytest.raises(TypeError, match="issue_read"):
            Bogus()


class TestTinyRuns:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_every_backend_completes_a_run(self, name):
        result = run_benchmark("mcf", TINY.with_memory(name))
        assert result.memory == name
        assert result.elapsed_cycles > 0
        assert result.dram_reads >= TINY.target_dram_reads
        assert result.avg_critical_latency > 0.0


class TestCacheKeyVersion:
    def test_v8_differs_from_older_formats(self):
        config = ExperimentConfig(target_dram_reads=100)
        key = spec_cache_key(RunSpec("mcf", "rl"), config)
        assert key.startswith("v8|")
        assert not key.startswith(("v6|", "v7|"))

    def test_stable_across_processes(self):
        config = ExperimentConfig(target_dram_reads=100)
        local = spec_cache_key(RunSpec("mcf", "hmc_cwf"), config)
        script = (
            "from repro.experiments.runner import ExperimentConfig\n"
            "from repro.experiments.specs import RunSpec, spec_cache_key\n"
            "print(spec_cache_key(RunSpec('mcf', 'hmc_cwf'),"
            " ExperimentConfig(target_dram_reads=100)))\n")
        remote = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True).stdout.strip()
        assert remote == local
