"""Crash-safe checkpoint/resume: format, quarantine, determinism.

The load-bearing guarantee: a run that dies mid-flight and resumes from
its last snapshot produces a :class:`SimResult` byte-identical to the
uninterrupted run — verified here in-process (manual save + resume),
through ``execute_spec`` (serial), and end-to-end through the parallel
executor with an injected ``ckptkill`` fault (the worker hard-exits
right after a snapshot lands; the retry resumes).
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import pickletools

import pytest

from repro.experiments.resilience import FaultPlan
from repro.experiments.runner import (
    ConfigError,
    ExperimentConfig,
    default_config,
)
from repro.experiments.specs import (
    RunSpec,
    execute_spec,
    simulate,
    spec_cache_key,
)
from repro.memsys.registry import backend_names
from repro.sim.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    Checkpointer,
    checkpoint_path,
    load_checkpoint,
)
from repro.sim.config import SimConfig
from repro.sim.system import SimulationSystem, prewarm_l2, run_benchmark
from repro.workloads.registry import create_workload

READS = 1200
EVERY = 400


def result_bytes(result) -> str:
    return json.dumps(dataclasses.asdict(result), sort_keys=True)


def fresh_system(benchmark: str, config: SimConfig) -> SimulationSystem:
    """Mirror run_benchmark's setup with picklable (materialized) traces."""
    source = create_workload(benchmark)
    traces = [list(stream) for stream in source.streams(config)]
    system = SimulationSystem(config, traces, profile=source.profile)
    if source.profile is not None:
        prewarm_l2(system, source.profile)
    return system


@pytest.fixture()
def sim_config():
    return SimConfig(memory="rl", target_dram_reads=READS, seed=42)


@pytest.fixture()
def baseline(sim_config):
    return result_bytes(run_benchmark("mcf", sim_config))


# ---------------------------------------------------------------------------
# Format plumbing
# ---------------------------------------------------------------------------


def test_checkpoint_path_is_deterministic(tmp_path):
    a = checkpoint_path(tmp_path, "v8|mcf|rl|...")
    b = checkpoint_path(tmp_path, "v8|mcf|rl|...")
    assert a == b and a.name.startswith("ck-") and a.suffix == ".ckpt"
    assert a != checkpoint_path(tmp_path, "v8|mcf|ddr3|...")


def test_checkpoint_every_env(monkeypatch):
    monkeypatch.delenv("REPRO_CHECKPOINT_EVERY", raising=False)
    assert default_config().checkpoint_every == 1000
    monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "250")
    assert default_config().checkpoint_every == 250
    # No cadence below one read: -3 and "soon" get the same one answer.
    for text in ("-3", "0", "soon"):
        monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", text)
        with pytest.raises(ConfigError, match="REPRO_CHECKPOINT_EVERY "
                           "must be a positive number of DRAM reads"):
            default_config()


# ---------------------------------------------------------------------------
# Save / load roundtrip and resume determinism
# ---------------------------------------------------------------------------


def test_midrun_snapshot_resumes_byte_identical(tmp_path, sim_config,
                                                baseline):
    path = tmp_path / "mid.ckpt"
    system = fresh_system("mcf", sim_config)
    ckpt = Checkpointer(path, "key-1", benchmark="mcf", every_reads=EVERY)
    uninterrupted = system.run(checkpointer=ckpt)
    assert ckpt.saves >= 2
    uninterrupted.benchmark = "mcf"  # run() leaves the label to callers
    assert result_bytes(uninterrupted) == baseline

    header = json.loads(path.read_bytes().partition(b"\n")[0])
    assert header["version"] == CHECKPOINT_VERSION
    assert header["cache_key"] == "key-1"
    assert header["benchmark"] == "mcf"
    assert 0 < header["reads"] < READS

    restored, executed, loaded_header = load_checkpoint(
        path, expect_cache_key="key-1")
    assert loaded_header == header
    resumed = restored.resume_run(executed=executed)
    resumed.benchmark = "mcf"
    assert result_bytes(resumed) == baseline


def test_unpicklable_state_disables_checkpointer(tmp_path, sim_config,
                                                 baseline, capsys):
    system = fresh_system("mcf", sim_config)
    system._poison = lambda: None  # lambdas cannot pickle
    ckpt = Checkpointer(tmp_path / "never.ckpt", "key", every_reads=EVERY)
    result = system.run(checkpointer=ckpt)
    result.benchmark = "mcf"
    assert result_bytes(result) == baseline  # the run itself is unharmed
    assert ckpt.disabled and ckpt.saves == 0
    assert "lambda" in (ckpt.last_error or "").lower() \
        or "pickle" in (ckpt.last_error or "").lower()
    assert not (tmp_path / "never.ckpt").exists()
    # Disabling is reported once, on stderr, with the error.
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and ckpt.last_error in lines[0]


@pytest.mark.parametrize("memory", backend_names())
def test_every_backend_checkpoints_and_resumes(tmp_path, memory):
    """Each registered organisation pickles mid-run (no closures or
    local classes in its state) and resumes byte-identically."""
    config = SimConfig(memory=memory, target_dram_reads=800, seed=42)
    expected = result_bytes(run_benchmark("mcf", config))
    path = tmp_path / "backend.ckpt"
    ckpt = Checkpointer(path, "key", benchmark="mcf", every_reads=300)
    uninterrupted = fresh_system("mcf", config).run(checkpointer=ckpt)
    assert not ckpt.disabled, ckpt.last_error
    assert ckpt.saves >= 1
    uninterrupted.benchmark = "mcf"
    assert result_bytes(uninterrupted) == expected

    restored, executed, _ = load_checkpoint(path, expect_cache_key="key")
    resumed = restored.resume_run(executed=executed)
    resumed.benchmark = "mcf"
    assert result_bytes(resumed) == expected


# ---------------------------------------------------------------------------
# The version stands for the pickled class layout
# ---------------------------------------------------------------------------

#: Digest of every ``repro`` global a checkpoint names, with the
#: ``__slots__`` of each class along its MRO, keyed by the version it
#: belongs to. A snapshot resumes into whatever classes the loading
#: code has, so a layout change needs a new version.
PINNED_LAYOUT = {
    11: "7851873169c7419650e8f6502747bfffa4059872f6c4552cece4c390bcfd9805",
}

# Opcodes that leave the pickle machine's stack as it is.
_NO_STACK_EFFECT = {"PROTO", "FRAME", "MEMOIZE", "PUT", "BINPUT",
                    "LONG_BINPUT"}


def named_globals(payload: bytes) -> set:
    """``(module, qualname)`` of every global ``payload`` names.

    Walks the opcodes without unpickling. ``STACK_GLOBAL`` takes its
    module and name from the two pushes before it, each a string
    literal or a memo fetch of one, so only strings are tracked through
    the memo.
    """
    memo: dict = {}
    pushes: list = [None, None]
    names = set()
    for op, arg, _pos in pickletools.genops(payload):
        name = op.name
        top = pushes[-1]
        if name == "MEMOIZE":
            memo[len(memo)] = top
        elif name in ("PUT", "BINPUT", "LONG_BINPUT"):
            memo[arg] = top
        if name in _NO_STACK_EFFECT:
            continue
        if name == "STACK_GLOBAL":
            names.add((pushes[-2], pushes[-1]))
        elif name == "GLOBAL":
            names.add(tuple(arg.split(" ", 1)))
        if name in ("GET", "BINGET", "LONG_BINGET"):
            pushes.append(memo.get(arg))
        elif isinstance(arg, str) and "UNICODE" in name:
            pushes.append(arg)
        else:
            pushes.append(None)
    return names


def layout_digest(names) -> str:
    """sha256 over the ``repro`` globals in ``names`` and their slots."""
    lines = set()
    for module, qualname in names:
        if not module.startswith("repro"):
            continue
        obj = importlib.import_module(module)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        lines.add(f"{module}.{qualname}")
        for cls in getattr(obj, "__mro__", ()):
            if not cls.__module__.startswith("repro"):
                continue
            slots = cls.__dict__.get("__slots__", ())
            if isinstance(slots, str):
                slots = (slots,)
            lines.add(f"{cls.__module__}.{cls.__qualname__} "
                      f"slots={list(slots)}")
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def test_checkpoint_version_pins_the_pickled_layout(tmp_path):
    """A short mid-run snapshot of every registered backend: the
    classes it names and their ``__slots__`` belong to exactly one
    ``CHECKPOINT_VERSION``."""
    names = set()
    for memory in backend_names():
        config = SimConfig(memory=memory, target_dram_reads=300, seed=42)
        path = tmp_path / f"{memory}.ckpt"
        ckpt = Checkpointer(path, "key", benchmark="mcf", every_reads=150)
        fresh_system("mcf", config).run(checkpointer=ckpt)
        assert ckpt.saves >= 1, (memory, ckpt.last_error)
        payload = path.read_bytes().split(b"\n", 1)[1]
        names |= named_globals(payload)
    assert ("repro.dram.controller", "MemoryController") in names
    digest = layout_digest(names)
    assert PINNED_LAYOUT == {CHECKPOINT_VERSION: digest}, (
        f"the pickled class layout is now {digest}. If a slot or a "
        f"pickled class changed on purpose, bump "
        f"sim/checkpoint.py::CHECKPOINT_VERSION to "
        f"{CHECKPOINT_VERSION + 1} and pin "
        f"{{{CHECKPOINT_VERSION + 1}: {digest!r}}} here; otherwise the "
        f"change broke the layout by accident")


# ---------------------------------------------------------------------------
# Validation failures quarantine the file
# ---------------------------------------------------------------------------


def _valid_checkpoint(tmp_path, sim_config) -> str:
    path = tmp_path / "victim.ckpt"
    system = fresh_system("mcf", sim_config)
    Checkpointer(path, "key-1", benchmark="mcf",
                 every_reads=EVERY).save(system, executed=0)
    return path


def _assert_quarantined(path, match):
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path, expect_cache_key="key-1")
    assert not path.exists()
    corrupt = path.with_suffix(path.suffix + ".corrupt")
    assert corrupt.exists()
    corrupt.unlink()


def test_garbage_header_quarantines(tmp_path, sim_config):
    path = _valid_checkpoint(tmp_path, sim_config)
    path.write_bytes(b"\xff\xfe not json\n rest")
    _assert_quarantined(path, "unreadable header")


def test_truncated_payload_quarantines(tmp_path, sim_config):
    path = _valid_checkpoint(tmp_path, sim_config)
    path.write_bytes(path.read_bytes()[:-200])
    _assert_quarantined(path, "truncated")


def test_flipped_payload_bit_quarantines(tmp_path, sim_config):
    path = _valid_checkpoint(tmp_path, sim_config)
    blob = bytearray(path.read_bytes())
    blob[-10] ^= 0x40
    path.write_bytes(bytes(blob))
    _assert_quarantined(path, "sha256 mismatch")


def test_version_mismatch_quarantines(tmp_path, sim_config):
    path = _valid_checkpoint(tmp_path, sim_config)
    header_line, _, payload = path.read_bytes().partition(b"\n")
    header = json.loads(header_line)
    header["version"] = CHECKPOINT_VERSION + 1
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    _assert_quarantined(path, "version")


def test_cache_key_mismatch_quarantines(tmp_path, sim_config):
    path = _valid_checkpoint(tmp_path, sim_config)
    with pytest.raises(CheckpointError, match="cache key mismatch"):
        load_checkpoint(path, expect_cache_key="some-other-spec")
    assert path.with_suffix(".ckpt.corrupt").exists()


# ---------------------------------------------------------------------------
# specs.simulate with a checkpoint directory
# ---------------------------------------------------------------------------


def checkpointed_config(directory) -> ExperimentConfig:
    return ExperimentConfig(target_dram_reads=READS, cache_dir=None,
                            checkpoint_dir=str(directory),
                            checkpoint_every=EVERY)


def test_checkpointed_run_matches_plain_and_cleans_up(tmp_path, baseline):
    _, result = simulate(RunSpec("mcf", "rl"), checkpointed_config(tmp_path))
    assert result_bytes(result) == baseline
    assert list(tmp_path.iterdir()) == []  # checkpoint deleted on success


def test_resume_from_orphaned_checkpoint(tmp_path, sim_config, baseline):
    # Orphan a mid-run snapshot, as a killed worker would.
    spec, config = RunSpec("mcf", "rl"), checkpointed_config(tmp_path)
    key = spec_cache_key(spec, config)
    path = checkpoint_path(tmp_path, key)
    system = fresh_system("mcf", sim_config)
    ckpt = Checkpointer(path, key, benchmark="mcf", every_reads=EVERY,
                        first_mark=EVERY)
    for core in system.cores:
        core.start()
    executed = 0
    while system.uncore.dram_reads < EVERY + 50:
        assert system.events.step()
        executed += 1
        ckpt.maybe_save(system, executed)
    assert ckpt.saves >= 1 and path.exists()

    _, result = simulate(spec, config)
    assert result_bytes(result) == baseline
    assert not path.exists()


def test_corrupt_checkpoint_falls_back_to_fresh_run(tmp_path, baseline):
    spec, config = RunSpec("mcf", "rl"), checkpointed_config(tmp_path)
    path = checkpoint_path(tmp_path, spec_cache_key(spec, config))
    path.write_bytes(b"torn write, no header")
    _, result = simulate(spec, config)
    assert result_bytes(result) == baseline
    assert path.with_suffix(".ckpt.corrupt").exists()  # evidence kept


def test_active_telemetry_session_falls_back_to_plain_run(tmp_path,
                                                          baseline):
    from repro.telemetry.session import TelemetrySession, activate, deactivate

    activate(TelemetrySession())
    try:
        _, result = simulate(RunSpec("mcf", "rl"),
                             checkpointed_config(tmp_path))
    finally:
        deactivate()
    # Instrumented runs carry a telemetry blob; the simulation itself
    # must still match the baseline field for field.
    fields = dataclasses.asdict(result)
    fields.pop("telemetry", None)
    expected = json.loads(baseline)
    expected.pop("telemetry", None)
    assert json.dumps(fields, sort_keys=True) == json.dumps(
        expected, sort_keys=True)
    assert list(tmp_path.iterdir()) == []  # never checkpointed


# ---------------------------------------------------------------------------
# Pipeline integration: execute_spec and the retry path
# ---------------------------------------------------------------------------


def test_execute_spec_checkpoints_when_configured(tmp_path, baseline):
    spec = RunSpec("mcf", "rl")
    config = ExperimentConfig(target_dram_reads=READS, cache_dir=None,
                              checkpoint_dir=str(tmp_path),
                              checkpoint_every=EVERY)
    result = execute_spec(spec, config)
    assert result_bytes(result) == baseline
    assert list(tmp_path.iterdir()) == []


def test_kill_after_saves_parsing():
    plan = FaultPlan.parse("a/b=ckptkill;c/d=ckptkill:2:3;e/f=crash")
    assert plan.kill_after_saves("a/b", 1) == 1     # default ordinal
    assert plan.kill_after_saves("c/d", 1) == 3
    assert plan.kill_after_saves("c/d", 2) == 3     # times=2: both attempts
    assert plan.kill_after_saves("c/d", 3) is None  # budget exhausted
    assert plan.kill_after_saves("e/f", 1) is None  # wrong mode
    assert plan.kill_after_saves("x/y", 1) is None  # unplanned spec


def test_ckptkill_worker_resumes_byte_identical(tmp_path, baseline):
    """End-to-end: the worker dies right after its first snapshot lands
    (a genuine BrokenProcessPool), the retry resumes from the checkpoint,
    and the delivered result is byte-identical to an uninterrupted run."""
    from repro.experiments.executor import ParallelExecutor

    spec = RunSpec("mcf", "rl")
    config = ExperimentConfig(target_dram_reads=READS, cache_dir=None,
                              checkpoint_dir=str(tmp_path),
                              checkpoint_every=EVERY, retries=2, jobs=2,
                              fault_plan=FaultPlan.parse("mcf/rl=ckptkill"))
    executor = ParallelExecutor(config, jobs=2)
    results = executor.run([spec])
    assert executor.counters.get("resilience.failures.broken-pool") == 1
    assert result_bytes(results[spec]) == baseline
    assert list(tmp_path.iterdir()) == []


def test_ckptkill_named_runner_resumes_byte_identical(tmp_path):
    """A named runner's system checkpoints like any other: the worker
    dies after the profiling pass's first snapshot, and the retry
    resumes it to the result of a run without a checkpoint dir."""
    from repro.experiments.criticality import profiling_spec
    from repro.experiments.executor import ParallelExecutor

    spec = profiling_spec("mcf")
    plain = ExperimentConfig(target_dram_reads=READS, cache_dir=None)
    expected = result_bytes(execute_spec(spec, plain))
    config = dataclasses.replace(
        plain, checkpoint_dir=str(tmp_path), checkpoint_every=EVERY,
        retries=2, jobs=2,
        fault_plan=FaultPlan.parse("mcf/ddr3/profiling=ckptkill"))
    executor = ParallelExecutor(config, jobs=2)
    results = executor.run([spec])
    assert executor.counters.get("resilience.failures.broken-pool") == 1
    assert result_bytes(results[spec]) == expected
    assert list(tmp_path.iterdir()) == []
