"""One configuration, parsed once at the edge.

``default_config()`` is the only reader of the environment in ``src/``;
each knob has one parser and one message, shared by its command-line
flag, and the :class:`ExperimentConfig` it builds carries every knob to
the pool workers.
"""

import ast
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.runner import (
    KNOBS,
    ConfigError,
    ExperimentConfig,
    default_config,
)

ROOT = Path(__file__).resolve().parent.parent

#: (variable, bad value, its one message, the flag form or None). A
#: "{file}" value is replaced by the path of a regular file.
BAD_KNOBS = [
    ("REPRO_READS", "lots",
     "must be a positive number of DRAM reads, got 'lots'",
     ["run", "--reads", "lots"]),
    ("REPRO_BENCHMARKS", "mfc",
     "must be registered workload names, got 'mfc': unknown workload "
     "'mfc'",
     ["run", "--benchmarks", "mfc"]),
    ("REPRO_CACHE", "{file}", "must be a directory or 'off', got",
     ["run", "--cache", "{file}"]),
    ("REPRO_CACHE_BUDGET", "12Q",
     "must be a byte count, got '12Q': cannot parse size '12Q'",
     ["serve", "--cache-budget", "12Q"]),
    ("REPRO_JOBS", "two",
     "must be an integer worker count (0 = one per CPU), got 'two'",
     ["run", "--jobs", "two"]),
    ("REPRO_RETRIES", "-1", "must be a non-negative retry count, got '-1'",
     ["run", "--retries", "-1"]),
    ("REPRO_TIMEOUT", "0", "must be a positive number of seconds, got '0'",
     ["run", "--timeout", "0"]),
    ("REPRO_KEEP_GOING", "ture",
     "must be one of 1/on/true/yes or 0/off/false/no, got 'ture'", None),
    ("REPRO_CHECKPOINT_DIR", "{file}", "must be a directory, got",
     ["run", "--checkpoint-dir", "{file}"]),
    ("REPRO_CHECKPOINT_EVERY", "-5",
     "must be a positive number of DRAM reads, got '-5'",
     ["run", "--checkpoint-every", "-5"]),
    ("REPRO_SANITIZE", "strcit",
     "must be off (0/off/none), collect (1/on/collect) or strict "
     "(2/strict/raise), got 'strcit'", None),
    ("REPRO_FAULT_PLAN", "mcf/ddr3=explode",
     "must be entries like 'mcf/ddr3=crash;mcf/rl=hang:*:20', got "
     "'mcf/ddr3=explode'", None),
]

# A run that would simulate if the bad knob were let through.
RUN = ["run", "--memory", "ddr3", "--benchmarks", "mcf", "--reads", "50",
       "--cache", "off"]


@pytest.fixture
def clean_env(monkeypatch):
    for name in KNOBS:
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


def test_every_knob_has_a_row():
    assert [row[0] for row in BAD_KNOBS] == list(KNOBS)


@pytest.mark.parametrize("name,value,message,flag", BAD_KNOBS,
                         ids=[row[0] for row in BAD_KNOBS])
def test_bad_knob_is_one_line_and_exit_2(name, value, message, flag,
                                         clean_env, tmp_path, capsys):
    afile = tmp_path / "a-file"
    afile.write_text("")
    value = value.replace("{file}", str(afile))
    clean_env.setenv(name, value)
    with pytest.raises(ConfigError) as excinfo:
        default_config()
    assert str(excinfo.value).startswith(f"{name} {message}")

    assert main(RUN) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {excinfo.value}"]

    if flag is None:
        return
    clean_env.delenv(name)
    with pytest.raises(SystemExit) as exit_info:
        main([arg.replace("{file}", str(afile)) for arg in flag])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    option = flag[1]
    assert f"argument {option}: {message}" in err.splitlines()[-1]


def test_empty_knobs_keep_their_defaults(clean_env):
    for name in KNOBS:
        clean_env.setenv(name, " ")
    assert default_config() == ExperimentConfig()


def test_benchmark_list_is_canonical_and_deduped(clean_env):
    clean_env.setenv("REPRO_BENCHMARKS", "gemsfdtd,synthetic:mcf,mcf")
    assert default_config().benchmarks == ("GemsFDTD", "mcf")


def test_report_shares_the_one_line_error(clean_env, tmp_path, capsys):
    from repro.report import main as report_main

    clean_env.setenv("REPRO_BENCHMARKS", "nope")
    assert report_main(["--experiments", "fig1a",
                        "--output", str(tmp_path / "r.md")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        "error: REPRO_BENCHMARKS must be registered workload names, "
        "got 'nope': unknown workload 'nope'; did you mean")
    assert not (tmp_path / "r.md").exists()


def test_only_the_edge_reads_the_environment():
    readers = sorted(str(path.relative_to(ROOT / "src"))
                     for path in (ROOT / "src").rglob("*.py")
                     if "os.environ" in path.read_text())
    assert readers == ["repro/experiments/runner.py"]


def test_benchmark_pins_every_knob():
    """perfbench clears each knob before it runs, so an environment
    knob it does not know could move the benchmark's numbers."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    pinned = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(target, "id", None) == "PINNED_ENV"
                          for target in node.targets))
    runner = (ROOT / "src" / "repro" / "experiments" / "runner.py")
    read = set(re.findall(r'"(REPRO_\w+)"', runner.read_text()))
    assert read == set(KNOBS)
    assert sorted(read - set(pinned)) == []


def test_sanitize_and_fault_plan_stay_out_of_cache_keys():
    """A sanitized result is byte-identical and a fault changes whether
    a result arrives, not which: neither knob may re-key the cache."""
    import dataclasses

    from repro.experiments.resilience import FaultPlan
    from repro.experiments.specs import RunSpec, spec_cache_key
    from repro.sanitizer import MODE_STRICT

    spec, config = RunSpec("mcf", "rl"), ExperimentConfig()
    knobbed = dataclasses.replace(
        config, sanitize=MODE_STRICT,
        fault_plan=FaultPlan.parse("mcf/rl=crash"))
    assert spec_cache_key(spec, knobbed) == spec_cache_key(spec, config)
