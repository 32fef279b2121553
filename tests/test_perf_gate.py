"""Exit codes of ``benchmarks/perf_gate.py`` on synthetic reports.

The gate script is loaded by path, the way ``test_examples.py`` loads
example scripts; ``run_perfbench`` is replaced by a stub, so no
benchmark runs here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GATE_PATH = (Path(__file__).resolve().parent.parent
             / "benchmarks" / "perf_gate.py")
BASE = {"sim_reads_per_s": 8000.0, "cpu_ms_per_kread": 120.0,
        "peak_rss_mb": 45.0}


@pytest.fixture()
def gate(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("perf_gate", GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "BASELINE", tmp_path / "perf_baseline.json")
    module.BASELINE.write_text(json.dumps(
        {**module.current_keys(), "metrics": BASE}))
    return module


def report(correct=True, failed=0, **scale):
    """A perfbench JSON line whose metrics are ``BASE`` times ``scale``."""
    return {"correct": correct, "attempted": 12, "failed": failed,
            "metrics": {name: {"value": value * scale.get(name, 1.0)}
                        for name, value in BASE.items()}}


def run(gate, monkeypatch, result):
    monkeypatch.setattr(gate, "run_perfbench", lambda: result)
    return gate.main([])


def test_within_bound_passes(gate, monkeypatch, capsys):
    assert run(gate, monkeypatch, report(sim_reads_per_s=0.9,
                                         cpu_ms_per_kread=1.1,
                                         peak_rss_mb=1.05)) == 0
    assert "perf gate: ok" in capsys.readouterr().out


@pytest.mark.parametrize("metric,scale", [("sim_reads_per_s", 0.7),
                                          ("cpu_ms_per_kread", 1.3),
                                          ("peak_rss_mb", 1.15)])
def test_regression_past_bound_fails(gate, monkeypatch, capsys,
                                     metric, scale):
    assert run(gate, monkeypatch, report(**{metric: scale})) == 1
    assert f"FAIL {metric}" in capsys.readouterr().out


@pytest.mark.parametrize("metric,scale", [("sim_reads_per_s", 1.3),
                                          ("cpu_ms_per_kread", 0.7),
                                          ("peak_rss_mb", 0.7)])
def test_improvement_passes(gate, monkeypatch, metric, scale):
    assert run(gate, monkeypatch, report(**{metric: scale})) == 0


@pytest.mark.parametrize("result", [report(correct=False),
                                    report(failed=1),
                                    {"correct": False, "failed": None}],
                         ids=["incorrect", "failed", "no-report"])
def test_failed_run_fails(gate, monkeypatch, result):
    assert run(gate, monkeypatch, result) == 1


@pytest.mark.parametrize("key,value", [("workload", "suite-sweep"),
                                       ("seed", 2),
                                       ("seconds", 30.0),
                                       ("python", "2.7"),
                                       ("contract", "0" * 64)])
def test_mismatched_key_refuses(gate, monkeypatch, capsys, key, value):
    baseline = json.loads(gate.BASELINE.read_text())
    baseline[key] = value
    gate.BASELINE.write_text(json.dumps(baseline))
    assert run(gate, monkeypatch, report()) == 2
    assert f"baseline {key} is" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, "{not json", "[]",
                                     '{"metrics": {}}'],
                         ids=["missing", "corrupt", "not-a-dict",
                              "no-metrics"])
def test_unreadable_baseline_refuses(gate, monkeypatch, content):
    if content is None:
        gate.BASELINE.unlink()
    else:
        gate.BASELINE.write_text(content)
    assert run(gate, monkeypatch, report()) == 2


def test_baseline_without_rss_refuses(gate, monkeypatch, capsys):
    baseline = json.loads(gate.BASELINE.read_text())
    del baseline["metrics"]["peak_rss_mb"]
    gate.BASELINE.write_text(json.dumps(baseline))
    assert run(gate, monkeypatch, report()) == 2
    assert "peak_rss_mb" in capsys.readouterr().err


def test_refusal_runs_nothing(gate, monkeypatch):
    gate.BASELINE.unlink()

    def no_run():
        raise AssertionError("the gate ran perfbench after refusing")

    monkeypatch.setattr(gate, "run_perfbench", no_run)
    assert gate.main([]) == 2


def test_contract_covers_perfbench_sources(gate, monkeypatch, tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "BENCHMARK.json").write_text("{}")
    (tmp_path / "perfbench" / "run.py").write_text("a = 1\n")
    monkeypatch.setattr(gate, "ROOT", tmp_path)
    before = gate.current_keys()["contract"]
    (tmp_path / "perfbench" / "run.py").write_text("a = 2\n")
    assert gate.current_keys()["contract"] != before


def test_record_writes_a_baseline_the_gate_accepts(gate, monkeypatch):
    gate.BASELINE.unlink()
    monkeypatch.setattr(gate, "run_perfbench", lambda: report())
    assert gate.main(["--record"]) == 0
    recorded = json.loads(gate.BASELINE.read_text())
    assert recorded["metrics"] == BASE
    assert gate.main([]) == 0


def test_record_refuses_a_failed_run(gate, monkeypatch):
    before = gate.BASELINE.read_text()
    monkeypatch.setattr(gate, "run_perfbench",
                        lambda: report(correct=False))
    assert gate.main(["--record"]) == 1
    assert gate.BASELINE.read_text() == before
