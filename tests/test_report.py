"""EXPERIMENTS.md report generator."""

import pytest

from repro.experiments import PaperClaim, mean_row
from repro.experiments.runner import ExperimentConfig, ExperimentTable
from repro.report import render_report
from tests.conftest import build_table


class TestClaims:
    def test_mean_row_lookup(self):
        table = ExperimentTable("x", "t", ["benchmark", "rl"])
        table.add(benchmark="a", rl=1.5)
        table.add(benchmark="MEAN", rl=1.2)
        assert mean_row(table, "rl") == 1.2

    def test_mean_row_missing_raises(self):
        table = ExperimentTable("x", "t", ["benchmark", "rl"])
        with pytest.raises(KeyError):
            mean_row(table, "rl")

    def test_claim_formats_measurement(self):
        table = ExperimentTable("x", "t", ["benchmark", "rl"])
        table.add(benchmark="MEAN", rl=1.129)
        claim = PaperClaim("demo", "+12.9%", lambda t: mean_row(t, "rl"))
        assert claim.measured(table) == "1.129"

    def test_claim_survives_bad_measure(self):
        claim = PaperClaim("demo", "x", lambda t: 1 / 0)
        table = ExperimentTable("x", "t", ["benchmark"])
        assert claim.measured(table).startswith("error")


class TestRenderReport:
    def test_fast_experiments_render(self, tmp_path):
        config = ExperimentConfig(target_dram_reads=100,
                                  benchmarks=("mcf",),
                                  cache_dir=str(tmp_path))
        tables = {key: build_table(key, config) for key in ("tab2", "fig2")}
        text = render_report(config, tables)
        assert "# EXPERIMENTS" in text
        assert "tab2" in text and "fig2" in text
        assert "| claim | paper | measured |" in text


class TestReportMain:
    def test_json_comes_from_the_report_pass(self, tmp_path, monkeypatch,
                                             capsys):
        """The markdown and the JSON share one simulation pass."""
        import json

        import repro.experiments.specs as specs_module
        from repro.report import main

        simulated = []
        simulate = specs_module.simulate

        def counted(spec, config, **kwargs):
            simulated.append(spec.label)
            return simulate(spec, config, **kwargs)

        monkeypatch.setattr(specs_module, "simulate", counted)
        monkeypatch.setenv("REPRO_CACHE", "off")
        monkeypatch.setenv("REPRO_BENCHMARKS", "mcf")
        markdown, tables = tmp_path / "exp.md", tmp_path / "exp.json"
        assert main(["--experiments", "fig6", "--reads", "150", "--jobs",
                     "1", "--output", str(markdown),
                     "--json", str(tables)]) == 0
        assert simulated and len(simulated) == len(set(simulated))
        assert "## fig6" in markdown.read_text()
        doc = json.loads(tables.read_text())
        assert doc["manifest"]["cache"]["directory"] is None
        assert [t["experiment_id"] for t in doc["tables"]] == ["fig6"]

    def run_report(self, tmp_path, *argv, **env):
        import os
        import subprocess
        import sys

        return subprocess.run(
            [sys.executable, "-m", "repro.report", *argv,
             "--output", str(tmp_path / "exp.md")],
            capture_output=True, text=True, env={**os.environ, **env})

    def test_failed_spec_exits_1_with_the_hint(self, tmp_path):
        proc = self.run_report(
            tmp_path, "--experiments", "fig1a", "--reads", "150",
            "--benchmarks", "mcf", "--cache", "off",
            REPRO_FAULT_PLAN="mcf/ddr3=crash")
        assert proc.returncode == 1
        assert "hint:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unknown_experiment_exits_2_naming_it(self, tmp_path):
        proc = self.run_report(tmp_path, "--experiments", "nope")
        assert proc.returncode == 2
        assert "'nope'" in proc.stderr
        assert "Traceback" not in proc.stderr
