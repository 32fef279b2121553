"""EXPERIMENTS.md report generator."""

import pytest

from repro.experiments.runner import ExperimentConfig, ExperimentTable
from repro.report import CLAIMS, PaperClaim, render_report, _mean_row


class TestClaims:
    def test_every_claimed_experiment_exists(self):
        from repro.experiments import ALL_EXPERIMENTS
        assert set(CLAIMS) <= set(ALL_EXPERIMENTS)

    def test_mean_row_lookup(self):
        table = ExperimentTable("x", "t", ["benchmark", "rl"])
        table.add(benchmark="a", rl=1.5)
        table.add(benchmark="MEAN", rl=1.2)
        assert _mean_row(table, "rl") == 1.2

    def test_mean_row_missing_raises(self):
        table = ExperimentTable("x", "t", ["benchmark", "rl"])
        with pytest.raises(KeyError):
            _mean_row(table, "rl")

    def test_claim_formats_measurement(self):
        table = ExperimentTable("x", "t", ["benchmark", "rl"])
        table.add(benchmark="MEAN", rl=1.129)
        claim = PaperClaim("demo", "+12.9%", lambda t: _mean_row(t, "rl"))
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
        from repro.experiments import ALL_EXPERIMENTS
        tables = {key: ALL_EXPERIMENTS[key](config) for key in ("tab2", "fig2")}
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
