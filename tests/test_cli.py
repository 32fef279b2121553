"""CLI entry point."""

import json
import re

import pytest

from repro.cli import build_parser, main, make_config


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["fig6"])
        assert args.experiment == "fig6"
        assert args.reads is None

    def test_overrides(self):
        args = build_parser().parse_args(
            ["fig6", "--reads", "500", "--benchmarks", "mcf,lbm",
             "--cache", "off"])
        config = make_config(args)
        assert config.target_dram_reads == 500
        assert config.benchmarks == ("mcf", "lbm")
        assert config.cache_dir is None

    def test_benchmarks_canonical_and_deduped(self):
        from repro.experiments import ALL_EXPERIMENTS

        args = build_parser().parse_args(
            ["fig1a", "--benchmarks", "gemsfdtd,synthetic:mcf,mcf",
             "--reads", "100", "--cache", "off"])
        config = make_config(args)
        assert config.benchmarks == ("GemsFDTD", "mcf")
        table = ALL_EXPERIMENTS["fig1a"](config)
        assert table.column("benchmark") == ["GemsFDTD", "mcf", "MEAN"]


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "tab2" in out

    def test_unknown_experiment(self, capsys):
        assert main(["nonsense"]) == 2

    def test_runs_table2(self, capsys):
        assert main(["tab2", "--cache", "off"]) == 0
        out = capsys.readouterr().out
        assert "tRC" in out

    def test_output_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.txt"
        assert main(["tab1", "--cache", "off",
                     "--output", str(out_file)]) == 0
        assert "Re-Order-Buffer" in out_file.read_text()

    def test_small_simulation_experiment(self, capsys, tmp_path):
        assert main(["fig8", "--reads", "150", "--benchmarks", "mcf",
                     "--cache", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fast_fraction" in out


class TestListBackendsSubcommand:
    def test_lists_all_backends(self, capsys):
        assert main(["list-backends"]) == 0
        out = capsys.readouterr().out
        for name in ("ddr3", "rl", "page_placement", "hmc_cwf"):
            assert name in out
        assert "hetero" in out and "needs-profile" in out

    def test_json_shape(self, capsys):
        import json

        assert main(["list-backends", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        by_name = {e["name"]: e for e in entries}
        assert by_name["hmc_cwf"]["is_heterogeneous"] is True
        assert "hmc" in by_name["hmc_cwf"]["aliases"]
        assert by_name["rl_adaptive"]["needs_profile"] is True

    def test_json_rows_carry_the_listed_keys(self, capsys):
        assert main(["list-backends", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert [e["name"] for e in entries] == sorted(
            e["name"] for e in entries)
        for entry in entries:
            assert list(entry) == [
                "name", "aliases", "description", "paper_section",
                "needs_profile", "is_heterogeneous", "dram_families"]


class TestListWorkloadsSubcommand:
    def test_json_rows_carry_the_listed_keys(self, capsys):
        assert main(["list-workloads", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        by_name = {e["name"]: e for e in entries}
        assert by_name["mcf"]["streaming"] is True
        assert by_name["GemsFDTD"]["aliases"] == ["gemsfdtd"]
        assert by_name["trace:<path>"]["kind"] == "trace"
        for entry in entries:
            assert list(entry) == ["name", "aliases", "description",
                                   "kind", "suite", "streaming"]

    def test_suite_filter(self, capsys):
        assert main(["list-workloads", "--json", "--suite", "npb"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert entries and all(e["suite"] == "npb" for e in entries)

    def test_unknown_suite_names_the_known_ones(self, capsys):
        assert main(["list-workloads", "--suite", "spec"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: unknown suite 'spec'; did you mean 'spec2006'?\n"
            "known suites: npb, spec2006, stream\n")


class TestRunSubcommand:
    def test_run_table(self, capsys, tmp_path):
        assert main(["run", "--memory", "ddr3,hmc_cwf",
                     "--benchmarks", "mcf", "--reads", "120",
                     "--cache", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "hmc_cwf" in out and "critical_latency" in out

    def test_one_wall_time_line_for_the_executor_pass(self, capsys,
                                                       tmp_path):
        assert main(["fig8,tab1", "--benchmarks", "mcf", "--reads", "120",
                     "--cache", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        timing = [line for line in lines if "took" in line]
        assert len(timing) == 1
        assert re.fullmatch(r"\[\d+ specs: executor pass took \d+\.\ds\]",
                            timing[0])

    def test_alias_canonicalised_and_deduped(self, capsys, tmp_path):
        assert main(["run", "--memory", "baseline,ddr3",
                     "--benchmarks", "mcf", "--reads", "120",
                     "--cache", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("ddr3") == 2  # title + single table row
        assert "baseline" not in out

    def test_unknown_memory_exits_2_with_suggestion(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--memory", "hmc_cfw", "--benchmarks", "mcf",
                  "--reads", "120", "--cache", "off"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "did you mean" in err and "hmc_cwf" in err
        assert "registered memory backends" in err


class TestSuiteFlags:
    """Every suite flag works on both ``repro run`` and the experiment
    ids: they share one runner."""

    RUN = ["run", "--memory", "ddr3,rl", "--benchmarks", "mcf",
           "--reads", "150", "--cache", "off"]

    def test_run_stats_json_counts_each_simulation(self, tmp_path, capsys):
        stats = tmp_path / "stats.json"
        assert main(self.RUN + ["--stats-json", str(stats)]) == 0
        doc = json.loads(stats.read_text())
        assert doc["manifest"]["num_runs"] == len(doc["runs"]) == 2
        assert doc["manifest"]["config"]["experiments"] == ["run"]

    def test_run_output_and_timings_json(self, tmp_path, capsys):
        output, timings = tmp_path / "run.txt", tmp_path / "timings.json"
        assert main(self.RUN + ["--output", str(output),
                                "--timings-json", str(timings)]) == 0
        assert "ad-hoc runs: ddr3, rl" in output.read_text()
        doc = json.loads(timings.read_text())
        assert doc["experiments"] == ["run"]
        assert len(doc["specs"]) == 2

    def test_experiment_check_counts_each_simulation(self, capsys,
                                                     monkeypatch):
        import repro.experiments.specs as specs_module

        simulated = []
        simulate = specs_module.simulate

        def counted(spec, config, **kwargs):
            simulated.append(spec.label)
            return simulate(spec, config, **kwargs)

        monkeypatch.setattr(specs_module, "simulate", counted)
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert main(["fig1a", "--reads", "150", "--benchmarks", "mcf",
                     "--cache", "off", "--check"]) == 0
        assert simulated
        assert (f"sanitizer: {len(simulated)} run(s) checked, 0 violation(s)"
                in capsys.readouterr().out)

    def test_resume_is_an_unknown_experiment(self, capsys):
        assert main(["resume"]) == 2
        assert "unknown experiment(s): ['resume']" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main(["resume", "x.ckpt"])
        assert excinfo.value.code == 2


class TestVersion:
    def test_version_flag(self, capsys):
        from repro import __version__

        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_short_flag(self, capsys):
        assert main(["-V"]) == 0
        assert "repro " in capsys.readouterr().out
