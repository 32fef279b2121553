"""Structural tests for the simulation-backed experiment modules.

Tiny runs (150 fetches, 2 benchmarks) — shape of the tables, not the
numbers; the benchmark harness checks the quantitative claims.
"""

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.criticality import FIG3_TOP_LINES
from repro.experiments.runner import ExperimentConfig
from tests.conftest import build_table


@pytest.fixture(scope="module")
def config(tmp_path_factory):
    return ExperimentConfig(
        target_dram_reads=150,
        benchmarks=("leslie3d", "mcf"),
        cache_dir=str(tmp_path_factory.mktemp("cache")))


class TestFigureShapes:
    def test_fig1a(self, config):
        table = build_table("fig1a", config)
        assert [r["benchmark"] for r in table.rows] == \
            ["leslie3d", "mcf", "MEAN"]
        assert all(r["ddr3"] == 1.0 for r in table.rows)

    def test_fig1b(self, config):
        table = build_table("fig1b", config)
        flavours = {r["flavour"] for r in table.rows}
        assert flavours == {"ddr3", "rldram3", "lpddr2"}
        for row in table.rows:
            assert row["total"] == pytest.approx(
                row["queue_latency"] + row["core_latency"])

    def test_fig3(self, config):
        table = build_table("fig3", config)
        ranked = [r for r in table.rows
                  if r["benchmark"] == "leslie3d" and r["line_rank"] >= 0]
        assert len(ranked) == FIG3_TOP_LINES
        for row in ranked:
            assert 0 <= row["dominant_word"] < 8
            assert 0 < row["dominant_fraction"] <= 1.0

    def test_fig4(self, config):
        table = build_table("fig4", config)
        for row in table.rows[:-1]:
            assert 0.0 <= row["word0_fraction"] <= 1.0
            total = sum(row[f"w{i}"] for i in range(8))
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_fig6_7_8_consistency(self, config):
        fig6 = build_table("fig6", config)
        fig7 = build_table("fig7", config)
        fig8 = build_table("fig8", config)
        # Same suite, same order everywhere.
        names6 = [r["benchmark"] for r in fig6.rows]
        assert names6 == [r["benchmark"] for r in fig7.rows]
        assert names6 == [r["benchmark"] for r in fig8.rows]
        # leslie3d is word0-heavy; fig8 must say so.
        leslie = next(r for r in fig8.rows if r["benchmark"] == "leslie3d")
        assert leslie["fast_fraction"] > 0.6

    def test_fig9_columns(self, config):
        table = build_table("fig9", config)
        for row in table.rows:
            for col in ("rl", "rl_ad", "rl_or", "rldram3"):
                assert row[col] > 0

    def test_fig10_energy_positive(self, config):
        table = build_table("fig10", config)
        for row in table.rows:
            for col in ("rd", "rl", "dl", "rl_memory_energy"):
                assert row[col] > 0

    def test_fig11_rows(self, config):
        table = build_table("fig11", config)
        assert len(table.rows) == 2
        for row in table.rows:
            assert 0 <= row["bus_utilization"] <= 1

    def test_controls(self, config):
        rnd = build_table("sec611_random", config)
        assert rnd.rows[-1]["fast_fraction"] < 0.5
        nop = build_table("sec611_noprefetch", config)
        assert {"rl", "rl_noprefetch"} <= set(nop.rows[-1])

    def test_sec71(self, config):
        table = build_table("sec71", config)
        assert 0 <= table.rows[-1]["fast_fraction"] <= 1

    def test_sec72(self, config):
        table = build_table("sec72", config)
        assert table.rows[-1]["savings_boost"] > 0


class TestClaims:
    @pytest.mark.parametrize(
        "key", [key for key, row in EXPERIMENTS.items() if row.claims])
    def test_every_claim_measures(self, config, key):
        """A claim that cannot read its table renders as ``error: ...``
        in the report; a renamed column must fail here instead."""
        table = build_table(key, config)
        for claim in EXPERIMENTS[key].claims:
            assert not claim.measured(table).startswith("error"), \
                claim.description
