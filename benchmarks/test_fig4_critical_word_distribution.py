"""Figure 4: distribution of critical words across the suite.

Paper: word 0 is the critical word for >50 % of fetches in 21 of 27
programs; the suite average is 67 %.
"""

from conftest import run_and_print


def test_fig4_word0_distribution(benchmark, experiment_config):
    table = run_and_print(benchmark, "fig4", experiment_config)
    rows = [r for r in table.rows if r["benchmark"] != "MEAN"]
    mean = table.rows[-1]["word0_fraction"]
    if len(rows) > 10:  # full-suite claims only
        assert 0.55 < mean < 0.80
        over_half = sum(r["word0_fraction"] > 0.5 for r in rows)
        assert over_half >= len(rows) * 0.6
        # The pointer chasers show little word-0 bias.
        by_name = {r["benchmark"]: r["word0_fraction"] for r in rows}
        for chaser in ("mcf", "milc", "omnetpp", "xalancbmk"):
            assert by_name[chaser] < 0.5
