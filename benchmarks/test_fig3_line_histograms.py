"""Figure 3: per-line critical-word histograms for leslie3d and mcf.

Paper: hot lines show a well-defined bias toward one or two words —
word 0 for leslie3d, varied-but-stable words for mcf.
"""

from conftest import run_and_print


def test_fig3_per_line_bias(benchmark, experiment_config):
    table = run_and_print(benchmark, "fig3", experiment_config)
    dominance = {r["benchmark"]: r["dominant_fraction"] for r in table.rows
                 if str(r["benchmark"]).endswith("mean-dominance")}
    # Strong per-line bias for both programs (paper Fig 3).
    assert dominance["leslie3d-mean-dominance"] > 0.6
    assert dominance["mcf-mean-dominance"] > 0.6
    # leslie3d's top lines are word-0 dominated; mcf's are not all w0.
    leslie_rows = [r for r in table.rows
                   if r["benchmark"] == "leslie3d" and r["line_rank"] >= 0]
    assert sum(r["dominant_word"] == 0 for r in leslie_rows) \
        >= len(leslie_rows) * 0.6
    mcf_rows = [r for r in table.rows
                if r["benchmark"] == "mcf" and r["line_rank"] >= 0]
    assert any(r["dominant_word"] != 0 for r in mcf_rows)
