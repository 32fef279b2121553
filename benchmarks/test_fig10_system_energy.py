"""Figure 10: system energy normalised to the DDR3 baseline.

Paper: RL -6 % system energy (memory energy -15 %); DL -13 %; low-
bandwidth applications (bzip2, dealII, gobmk) see system energy rise.
"""

from conftest import run_and_print


def test_fig10_system_energy(benchmark, experiment_config):
    table = run_and_print(benchmark, "fig10", experiment_config)
    rows = {r["benchmark"]: r for r in table.rows}
    mean = rows.pop("MEAN")
    # DL trades performance for energy: it must be the most frugal.
    assert mean["dl"] <= mean["rl"] + 0.02
    if len(rows) > 10:
        assert mean["rl"] < 1.02          # net system-energy win-ish
        assert mean["rl_memory_energy"] < 1.0
        # Low-bandwidth apps pay RLDRAM3's background power.
        assert rows["gobmk"]["rl"] > 1.0
