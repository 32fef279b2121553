"""Figure 9: RL variants — static, adaptive, oracle, all-RLDRAM3.

Paper averages: RL +12.9 %, RL AD +15.7 %, RL OR +28 %, all-RLDRAM3
+31 %. The ordering RL <= RL AD <= RL OR <= RLDRAM3 is the claim.
"""

from conftest import run_and_print


def test_fig9_variants(benchmark, experiment_config):
    table = run_and_print(benchmark, "fig9", experiment_config)
    mean = table.rows[-1]
    assert mean["rl"] > 1.0
    # Adaptive placement captures more critical words than static.
    assert mean["rl_ad"] >= mean["rl"] * 0.97
    # Oracle bounds both; the all-RLDRAM3 system bounds the oracle.
    assert mean["rl_or"] >= mean["rl_ad"] * 0.98
    assert mean["rl_or"] >= mean["rl"]
    assert mean["rldram3"] >= mean["rl_or"] * 0.95
