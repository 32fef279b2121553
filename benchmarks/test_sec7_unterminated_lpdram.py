"""Section 7.2: unterminated (Malladi-style) LPDRAM variant.

Paper: dropping the ODT/DLL server adaptation deepens the RL memory
energy savings to 26.1 %.
"""

from conftest import run_and_print


def test_sec72_unterminated_lpdram(benchmark, experiment_config):
    table = run_and_print(benchmark, "sec72", experiment_config)
    mean = table.rows[-1]
    # Removing termination/DLL power strictly increases savings.
    assert mean["savings_boost"] > 0
    assert mean["unterminated"] > mean["server_adapted"]
