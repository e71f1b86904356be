import pytest

from platoonsim import ModelParams, load_preset, preset_text, simulate


@pytest.fixture(scope="session")
def reference_params():
    return ModelParams(k_v=1.0, k_d=0.2, k=0.3, tau_s=1.4, v_bar=2.0,
                       u_min=0.1, u_max=1.95)


@pytest.fixture(scope="session")
def fig1_left_scenario():
    return load_preset("fig1_left").scenario


@pytest.fixture(scope="session")
def fig1_left_result(fig1_left_scenario):
    return simulate(fig1_left_scenario)


@pytest.fixture(scope="session")
def fig4_scenario():
    return load_preset("fig4").scenario


@pytest.fixture(scope="session")
def fig4_result(fig4_scenario):
    return simulate(fig4_scenario)


@pytest.fixture(scope="session")
def fig5_guard_trip_text():
    """fig5 with g = -1 on [0, 60] and eps = 1000, 1, 0.5 (not strict): the
    eps = 1000 leader runs backwards fast enough to trip follower 1's guard."""
    text = preset_text("fig5")
    g_start, g_end = text.index("g = 0 30"), text.index("eps =")
    text = text[:g_start] + "g = 0 60 const -1.0\n" + text[g_end:]
    return text.replace("eps = 1, 0.5, 0.1, 0.05, 0.01", "eps = 1000, 1, 0.5")
