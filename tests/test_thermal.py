import numpy as np
import pytest

from atomchip.errors import ConfigError, ThermalRunawayError
from atomchip.thermal import (
    ThermalNetwork, calibrate_mount, fast_time_constant, max_current_density,
    paper_calibrated_network, paper_wire, resistance_monitor, runaway_current,
    slow_time_constant, steady_temperature, transient_temperature,
)

J_50 = 8.8e9   # measured limit, 50 um wires
J_100 = 6.1e9  # measured limit, 100 um wires


@pytest.fixture(scope="module")
def network():
    return paper_calibrated_network()


@pytest.fixture(scope="module")
def w50():
    return paper_wire(width=50e-6)


@pytest.fixture(scope="module")
def w100():
    return paper_wire(width=100e-6)


def test_zero_current_zero_rise(network, w50):
    assert steady_temperature(w50, 0.0, network) == 0.0


def test_calibration_point_reproduced(network, w50):
    current = J_50 * w50.cross_section_area  # 1.32 A through 50x3 um^2
    assert current == pytest.approx(1.32, rel=1e-9)
    assert steady_temperature(w50, current, network) == pytest.approx(150.0, abs=1e-9)
    assert resistance_monitor(w50, network, current) == pytest.approx(0.50, abs=1e-11)


def test_quadratic_small_current_regime(network, w50):
    i_max = J_50 * w50.cross_section_area
    dt_ref = steady_temperature(w50, 1e-3 * i_max, network)
    dt = steady_temperature(w50, 0.1 * i_max, network)
    assert abs(dt / (dt_ref * 1e4) - 1.0) < 0.01


def test_100um_prediction_within_25_percent(network, w100):
    j = max_current_density(w100, network)
    assert abs(j - J_100) / J_100 < 0.25


def test_jmax_monotone_nonincreasing_in_width(network):
    widths = (30e-6, 50e-6, 100e-6, 200e-6)
    js = [max_current_density(paper_wire(width=w), network) for w in widths]
    assert all(a >= b for a, b in zip(js, js[1:]))


def test_jmax_increases_with_limit(network, w50):
    j150 = max_current_density(w50, network, delta_T_limit=150.0)
    j300 = max_current_density(w50, network, delta_T_limit=300.0)
    assert j300 > j150


def test_steady_monotone_and_continuous(network, w50):
    i_run = runaway_current(w50, network)
    currents = np.linspace(0.0, 0.98 * i_run, 40)
    rises = [steady_temperature(w50, i, network) for i in currents]
    assert all(b > a for a, b in zip(rises, rises[1:]))
    # continuity: refine an interval and check small increments
    fine = np.linspace(0.5 * i_run, 0.51 * i_run, 50)
    vals = [steady_temperature(w50, i, network) for i in fine]
    assert max(abs(b - a) for a, b in zip(vals, vals[1:])) < 0.2


def test_steady_root_near_runaway(network, w50):
    # 0.999 of the runaway current: alpha*beta = 0.998, so an iteration
    # dT <- beta (1 + alpha dT) would need ~10^4 steps to settle
    current = 0.999 * runaway_current(w50, network)
    area = w50.cross_section_area
    beta = network.rho0 * (current / area) ** 2 * area \
        * network.total_resistance_per_length(w50)
    dt = steady_temperature(w50, current, network)
    assert dt == pytest.approx(beta * (1.0 + network.alpha_R * dt), rel=1e-12)


@pytest.mark.parametrize("width", [30e-6, 50e-6, 100e-6, 200e-6])
@pytest.mark.parametrize("limit", [150.0, 300.0])
def test_jmax_reaches_the_limit(network, width, limit):
    wire = paper_wire(width=width)
    j_max = max_current_density(wire, network, delta_T_limit=limit)
    current = j_max * wire.cross_section_area
    assert steady_temperature(wire, current, network) == pytest.approx(limit, rel=1e-9)


def test_runaway_reported_distinctly(network, w50):
    with pytest.raises(ThermalRunawayError):
        steady_temperature(w50, 1.01 * runaway_current(w50, network), network)


def test_power_at_jmax_sanity_window(network, w50):
    # rho0 J^2 A at the 50 um limit ~ 2.6e2 W/m cold, < 400 W/m with rho(T)
    p_cold = network.rho0 * J_50**2 * w50.cross_section_area
    p_hot = network.resistivity(150.0) * J_50**2 * w50.cross_section_area
    assert 200.0 < p_cold < 400.0
    assert 200.0 < p_hot < 400.0


def test_calibration_idempotent(network, w50):
    again = calibrate_mount(network, w50, J_50, 150.0)
    assert abs(again.mount_resistance - network.mount_resistance) \
        <= 1e-9 * network.mount_resistance


def test_fast_time_constant_window(network, w50):
    tau = fast_time_constant(w50, network)
    assert 0.1e-6 < tau < 100e-6


def test_transient_shape(network, w50):
    current = J_50 * w50.cross_section_area
    assert transient_temperature(w50, current, network, 0.0) == 0.0
    tau_s = slow_time_constant(w50, network)
    dt_late = transient_temperature(w50, current, network, 10.0 * tau_s)
    dt_ss = steady_temperature(w50, current, network)
    assert abs(dt_late - dt_ss) / dt_ss < 0.01
    # fast stage saturates within microseconds, well below the slow rise
    tau_f = fast_time_constant(w50, network)
    early = transient_temperature(w50, current, network, 10.0 * tau_f)
    assert 0.0 < early < 0.2 * dt_ss


def test_transient_monotone(network, w50):
    current = 1.0
    ts = np.logspace(-8, 2, 60)
    vals = transient_temperature(w50, current, network, ts)
    assert np.all(np.diff(vals) > 0)


def test_resistance_monitor_monotone(network, w50):
    rises = [resistance_monitor(w50, network, i) for i in (0.0, 0.4, 0.8, 1.2)]
    assert rises[0] == 0.0
    assert all(b > a for a, b in zip(rises, rises[1:]))


def test_network_validation():
    with pytest.raises(ConfigError):
        ThermalNetwork(alpha_R=0.0)
    with pytest.raises(ConfigError):
        ThermalNetwork(mount_resistance=-1.0)


def test_alpha_default_encodes_paper_equivalence():
    # 150 C rise = 50% resistivity increase
    assert ThermalNetwork().alpha_R * 150.0 == pytest.approx(0.50, rel=1e-12)


def test_negative_current_rejected(network, w50):
    with pytest.raises(ConfigError):
        steady_temperature(w50, -1.0, network)


def test_nan_current_rejected(network, w50):
    with pytest.raises(ConfigError, match="current must be >= 0, got nan"):
        steady_temperature(w50, float("nan"), network)


@pytest.mark.parametrize("call, message", [
    (lambda n, w: calibrate_mount(n, w, 0.0), "j_max must be finite and > 0, got 0.0"),
    (lambda n, w: calibrate_mount(n, w, -J_50), "j_max must be finite and > 0, got -8800000000.0"),
    (lambda n, w: calibrate_mount(n, w, float("nan")), "j_max must be finite and > 0, got nan"),
    (lambda n, w: calibrate_mount(n, w, float("inf")), "j_max must be finite and > 0, got inf"),
    (lambda n, w: calibrate_mount(n, w, J_50, 0.0), "delta_T must be > 0, got 0.0"),
    (lambda n, w: calibrate_mount(n, w, J_50, -150.0), "delta_T must be > 0, got -150.0"),
    (lambda n, w: calibrate_mount(n, w, J_50, float("nan")), "delta_T must be > 0, got nan"),
    (lambda n, w: max_current_density(w, n, float("nan")), "delta_T_limit must be > 0, got nan"),
], ids=["jmax-zero", "jmax-negative", "jmax-nan", "jmax-inf", "dT-zero", "dT-negative",
        "dT-nan", "limit-nan"])
def test_calibration_inputs_rejected_by_name(network, w50, call, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        call(network, w50)
