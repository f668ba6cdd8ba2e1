"""Wire self-heating limits via a lumped two-timescale thermal network.

Heat path: wire -> 100 nm SiO2 layer (dominant barrier, sets the fast
microsecond transient) -> silicon substrate (2D spreading) -> mounting
structure (single lumped resistance, calibrated).  Self-heating feedback
enters through rho(T) = rho0 (1 + alpha_R dT).  The steady balance
dT = beta (1 + alpha_R dT), with beta = rho0 J^2 A R_total, is linear in
dT: its root beta / (1 - alpha_R beta) diverges at thermal runaway,
alpha_R beta = 1, and its inverse beta = dT / (1 + alpha_R dT) gives
J_max and the mount calibration in closed form.

Material constants are handbook values for gold on oxidized silicon; the
resistivity coefficient alpha_R = 0.50 / 150 K encodes the calibration
equivalence "150 C rise = 50% resistivity increase".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ConfigError, ThermalRunawayError
from .geometry import WireSegmentPath


@dataclass(frozen=True)
class ThermalNetwork:
    """Material/geometry constants plus the calibrated mount resistance."""

    rho0: float = 2.2e-8                 # gold resistivity at ambient, Ohm*m
    alpha_R: float = 0.50 / 150.0        # 1/K
    oxide_thickness: float = 100e-9      # m
    oxide_conductivity: float = 1.4      # W/(m K), SiO2
    substrate_conductivity: float = 150.0  # W/(m K), silicon
    spreading_reference: float = 500e-6  # m, half-plane cutoff ~ wafer thickness
    wire_volumetric_heat: float = 2.49e6  # J/(K m^3), gold
    substrate_heat_capacity: float = 0.52  # J/K, lumped chip + spreading volume
    mount_resistance: float = 35.0       # K/W, lumped, calibrated

    def __post_init__(self) -> None:
        if self.alpha_R <= 0.0:
            raise ConfigError("alpha_R must be > 0")
        for name in ("rho0", "oxide_thickness", "oxide_conductivity",
                     "substrate_conductivity", "spreading_reference",
                     "wire_volumetric_heat", "substrate_heat_capacity"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be > 0")
        if self.mount_resistance < 0.0:
            raise ConfigError("mount_resistance must be >= 0")

    # per-unit-length network elements (K*m/W unless noted)
    def oxide_resistance_per_length(self, wire: WireSegmentPath) -> float:
        return self.oxide_thickness / (self.oxide_conductivity * wire.width)

    def spreading_resistance_per_length(self, wire: WireSegmentPath) -> float:
        if self.spreading_reference <= wire.width:
            raise ConfigError("spreading reference distance must exceed the wire width")
        return math.log(self.spreading_reference / wire.width) / (
            math.pi * self.substrate_conductivity
        )

    def wire_heat_capacity_per_length(self, wire: WireSegmentPath) -> float:
        return self.wire_volumetric_heat * wire.cross_section_area  # J/(K m)

    def total_resistance_per_length(self, wire: WireSegmentPath) -> float:
        """Oxide + spreading + mount, the latter folded in via wire length."""
        return (
            self.oxide_resistance_per_length(wire)
            + self.spreading_resistance_per_length(wire)
            + wire.path_length * self.mount_resistance
        )

    def resistivity(self, delta_T: float) -> float:
        return self.rho0 * (1.0 + self.alpha_R * delta_T)


def _self_heating_parameter(wire: WireSegmentPath, current: float,
                            network: ThermalNetwork) -> float:
    """beta = rho0 J^2 A R'_total: the cold-resistivity temperature rise."""
    area = wire.cross_section_area
    return network.rho0 * (current / area) ** 2 * area * network.total_resistance_per_length(wire)


def _beta_for_rise(network: ThermalNetwork, delta_T: float) -> float:
    """beta whose steady rise is ``delta_T``: the balance solved for beta."""
    return delta_T / (1.0 + network.alpha_R * delta_T)


def steady_temperature(wire: WireSegmentPath, current: float,
                       network: ThermalNetwork) -> float:
    """Self-consistent steady temperature rise dT (K) at the given current.

    The root beta / (1 - alpha beta) of dT = beta (1 + alpha dT); raises
    ThermalRunawayError when alpha*beta >= 1 (no finite root).
    """
    if not current >= 0.0:
        raise ConfigError(f"current must be >= 0, got {current!r}")
    if current == 0.0:
        return 0.0
    beta = _self_heating_parameter(wire, current, network)
    if network.alpha_R * beta >= 1.0:
        raise ThermalRunawayError(
            f"thermal runaway at {current:.4g} A "
            f"(alpha*beta = {network.alpha_R * beta:.4g} >= 1)"
        )
    return beta / (1.0 - network.alpha_R * beta)


def runaway_current(wire: WireSegmentPath, network: ThermalNetwork) -> float:
    """Current at which alpha*beta = 1 and the steady root disappears."""
    area = wire.cross_section_area
    beta_unit = network.rho0 / area * network.total_resistance_per_length(wire)
    return math.sqrt(1.0 / (network.alpha_R * beta_unit))


def max_current_density(wire: WireSegmentPath, network: ThermalNetwork,
                        delta_T_limit: float = 150.0) -> float:
    """J_max (A/m^2) bringing the steady rise to ``delta_T_limit``.

    beta = rho0 J^2 A R'_total solved for J at the beta whose rise is the
    limit; that beta stays below 1/alpha, so J_max lies below runaway.
    """
    if not delta_T_limit > 0.0:
        raise ConfigError(f"delta_T_limit must be > 0, got {delta_T_limit!r}")
    beta_limit = _beta_for_rise(network, delta_T_limit)
    area = wire.cross_section_area
    return math.sqrt(beta_limit / (network.rho0 * area
                                   * network.total_resistance_per_length(wire)))


def fast_time_constant(wire: WireSegmentPath, network: ThermalNetwork) -> float:
    """tau_fast = C'_wire * R'_oxide: the microsecond oxide-charging scale."""
    return (network.wire_heat_capacity_per_length(wire)
            * network.oxide_resistance_per_length(wire))


def slow_time_constant(wire: WireSegmentPath, network: ThermalNetwork) -> float:
    """Substrate/mount charging scale from the lumped downstream capacity."""
    r_slow = (network.spreading_resistance_per_length(wire) / wire.path_length
              + network.mount_resistance)
    return network.substrate_heat_capacity * r_slow


def transient_temperature(wire: WireSegmentPath, current: float,
                          network: ThermalNetwork, t) -> float:
    """Two-exponential dT(t): fast oxide drop, then slow substrate/mount rise.

    The two amplitudes split the steady-state power over the oxide and the
    downstream resistances, so dT(t -> inf) equals steady_temperature.
    """
    import numpy as np

    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ConfigError("time must be >= 0")
    dT_ss = steady_temperature(wire, current, network)
    if dT_ss == 0.0:
        out = np.zeros_like(t)
        return float(out) if out.ndim == 0 else out
    area = wire.cross_section_area
    p_len = network.resistivity(dT_ss) * (current / area) ** 2 * area
    fast_amp = p_len * network.oxide_resistance_per_length(wire)
    slow_amp = dT_ss - fast_amp
    tau_f = fast_time_constant(wire, network)
    tau_s = slow_time_constant(wire, network)
    out = fast_amp * (1.0 - np.exp(-t / tau_f)) + slow_amp * (1.0 - np.exp(-t / tau_s))
    return float(out) if out.ndim == 0 else out


def resistance_monitor(wire: WireSegmentPath, network: ThermalNetwork,
                       current: float) -> float:
    """Fractional resistance rise alpha_R * dT(I) used to monitor heating."""
    return network.alpha_R * steady_temperature(wire, current, network)


def calibrate_mount(network: ThermalNetwork, wire: WireSegmentPath,
                    j_max: float, delta_T: float = 150.0) -> ThermalNetwork:
    """Fix the mount resistance so ``wire`` reaches ``delta_T`` at ``j_max``.

    One measured (J_max, dT) point determines the single free parameter;
    other widths then become genuine predictions.  Recalibrating with the
    calibration point itself reproduces the same network.
    """
    if not (math.isfinite(j_max) and j_max > 0.0):
        raise ConfigError(f"j_max must be finite and > 0, got {j_max!r}")
    if not delta_T > 0.0:
        raise ConfigError(f"delta_T must be > 0, got {delta_T!r}")
    beta_required = _beta_for_rise(network, delta_T)
    area = wire.cross_section_area
    r_total = beta_required / (network.rho0 * j_max**2 * area)
    r_mount = (r_total
               - network.oxide_resistance_per_length(wire)
               - network.spreading_resistance_per_length(wire)) / wire.path_length
    if r_mount < 0.0:
        raise ConfigError(
            "calibration point implies a negative mount resistance; "
            "check the oxide/substrate constants"
        )
    return replace(network, mount_resistance=r_mount)


def paper_wire(width: float = 50e-6, thickness: float = 3e-6,
               length: float = 11e-3, name: str = "w") -> WireSegmentPath:
    """Straight test wire matching the chip wires' cross-sections.

    Default length 11 mm = 7 mm central section + two 2 mm leads.
    """
    return WireSegmentPath(
        name=name, channel=name,
        nodes=((0.0, -thickness / 2.0, -length / 2.0),
               (0.0, -thickness / 2.0, length / 2.0)),
        width=width, thickness=thickness,
    )


def paper_calibrated_network(j_max_50um: float = 8.8e9,
                             delta_T: float = 150.0) -> ThermalNetwork:
    """Network with the mount calibrated on the 50 um wire's measured limit."""
    return calibrate_mount(ThermalNetwork(), paper_wire(width=50e-6), j_max_50um, delta_T)
