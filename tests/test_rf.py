import math

import numpy as np
import pytest

from atomchip.constants import GAUSS, HBAR, PLANCK
from atomchip.errors import ConfigError, FieldDomainError
from atomchip.fields import BiotSavartModel
from atomchip.geometry import ChipLayout, CurrentConfig, RfChannelDrive, WireSegmentPath
from atomchip.reproduction import SPLIT_SCAN_AMPLITUDES, splitting_setup
from atomchip import rf
from atomchip.rf import (
    RfDriveState, characterize_double_well, dressed_potential, dressed_potential_line,
    rf_field_phasor, split_scan,
)
from atomchip.trap import find_trap_minimum, magnetic_potential


def f2_matrices():
    """Independent spin-2 operators for the rotating-wave oracle."""
    ms = np.arange(2, -3, -1, dtype=float)
    Fz = np.diag(ms)
    raising = np.zeros((5, 5))
    for k in range(1, 5):
        m = ms[k]
        raising[k - 1, k] = math.sqrt(2 * 3 - m * (m + 1))
    Fx = (raising + raising.T) / 2.0
    return Fz, Fx


@pytest.fixture(scope="module")
def wire_pair():
    wires = tuple(
        WireSegmentPath(name=n, channel=n,
                        nodes=((x, 0.0, -0.05), (x, 0.0, 0.05)),
                        width=1e-6, thickness=1e-6)
        for n, x in (("a", -42.5e-6), ("b", 42.5e-6))
    )
    return BiotSavartModel(ChipLayout(wires=wires), 1, 1)


def test_phasor_single_channel_matches_static_field(wire_pair):
    drive = RfDriveState(frequency=1e6, channels={"a": RfChannelDrive(0.02, 0.0)})
    p = np.array([10e-6, 120e-6, 0.0])
    phasor = rf_field_phasor(wire_pair, drive, p)[0]
    static = 0.02 * wire_pair.channel_unit_field("a", p)[0]
    assert np.allclose(phasor.imag, 0.0)
    assert np.allclose(phasor.real, static)


def test_antiphase_pair_gives_y_field_on_symmetry_plane(wire_pair):
    drive = RfDriveState(frequency=1e6, channels={
        "a": RfChannelDrive(0.02, 0.0), "b": RfChannelDrive(0.02, math.pi),
    })
    phasor = rf_field_phasor(wire_pair, drive, np.array([0.0, 120e-6, 0.0]))[0]
    assert abs(phasor[0]) < 1e-15 * abs(phasor[1])  # x components cancel
    assert abs(phasor[2]) < 1e-15 * abs(phasor[1])
    assert abs(phasor[1]) > 0


def test_global_phase_shift_negates_phasor(wire_pair):
    d0 = RfDriveState(frequency=1e6, channels={
        "a": RfChannelDrive(0.02, 0.1), "b": RfChannelDrive(0.015, 1.2),
    })
    d_pi = RfDriveState(frequency=1e6, channels={
        "a": RfChannelDrive(0.02, 0.1 + math.pi), "b": RfChannelDrive(0.015, 1.2 + math.pi),
    })
    p = np.array([7e-6, 100e-6, 3e-6])
    assert np.allclose(rf_field_phasor(wire_pair, d_pi, p),
                       -rf_field_phasor(wire_pair, d0, p), rtol=1e-12)


def test_dressed_zero_rf_limit(species):
    B = np.array([0.0, 0.0, 2.0]) * GAUSS
    f_rf = 1.2e6
    e = dressed_potential(B, np.zeros(3, dtype=complex), f_rf, species, 2)
    per_m = species.zeeman_slope / 2.0
    assert e == pytest.approx(2.0 * abs(per_m * 2.0 * GAUSS - PLANCK * f_rf), rel=1e-12)


def test_dressed_on_resonance_limit(species):
    bmag = 2.0 * GAUSS
    per_m = species.zeeman_slope / 2.0
    f_res = per_m * bmag / PLANCK
    b_lin = 0.01 * GAUSS
    B = np.array([0.0, 0.0, bmag])
    phasor = np.array([b_lin, 0.0, 0.0], dtype=complex)
    e = dressed_potential(B, phasor, f_res, species, 2)
    assert e == pytest.approx(2.0 * per_m * b_lin / 2.0, rel=1e-12)


def test_dressed_matches_f2_matrix_oracle(species, rng):
    Fz, Fx = f2_matrices()
    per_m = species.zeeman_slope / 2.0
    worst = 0.0
    for _ in range(300):
        bmag = rng.uniform(0.05, 5.0) * GAUSS
        f_rf = rng.uniform(0.05, 5.0) * 1e6
        b_lin = rng.uniform(1e-5, 2.0) * GAUSS
        e = dressed_potential(np.array([0, 0, bmag]),
                              np.array([b_lin, 0, 0], dtype=complex),
                              f_rf, species, 2)
        delta = (per_m * bmag - PLANCK * f_rf) / HBAR
        omega = per_m * (b_lin / 2.0) / HBAR
        top = np.linalg.eigvalsh(delta * Fz + omega * Fx)[-1] * HBAR
        worst = max(worst, abs(e - top) / abs(top))
    assert worst < 1e-9


def test_dressed_global_phasor_phase_invariance(species, rng):
    B = np.array([0.7, -0.3, 1.1]) * GAUSS
    phasor = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * 0.01 * GAUSS
    e0 = dressed_potential(B, phasor, 1.1e6, species)
    for theta in (0.3, 1.7, 4.0):
        e = dressed_potential(B, phasor * np.exp(1j * theta), 1.1e6, species)
        assert abs(e - e0) <= 1e-12 * e0


def test_dressed_zero_static_field_rejected(species):
    with pytest.raises(FieldDomainError):
        dressed_potential(np.zeros(3), np.array([1e-6, 0, 0], dtype=complex),
                          1e6, species)


def test_rabi_term_uses_transverse_component_only(species):
    # phasor parallel to the static field must not couple
    B = np.array([0.0, 0.0, 2.0]) * GAUSS
    frame = rf._dressing_frame(B, 1e6, species, 2)
    phasor_par = np.array([0.0, 0.0, 0.05], dtype=complex) * GAUSS
    h_omega = rf._rabi(frame, phasor_par)
    assert h_omega == pytest.approx(0.0, abs=1e-40)
    phasor_perp = np.array([0.05, 0.0, 0.0], dtype=complex) * GAUSS
    h_omega_perp = rf._rabi(frame, phasor_perp)
    assert h_omega_perp > 0.0


def test_drive_state_validation():
    with pytest.raises(ConfigError):
        RfDriveState(frequency=0.0, channels={"a": RfChannelDrive(0.01, 0.0)})


# ---------------------------------------------------------------------------
# double-well characterization on synthetic slices
# ---------------------------------------------------------------------------

def test_single_parabola_one_minimum():
    s = np.linspace(-5e-6, 5e-6, 301)
    rep = characterize_double_well(s, (s / 1e-6) ** 2)
    assert rep.n_minima == 1
    assert rep.separation == 0.0


def test_synthetic_double_well_report():
    s = np.linspace(-6e-6, 6e-6, 1201)
    u = ((s / 1e-6) ** 2 - 4.0) ** 2 * PLANCK * 1e3  # minima at +-2 um, barrier 16 h kHz
    rep = characterize_double_well(s, u)
    assert rep.n_minima == 2
    assert rep.separation == pytest.approx(4e-6, rel=1e-3)
    assert rep.barrier_hz == pytest.approx(16e3, rel=1e-3)
    assert rep.asymmetry < PLANCK * 1.0


def test_extra_minima_flagged():
    s = np.linspace(-6e-6, 6e-6, 1201)
    u = np.cos(2 * np.pi * s / 3e-6) * PLANCK * 1e3  # interior minima at +-1.5, +-4.5 um
    rep = characterize_double_well(s, u)
    assert rep.n_minima == 4
    assert rep.extra_minima


def test_under_resolved_minima_rejected():
    s = np.linspace(-6e-6, 6e-6, 41)
    u = ((s / 1e-6) ** 2 - 1.0) ** 2
    with pytest.raises(ValueError, match="finely"):
        characterize_double_well(s, u)


def test_noise_floor_merges_spurious_minima():
    s = np.linspace(-5e-6, 5e-6, 501)
    u = (s / 1e-6) ** 2
    u[250] -= 1e-12  # machine-noise dimple at the bottom
    rep = characterize_double_well(s, u, noise_floor_rel=1e-9)
    assert rep.n_minima == 1


# ---------------------------------------------------------------------------
# split scans on the frozen operating point
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def splitting():
    return splitting_setup()


def test_zero_rf_single_well(splitting):
    # at zero amplitude the |delta| branch is single-welled when the rf sits
    # below the bottom Larmor frequency (no resonance ring in the trap)
    model, currents, species, _ = splitting
    per_m = species.zeeman_slope / 2.0
    static = magnetic_potential(model, currents, species)
    tc = find_trap_minimum(static, (0, 110e-6, 0))
    drive = RfDriveState(
        frequency=per_m * tc.bottom_field / PLANCK - 3e3,
        channels={"z2": RfChannelDrive(0.01, 0.0), "z3": RfChannelDrive(0.01, math.pi)},
    )
    s, u = dressed_potential_line(
        model, currents, species, drive.scaled(0.0), center=tc.minimum,
        direction=(1, 0, 0), halfwidth=8e-6, n=801,
    )
    rep = characterize_double_well(s, u)
    assert rep.n_minima == 1


def test_above_critical_double_well_with_symmetry(splitting):
    model, currents, species, drive = splitting
    result = split_scan(model, currents, species, drive, [0.018],
                        seed_point=(0, 110e-6, 0), n_samples=1201)
    rep = result.reports[0]
    assert rep.n_minima == 2
    assert rep.separation > 1e-6
    assert rep.barrier > 0
    assert rep.asymmetry < PLANCK * 100.0  # symmetric drive: wells match
    # the barrier maximum sits at the slice midpoint between the wells
    assert abs(sum(rep.minima_positions)) < 0.05 * rep.separation


def test_scan_below_critical_all_single(splitting):
    model, currents, species, _ = splitting
    # below-resonance drive has a genuine critical amplitude
    per_m = species.zeeman_slope / 2.0
    static = magnetic_potential(model, currents, species)
    bottom = find_trap_minimum(static, (0, 110e-6, 0)).bottom_field
    drive = RfDriveState(
        frequency=per_m * bottom / PLANCK - 3e3,
        channels={"z2": RfChannelDrive(0.01, 0.0), "z3": RfChannelDrive(0.01, math.pi)},
    )
    amps = np.linspace(0.002, 0.012, 5)
    result = split_scan(model, currents, species, drive, amps,
                        seed_point=(0, 110e-6, 0), halfwidth=8e-6, n_samples=801)
    assert all(r.n_minima == 1 for r in result.reports)
    assert result.critical_amplitude is None


def test_scan_monotone_separation_past_critical(splitting):
    model, currents, species, _ = splitting
    per_m = species.zeeman_slope / 2.0
    static = magnetic_potential(model, currents, species)
    bottom = find_trap_minimum(static, (0, 110e-6, 0)).bottom_field
    drive = RfDriveState(
        frequency=per_m * bottom / PLANCK - 3e3,
        channels={"z2": RfChannelDrive(0.01, 0.0), "z3": RfChannelDrive(0.01, math.pi)},
    )
    amps = np.linspace(0.016, 0.040, 7)
    result = split_scan(model, currents, species, drive, amps,
                        seed_point=(0, 110e-6, 0), halfwidth=8e-6, n_samples=801)
    seps = [r.separation for r in result.reports]
    assert result.critical_amplitude is not None
    assert all(b >= a - 1e-12 for a, b in zip(seps, seps[1:]))
    assert seps[-1] > 0


def test_scan_requires_monotone_ramp(splitting):
    model, currents, species, drive = splitting
    with pytest.raises(ValueError, match="monotone"):
        split_scan(model, currents, species, drive, [0.02, 0.01])


def test_scan_csv_rows(splitting):
    model, currents, species, drive = splitting
    result = split_scan(model, currents, species, drive, [0.015],
                        seed_point=(0, 110e-6, 0), n_samples=801)
    rows = result.rows()
    assert rows[0] == "rf_amplitude_A,n_minima,separation_um,barrier_kHz,asymmetry_kHz"
    assert rows[1].startswith("0.015,2,")


def test_scan_matches_slice_by_slice_loop(splitting):
    # the scan evaluates each slice's fields once; a slice-by-slice loop over
    # the public API must give the same reports, refined slices included
    model, currents, species, drive = splitting
    amps = [0.0, 0.002, 0.01, 0.02, 0.03]
    seed, n_samples, halfwidth = (0, 110e-6, 0), 58, 12e-6
    result = split_scan(model, currents, species, drive, amps, seed_point=seed,
                        halfwidth=halfwidth, n_samples=n_samples)

    center = find_trap_minimum(magnetic_potential(model, currents, species), seed).minimum
    expected, refined = [], 0
    for a in amps:
        n = n_samples
        while True:
            s, u = dressed_potential_line(model, currents, species, drive.scaled(a / 0.010),
                                          center, (1.0, 0.0, 0.0), halfwidth, n)
            try:
                expected.append(characterize_double_well(s, u, slice_axis=(1.0, 0.0, 0.0)))
                break
            except ValueError:
                refined += 1
                n = 4 * n - 3
    assert 0 < refined < len(amps)
    assert repr(result.reports) == repr(tuple(expected))


def test_scan_with_rf_channels_apart_from_dc_matches_slice_by_slice_loop(splitting):
    # rf on z1 and z2, dc on z2 and z3: the scan evaluates z1's unit field
    # for the phasor only and z3's for B only
    model, currents, species, _ = splitting
    drive = RfDriveState(frequency=1429.0e3, channels={
        "z1": RfChannelDrive(0.004, 0.3), "z2": RfChannelDrive(0.010, math.pi)})
    amps = [0.0, 0.005, 0.01, 0.02, 0.03]
    seed, n_samples, halfwidth = (0, 110e-6, 0), 58, 12e-6
    result = split_scan(model, currents, species, drive, amps, seed_point=seed,
                        halfwidth=halfwidth, n_samples=n_samples)

    center = find_trap_minimum(magnetic_potential(model, currents, species), seed).minimum
    expected = []
    for a in amps:
        n = n_samples
        while True:
            s, u = dressed_potential_line(model, currents, species, drive.scaled(a / 0.010),
                                          center, (1.0, 0.0, 0.0), halfwidth, n)
            try:
                expected.append(characterize_double_well(s, u, slice_axis=(1.0, 0.0, 0.0)))
                break
            except ValueError:
                n = 4 * n - 3
    assert repr(result.reports) == repr(tuple(expected))


@pytest.mark.parametrize("amps, n_samples, sizes", [
    (SPLIT_SCAN_AMPLITUDES, 1201, [1201]),
    ([0.0, 0.002, 0.01, 0.02, 0.03], 58, [58, 229]),  # refined to 4n - 3
])
def test_scan_evaluates_each_unit_field_once_per_slice_size(splitting, monkeypatch, amps,
                                                            n_samples, sizes):
    # z2 and z3 carry both the dc and the rf current: one unit field each
    # per slice size serves B and every phasor of the ramp
    model, currents, species, drive = splitting
    calls = []
    unit_field = BiotSavartModel.channel_unit_field

    def counted(self, channel, points):
        calls.append((channel, len(points)))
        return unit_field(self, channel, points)

    monkeypatch.setattr(BiotSavartModel, "channel_unit_field", counted)
    split_scan(model, currents, species, drive, amps, seed_point=(0, 110e-6, 0),
               n_samples=n_samples)
    slice_calls = sorted(c for c in calls if c[1] > 1)  # the trap search's are single points
    assert slice_calls == sorted((ch, n) for ch in ("z2", "z3") for n in sizes)


def test_scan_slice_through_a_wire_raises_the_model_error(splitting):
    model, currents, species, drive = splitting
    seed, direction, halfwidth, n = (0, 110e-6, 0), np.array([1.0, 1.0, 0.0]), 200e-6, 401
    center = np.asarray(
        find_trap_minimum(magnetic_potential(model, currents, species), seed).minimum)
    unit = direction / np.linalg.norm(direction)
    s = np.linspace(-halfwidth, halfwidth, n)
    with pytest.raises(FieldDomainError) as expected:
        model.field(currents, center[None, :] + s[:, None] * unit[None, :])
    assert "lies inside wire 'z1'" in str(expected.value)
    with pytest.raises(FieldDomainError) as raised:
        split_scan(model, currents, species, drive, [0.01], direction=tuple(direction),
                   seed_point=seed, halfwidth=halfwidth, n_samples=n)
    assert str(raised.value) == str(expected.value)


def test_rf_phase_convention_counter_clockwise_about_b(species):
    # Re(B_1 e^{-i w t}) with B_1 = (1, i, 0) is (cos wt, sin wt, 0): it
    # turns counter-clockwise about B = +z and couples fully (|c| = 1);
    # (1, -i, 0) turns the other way and does not couple
    B = np.array([0.0, 0.0, 2.0]) * GAUSS
    per_m = species.zeeman_slope / 2.0
    frame = rf._dressing_frame(B, 1e6, species, 2)
    ccw = rf._rabi(frame, np.array([1.0, 1j, 0.0]))
    cw = rf._rabi(frame, np.array([1.0, -1j, 0.0]))
    assert ccw == per_m
    assert cw == 0.0
