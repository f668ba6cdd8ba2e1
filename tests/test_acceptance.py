"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s / -v) and
enforces its runtime budget.  Expected values come from independent
oracles computed here: analytic wire formulas, the F=2 rotating-wave
matrix, forward models for the inversions, and seeded Monte-Carlo.
"""

import filecmp
import math
import time

import numpy as np
import pytest

from atomchip.cli import run
from atomchip.constants import GAUSS, HBAR, MU_0, PLANCK
from atomchip.fields import BiotSavartModel, GridSpec, field_map
from atomchip.fringes import (
    FringeModel, GaussianEnvelope, fit_modulated_gaussian, phase_statistics,
    synthesize_fringes, wrap_phase,
)
from atomchip.geometry import CurrentConfig, builtin_paper_layout, rb87_f2m2
from atomchip.reproduction import (
    SPLIT_SCAN_AMPLITUDES, roughness_test_wire, splitting_setup, thin_wire_layout,
)
from atomchip.rf import dressed_potential, split_scan
from atomchip.roughness import (
    TriangleDeviation, contact_interaction_constant, invert_density_boltzmann,
    invert_density_thomas_fermi, remove_harmonic_background, roughness_field,
)
from atomchip.thermal import (
    fast_time_constant, max_current_density, paper_calibrated_network, paper_wire,
    steady_temperature,
)
from atomchip.trap import find_trap_minimum, magnetic_potential


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, detail


@pytest.fixture(scope="module")
def species():
    return rb87_f2m2()


def test_c1_trap_height(species):
    t0 = time.monotonic()
    thin = BiotSavartModel(thin_wire_layout(), 1, 1)
    cur = CurrentConfig(dc={"w": 2.0}, bias=(24.8 * GAUSS, 0.0, 0.0))
    tc_thin = find_trap_minimum(magnetic_potential(thin, cur, species),
                                (0.0, 150e-6, 0.0))
    oracle = MU_0 * 2.0 / (2.0 * np.pi * 24.8 * GAUSS)

    layout, currents, _ = builtin_paper_layout()
    model = BiotSavartModel(layout)
    tc_full = find_trap_minimum(magnetic_potential(model, currents, species),
                                (-42.5e-6, 150e-6, 0.0))
    elapsed = time.monotonic() - t0

    thin_ok = abs(tc_thin.height_above_chip - oracle) < 1e-6
    full_ok = 140e-6 < tc_full.height_above_chip < 165e-6
    ok = thin_ok and full_ok and elapsed < 1.0
    report(1, ok,
           f"thin {tc_thin.height_above_chip * 1e6:.2f} um vs oracle "
           f"{oracle * 1e6:.2f} +- 1; finite-width {tc_full.height_above_chip * 1e6:.1f} um "
           f"in [140, 165]; {elapsed:.2f} s < 1 s")


def test_c2_field_solver_oracle(species):
    t0 = time.monotonic()
    thin = BiotSavartModel(thin_wire_layout(length=2.0), 1, 1)
    cur = CurrentConfig(dc={"w": 2.0})
    radii = np.linspace(50e-6, 500e-6, 16)
    B = thin.field(cur, np.column_stack([np.zeros(16), radii, np.zeros(16)]))
    exact = MU_0 * 2.0 / (2.0 * np.pi * radii)
    field_err = float(np.max(np.abs(np.linalg.norm(B, axis=1) - exact) / exact))

    layout, currents, _ = builtin_paper_layout()
    pm = BiotSavartModel(layout)
    p = np.array([10e-6, 180e-6, 40e-6])
    bias = np.asarray(currents.bias)
    b1 = pm.field(currents.with_dc(z2=1.3, z3=-0.4), p)[0]
    b2 = pm.field(currents.with_dc(z2=0.6, z3=0.9, e1=0.25), p)[0]
    b12 = pm.field(currents.with_dc(z2=1.9, z3=0.5, e1=0.25), p)[0]
    lin_err = float(np.max(np.abs(b12 - (b1 + b2 - bias))) / np.max(np.abs(b12)))
    scale_err = float(np.max(np.abs(
        (pm.field(currents.with_dc(z2=4.0), p)[0] - bias)
        - 2.0 * (pm.field(currents, p)[0] - bias)
    )) / np.max(np.abs(b12)))

    grid = GridSpec.from_ranges(np.linspace(-500e-6, 500e-6, 101),
                                np.linspace(50e-6, 1050e-6, 101), [0.0])
    _, J = field_map(thin, CurrentConfig(dc={"w": 2.0}, bias=(24.8 * GAUSS, 0, 0)),
                     grid, with_jacobian=True)
    div = np.trace(J, axis1=1, axis2=2)
    curl = np.stack([J[:, 2, 1] - J[:, 1, 2], J[:, 0, 2] - J[:, 2, 0],
                     J[:, 1, 0] - J[:, 0, 1]], axis=1)
    scale = np.maximum(np.linalg.norm(J, axis=(1, 2)), 1e-12)
    worst = float(np.max(np.maximum(np.abs(div), np.max(np.abs(curl), axis=1)) / scale))
    elapsed = time.monotonic() - t0

    ok = (field_err < 1e-3 and lin_err < 1e-12 and scale_err < 1e-12
          and worst < 2e-4 and elapsed < 10.0)
    report(2, ok,
           f"wire-field err {field_err:.2e} < 1e-3; superposition {lin_err:.1e} and "
           f"scaling {scale_err:.1e} < 1e-12; div/curl {worst:.2e} < 2e-4 on 10201 "
           f"points; {elapsed:.1f} s < 10 s")


def test_c3_dressed_level_oracle(species):
    t0 = time.monotonic()
    # independent oracle: diagonalize the F=2 rotating-wave Hamiltonian
    ms = np.arange(2, -3, -1, dtype=float)
    Fz = np.diag(ms)
    raising = np.zeros((5, 5))
    for k in range(1, 5):
        m = ms[k]
        raising[k - 1, k] = math.sqrt(6.0 - m * (m + 1))
    Fx = (raising + raising.T) / 2.0

    rng = np.random.default_rng(31415)
    per_m = species.zeeman_slope / 2.0
    worst = 0.0
    for _ in range(1000):
        bmag = rng.uniform(0.05, 5.0) * GAUSS
        f_rf = rng.uniform(0.05, 5.0) * 1e6
        b_lin = rng.uniform(1e-5, 2.0) * GAUSS
        computed = dressed_potential(np.array([0.0, 0.0, bmag]),
                                     np.array([b_lin, 0, 0], dtype=complex),
                                     f_rf, species, 2)
        delta = (per_m * bmag - PLANCK * f_rf) / HBAR
        omega = per_m * (b_lin / 2.0) / HBAR
        top = float(np.linalg.eigvalsh(delta * Fz + omega * Fx)[-1]) * HBAR
        worst = max(worst, abs(computed - top) / abs(top))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-9 and elapsed < 5.0
    report(3, ok, f"max rel err {worst:.2e} < 1e-9 over 1000 draws; "
                  f"{elapsed:.1f} s < 5 s")


def test_c4_double_well_existence():
    t0 = time.monotonic()
    model, currents, sp, drive = splitting_setup()
    result = split_scan(model, currents, sp, drive, SPLIT_SCAN_AMPLITUDES,
                        seed_point=(0.0, 110e-6, 0.0))
    hits = [
        (amp, rep) for amp, rep in zip(result.amplitudes, result.reports)
        if rep.n_minima == 2
        and 3.6e-6 <= rep.separation <= 4.4e-6
        and 5e3 <= rep.barrier_hz <= 20e3
    ]
    elapsed = time.monotonic() - t0
    ok = bool(hits) and elapsed < 120.0
    detail = "no operating point found"
    if hits:
        amp, rep = min(hits, key=lambda h: abs(h[1].separation - 4e-6))
        detail = (f"rf {amp * 1e3:.1f} mA -> separation "
                  f"{rep.separation * 1e6:.2f} um (4 +- 10%), barrier "
                  f"{rep.barrier_hz / 1e3:.1f} kHz in [5, 20]")
    report(4, ok, f"{detail}; {elapsed:.1f} s < 120 s")


def test_c5_roughness_magnitude(species):
    t0 = time.monotonic()
    wire = roughness_test_wire()
    z = np.linspace(-800e-6, 800e-6, 161)
    kw = dict(current=2.0, height=150e-6, z_values=z, species=species)
    prof = roughness_field(wire, TriangleDeviation(20e-9, 800e-6), **kw)
    ratio = float(np.max(np.abs(prof.ratio_to_main)))
    prof2 = roughness_field(wire, TriangleDeviation(40e-9, 800e-6), **kw)
    d1, d2 = np.asarray(prof.delta_Bz), np.asarray(prof2.delta_Bz)
    nonlin = float(np.max(np.abs(d2 - 2 * d1)) / np.max(np.abs(d2)))
    elapsed = time.monotonic() - t0
    ok = (1e-4 / 3.0 <= ratio <= 3e-4) and nonlin < 0.02 and elapsed < 30.0
    report(5, ok,
           f"max|dBz/B| = {ratio:.2e} within factor 3 of 1e-4; linearity "
           f"{nonlin:.1e} < 2%; {elapsed:.1f} s < 30 s")


def test_c6_inversion_roundtrips(species):
    t0 = time.monotonic()
    from atomchip.constants import BOLTZMANN, RB87_SCATTERING_LENGTH

    z = np.linspace(-400e-6, 400e-6, 801)
    temperature = 1.9e-6
    v_b = (1.0 + 0.5 * np.sin(2 * np.pi * z / 180e-6)
           + 0.3 * np.cos(2 * np.pi * z / 95e-6)) * BOLTZMANN * temperature
    v_b -= v_b.min()
    n_b = np.exp(-v_b / (BOLTZMANN * temperature))  # independent forward model
    inv = invert_density_boltzmann(z, n_b, temperature, species)
    kept = np.isin(z, np.asarray(inv.z))
    err_b = float(np.max(np.abs(np.asarray(inv.delta_V) - v_b[kept]))
                  / np.max(v_b[kept]))

    mu = PLANCK * 3e3
    omega_perp = 2 * np.pi * 2000.0
    g_int = contact_interaction_constant(RB87_SCATTERING_LENGTH, species.mass)
    omega_z = 2 * np.pi * 6.5
    v_tf = 0.5 * species.mass * omega_z**2 * z**2 \
        + 0.05 * mu * np.sin(2 * np.pi * z / 150e-6) ** 2
    v_tf -= v_tf.min()
    n_tf = np.pi * np.clip(mu - v_tf, 0, None) ** 2 / (
        g_int * species.mass * omega_perp**2)  # independent forward model
    tf = invert_density_thomas_fermi(z, n_tf, g_int, omega_perp, species)
    keep = ~np.asarray(tf.clipped)
    err_tf = float(np.max(np.abs(np.asarray(tf.V)[keep] - v_tf[keep])) / mu)

    v_h = 0.5 * species.mass * omega_z**2 * z**2 + 0.2 * mu
    fit = remove_harmonic_background(z, v_h, species.mass)
    err_w = abs(fit.omega_z - omega_z) / omega_z
    elapsed = time.monotonic() - t0
    ok = err_b < 0.01 and err_tf < 0.01 and err_w < 1e-3 and elapsed < 5.0
    report(6, ok,
           f"Boltzmann {err_b:.1e} and Thomas-Fermi {err_tf:.1e} round-trips < 1%; "
           f"omega_z recovery {err_w:.1e} < 0.1%; {elapsed:.1f} s < 5 s")


def test_c7_thermal_prediction():
    t0 = time.monotonic()
    network = paper_calibrated_network()  # one-point calibration on the 50 um wire
    w50 = paper_wire(width=50e-6)
    w100 = paper_wire(width=100e-6)
    j100 = max_current_density(w100, network)
    pred_err = abs(j100 - 6.1e9) / 6.1e9

    i_cal = 8.8e9 * w50.cross_section_area
    dt_small = steady_temperature(w50, 0.1 * i_cal, network)
    dt_ref = steady_temperature(w50, 1e-3 * i_cal, network)
    quad_dev = abs(dt_small / (dt_ref * 1e4) - 1.0)
    tau = fast_time_constant(w50, network)
    elapsed = time.monotonic() - t0
    ok = (pred_err < 0.25 and quad_dev < 0.01 and 0.1e-6 < tau < 100e-6
          and elapsed < 5.0)
    report(7, ok,
           f"100 um J_max {j100 / 1e9:.2f}e9 vs 6.1e9 ({pred_err * 100:.1f}% < 25%); "
           f"dT~I^2 dev {quad_dev * 100:.2f}% < 1%; tau_fast "
           f"{tau * 1e6:.2f} us in [0.1, 100]; {elapsed:.1f} s < 5 s")


def test_c8_phase_extraction(species):
    t0 = time.monotonic()
    x = np.linspace(-80e-6, 80e-6, 641)
    env = GaussianEnvelope(center=2e-6, sigma=25e-6, amplitude=3.0)
    model = FringeModel(envelope=env, contrast=0.6, period=16e-6,
                        phase=np.radians(37.0))
    fit = fit_modulated_gaussian(x, synthesize_fringes(model, x))
    noiseless = max(abs(fit.contrast - 0.6) / 0.6,
                    abs(fit.period - 16e-6) / 16e-6,
                    abs(wrap_phase(fit.phase - np.radians(37.0))))

    errs = []
    for k in range(200):
        rng = np.random.default_rng(5000 + k)
        noisy = synthesize_fringes(model, x, noise=0.05, rng=rng)
        f = fit_modulated_gaussian(x, noisy)
        errs.append(abs(np.degrees(wrap_phase(f.phase - np.radians(37.0)))))
    p95 = float(np.percentile(errs, 95))

    draws = wrap_phase(np.radians(np.random.default_rng(103).normal(20.0, 23.0, 103)))
    circ = np.degrees(phase_statistics(draws).circular_std)
    elapsed = time.monotonic() - t0
    ok = (noiseless < 1e-6 and p95 < 5.0 and abs(circ - 23.0) < 4.0
          and elapsed < 30.0)
    report(8, ok,
           f"noiseless recovery {noiseless:.1e} < 1e-6; 5% noise p95 {p95:.2f} deg "
           f"< 5; circular std {circ:.2f} deg = 23 +- 4 (n=103); "
           f"{elapsed:.1f} s < 30 s")


def test_c9_reproduce_paper_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["reproduce-paper", "--seed", "1", "--out", str(a)]) == 0
    assert run(["reproduce-paper", "--seed", "1", "--out", str(b)]) == 0
    same_csv = filecmp.cmp(a / "summary.csv", b / "summary.csv", shallow=False)
    same_md = filecmp.cmp(a / "summary.md", b / "summary.md", shallow=False)
    ok = same_csv and same_md
    report(9, ok, "reproduce-paper --seed 1 twice -> byte-identical summary.csv "
                  "and summary.md")
