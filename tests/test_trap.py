import itertools
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from atomchip.constants import BOHR_MAGNETON, GAUSS, MU_0, PLANCK
from atomchip.errors import (
    ConfigError, ConvergenceError, FieldDomainError, FieldZeroError, SaddlePointError,
)
from atomchip.fields import BiotSavartModel
from atomchip import trap
from atomchip.geometry import ChipLayout, CurrentConfig, WireSegmentPath, rb87_f2m2
from atomchip.reproduction import splitting_setup
from atomchip.trap import (
    PotentialDef, characterize_trap, find_trap_minimum, magnetic_potential,
    trap_depth, trap_frequencies,
)


def synthetic_potential(species, energy, gradient=None, hessian=None):
    """PotentialDef of ``energy``: its batch evaluates ``energy`` point by
    point, and ``local`` takes the given gradient and Hessian, with no field."""
    def local(r):
        return trap.Local(gradient(r), hessian(r), None)

    return PotentialDef(energy=energy, species=species,
                        energy_batch=lambda pts: np.array([energy(p) for p in pts]),
                        local=local)


def harmonic_potential(species, freqs_hz, center=(0.0, 0.0, 0.0), axes=None):
    center = np.asarray(center, dtype=float)
    if axes is None:
        axes = np.eye(3)
    axes = np.asarray(axes)
    k = species.mass * (2.0 * np.pi * np.asarray(freqs_hz)) ** 2

    def energy(r):
        d = axes @ (np.asarray(r, dtype=float) - center)
        return float(0.5 * np.sum(k * d**2))

    def gradient(r):
        return axes.T @ (k * (axes @ (np.asarray(r, dtype=float) - center)))

    return synthetic_potential(species, energy, gradient, lambda r: axes.T @ np.diag(k) @ axes)


# ---------------------------------------------------------------------------
# magnetic potential energy
# ---------------------------------------------------------------------------

def test_zeeman_energy_one_gauss(thin_model, species):
    # mu_B * 1 G / h = 1.3996 MHz from the constants table
    pdef = magnetic_potential(thin_model, CurrentConfig(bias=(1e-4, 0, 0)), species)
    u = pdef.energy(np.asarray((0, 200e-6, 0)))
    assert u / PLANCK == pytest.approx(1.3996e6, rel=1e-4)


def test_zero_field_zero_potential(thin_model, species):
    pdef = magnetic_potential(thin_model, CurrentConfig(), species)
    assert pdef.energy(np.asarray((0, 200e-6, 0))) == 0.0


def test_gravity_additivity(thin_model, species):
    cur = CurrentConfig(bias=(5 * GAUSS, 0, 0))
    pdef = magnetic_potential(thin_model, cur, species, gravity=True)
    delta = 10e-6
    du = pdef.energy(np.asarray((0, 200e-6 + delta, 0))) - pdef.energy(np.asarray((0, 200e-6, 0)))
    assert du == pytest.approx(species.mass * 9.80665 * delta, rel=1e-9)


@pytest.mark.parametrize("gravity", [False, True])
def test_energy_batch_matches_energy_bitwise(paper_model, paper, species, gravity):
    # trap_depth subtracts a single-point U from batch energies; both equal
    # the point-by-point formula with np.linalg.norm and np.dot
    _, currents, _ = paper
    pdef = magnetic_potential(paper_model, currents, species, gravity=gravity)
    x, y = np.meshgrid(np.linspace(-300e-6, 200e-6, 20), np.linspace(20e-6, 400e-6, 20))
    grid = np.column_stack([x.ravel(), y.ravel(), np.full(400, 30e-6)])
    g = np.asarray(species.gravity) if gravity else np.zeros(3)
    reference = np.array([
        species.zeeman_slope * float(np.linalg.norm(paper_model.field(currents, p)[0]))
        - species.mass * float(np.dot(g, p)) for p in grid])
    assert np.array_equal(pdef.energy_batch(grid), reference)
    assert np.array_equal([pdef.energy(p) for p in grid], reference)


@pytest.mark.parametrize("gravity", [False, True])
def test_energy_is_infinite_inside_a_wire(paper_model, paper, species, gravity):
    _, currents, _ = paper
    pdef = magnetic_potential(paper_model, currents, species, gravity=gravity)
    inside = np.array([-42.5e-6, -1.5e-6, 0.0])  # the centre of z2
    assert pdef.energy(inside) == np.inf
    u = pdef.energy_batch([inside, (0.0, 100e-6, 0.0)])
    assert u[0] == np.inf and np.isfinite(u[1])
    with pytest.raises(FieldDomainError, match="lies inside wire 'z2'"):
        pdef.local(inside)


# ---------------------------------------------------------------------------
# find_trap_minimum
# ---------------------------------------------------------------------------

def test_thin_filament_height_oracle(thin_model, thin_currents, species):
    pdef = magnetic_potential(thin_model, thin_currents, species)
    tc = find_trap_minimum(pdef, (0, 150e-6, 0))
    oracle = MU_0 * 2.0 / (2.0 * np.pi * 24.8 * GAUSS)  # 161.29 um
    assert abs(tc.height_above_chip - oracle) < 1e-6


def test_field_zero_with_gravity_is_the_minimum(thin_model, thin_currents, species):
    # the cone's slope, zeeman_slope * 15.4 T/m, holds the atom against m g
    # (~100x weaker), so the zero stays the minimum and 0 is a subgradient
    pdef = magnetic_potential(thin_model, thin_currents, species, gravity=True)
    tc = find_trap_minimum(pdef, (0, 150e-6, 0))
    oracle = MU_0 * 2.0 / (2.0 * np.pi * 24.8 * GAUSS)
    assert abs(tc.height_above_chip - oracle) < 1e-6
    assert tc.grad_norm == 0.0


def test_gravity_pulls_the_atom_off_a_shallow_cone(thin_model, species):
    # 0.2 A against 0.6 G: the zero at 667 um has |grad B| = 0.09 T/m, less
    # than m g / zeeman_slope = 0.153 T/m, so the atom sags until the wire's
    # own gradient mu0 I / (2 pi y^2) carries its weight
    pdef = magnetic_potential(thin_model, CurrentConfig(dc={"w": 0.2}, bias=(0.6 * GAUSS, 0, 0)),
                              species, gravity=True)
    tc = find_trap_minimum(pdef, (0, MU_0 * 0.2 / (2.0 * np.pi * 0.6 * GAUSS), 0))
    weight = species.mass * np.linalg.norm(species.gravity)
    sag = np.sqrt(MU_0 * 0.2 * species.zeeman_slope / (2.0 * np.pi * weight))
    assert abs(tc.height_above_chip - sag) < 1e-6
    assert tc.bottom_field > 1e-5  # 0.1 G: no longer a field zero


def test_thin_filament_height_matches_finite_segment_root(thin_model, thin_currents, species):
    # the fixture's single 0.1 m filament gives |B_x| = mu0 I / (4 pi y) *
    # L / sqrt(L^2 / 4 + y^2) above its midpoint; the trap is where that
    # cancels the bias, a field zero (U is a cone there)
    half = 0.05

    def excess(y):
        return MU_0 * 2.0 / (4.0 * np.pi * y) * 2.0 * half / np.hypot(half, y) - 24.8 * GAUSS

    exact = brentq(excess, 100e-6, 200e-6, xtol=1e-18)
    tc = find_trap_minimum(magnetic_potential(thin_model, thin_currents, species), (0, 150e-6, 0))
    assert abs(tc.height_above_chip - exact) < 1e-12
    assert tc.grad_norm == 0.0  # the zero subgradient on the cone


def test_field_zero_has_no_harmonic_frequencies(thin_model, thin_currents, species):
    pdef = magnetic_potential(thin_model, thin_currents, species)
    tc = find_trap_minimum(pdef, (0, 150e-6, 0))
    with pytest.raises(FieldZeroError, match="no harmonic curvature"):
        trap_frequencies(pdef, tc.minimum)


def test_stencil_in_a_conductor_has_no_frequencies(paper_model, paper, species):
    # 0.5 um above z2: the point is outside the wire, its -y stencil point
    # 1 um below it is inside
    _, currents, _ = paper
    pdef = magnetic_potential(paper_model, currents, species)
    with pytest.raises(FieldDomainError, match="lies inside wire 'z2'"):
        trap_frequencies(pdef, (-42.5e-6, 0.5e-6, 0))


def test_finite_width_height_in_paper_window(paper_model, paper, species):
    _, currents, _ = paper
    pdef = magnetic_potential(paper_model, currents, species)
    tc = find_trap_minimum(pdef, (-42.5e-6, 150e-6, 0))
    assert 140e-6 < tc.height_above_chip < 165e-6
    assert abs(tc.minimum[0] - (-42.5e-6)) < 3e-6  # above the powered wire


def test_pure_quadrupole_bottom_field_zero(thin_model, thin_currents, species):
    # straight wire + transverse bias: 2D quadrupole line, |B| -> 0
    pdef = magnetic_potential(thin_model, thin_currents, species)
    tc = find_trap_minimum(pdef, (0, 150e-6, 0))
    assert tc.bottom_field < 1e-7  # < 1 mG


def test_seed_perturbation_invariance(paper_model, paper, species):
    _, currents, _ = paper
    pdef = magnetic_potential(paper_model, currents, species)
    ref = find_trap_minimum(pdef, (-42.5e-6, 150e-6, 0))
    for off in ((20e-6, 0, 0), (0, 20e-6, 0), (-20e-6, -20e-6, 20e-6)):
        tc = find_trap_minimum(pdef, np.array([-42.5e-6, 150e-6, 0.0]) + off)
        assert np.linalg.norm(np.asarray(tc.minimum) - np.asarray(ref.minimum)) < 0.1e-6


def test_seeds_20um_off_converge_within_1nm(paper_model, paper, species):
    _, currents, _ = paper
    pdef = magnetic_potential(paper_model, currents, species)
    seed = np.array([-42.5e-6, 150e-6, 0.0])
    ref = np.asarray(find_trap_minimum(pdef, seed).minimum)
    for off in itertools.product((-20e-6, 20e-6), repeat=3):
        tc = find_trap_minimum(pdef, seed + np.asarray(off))
        assert np.linalg.norm(np.asarray(tc.minimum) - ref) < 1e-9, off


def test_thin_wire_height_property(species):
    # oracle: height = mu0 I / (2 pi B_bias) within 1% across settings
    wire = WireSegmentPath(name="w", channel="w",
                           nodes=((0, 0, -0.05), (0, 0, 0.05)),
                           width=1e-6, thickness=1e-6)
    model = BiotSavartModel(ChipLayout(wires=(wire,)), 1, 1)
    for current, bias_g in ((1.0, 15.0), (2.0, 24.8), (3.0, 40.0)):
        cur = CurrentConfig(dc={"w": current}, bias=(bias_g * GAUSS, 0, 0))
        pdef = magnetic_potential(model, cur, rb87_f2m2())
        seed_y = MU_0 * current / (2 * np.pi * bias_g * GAUSS)
        tc = find_trap_minimum(pdef, (0, seed_y * 1.1, 0))
        assert tc.height_above_chip == pytest.approx(seed_y, rel=0.01)


def test_bias_monotonicity(thin_model, species):
    # deeper bias: trap moves closer to the wire and the gradient grows
    heights, gradients = [], []
    for bias_g in (20.0, 24.8, 30.0, 36.0):
        cur = CurrentConfig(dc={"w": 2.0}, bias=(bias_g * GAUSS, 0, 0))
        pdef = magnetic_potential(thin_model, cur, species)
        tc = find_trap_minimum(pdef, (0, 120e-6, 0))
        heights.append(tc.height_above_chip)
        J = thin_model.field_and_jacobian(cur, tc.minimum)[1][0]
        gradients.append(np.linalg.norm(J))
    assert all(a > b for a, b in zip(heights, heights[1:]))
    assert all(a < b for a, b in zip(gradients, gradients[1:]))


# ---------------------------------------------------------------------------
# trap_frequencies
# ---------------------------------------------------------------------------

def test_synthetic_harmonic_frequencies(species):
    pdef = harmonic_potential(species, (1000.0, 1000.0, 6.5))
    freqs, axes = trap_frequencies(pdef, (0, 0, 0))
    assert freqs[0] == pytest.approx(6.5, rel=1e-3)
    assert freqs[1] == pytest.approx(1000.0, rel=1e-3)
    assert freqs[2] == pytest.approx(1000.0, rel=1e-3)
    assert np.allclose(np.asarray(axes) @ np.asarray(axes).T, np.eye(3), atol=1e-10)
    # soft axis is z
    assert abs(axes[0][2]) > 0.999


def test_rotation_covariance(species):
    theta = np.radians(30.0)
    rot = np.array([
        [np.cos(theta), -np.sin(theta), 0.0],
        [np.sin(theta), np.cos(theta), 0.0],
        [0.0, 0.0, 1.0],
    ])
    base = harmonic_potential(species, (80.0, 400.0, 1500.0))
    rotated = harmonic_potential(species, (80.0, 400.0, 1500.0), axes=rot.T)
    f0, a0 = trap_frequencies(base, (0, 0, 0))
    f1, a1 = trap_frequencies(rotated, (0, 0, 0))
    assert np.allclose(f0, f1, rtol=1e-3)
    # the rotated soft axis is rot @ x_hat
    expect = rot @ np.array(a0[0])
    got = np.array(a1[0])
    assert min(np.linalg.norm(got - expect), np.linalg.norm(got + expect)) < 1e-4


def test_paper_trap_is_cigar_shaped(paper_model, paper, species):
    _, currents, _ = paper
    pdef = magnetic_potential(paper_model, currents, species)
    tc = characterize_trap(pdef, (-42.5e-6, 150e-6, 0))
    f_axial, f_t1, f_t2 = tc.frequencies
    assert f_t1 > 50 * f_axial and f_t2 > 50 * f_axial
    # soft axis along the wire (z)
    assert abs(tc.axes[0][2]) > 0.99


def _second_difference_frequencies(pdef, x0, axes, steps):
    """Per-axis oracle: sqrt(U''/m) / 2 pi from a three-point second
    difference of U along each axis, at that axis's step."""
    x0 = np.asarray(x0, dtype=float)
    out = []
    for axis, h in zip(axes, steps):
        d = h * np.asarray(axis)
        curvature = (pdef.energy(x0 + d) - 2.0 * pdef.energy(x0) + pdef.energy(x0 - d)) / h**2
        out.append(np.sqrt(curvature / pdef.species.mass) / (2.0 * np.pi))
    return np.array(out)


def _builtin_operating_points():
    """(z2 current A, bias_x G, Ioffe G): the builtin point, 0.05 G, and a
    seeded set spanning 0.1-1 G."""
    rng = np.random.default_rng(2002)
    seeded = zip(rng.uniform(1.5, 2.5, 6), rng.uniform(18.0, 30.0, 6), np.linspace(0.1, 1.0, 6))
    points = [(2.0, 24.8, 0.0), (2.0, 24.8, 0.05)] + [tuple(map(float, p)) for p in seeded]
    return [pytest.param(*p, id=f"{p[0]:.2f}A-{p[1]:.1f}G-{p[2]:.2f}G") for p in points]


@pytest.mark.parametrize("amps, bias_g, ioffe_g", _builtin_operating_points())
def test_frequencies_match_per_axis_second_differences(paper_model, paper, species,
                                                       amps, bias_g, ioffe_g):
    # radial steps of 1 nm sit well inside the harmonic core |B| / ||J||
    # (54 nm at the builtin point); the axial second difference is flat to
    # 2e-4 from 5 to 50 um
    _, builtin, _ = paper
    cur = replace(builtin.with_dc(z2=amps), bias=(bias_g * GAUSS, 0.0, ioffe_g * GAUSS))
    pdef = magnetic_potential(paper_model, cur, species)
    seed = (-42.5e-6, MU_0 * amps / (2.0 * np.pi * bias_g * GAUSS), 0.0)
    tc = find_trap_minimum(pdef, seed)
    freqs, axes = trap_frequencies(pdef, tc.minimum)
    oracle = _second_difference_frequencies(pdef, tc.minimum, axes, (20e-6, 1e-9, 1e-9))
    assert np.allclose(freqs, oracle, rtol=1e-3, atol=0.0)


def test_hessian_vs_1d_parabola_fits(species):
    # independent estimator: fit U along each principal axis to a parabola
    wire = WireSegmentPath(name="w", channel="w",
                           nodes=((0, 0, -0.05), (0, 0, 0.05)),
                           width=1e-6, thickness=1e-6)
    model = BiotSavartModel(ChipLayout(wires=(wire,)), 1, 1)
    cur = CurrentConfig(dc={"w": 2.0}, bias=(24.8 * GAUSS, 0, 0.5 * GAUSS))
    pdef = magnetic_potential(model, cur, species)
    tc = find_trap_minimum(pdef, (0, 150e-6, 0))
    freqs, axes = trap_frequencies(pdef, tc.minimum)
    x0 = np.asarray(tc.minimum)
    for f_hess, axis in zip(freqs, axes):
        if f_hess == 0.0:
            continue
        # stay well inside the harmonic core (|B| flattens ~3 um out at 0.5 G)
        scale = 0.3e-6
        ts = np.linspace(-scale, scale, 21)
        us = [pdef.energy(x0 + t * np.asarray(axis)) for t in ts]
        c2 = np.polyfit(ts, us, 2)[0]
        f_fit = np.sqrt(2.0 * c2 / species.mass) / (2.0 * np.pi)
        assert f_fit == pytest.approx(f_hess, rel=0.01)


def test_saddle_detected(species):
    k = species.mass * (2 * np.pi * 100.0) ** 2 * np.array([1.0, 1.0, -0.5])

    def energy(r):
        return float(0.5 * np.sum(k * np.asarray(r, dtype=float) ** 2))

    pdef = synthetic_potential(species, energy, lambda r: k * np.asarray(r, dtype=float),
                               lambda r: np.diag(k))
    with pytest.raises(SaddlePointError):
        trap_frequencies(pdef, (0, 0, 0))


# ---------------------------------------------------------------------------
# trap_depth
# ---------------------------------------------------------------------------

CLIP_U0 = 2.0e-27


def isotropic_harmonic(species, clip=np.inf):
    """500 Hz isotropic harmonic energy, capped at ``clip``."""
    def energy(r):
        d = np.asarray(r, dtype=float)
        k = species.mass * (2 * np.pi * 500.0) ** 2
        return float(min(0.5 * k * np.sum(d**2), clip))

    return synthetic_potential(species, energy)


def per_ray_depth(pdef, minimum, axes=None, search_halfwidth=1e-3, n_samples=400):
    """Reference for trap_depth: one energy_batch call per ray, keeping the
    first ray with the lowest barrier."""
    x0 = np.asarray(minimum, dtype=float)
    u0 = pdef.energy(x0)
    dirs = np.array([d for d in itertools.product((-1.0, 0.0, 1.0), repeat=3) if any(d)])
    dirs = dirs / np.linalg.norm(dirs, axis=1)[:, None]
    if axes is not None:
        dirs = dirs @ np.asarray(axes)
    ts = np.linspace(search_halfwidth / n_samples, search_halfwidth, n_samples)
    depth, lower_bound = np.inf, False
    for d in dirs:
        pts = x0[None, :] + ts[:, None] * d[None, :]
        u_ray = np.asarray(pdef.energy_batch(pts), dtype=float)
        barrier = float(np.max(u_ray) - u0)
        if barrier < depth:
            depth = barrier
            lower_bound = bool(int(np.argmax(u_ray)) == n_samples - 1
                               and u_ray[-1] > u_ray[-2] and np.isfinite(u_ray[-1]))
    return depth, lower_bound


def test_depth_of_clipped_harmonic(species):
    pdef = isotropic_harmonic(species, clip=CLIP_U0)
    depth, lower_bound = trap_depth(pdef, (0, 0, 0), search_halfwidth=200e-6)
    assert depth == pytest.approx(CLIP_U0, rel=1e-6)
    assert not lower_bound


@pytest.mark.parametrize("n_samples", [1, 0])
def test_depth_rejects_fewer_than_two_samples(species, n_samples):
    pdef = isotropic_harmonic(species, clip=CLIP_U0)
    with pytest.raises(ConfigError, match=f"got {n_samples}"):
        trap_depth(pdef, (0, 0, 0), n_samples=n_samples)


@pytest.mark.parametrize("halfwidth", [0.0, -1e-6, np.nan, np.inf])
def test_depth_rejects_a_box_not_finite_and_positive(species, halfwidth):
    pdef = isotropic_harmonic(species, clip=CLIP_U0)
    with pytest.raises(ConfigError, match="search_halfwidth must be finite and > 0"):
        trap_depth(pdef, (0, 0, 0), search_halfwidth=halfwidth)


def counting_batches(pdef):
    """``pdef`` with an ``energy_batch`` that appends each call's points to
    the returned list."""
    batch = pdef.energy_batch
    calls = []

    def energy_batch(points):
        calls.append(np.array(points))
        return batch(points)

    return replace(pdef, energy_batch=energy_batch), calls


def test_depth_matches_per_ray_reference(species):
    for pdef, halfwidth in ((isotropic_harmonic(species, clip=CLIP_U0), 200e-6),
                            (isotropic_harmonic(species), 100e-6)):
        assert (trap_depth(pdef, (0, 0, 0), search_halfwidth=halfwidth)
                == per_ray_depth(pdef, (0, 0, 0), search_halfwidth=halfwidth))


@pytest.mark.parametrize("amps, bias_g, ioffe_g", _builtin_operating_points())
def test_depth_at_operating_points_matches_per_ray_reference(paper_model, paper, species,
                                                             amps, bias_g, ioffe_g):
    _, builtin, _ = paper
    cur = replace(builtin.with_dc(z2=amps), bias=(bias_g * GAUSS, 0.0, ioffe_g * GAUSS))
    pdef, calls = counting_batches(magnetic_potential(paper_model, cur, species))
    seed = (-42.5e-6, MU_0 * amps / (2.0 * np.pi * bias_g * GAUSS), 0.0)
    minimum = find_trap_minimum(pdef, seed).minimum
    axes = trap_frequencies(pdef, minimum)[1]
    calls.clear()
    result = trap_depth(pdef, minimum, axes=axes)
    points = sum(len(c) for c in calls)
    assert result == per_ray_depth(pdef, minimum, axes=axes)
    assert points <= 425  # of 26 x 400: the box edge, then one ray's two rounds


def ray_potential(species, profile):
    """U(r) = profile(ray, |r|), ray the index of the stencil direction
    nearest r_hat, so each ray of trap_depth about 0 has its own profile."""
    dirs = np.array([d for d in itertools.product((-1.0, 0.0, 1.0), repeat=3) if any(d)])
    dirs = dirs / np.linalg.norm(dirs, axis=1)[:, None]

    def batch(points):
        r = np.atleast_2d(np.asarray(points, dtype=float))
        return profile(np.argmax(r @ dirs.T, axis=1), np.linalg.norm(r, axis=1))

    return replace(synthetic_potential(species, lambda r: float(batch(r)[0])),
                   energy_batch=batch)


def bumped_rays(species, cap, halfwidth=100e-6):
    """Rays rising as slope t (1 + ray / 100), capped at ``cap``, except the
    +x ray (index 21): slope t / 2 plus a bump of 10 slope halfwidth at its
    sample 7, narrower than the sample spacing, so that only its full
    evaluation sees the bump."""
    slope = species.zeeman_slope * 1e-2  # 1 G/cm
    spacing = halfwidth / 400
    t7 = np.linspace(spacing, halfwidth, 400)[7]

    def profile(ray, t):
        bump = 10.0 * slope * halfwidth * np.exp(-((t - t7) / (0.3 * spacing)) ** 2)
        u = np.where(ray == 21, 0.5 * slope * t + bump, slope * t * (1.0 + ray / 100.0))
        return np.minimum(u, cap)

    return ray_potential(species, profile), slope * halfwidth


def test_depth_bump_between_coarse_samples_loses(species):
    # +x has the lowest bound until its last round finds the bump; ray 0
    # then wins, still climbing at the edge, and ray 1's bound is higher
    pdef, calls = counting_batches(bumped_rays(species, cap=np.inf)[0])
    result = trap_depth(pdef, (0, 0, 0), search_halfwidth=100e-6)
    work = list(calls)
    assert result == per_ray_depth(pdef, (0, 0, 0), search_halfwidth=100e-6)
    assert result[0] == pytest.approx(species.zeeman_slope * 1e-2 * 100e-6) and result[1]
    # the box edge, then two rounds each of +x and ray 0
    assert [len(c) for c in work] == [26, 24, 375, 24, 375]
    for c in work[1:3]:  # +x first
        assert np.all(c[:, 1:] == 0.0) and np.all(c[:, 0] > 0.0)


def test_depth_bound_tying_the_best_barrier_is_completed(species):
    # +x tops out at the cap at its bump and is completed first; ray 0's
    # bound ties that barrier, and ray 0, reaching the cap only at its last
    # sample, wins the tie by stencil order.  Rays 1-20 and 22-25 tie from
    # later indices and are skipped.
    cap = species.zeeman_slope * 1e-2 * 100e-6 * (1.0 - 0.5 / 400)
    pdef, calls = counting_batches(bumped_rays(species, cap=cap)[0])
    result = trap_depth(pdef, (0, 0, 0), search_halfwidth=100e-6)
    work = list(calls)
    assert result == per_ray_depth(pdef, (0, 0, 0), search_halfwidth=100e-6) == (cap, True)
    assert [len(c) for c in work] == [26, 24, 375, 24, 375]


def test_depth_every_barrier_infinite(species):
    # finite only at the minimum: ray 0 sets the result
    def energy(r):
        return np.inf if np.any(r) else 0.0

    pdef, calls = counting_batches(synthetic_potential(species, energy))
    result = trap_depth(pdef, (0, 0, 0))
    assert [len(c) for c in calls] == [26, 24, 375]
    assert result == per_ray_depth(pdef, (0, 0, 0)) == (np.inf, False)


def test_depth_ray_completed_inside_a_conductor(thin_model, species):
    # reversed bias: the field zero lies 161 um below the wire and the start
    # 161 um above it.  With two samples there is no second round: the
    # downward ray's last sample is the zero, the lowest bound, and its one
    # remaining sample is the wire centre, so its field call is empty and
    # its barrier infinite
    height = MU_0 * 2.0 / (2.0 * np.pi * 24.8 * GAUSS)
    cur = CurrentConfig(dc={"w": 2.0}, bias=(-24.8 * GAUSS, 0.0, 0.0))
    pdef, calls = counting_batches(magnetic_potential(thin_model, cur, species))
    x0, kw = (0.0, height, 0.0), dict(search_halfwidth=2.0 * height, n_samples=2)
    result = trap_depth(pdef, x0, **kw)
    work = list(calls)
    assert result == per_ray_depth(pdef, x0, **kw)
    assert np.isfinite(result[0])
    assert [len(c) for c in work] == [26] + [1] * 24  # the box edge, then 24 rays' last rounds
    assert thin_model.frames.first_containing(work[1])[0] == 0


def test_depth_tie_goes_to_the_first_ray(species):
    # every ray tops out at the same cap; the nine x < 0 rays, first in
    # stencil order, reach it only at the last sample, still climbing
    halfwidth = 100e-6
    k = species.mass * (2 * np.pi * 500.0) ** 2
    cap = 0.5 * k * halfwidth**2 * (1.0 - 1.0 / 400)

    def energy(r):
        d = np.asarray(r, dtype=float)
        stiffness = k if d[0] < 0 else 100.0 * k
        return float(min(0.5 * stiffness * np.sum(d**2), cap))

    pdef = synthetic_potential(species, energy)
    assert (trap_depth(pdef, (0, 0, 0), search_halfwidth=halfwidth)
            == per_ray_depth(pdef, (0, 0, 0), search_halfwidth=halfwidth) == (cap, True))


@pytest.mark.parametrize("n_samples", [2, 3, 16, 17, 400])
def test_depth_matches_per_ray_reference_on_seeded_profiles(species, n_samples):
    # rays rising, flat or falling, some with a bump on one sample that is
    # narrower than the sample spacing, some with an infinite stretch (a
    # conductor), some capped; repeated slopes and the cap make ties
    halfwidth = 100e-6
    spacing = halfwidth / n_samples
    ts = np.linspace(spacing, halfwidth, n_samples)
    scale = species.zeeman_slope * 1e-2 * halfwidth  # 1 G/cm across the box
    for seed in range(20):
        rng = np.random.default_rng(seed)
        slope = rng.choice([-0.2, 0.0, 0.5, 1.0, 1.0, 2.0], 26) * scale / halfwidth
        bump_at = ts[rng.integers(n_samples, size=26)]
        bump = rng.choice([0.0, 0.5, 3.0], 26) * scale
        wall = np.sort(rng.uniform(0.0, 1.5 * halfwidth, (26, 2)), axis=1)
        wall[rng.random(26) < 0.7] = np.inf  # no infinite stretch on these rays
        cap = rng.choice([0.6, 1.0, np.inf]) * scale

        def profile(ray, t):
            u = slope[ray] * t + bump[ray] * np.exp(-((t - bump_at[ray]) / (0.1 * spacing)) ** 2)
            u = np.where((wall[ray, 0] <= t) & (t <= wall[ray, 1]), np.inf, u)
            return np.minimum(u, cap)

        pdef, calls = counting_batches(ray_potential(species, profile))
        result = trap_depth(pdef, (0, 0, 0), search_halfwidth=halfwidth, n_samples=n_samples)
        assert all(len(c) for c in calls), seed
        assert result == per_ray_depth(pdef, (0, 0, 0), search_halfwidth=halfwidth,
                                       n_samples=n_samples), seed


def test_depth_unit_identity(paper_model, paper, species):
    _, currents, _ = paper
    pdef = magnetic_potential(paper_model, currents, species)
    tc = characterize_trap(pdef, (-42.5e-6, 150e-6, 0))
    assert tc.depth_equivalent_gauss == pytest.approx(
        tc.depth / BOHR_MAGNETON / 1e-4, rel=1e-12
    )


def test_no_minimum_reported_as_convergence_failure(species):
    # a uniformly sloping potential has no interior minimum: the search
    # either escapes the domain or never meets the gradient tolerance
    def energy(r):
        return float(1e-24 * np.asarray(r, dtype=float)[0])

    pdef = synthetic_potential(species, energy, lambda r: np.array([1e-24, 0.0, 0.0]),
                               lambda r: np.zeros((3, 3)))
    with pytest.raises(ConvergenceError):
        find_trap_minimum(pdef, (0.0, 100e-6, 0.0))


def test_depth_lower_bound_flag(species):
    # monotonically rising potential: every ray still climbs at the edge
    depth, lower_bound = trap_depth(isotropic_harmonic(species), (0, 0, 0),
                                    search_halfwidth=100e-6)
    assert lower_bound


def test_one_jacobian_batch_per_newton_step(monkeypatch):
    # the gradient is row 0 of the Hessian's 7-point stencil
    model, currents, species, _ = splitting_setup()
    calls, steps = [], []
    field_and_jacobian, newton_step = BiotSavartModel.field_and_jacobian, trap._newton_step

    def counted(self, cur, points):
        calls.append(len(np.atleast_2d(points)))
        return field_and_jacobian(self, cur, points)

    def counted_step(pdef, x):
        steps.append(x)
        return newton_step(pdef, x)

    monkeypatch.setattr(BiotSavartModel, "field_and_jacobian", counted)
    monkeypatch.setattr(trap, "_newton_step", counted_step)
    find_trap_minimum(magnetic_potential(model, currents, species), (0, 110e-6, 0))
    assert calls == [7] * len(steps) == [7] * 5


def test_characterize_trap_reuses_the_search(monkeypatch, paper_model, paper, species):
    # the frequencies take the Hessian of the search's last stencil, the
    # bottom field its B at the minimum and the depth its U there: no
    # Jacobian batch, no 1-point field and no 1-point energy at the minimum
    # after that stencil
    _, currents, _ = paper
    events = []
    field_and_jacobian, field = BiotSavartModel.field_and_jacobian, BiotSavartModel.field

    def counted(self, cur, points):
        events.append("stencil")
        return field_and_jacobian(self, cur, points)

    def logged_field(self, cur, points):
        points = np.atleast_2d(points)
        if len(points) == 1:
            events.append(("field",) + tuple(points[0].tolist()))
        return field(self, cur, points)

    monkeypatch.setattr(BiotSavartModel, "field_and_jacobian", counted)
    monkeypatch.setattr(BiotSavartModel, "field", logged_field)
    pdef = magnetic_potential(paper_model, currents, species)

    def logged(r):
        events.append(tuple(np.asarray(r, dtype=float).tolist()))
        return pdef.energy(r)

    seed = (-42.5e-6, 150e-6, 0)
    find_trap_minimum(replace(pdef, energy=logged), seed)
    stencils = events.count("stencil")
    events.clear()
    tc = characterize_trap(replace(pdef, energy=logged), seed)
    last = max(i for i, event in enumerate(events) if event == "stencil")
    assert events.count("stencil") == stencils
    assert tc.minimum in events[:last] and tc.minimum not in events[last:]
    assert ("field",) + tc.minimum not in events[last:]
