"""Seeded workloads, their operations, and checks made apart from the program.

Each workload builds its inputs from the seed in ``__init__`` (the set-up),
exposes the fixed operation list as ``ops``, and judges the outputs of one
round with ``check``, which returns one failure reason (or None) per
operation.  The checks use analytic results, a matrix oracle and
quadrature, never a stored copy of earlier output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy import integrate, optimize, special

from atomchip import fields, fringes, geometry, reproduction, rf, roughness, trap
from atomchip.constants import BOHR_MAGNETON, GAUSS, MU_0, PLANCK, RB87_MASS

# Rb-87 |F=2, m_F=2>: g_F = 1/2, so U = mu_B |B| and each m_F step is mu_B |B| / 2
G_F_MU_B = BOHR_MAGNETON / 2.0


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    # A known program fault makes this operation fail with problems that all
    # start with this word; any other problem is an unexpected failure.
    known_fault: str | None = None

    def excused(self, reason: str) -> bool:
        return self.known_fault is not None and all(
            problem.startswith(self.known_fault + " ") for problem in reason.split("; "))


def stratified(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """n draws over [lo, hi], one in each of n equal strata, in seeded order."""
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


def _raised(out) -> str | None:
    return f"raised {out!r}" if isinstance(out, Exception) else None


# ---------------------------------------------------------------------------
# trap-sweep

@dataclass(frozen=True)
class TrapCase:
    currents: geometry.CurrentConfig
    pdef: trap.PotentialDef
    ribbon_y: float      # m, expected height above the chip
    ribbon_grad: float   # T/m, |dB/dr| of the ribbon at that height


class TrapSweep:
    """characterize_trap on the builtin six-wire chip at seeded operating points."""

    CHANNEL = "z2"
    N_SEEDED = 8
    CURRENT_A = (1.5, 2.5)
    BIAS_X_G = (18.0, 30.0)
    # trap_frequencies reports the axial frequency too high (see CHANGES.md):
    # by 0.05-0.5% from 0.4 to 1 G, by 0.2-1.9% from 0.1 to 0.4 G, where a
    # 1% check would fail some seeds only, by 1.5-6% at 0.05 G and by 186%
    # at the builtin point.  The seeded points keep to 0.4-1 G; the builtin
    # point without an Ioffe field and with 0.05 G run in every round as
    # known failures.
    IOFFE_G = (0.4, 1.0)
    FAULT_IOFFE_G = (0.0, 0.05)
    # the infinite ribbon sits 0.14% above the finite wire's trap at 275 um
    HEIGHT_RTOL = 5e-3
    X_RTOL = 1e-3
    RADIAL_RTOL = 1e-2  # the ribbon gradient puts it 0.44% high at 275 um
    AXIAL_RTOL = 1e-2
    AXIAL_STEP = 20e-6  # m; the second difference is flat to 2e-4 from 5 to 50 um

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        layout, builtin, self.species = geometry.builtin_paper_layout()
        self.model = fields.BiotSavartModel(layout)
        wire = layout.wire(self.CHANNEL)
        self.wire_x, self.wire_y = wire.nodes[1][0], wire.nodes[1][1]
        self.width = wire.width

        points = [(builtin.dc_current(self.CHANNEL), builtin.bias[:2] + (bz * GAUSS,))
                  for bz in self.FAULT_IOFFE_G]
        draws = zip(stratified(rng, self.N_SEEDED, *self.CURRENT_A),
                    stratified(rng, self.N_SEEDED, *self.BIAS_X_G),
                    stratified(rng, self.N_SEEDED, *self.IOFFE_G))
        points += [(amps, (bx * GAUSS, 0.0, bz * GAUSS)) for amps, bx, bz in draws]

        self.cases: list[TrapCase] = []
        self.ops: list[Op] = []
        for k, (amps, bias) in enumerate(points):
            currents = replace(builtin.with_dc(**{self.CHANNEL: amps}), bias=bias)
            y, grad = self.ribbon(amps, bias[0])
            case = TrapCase(currents, trap.magnetic_potential(self.model, currents, self.species),
                            y, grad)
            self.cases.append(case)
            seed_point = (self.wire_x, y, 0.0)
            label = (f"{self.CHANNEL}={amps:.3f} A, bias=({bias[0] / GAUSS:.2f}, 0, "
                     f"{bias[2] / GAUSS:.3f}) G")
            fault = None
            if k < len(self.FAULT_IOFFE_G):
                label = "builtin point: " + label
                fault = "axial"  # trap_frequencies' unconverged axial frequency
            self.ops.append(Op(label, _characterize(case.pdef, seed_point), fault))

    def ribbon(self, amps: float, bias_x: float) -> tuple[float, float]:
        """Trap height and gradient over an infinite ribbon of the wire's width.

        B_x(y) = mu0 I / (pi w) atan(w / 2y) above the ribbon's mid-plane
        cancels the bias at y = w / (2 tan(pi w B / (mu0 I))).
        """
        w = self.width
        y = w / (2.0 * math.tan(math.pi * w * bias_x / (MU_0 * amps)))
        grad = MU_0 * amps / (2.0 * math.pi) / (y * y + w * w / 4.0)
        return y + self.wire_y, grad

    def check(self, outputs) -> list[str | None]:
        return [self._check_one(case, out) for case, out in zip(self.cases, outputs)]

    def _check_one(self, case: TrapCase, out) -> str | None:
        if (reason := _raised(out)) is not None:
            return reason
        problems = []
        x0 = np.asarray(out.minimum, dtype=float)
        if not abs(out.height_above_chip - case.ribbon_y) <= self.HEIGHT_RTOL * case.ribbon_y:
            problems.append(f"height {out.height_above_chip * 1e6:.3f} um vs ribbon "
                            f"{case.ribbon_y * 1e6:.3f} um")
        if not abs(x0[0] - self.wire_x) <= self.X_RTOL * abs(self.wire_x):
            problems.append(f"x {x0[0] * 1e6:.3f} um vs wire {self.wire_x * 1e6:.3f} um")

        b0 = float(np.linalg.norm(self.model.field(case.currents, x0)[0]))
        radial = math.sqrt(BOHR_MAGNETON * case.ribbon_grad ** 2 / (RB87_MASS * b0)) / (2 * math.pi)
        for f in out.frequencies[1:]:
            if not abs(f / radial - 1.0) <= self.RADIAL_RTOL:
                problems.append(f"radial {f:.2f} Hz vs {radial:.2f} Hz")

        axis = np.asarray(out.axes[0], dtype=float)
        h = self.AXIAL_STEP
        B = self.model.field(case.currents, np.array([x0 - h * axis, x0, x0 + h * axis]))
        u = BOHR_MAGNETON * np.linalg.norm(B, axis=1)
        curvature = (u[0] - 2.0 * u[1] + u[2]) / (h * h)
        axial = math.sqrt(max(curvature, 0.0) / RB87_MASS) / (2 * math.pi)
        if not abs(out.frequencies[0] - axial) <= self.AXIAL_RTOL * axial:
            problems.append(f"axial {out.frequencies[0]:.4f} Hz vs second difference "
                            f"{axial:.4f} Hz")
        if not out.grad_norm <= 10.0 * trap.GRAD_TOL:
            problems.append(f"gradient norm {out.grad_norm:.3g} J/m")
        if not out.depth > 0.0:
            problems.append(f"depth {out.depth!r}")
        return "; ".join(problems) or None


def _characterize(pdef, seed_point):
    # looked up at call time, so traced runs see the wrapped function
    return lambda: trap.characterize_trap(pdef, seed_point)


# ---------------------------------------------------------------------------
# split-scan

# spin-2 operators in the basis m = 2, 1, 0, -1, -2
F_Z = np.diag([2.0, 1.0, 0.0, -1.0, -2.0])
_M_LOWER = np.array([1.0, 0.0, -1.0, -2.0])
_F_X_OFF = np.sqrt(6.0 - _M_LOWER * (_M_LOWER + 1.0)) / 2.0  # <m+1|F_x|m>
F_X = np.diag(_F_X_OFF, 1) + np.diag(_F_X_OFF, -1)


def dressed_top_level(B: np.ndarray, b1: np.ndarray, frequency: float) -> np.ndarray:
    """Top eigenvalue of the F=2 rotating-frame Hamiltonian hbar(delta F_z + Omega F_x).

    ``b1`` is a linearly polarized rf amplitude, so the co-rotating part is
    half its component transverse to the static field and no handedness
    convention enters.
    """
    bmag = np.linalg.norm(B, axis=1)
    b_hat = B / bmag[:, None]
    b1_perp = np.linalg.norm(b1 - np.sum(b1 * b_hat, axis=1)[:, None] * b_hat, axis=1)
    h_delta = G_F_MU_B * bmag - PLANCK * frequency
    h_omega = G_F_MU_B * b1_perp / 2.0
    H = h_delta[:, None, None] * F_Z + h_omega[:, None, None] * F_X
    return np.linalg.eigvalsh(H)[:, -1]


def _vertex(s: np.ndarray, u: np.ndarray, i: int) -> tuple[float, float]:
    """Vertex of the parabola through samples i-1, i, i+1."""
    a, b, c = u[i - 1], u[i], u[i + 1]
    shift = 0.5 * (a - c) / (a - 2.0 * b + c)
    return float(s[i] + shift * (s[1] - s[0])), float(b - 0.25 * (a - c) * shift)


class SplitScan:
    """split_scan around reproduction.splitting_setup at seeded operating points."""

    N_SEEDED = 7
    BIAS_X_G = (28.0, 31.0)
    BIAS_Z_G = (1.5, 2.5)
    DETUNING_HZ = (-10e3, 10e3)
    AMPLITUDES_A = tuple(np.linspace(0.005, 0.030, 32).tolist())
    HALFWIDTH = 12e-6
    N_SAMPLES = 1201
    MIN_SAMPLES_APART = 10  # split_scan's sampling contract for two minima
    SEED_POINT = (0.0, 110e-6, 0.0)
    WELL_RTOL = 1e-4
    ASYMMETRY_RTOL = 1e-3
    # the paper's operating window: 4 um +-10% apart, barrier 5-20 kHz
    PAPER_SEPARATION = (3.6e-6, 4.4e-6)
    PAPER_BARRIER_HZ = (5e3, 20e3)

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.model, base, self.species, base_drive = reproduction.splitting_setup()
        self.cases = [(base, base_drive)]
        draws = zip(stratified(rng, self.N_SEEDED, *self.BIAS_X_G),
                    stratified(rng, self.N_SEEDED, *self.BIAS_Z_G),
                    stratified(rng, self.N_SEEDED, *self.DETUNING_HZ))
        for bx, bz, df in draws:
            self.cases.append((replace(base, bias=(bx * GAUSS, 0.0, bz * GAUSS)),
                               replace(base_drive, frequency=base_drive.frequency + df)))
        self.ops = []
        for k, (currents, drive) in enumerate(self.cases):
            label = (f"bias=({currents.bias[0] / GAUSS:.3f}, 0, {currents.bias[2] / GAUSS:.3f}) G, "
                     f"rf {drive.frequency / 1e3:.3f} kHz")
            self.ops.append(Op(("unperturbed setup: " if k == 0 else "") + label,
                               self._scan(currents, drive)))

    def _scan(self, currents, drive):
        return lambda: rf.split_scan(self.model, currents, self.species, drive,
                                     self.AMPLITUDES_A, seed_point=self.SEED_POINT,
                                     halfwidth=self.HALFWIDTH, n_samples=self.N_SAMPLES)

    def static_minimum(self, currents) -> np.ndarray:
        """Minimum of |B| by Nelder-Mead on the field alone (no trap module)."""
        def b2(p_um):
            B = self.model.field(currents, p_um * 1e-6)[0]
            return float(B @ B) / GAUSS ** 2

        res = optimize.minimize(b2, np.asarray(self.SEED_POINT) * 1e6, method="Nelder-Mead",
                                options=dict(xatol=1e-6, fatol=0.0, maxiter=4000, maxfev=8000))
        return res.x * 1e-6

    def check(self, outputs) -> list[str | None]:
        reasons = []
        for k, ((currents, drive), out) in enumerate(zip(self.cases, outputs)):
            reason = _raised(out)
            if reason is None:
                problems = self._compare(currents, drive, out)
                if k == 0 and not self._in_paper_window(out):
                    problems.append("no ramp step in the paper's 4 um / 5-20 kHz window")
                reason = "; ".join(problems) or None
            reasons.append(reason)
        return reasons

    def _in_paper_window(self, out) -> bool:
        return any(
            r.n_minima == 2
            and self.PAPER_SEPARATION[0] <= r.separation <= self.PAPER_SEPARATION[1]
            and self.PAPER_BARRIER_HZ[0] <= r.barrier_hz <= self.PAPER_BARRIER_HZ[1]
            for r in out.reports
        )

    def _compare(self, currents, drive, out) -> list[str]:
        center = self.static_minimum(currents)
        ref = max(abs(d.amplitude) for d in drive.channels.values())
        grids = {}

        def slice_fields(n):
            if n not in grids:
                s = np.linspace(-self.HALFWIDTH, self.HALFWIDTH, n)
                points = center[None, :] + s[:, None] * np.array([1.0, 0.0, 0.0])
                B = self.model.field(currents, points)
                phasor = sum(d.amplitude / ref * np.exp(1j * d.phase)
                             * self.model.channel_unit_field(ch, points)
                             for ch, d in drive.channels.items())
                grids[n] = (s, B, phasor)
            return grids[n]

        if len(out.reports) != len(self.AMPLITUDES_A):
            return [f"{len(out.reports)} reports for {len(self.AMPLITUDES_A)} amplitudes"]
        _, _, phasor = slice_fields(self.N_SAMPLES)
        if np.max(np.abs(phasor.imag)) > 1e-9 * np.max(np.abs(phasor.real)):
            return ["drive is not linearly polarized; the oracle does not apply"]

        problems = []
        for amp, report in zip(self.AMPLITUDES_A, out.reports):
            n = self.N_SAMPLES
            while True:
                s, B, phasor = slice_fields(n)
                u = dressed_top_level(B, amp * phasor.real, drive.frequency)
                minima = np.flatnonzero((u[1:-1] < u[:-2]) & (u[1:-1] < u[2:])) + 1
                if len(minima) != 2 or minima[1] - minima[0] >= self.MIN_SAMPLES_APART:
                    break
                n = 4 * n - 3
            problem = self._compare_wells(s, u, minima, report)
            if problem:
                problems.append(f"{amp * 1e3:.2f} mA: {problem}")
        return problems

    def _compare_wells(self, s, u, minima, report) -> str | None:
        n_wells = max(len(minima), 1)
        if report.n_minima != n_wells:
            return f"{report.n_minima} wells, oracle {n_wells}"
        if n_wells == 1:
            expect = s[minima[0]] if len(minima) else s[np.argmin(u)]
            if abs(report.minima_positions[0] - expect) > s[1] - s[0]:
                return f"well at {report.minima_positions[0]:.4g} m, oracle {expect:.4g} m"
            return None
        if n_wells > 2:
            return None  # both see the same extra minima; nothing more to compare
        (s1, u1), (s2, u2) = _vertex(s, u, minima[0]), _vertex(s, u, minima[1])
        separation = abs(s2 - s1)
        barrier = float(u[minima[0]:minima[1] + 1].max()) - 0.5 * (u1 + u2)
        if not abs(report.separation - separation) <= self.WELL_RTOL * separation:
            return f"separation {report.separation:.6g} m, oracle {separation:.6g} m"
        if not abs(report.barrier - barrier) <= self.WELL_RTOL * barrier:
            return f"barrier {report.barrier_hz:.6g} Hz, oracle {barrier / PLANCK:.6g} Hz"
        if not report.asymmetry <= self.ASYMMETRY_RTOL * report.barrier:
            return f"asymmetry {report.asymmetry / PLANCK:.3g} Hz next to barrier " \
                   f"{report.barrier_hz:.3g} Hz"
        return None


# ---------------------------------------------------------------------------
# roughness

class Roughness:
    """roughness_field on the 50 um test wire for seeded meanders and heights."""

    CURRENT_A = 2.0
    Z = np.linspace(-800e-6, 800e-6, 161)
    HEIGHT = (100e-6, 200e-6)
    SINE_AMPLITUDE = (20e-9, 200e-9)
    SINE_PERIODS = (200e-6, 800e-6)
    RANDOM_RMS = (10e-9, 40e-9)
    RANDOM_CORRELATION = (20e-6, 60e-6)
    C5_MEANDER = (20e-9, 800e-6)  # 20 nm per 200 um of run, as a triangle wave
    ORACLE_HALFWIDTH = 400e-6
    ESTEVE_RTOL = 5e-3  # 0.17% is the 5 um resampling of a 200 um sinusoid
    LINEARITY_RTOL = 0.02  # c5's bound

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.wire = reproduction.roughness_test_wire()
        self.species = geometry.rb87_f2m2()
        heights = stratified(rng, 5, *self.HEIGHT)
        amplitudes = stratified(rng, 2, *self.SINE_AMPLITUDE)
        phases = rng.uniform(0.0, 2.0 * math.pi, 2)
        z_nodes = [p[2] for p in self.wire.nodes]
        rms = rng.uniform(*self.RANDOM_RMS)
        correlation = rng.uniform(*self.RANDOM_CORRELATION)
        shape_seed = int(rng.integers(2 ** 31))

        def random_meander(scale):
            return roughness.RandomDeviation(rms=scale * rms, correlation_length=correlation,
                                             seed=shape_seed, z_min=min(z_nodes),
                                             z_max=max(z_nodes))

        a_c5, period_c5 = self.C5_MEANDER
        # (label, deviation, height, index of the half-amplitude partner)
        self.cases = []
        for (period, amp, phase, h) in zip(self.SINE_PERIODS, amplitudes, phases, heights):
            base = len(self.cases)
            self.cases.append((f"sinusoid {period * 1e6:.0f} um",
                               roughness.SinusoidDeviation(amp, period, phase), h, None))
            self.cases.append((f"sinusoid {period * 1e6:.0f} um doubled",
                               roughness.SinusoidDeviation(2 * amp, period, phase), h, base))
        base = len(self.cases)
        self.cases.append(("c5 triangle", roughness.TriangleDeviation(a_c5, period_c5),
                           heights[2], None))
        self.cases.append(("c5 triangle doubled",
                           roughness.TriangleDeviation(2 * a_c5, period_c5), heights[2], base))
        base = len(self.cases)
        self.cases.append(("random", random_meander(1.0), heights[3], None))
        self.cases.append(("random doubled", random_meander(2.0), heights[3], base))
        self.cases.append(("zero amplitude", roughness.SinusoidDeviation(0.0, self.SINE_PERIODS[0]),
                           heights[4], None))
        self.ops = [Op(f"{label} at {h * 1e6:.1f} um", self._profile(dev, h))
                    for label, dev, h, _ in self.cases]
        self._tails = {}

    def _profile(self, deviation, height):
        return lambda: roughness.roughness_field(self.wire, deviation, current=self.CURRENT_A,
                                                 height=height, z_values=self.Z,
                                                 species=self.species)

    def esteve(self, dev, height: float, z: np.ndarray) -> np.ndarray:
        """First-order dB_z of a sinusoidal meander on the finite test wire.

        Estève et al., PRA 70, 043629 (2004): a thin filament gives
        (mu0 I / 2 pi) a k^2 K1(k rho) (d / rho) cos(kz + phi); this is averaged
        over the wire's cross-section by Gauss-Legendre quadrature.  The
        wire ends at |z| = L, so the part of the filament integral beyond L
        is subtracted, computed by Fourier quadrature at the wire's centre.
        """
        w, t = self.wire.width, self.wire.thickness
        y_c = self.wire.nodes[0][1]
        half_length = max(abs(p[2]) for p in self.wire.nodes)
        k, a, phi = 2.0 * math.pi / dev.period, dev.amplitude, dev.phase
        gx, wx = np.polynomial.legendre.leggauss(16)
        gy, wy = np.polynomial.legendre.leggauss(4)
        d = height - (y_c + gy * t / 2.0)[None, :]
        rho = np.hypot((gx * w / 2.0)[:, None], d)
        transfer = float(np.sum(np.outer(wx, wy) / 4.0 * special.k1(k * rho) * d / rho))
        infinite = MU_0 * self.CURRENT_A / (2 * math.pi) * a * k * k * transfer * np.cos(k * z + phi)

        rho0 = height - y_c
        key = (dev.period, phi, height)
        if key not in self._tails:
            def tail(c, psi):
                g = lambda v: (rho0 * rho0 + (v + c) ** 2) ** -1.5
                ic = integrate.quad(g, 0.0, np.inf, weight="cos", wvar=k)[0]
                is_ = integrate.quad(g, 0.0, np.inf, weight="sin", wvar=k)[0]
                return math.cos(psi) * ic - math.sin(psi) * is_

            self._tails[key] = np.array([
                tail(half_length - zi, k * half_length + phi)
                + tail(half_length + zi, k * half_length - phi) for zi in z
            ])
        beyond = MU_0 * self.CURRENT_A / (4 * math.pi) * a * k * rho0 * self._tails[key]
        return infinite - beyond

    def check(self, outputs) -> list[str | None]:
        problems = [[] for _ in outputs]
        near = np.abs(self.Z) <= self.ORACLE_HALFWIDTH
        for k, ((label, dev, height, partner), out) in enumerate(zip(self.cases, outputs)):
            if (reason := _raised(out)) is not None:
                problems[k].append(reason)
                continue
            d = np.asarray(out.delta_Bz)
            if not np.all(np.isfinite(d)):
                problems[k].append("non-finite dB_z")
            elif isinstance(dev, roughness.SinusoidDeviation) and dev.amplitude == 0.0:
                if np.any(d != 0.0):
                    problems[k].append(f"zero meander gives max |dB_z| {np.max(np.abs(d)):.3g} T")
            elif isinstance(dev, roughness.SinusoidDeviation):
                oracle = self.esteve(dev, height, self.Z[near])
                err = np.max(np.abs(d[near] - oracle)) / np.max(np.abs(oracle))
                if not err <= self.ESTEVE_RTOL:
                    problems[k].append(f"{err:.2e} of peak away from Esteve transfer function")
            if partner is not None and not isinstance(outputs[partner], Exception):
                half = np.asarray(outputs[partner].delta_Bz)
                nonlinear = np.max(np.abs(d - 2.0 * half)) / np.max(np.abs(d))
                if not nonlinear <= self.LINEARITY_RTOL:
                    for j in (k, partner):
                        problems[j].append(f"doubling the meander is {nonlinear:.2e} off linear")
        return ["; ".join(p) or None for p in problems]


# ---------------------------------------------------------------------------
# fringe-ensemble

class FringeEnsemble:
    """end_to_end_shot in the c8 readout with seeded phases and noise."""

    N_SHOTS = 180
    X = np.linspace(-80e-6, 80e-6, 641)
    SEPARATION = 4e-6
    CONTRAST = 0.6
    NOISE = 0.05
    PHASE_DEG = 37.0
    JITTER_DEG = 23.0
    PHASE_TOL_DEG = 5.0  # c8's bound, applied to every shot
    STD_TOL_DEG = 1.0

    def __init__(self, seed: int):
        self.species = geometry.rb87_f2m2()
        self.report = rf.DoubleWellReport(
            n_minima=2, separation=self.SEPARATION, barrier=PLANCK * 1e4, barrier_hz=1e4,
            asymmetry=0.0, slice_axis=(1.0, 0.0, 0.0),
            minima_positions=(-self.SEPARATION / 2, self.SEPARATION / 2))
        self.phases = []
        self.ops = []
        for k, child in enumerate(np.random.SeedSequence(seed).spawn(self.N_SHOTS)):
            rng = np.random.default_rng(child)
            phase = math.radians(self.PHASE_DEG + self.JITTER_DEG * rng.standard_normal())
            noise_seed = int(rng.integers(2 ** 63))
            self.phases.append(phase)
            self.ops.append(Op(f"shot {k}: {math.degrees(phase):.2f} deg",
                               self._shot(phase, noise_seed)))

    def _shot(self, phase, noise_seed):
        return lambda: fringes.end_to_end_shot(self.report, self.species, self.X, phase=phase,
                                               contrast=self.CONTRAST, noise=self.NOISE,
                                               seed=noise_seed)

    @staticmethod
    def circular_std(phases) -> float:
        r = abs(np.mean(np.exp(1j * np.asarray(phases))))
        return math.sqrt(-2.0 * math.log(r))

    def check(self, outputs) -> list[str | None]:
        reasons, fitted = [], []
        for phase, out in zip(self.phases, outputs):
            if (reason := _raised(out)) is not None:
                reasons.append(reason)
                continue
            err = abs(math.degrees(math.remainder(out.phase - phase, 2 * math.pi)))
            fitted.append(out.phase)
            reasons.append(None if err < self.PHASE_TOL_DEG else f"phase off by {err:.2f} deg")
        # every shot within 5 deg also puts the 95th percentile under c8's bound
        if fitted:
            std_fit = math.degrees(self.circular_std(fitted))
            std_injected = math.degrees(self.circular_std(self.phases))
            if not abs(std_fit - std_injected) <= self.STD_TOL_DEG:
                spread = f"circular std {std_fit:.2f} deg vs injected {std_injected:.2f} deg"
                reasons = ["; ".join(filter(None, [r, spread])) for r in reasons]
        return reasons


WORKLOADS = {
    "trap-sweep": TrapSweep,
    "split-scan": SplitScan,
    "roughness": Roughness,
    "fringe-ensemble": FringeEnsemble,
}
