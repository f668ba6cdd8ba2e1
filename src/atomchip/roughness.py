"""Wire-meander potential roughness and density-profile inversion.

A transverse centerline deviation f(z) tilts part of the wire current into
x, producing axial field noise dB_z(z) at the trap line and hence a rough
trap bottom.  This module perturbs wires by sampled deviation profiles,
computes the resulting dB_z against the straight wire, and inverts measured
linear density profiles into potential roughness (Boltzmann for thermal
clouds, radially-integrated Thomas-Fermi for condensates).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .constants import BOLTZMANN, HBAR, PLANCK
from .errors import ChipError, ConfigError, GeometryError
from .fields import DEFAULT_N_THICKNESS, DEFAULT_N_WIDTH, BiotSavartModel
from .geometry import AtomSpecies, ChipLayout, CurrentConfig, WireSegmentPath

DENSITY_FLOOR_FRAC = 0.05  # points below this fraction of peak are excluded
_MAX_DEVIATION_FRAC = 0.1  # |f| < width/10 keeps the small-deviation regime


def _check_wave(kind: str, amplitude: float, period: float) -> None:
    """Raise ConfigError unless the period is finite and > 0 and the
    amplitude finite (0 is a straight wire)."""
    if not 0.0 < period < np.inf:
        raise ConfigError(f"{kind} deviation period must be finite and > 0, got {period:g} m")
    if not np.isfinite(amplitude):
        raise ConfigError(f"{kind} deviation amplitude must be finite, got {amplitude:g} m")


@dataclass(frozen=True)
class SinusoidDeviation:
    """f(z) = amplitude * sin(2 pi z / period + phase); max slope 2 pi a / T."""

    amplitude: float
    period: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        _check_wave("sinusoid", self.amplitude, self.period)

    def offsets(self, z: np.ndarray) -> np.ndarray:
        return self.amplitude * np.sin(2.0 * np.pi * np.asarray(z) / self.period + self.phase)


@dataclass(frozen=True)
class TriangleDeviation:
    """Symmetric triangle wave between -a and +a; |slope| = 4 a / period.

    A deviation of "a nanometres per L micrometres of run" is a triangle
    with amplitude a and period 4 L.
    """

    amplitude: float
    period: float

    def __post_init__(self) -> None:
        _check_wave("triangle", self.amplitude, self.period)

    def offsets(self, z: np.ndarray) -> np.ndarray:
        xi = np.mod(np.asarray(z) / self.period, 1.0)
        out = np.where(xi < 0.25, 4.0 * xi,
                       np.where(xi < 0.75, 2.0 - 4.0 * xi, 4.0 * xi - 4.0))
        return self.amplitude * out


@dataclass(frozen=True)
class RandomDeviation:
    """Seeded Gaussian-process meander with given RMS and correlation length.

    The profile is white noise on a fixed grid over [z_min, z_max] smoothed
    by a Gaussian kernel of width ``correlation_length`` and rescaled to the
    requested RMS, so a given seed always reproduces the same wire.
    """

    rms: float
    correlation_length: float
    seed: int
    z_min: float
    z_max: float
    step: float = 5e-6

    def __post_init__(self) -> None:
        if not 0.0 < self.step <= 5e-6 + 1e-12:
            raise ConfigError(f"random deviation grid step must be > 0 and <= 5 um, "
                              f"got {self.step:g} m")
        span = self.z_max - self.z_min
        # the noise grid spans the profile plus 10 correlation lengths, so at
        # most 11 spans
        if not (0.0 < self.correlation_length <= span and np.isfinite(span)):
            raise ConfigError(f"random deviation correlation length must be > 0 and at most "
                              f"the profile span {span:g} m, got {self.correlation_length:g} m")
        if not (0.0 <= self.rms < np.inf):
            raise ConfigError(f"random deviation rms must be finite and >= 0, got {self.rms:g} m")
        ell = self.correlation_length
        pad = 5.0 * ell
        grid = np.arange(self.z_min - pad, self.z_max + pad + self.step, self.step)
        rng = np.random.default_rng(self.seed)
        white = rng.standard_normal(len(grid))
        half = int(np.ceil(4.0 * ell / self.step))
        kernel = np.exp(-0.5 * (np.arange(-half, half + 1) * self.step / ell) ** 2)
        smooth = np.convolve(white, kernel / kernel.sum(), mode="same")
        smooth *= self.rms / max(smooth.std(), 1e-300)
        object.__setattr__(self, "_grid", grid)
        object.__setattr__(self, "_profile", smooth)

    def offsets(self, z: np.ndarray) -> np.ndarray:
        return np.interp(np.asarray(z), self._grid, self._profile, left=0.0, right=0.0)


# any transverse centerline generator; they all expose offsets(z) -> metres
CenterlineDeviation = SinusoidDeviation | TriangleDeviation | RandomDeviation


def perturb_wire(wire: WireSegmentPath, deviation, step: float = 5e-6) -> WireSegmentPath:
    """Densely resample the centerline and offset x by the deviation profile.

    Resampling uses the same node grid with or without a deviation, so
    comparing a perturbed wire against ``perturb_wire(wire, None)`` isolates
    the meander contribution from discretization effects.  Total current is
    untouched (the path just bends).  Raises when max|f| >= width/10.
    """
    pts = wire.nodes
    seg_len = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    n_new = max(int(np.ceil(cum[-1] / step)), 1) + 1
    arc = np.linspace(0.0, cum[-1], n_new)
    resampled = np.column_stack([np.interp(arc, cum, pts[:, k]) for k in range(3)])
    if deviation is not None:
        f = np.asarray(deviation.offsets(resampled[:, 2]), dtype=float)
        if np.max(np.abs(f)) >= _MAX_DEVIATION_FRAC * wire.width:
            raise GeometryError(
                f"deviation {np.max(np.abs(f)) * 1e9:.1f} nm exceeds width/10 "
                f"({wire.width * _MAX_DEVIATION_FRAC * 1e9:.1f} nm)"
            )
        resampled[:, 0] += f
    return replace(wire, nodes=resampled)


def _merge_z_runs(wire: WireSegmentPath) -> WireSegmentPath:
    """``wire`` with its chained runs of exactly z-parallel segments merged;
    roughness_field merges the straight reference and the meandered wire.

    A segment is z-parallel when the x and y of its node difference are
    both exactly 0.  A node is straight when its segments (one at either
    end of the wire) are z-parallel with z differences of one sign; the
    filament offsets move it along their normal itself (geometry._miters),
    so the filament nodes of a stretch of straight nodes share their x and y
    bits.  A straight node between two straight nodes is dropped: every kept
    node keeps its miter, and every merged filament segment has d_x = d_y =
    0 exactly.  A straight wire along z becomes one segment; a run that
    meets a bend keeps its segment at that end.  On a meandered wire the
    unmeandered stretches merge: a zero-amplitude meander, straight leads,
    and a random meander outside its noise grid.
    """
    d = np.diff(wire.nodes, axis=0)
    along_z = np.where((d[:, 0] == 0.0) & (d[:, 1] == 0.0), np.sign(d[:, 2]), 0.0)
    padded = np.concatenate([along_z[:1], along_z, along_z[-1:]])
    straight = (padded[:-1] != 0.0) & (padded[:-1] == padded[1:])
    inside = straight[:-2] & straight[1:-1] & straight[2:]
    return replace(wire, nodes=wire.nodes[np.concatenate([[True], ~inside, [True]])])


@dataclass(frozen=True)
class RoughnessProfile:
    """dB_z(z) and dV(z) along the trap-bottom line, plus the ratio to the
    unperturbed wire field magnitude at the same height."""

    z: tuple[float, ...]
    delta_Bz: tuple[float, ...]       # T
    delta_V: tuple[float, ...]        # J
    ratio_to_main: tuple[float, ...]  # dimensionless

    def __post_init__(self) -> None:
        n = len(self.z)
        for name in ("delta_Bz", "delta_V", "ratio_to_main"):
            if len(getattr(self, name)) != n:
                raise ValueError("profile arrays must have equal length")

    def rows(self) -> list[str]:
        """CSV rows: z_um,dBz_mG,dV_h_kHz,ratio."""
        return profile_csv_rows(np.asarray(self.z) * 1e6, self.delta_Bz, self.delta_V,
                                self.ratio_to_main)


def profile_csv_rows(z_um, delta_Bz, delta_V, ratio) -> list[str]:
    """CSV rows z_um,dBz_mG,dV_h_kHz,ratio from z in um, dB_z in T and dV in J."""
    out = ["z_um,dBz_mG,dV_h_kHz,ratio"]
    for z, db, dv, r in zip(z_um, delta_Bz, delta_V, ratio):
        out.append(f"{z:.9g},{db * 1e7:.9g},{dv / PLANCK / 1e3:.9g},{r:.9g}")
    return out


def roughness_field(wire: WireSegmentPath, deviation, current: float, height: float,
                    z_values, species: AtomSpecies,
                    n_width: int = DEFAULT_N_WIDTH,
                    n_thickness: int = DEFAULT_N_THICKNESS) -> RoughnessProfile:
    """dB_z(z) of the perturbed wire minus the straight wire at fixed height.

    The straight reference is the resampled wire of ``perturb_wire(wire,
    None)`` with its runs of exactly z-parallel segments merged
    (_merge_z_runs): a straight wire along z keeps one segment, and a run
    that meets a bend keeps its end segments.  A segment with d_x = d_y = 0
    adds an exact 0 to B_z (f_z = a_x d_y - a_y d_x), so the reference has
    the B_z bits of the resampled wire and a zero deviation gives exactly
    zero dB_z, on a bent wire too; only its |B| rounds differently.  The
    meandered wire is merged the same way, so its unmeandered stretches
    leave the kernel, and only its B_z is evaluated
    (BiotSavartModel._field_z), with the bits of its whole field's.

    The evaluation line sits ``height`` above the chip surface at the
    unperturbed centerline x nearest z = 0; dV is zeeman_slope * dB_z, the
    potential change of a trap whose bottom field lies along z (Esteve et
    al., PRA 70, 043629 (2004)), and ratio_to_main divides dB_z by the
    straight wire's field magnitude pointwise.
    """
    return _roughness_profiles(wire, (deviation,), current, height, z_values, species,
                               n_width, n_thickness)[0]


def _roughness_profiles(wire: WireSegmentPath, deviations, current: float, height: float,
                        z_values, species: AtomSpecies,
                        n_width: int = DEFAULT_N_WIDTH,
                        n_thickness: int = DEFAULT_N_THICKNESS) -> list[RoughnessProfile]:
    """roughness_field of each of ``deviations``, against one evaluation of
    the straight wire."""
    if not 0.0 < height < np.inf:
        raise ConfigError(f"evaluation height must be finite and > 0, got {height:g} m")
    z_values = np.asarray(z_values, dtype=float)
    if z_values.size == 0 or not np.isfinite(z_values).all():
        raise ConfigError("evaluation z values must be finite, and at least one")
    # the trap sits above the central section, not above the lead endpoints
    pts = wire.nodes
    x_eval = float(pts[np.argmin(np.abs(pts[:, 2])), 0])
    points = np.column_stack([
        np.full_like(z_values, x_eval), np.full_like(z_values, height), z_values
    ])
    bents = [perturb_wire(wire, deviation) for deviation in deviations]
    currents = CurrentConfig(dc={wire.channel: current})

    def model(w: WireSegmentPath) -> BiotSavartModel:
        return BiotSavartModel(ChipLayout(wires=(_merge_z_runs(w),)), n_width, n_thickness)

    B_s = model(perturb_wire(wire, None)).field(currents, points)
    profiles = []
    for bent in bents:
        delta_bz = model(bent)._field_z(currents, points) - B_s[:, 2]
        # a trap whose bottom field lies along z feels the first-order change
        # delta_Bz; the bare wire's |B| changes only to second order, as the
        # wire field is perpendicular to delta_Bz
        delta_v = species.zeeman_slope * delta_bz
        ratio = delta_bz / np.linalg.norm(B_s, axis=1)
        profiles.append(RoughnessProfile(
            z=tuple(z_values.tolist()),
            delta_Bz=tuple(delta_bz.tolist()),
            delta_V=tuple(delta_v.tolist()),
            ratio_to_main=tuple(ratio.tolist()),
        ))
    return profiles


# ---------------------------------------------------------------------------
# density-profile inversion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoltzmannInversion:
    """Potential roughness recovered from a thermal density profile.

    Points with density below the floor fraction are excluded, not
    extrapolated; ``z`` lists only the kept positions.
    """

    z: tuple[float, ...]
    delta_V: tuple[float, ...]   # J, zero at the density peak
    delta_Bz: tuple[float, ...]  # T
    n_ref: float                 # peak density used as the zero reference


def invert_density_boltzmann(z, n, temperature: float, species: AtomSpecies,
                             floor_frac: float = DENSITY_FLOOR_FRAC) -> BoltzmannInversion:
    """dV(z) = -k_B T ln(n / n_max) on the above-floor support.

    Valid for thermal (non-condensed) clouds in local thermal equilibrium;
    dB_z = dV / zeeman_slope.
    """
    z = np.asarray(z, dtype=float)
    n = np.asarray(n, dtype=float)
    if len(z) != len(n):
        raise ConfigError("z and n must have equal length")
    if temperature <= 0.0:
        raise ConfigError("temperature must be > 0")
    n_ref = float(n.max(initial=0.0))
    if n_ref <= 0.0:
        raise ChipError("density profile is identically zero")
    keep = n >= floor_frac * n_ref
    if np.count_nonzero(keep) < 8:
        raise ChipError("analysis window too narrow after the density floor")
    dv = -BOLTZMANN * temperature * np.log(n[keep] / n_ref)
    return BoltzmannInversion(
        z=tuple(z[keep].tolist()),
        delta_V=tuple(dv.tolist()),
        delta_Bz=tuple((dv / species.zeeman_slope).tolist()),
        n_ref=n_ref,
    )


def contact_interaction_constant(scattering_length: float, mass: float) -> float:
    """g = 4 pi hbar^2 a / m for contact interactions, J*m^3."""
    return 4.0 * np.pi * HBAR**2 * scattering_length / mass


def thomas_fermi_linear_density(V, mu: float, interaction_g: float,
                                omega_perp: float, mass: float) -> np.ndarray:
    """Radially-integrated Thomas-Fermi profile n(z) = pi (mu-V)^2 / (g m w^2)."""
    V = np.asarray(V, dtype=float)
    return np.pi * np.clip(mu - V, 0.0, None) ** 2 / (interaction_g * mass * omega_perp**2)


@dataclass(frozen=True)
class ThomasFermiInversion:
    """Potential recovered from a condensed cloud's density profile.

    V is gauged so its minimum is 0, making mu the reported peak-density
    chemical potential.  Below-floor points are clipped to V = mu and
    flagged rather than trusted.
    """

    z: tuple[float, ...]
    V: tuple[float, ...]      # J, min 0
    mu: float                 # J
    clipped: tuple[bool, ...]


def invert_density_thomas_fermi(z, n, interaction_g: float, omega_perp: float,
                                species: AtomSpecies,
                                floor_frac: float = DENSITY_FLOOR_FRAC) -> ThomasFermiInversion:
    """V(z) = mu - sqrt(n g m w^2 / pi) from the radially-integrated TF relation."""
    z = np.asarray(z, dtype=float)
    n = np.asarray(n, dtype=float)
    if len(z) != len(n):
        raise ConfigError("z and n must have equal length")
    if np.any(n < 0.0):
        raise ChipError("negative density cannot be inverted")
    n_ref = float(n.max(initial=0.0))
    if n_ref <= 0.0:
        raise ChipError("density profile is identically zero")
    depth = np.sqrt(n * interaction_g * species.mass * omega_perp**2 / np.pi)
    mu = float(depth.max())
    V = mu - depth
    clipped = n < floor_frac * n_ref
    V = np.where(clipped, mu, V)
    return ThomasFermiInversion(
        z=tuple(z.tolist()),
        V=tuple(V.tolist()),
        mu=mu,
        clipped=tuple(bool(c) for c in clipped),
    )


@dataclass(frozen=True)
class HarmonicFit:
    """Quadratic background fit of an axial potential."""

    omega_z: float                  # rad/s; 0 when curvature is not positive
    residual: tuple[float, ...]     # J
    coefficients: tuple[float, float, float]  # c0 + c1 dz + c2 dz^2, dz = z - z_center
    z_center: float
    positive_curvature: bool


def remove_harmonic_background(z, V, mass: float) -> HarmonicFit:
    """Least-squares quadratic fit subtracted from V(z).

    Returns the residual roughness and the equivalent axial frequency
    omega_z = sqrt(2 c2 / m); non-positive curvature is flagged and reports
    omega_z = 0.
    """
    z = np.asarray(z, dtype=float)
    V = np.asarray(V, dtype=float)
    if len(z) != len(V) or len(z) < 3:
        raise ConfigError("need at least 3 samples to fit a quadratic")
    zc = float(z.mean())
    dz = z - zc
    c2, c1, c0 = np.polyfit(dz, V, 2)
    residual = V - (c0 + c1 * dz + c2 * dz**2)
    positive = bool(c2 > 0.0)
    omega = float(np.sqrt(2.0 * c2 / mass)) if positive else 0.0
    return HarmonicFit(
        omega_z=omega,
        residual=tuple(residual.tolist()),
        coefficients=(float(c0), float(c1), float(c2)),
        z_center=zc,
        positive_curvature=positive,
    )
