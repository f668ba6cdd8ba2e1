"""Rf-dressed adiabatic potentials and double-well characterization.

Rotating-wave treatment with the local static field direction as the
quantization axis.  The dressed manifold energy is

    E = m_tilde * sqrt((hbar*delta)^2 + (hbar*Omega)^2)

with a per-m_F detuning hbar*delta = (zeeman_slope/m_tilde)*|B| - h*f_rf so
the whole F manifold dresses uniformly, and the Rabi term built from the
co-rotating circular component of the rf phasor perpendicular to the local
static field (the longitudinal component is discarded; for a linearly
polarized transverse drive of amplitude B1 this gives the standard
hbar*Omega = (zeeman_slope/m_tilde)*B1/2).  Counter-rotating corrections
are neglected; validity requires Omega, delta << omega_rf.

Phase convention: the rf field phasor is B_1 = sum over channels of
A e^{i phi} u_ch (u_ch the channel's field per ampere) and the field is
Re(B_1 e^{-i omega t}), so channel ch carries I_ch(t) = A cos(omega t - phi):
phi is a phase lag.  The coupling component is the one that turns
counter-clockwise about B (right-handed about b_hat), the sense of the
Larmor precession for g_F > 0.  The sign of g_F is not a parameter yet.

A dressed potential is the composition of a part that depends on B only
(|B|, b_hat, the transverse frame and hbar*delta) and a part per phasor
(the co-rotating projection, hbar*Omega and the root), so a split scan
builds the first once per slice and reuses it for every ramp amplitude.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .constants import PLANCK
from .errors import ConfigError, FieldDomainError
from .fields import BiotSavartModel
from .geometry import AtomSpecies, CurrentConfig, RfChannelDrive, Vec3
from .trap import find_trap_minimum, magnetic_potential


@dataclass(frozen=True)
class RfDriveState:
    """Rf drive: frequency, per-channel complex amplitudes, dressed index."""

    frequency: float  # Hz
    channels: Mapping[str, RfChannelDrive]
    m_tilde: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "channels", dict(self.channels))
        if any(d.amplitude != 0.0 for d in self.channels.values()) and self.frequency <= 0.0:
            raise ConfigError("rf frequency must be > 0 when any rf amplitude is nonzero")
        if self.m_tilde < 1:
            raise ConfigError("dressed manifold index must be >= 1")

    @classmethod
    def from_current_config(cls, currents: CurrentConfig, m_tilde: int = 2) -> "RfDriveState":
        return cls(frequency=currents.rf_frequency, channels=dict(currents.rf), m_tilde=m_tilde)

    def scaled(self, factor: float) -> "RfDriveState":
        """Same drive with every channel amplitude multiplied by ``factor``."""
        channels = {
            ch: RfChannelDrive(amplitude=d.amplitude * factor, phase=d.phase)
            for ch, d in self.channels.items()
        }
        return replace(self, channels=channels)


def rf_field_phasor(model: BiotSavartModel, drive: RfDriveState, points) -> np.ndarray:
    """Complex rf field phasor at ``points``: sum of I_ch e^{i phase} unit fields."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return _phasor(drive, lambda ch: model.channel_unit_field(ch, points), len(points))


def _phasor(drive: RfDriveState, unit_field, n_points: int) -> np.ndarray:
    """Sum of I_ch e^{i phase} ``unit_field(ch)`` over the driven channels."""
    phasor = np.zeros((n_points, 3), dtype=complex)
    for channel, d in drive.channels.items():
        if d.amplitude == 0.0:
            continue
        phasor = phasor + d.amplitude * np.exp(1j * d.phase) * unit_field(channel)
    return phasor


class _DressingFrame(NamedTuple):
    """The part of the dressing that depends on the static field only."""

    h_delta: np.ndarray  # hbar*delta per point, J
    e1: np.ndarray       # (..., 3): with e2 and b_hat a right-handed frame
    e2: np.ndarray
    per_m: float         # zeeman_slope / m_tilde, J/T
    m_tilde: int


def _dressing_frame(B_static, frequency: float, species: AtomSpecies,
                    m_tilde: int) -> _DressingFrame:
    """|B|, b_hat, the transverse frame (e1, e2) and hbar*delta, vectorized
    over leading axes; raises FieldDomainError where B is 0."""
    b = np.asarray(B_static, dtype=float)
    bmag = np.linalg.norm(b, axis=-1, keepdims=True)
    if np.any(bmag == 0.0):
        raise FieldDomainError("zero static field: quantization axis undefined")
    b_hat = b / bmag
    # deterministic transverse frame: start from whichever axis is least aligned
    ref = np.zeros_like(b_hat)
    ref[..., 0] = 1.0
    swap = np.abs(b_hat[..., 0]) > 0.9
    ref[swap] = np.array([0.0, 1.0, 0.0])
    e1 = np.cross(ref, b_hat)
    e1 = e1 / np.linalg.norm(e1, axis=-1, keepdims=True)
    e2 = np.cross(b_hat, e1)
    per_m = species.zeeman_slope / m_tilde
    return _DressingFrame(per_m * bmag[..., 0] - PLANCK * frequency, e1, e2, per_m, m_tilde)


def _rabi(frame: _DressingFrame, phasor: np.ndarray) -> np.ndarray:
    """hbar*Omega = per_m |c| with c = (B_1 . e1 - i B_1 . e2) / 2 the
    co-rotating circular component of the phasor perpendicular to B.

    |c| does not change under rotations of (e1, e2) about b_hat or under a
    global phasor phase.
    """
    c = (np.einsum("...j,...j->...", phasor, frame.e1)
         - 1j * np.einsum("...j,...j->...", phasor, frame.e2)) / 2.0
    return frame.per_m * np.abs(c)


def _dressed(frame: _DressingFrame, phasor: np.ndarray) -> np.ndarray:
    """m_tilde * sqrt((hbar delta)^2 + (hbar Omega)^2) from a frame and a phasor."""
    return frame.m_tilde * np.hypot(frame.h_delta, _rabi(frame, phasor))


def dressed_components(B_static, phasor, frequency: float, species: AtomSpecies,
                       m_tilde: int = 2):
    """(hbar*delta, hbar*Omega) per point, both in joules."""
    frame = _dressing_frame(B_static, frequency, species, m_tilde)
    return frame.h_delta, _rabi(frame, np.asarray(phasor))


def dressed_potential(B_static, phasor, frequency: float, species: AtomSpecies,
                      m_tilde: int = 2):
    """Adiabatic dressed-level energy m_tilde*sqrt((hbar d)^2+(hbar W)^2), J."""
    return _dressed(_dressing_frame(B_static, frequency, species, m_tilde),
                    np.asarray(phasor))


def dressed_potential_line(model: BiotSavartModel, currents: CurrentConfig,
                           species: AtomSpecies, drive: RfDriveState,
                           center, direction, halfwidth: float, n: int):
    """Sample the dressed potential on a line through ``center``.

    Returns (s, U) with s the signed offset along ``direction`` (unit
    normalized) and U in joules.
    """
    s, points = _slice_points(center, direction, halfwidth, n)
    B = model.field(currents, points)
    phasor = rf_field_phasor(model, drive, points)
    U = dressed_potential(B, phasor, drive.frequency, species, drive.m_tilde)
    return s, U


def _slice_points(center, direction, halfwidth: float, n: int):
    """Offsets s and points center + s * unit(direction) of an n-point slice."""
    center = np.asarray(center, dtype=float)
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    s = np.linspace(-halfwidth, halfwidth, n)
    return s, center[None, :] + s[:, None] * direction[None, :]


@dataclass(frozen=True)
class DoubleWellReport:
    """Well count and geometry of a 1D slice through the trap centre."""

    n_minima: int
    separation: float        # m; 0 unless n_minima == 2
    barrier: float           # J
    barrier_hz: float        # barrier / h
    asymmetry: float         # J
    slice_axis: Vec3
    minima_positions: tuple[float, ...]  # m along the slice
    extra_minima: bool = False

    def __post_init__(self) -> None:
        if self.n_minima == 2 and not self.separation > 0.0:
            raise ValueError("two minima require a positive separation")
        if self.n_minima != 2 and self.separation != 0.0:
            raise ValueError("separation is only defined for double wells")


def _parabolic_refine(s: np.ndarray, u: np.ndarray, i: int) -> tuple[float, float]:
    """Vertex of the parabola through samples i-1, i, i+1."""
    if i == 0 or i == len(s) - 1:
        return float(s[i]), float(u[i])
    denom = u[i - 1] - 2.0 * u[i] + u[i + 1]
    if denom <= 0.0:
        return float(s[i]), float(u[i])
    ds = s[1] - s[0]
    shift = 0.5 * (u[i - 1] - u[i + 1]) / denom
    return float(s[i] + shift * ds), float(u[i] - 0.25 * (u[i - 1] - u[i + 1]) * shift)


def characterize_double_well(s, u, slice_axis=(1.0, 0.0, 0.0),
                             noise_floor_rel: float = 1e-9,
                             min_sample_separation: int = 10) -> DoubleWellReport:
    """Count strict local minima of the sampled slice and report the wells.

    Minima whose separating barrier is below ``noise_floor_rel`` times the
    sampled range are merged (monotone-noise filtering).  Two minima closer
    than ``min_sample_separation`` samples violate the sampling contract.
    """
    s = np.asarray(s, dtype=float)
    u = np.asarray(u, dtype=float)
    if len(s) != len(u) or len(s) < 5:
        raise ValueError("slice needs at least 5 samples")
    interior = np.flatnonzero((u[1:-1] < u[:-2]) & (u[1:-1] < u[2:])) + 1
    minima = list(interior)

    span = float(u.max() - u.min())
    floor = noise_floor_rel * span if span > 0.0 else 0.0
    # merge pairs separated by sub-noise barriers, keeping the deeper one
    merged = True
    while merged and len(minima) > 1:
        merged = False
        for k in range(len(minima) - 1):
            i, j = minima[k], minima[k + 1]
            saddle = float(u[i:j + 1].max())
            if saddle - max(u[i], u[j]) <= floor:
                minima.pop(k if u[i] >= u[j] else k + 1)
                merged = True
                break

    axis = tuple(float(a) for a in slice_axis)
    if len(minima) == 0 or len(minima) == 1:
        # a boundary-monotone slice still has one well at the sampled minimum
        return DoubleWellReport(
            n_minima=1, separation=0.0, barrier=0.0, barrier_hz=0.0,
            asymmetry=0.0, slice_axis=axis,
            minima_positions=(float(s[minima[0]]) if minima else float(s[np.argmin(u)]),),
        )

    if len(minima) > 2:
        positions = tuple(float(s[i]) for i in minima)
        return DoubleWellReport(
            n_minima=len(minima), separation=0.0, barrier=0.0, barrier_hz=0.0,
            asymmetry=0.0, slice_axis=axis, minima_positions=positions,
            extra_minima=True,
        )

    i, j = minima
    if j - i < min_sample_separation:
        raise ValueError(
            f"minima only {j - i} samples apart; sample the slice more finely"
        )
    s1, u1 = _parabolic_refine(s, u, i)
    s2, u2 = _parabolic_refine(s, u, j)
    saddle = float(u[i:j + 1].max())
    barrier = saddle - 0.5 * (u1 + u2)
    return DoubleWellReport(
        n_minima=2,
        separation=abs(s2 - s1),
        barrier=barrier,
        barrier_hz=barrier / PLANCK,
        asymmetry=abs(u2 - u1),
        slice_axis=axis,
        minima_positions=(s1, s2),
    )


@dataclass(frozen=True)
class SplitScanResult:
    amplitudes: tuple[float, ...]
    reports: tuple[DoubleWellReport, ...]
    critical_amplitude: float | None  # first amplitude with two wells

    def rows(self) -> list[str]:
        """CSV rows: rf_amplitude_A,n_minima,separation_um,barrier_kHz,asymmetry_kHz."""
        out = ["rf_amplitude_A,n_minima,separation_um,barrier_kHz,asymmetry_kHz"]
        for a, r in zip(self.amplitudes, self.reports):
            out.append(
                f"{a:.9g},{r.n_minima},{r.separation * 1e6:.9g},"
                f"{r.barrier_hz / 1e3:.9g},{r.asymmetry / PLANCK / 1e3:.9g}"
            )
        return out


def split_scan(model: BiotSavartModel, currents: CurrentConfig, species: AtomSpecies,
               drive: RfDriveState, amplitudes: Sequence[float],
               direction=(1.0, 0.0, 0.0), seed_point=None,
               halfwidth: float = 12e-6, n_samples: int = 1201) -> SplitScanResult:
    """Characterize the well structure for each rf amplitude in a monotone ramp.

    ``drive`` fixes the relative channel amplitudes and phases; each ramp
    value rescales the whole drive so its largest channel amplitude equals
    the ramp value.  The slice passes through the static (rf-off) trap
    minimum along ``direction``.  Raises ConfigError for fewer than 5
    samples or a ``halfwidth`` that is not finite and > 0.
    """
    if n_samples < 5:
        raise ConfigError(f"split_scan needs n_samples >= 5, got {n_samples}")
    if not 0.0 < halfwidth < np.inf:
        raise ConfigError(f"split_scan halfwidth must be finite and > 0, got {halfwidth} m")
    amplitudes = [float(a) for a in amplitudes]
    if any(b < a for a, b in zip(amplitudes, amplitudes[1:])):
        raise ValueError("amplitude ramp must be monotone nondecreasing")
    ref = max((abs(d.amplitude) for d in drive.channels.values()), default=0.0)
    if ref == 0.0:
        raise ConfigError("split_scan drive needs at least one nonzero rf amplitude")

    if seed_point is None:
        seed_point = (0.0, 100e-6, 0.0)
    static = magnetic_potential(model, currents, species)
    center = find_trap_minimum(static, seed_point).minimum

    # the field is linear in each channel current and the ramp rescales the
    # rf currents only, so each slice size needs B, the rf channels' unit
    # fields and the dressing frame once
    rf_channels = [ch for ch, d in drive.channels.items() if d.amplitude != 0.0]
    slices = {}

    def dressed_slice(scaled: RfDriveState, n: int):
        if n not in slices:
            s, points = _slice_points(center, direction, halfwidth, n)
            B, units = model.field_and_unit_fields(currents, points, rf_channels)
            slices[n] = s, units, _dressing_frame(B, drive.frequency, species, drive.m_tilde)
        s, units, frame = slices[n]
        return s, _dressed(frame, _phasor(scaled, units.__getitem__, len(s)))

    reports = []
    for a in amplitudes:
        scaled = drive.scaled(a / ref)
        n = n_samples
        for attempt in range(3):
            s, u = dressed_slice(scaled, n)
            try:
                report = characterize_double_well(s, u, slice_axis=tuple(direction))
                break
            except ValueError:
                if attempt == 2:
                    raise
                n = 4 * n - 3  # refine near-critical slices instead of failing
        reports.append(report)
    critical = None
    for a, r in zip(amplitudes, reports):
        if r.n_minima == 2:
            critical = a
            break
    return SplitScanResult(
        amplitudes=tuple(amplitudes), reports=tuple(reports), critical_amplitude=critical
    )
