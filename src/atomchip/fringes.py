"""Time-of-flight interference fringes: synthesis, fitting and phase stats.

The released double well produces a far-field pattern
n(x) = g(x) (1 + alpha cos(2 pi x / Lambda + phi)) with period
Lambda = h t / (m d) for well separation d and flight time t.  The fit is
one variable-projection least-squares solve (Golub & Pereyra, SIAM J.
Numer. Anal. 10, 413 (1973)) over envelope center, width and period,
started from envelope moments and the spectrum peak; contrast and phase
follow in closed form.  Ensemble phases are summarized with circular
statistics.

Note: the experiment's flight time is unpublished; 14 ms is this package's
documented default and every period-dependent number scales with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import PLANCK
from .errors import ConfigError, FitError
from .geometry import AtomSpecies

DEFAULT_TOF = 14e-3  # s, NOT from the experiment (unpublished); documented default
DEFAULT_HISTOGRAM_BIN_DEG = 15.0
MIN_PERIODS_IN_FWHM = 3.0
_FIT_XTOL = 1e-10
_FIT_MAX_NFEV = 1400


def wrap_phase(phi):
    """Wrap angles to (-pi, pi]."""
    w = np.mod(np.asarray(phi, dtype=float), 2.0 * np.pi)
    w = np.where(w > np.pi, w - 2.0 * np.pi, w)
    return float(w) if w.ndim == 0 else w


def fringe_period(separation: float, tof: float, mass: float) -> float:
    """Far-field two-source period Lambda = h t / (m d)."""
    if separation <= 0.0 or tof <= 0.0 or mass <= 0.0:
        raise ConfigError("separation, tof and mass must be > 0")
    return PLANCK * tof / (mass * separation)


def least_squares(*args, **kwargs):
    """``scipy.optimize.least_squares``, imported at the first call.

    Importing ``scipy.optimize`` costs ~0.3 s, and only the fringe fit
    needs it, so ``import atomchip`` loads no scipy module.
    """
    from scipy.optimize import least_squares as solve
    return solve(*args, **kwargs)


@dataclass(frozen=True)
class GaussianEnvelope:
    center: float
    sigma: float
    amplitude: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.amplitude * np.exp(-0.5 * ((x - self.center) / self.sigma) ** 2)


@dataclass(frozen=True)
class FringeModel:
    """Modulated-gaussian profile parameters."""

    envelope: GaussianEnvelope
    contrast: float
    period: float
    phase: float
    separation: float | None = None
    tof: float | None = None
    mass: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.contrast <= 1.0):
            raise ConfigError("contrast must lie in [0, 1]")
        if self.period <= 0.0:
            raise ConfigError("period must be > 0")
        object.__setattr__(self, "phase", wrap_phase(self.phase))

    @classmethod
    def from_double_well(cls, separation: float, tof: float, species: AtomSpecies,
                         envelope: GaussianEnvelope, contrast: float,
                         phase: float) -> "FringeModel":
        return cls(
            envelope=envelope, contrast=contrast,
            period=fringe_period(separation, tof, species.mass),
            phase=phase, separation=separation, tof=tof, mass=species.mass,
        )

    def density(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.envelope(x) * (
            1.0 + self.contrast * np.cos(2.0 * np.pi * x / self.period + self.phase)
        )


def synthesize_fringes(model: FringeModel, x, noise: float = 0.0,
                       seed: int | None = None,
                       rng: np.random.Generator | None = None) -> np.ndarray:
    """Sampled profile with seeded multiplicative Gaussian noise, clipped at 0.

    The grid must satisfy spacing < period/6 (Nyquist margin); stochastic
    synthesis requires an explicit seed or generator.
    """
    x = np.asarray(x, dtype=float)
    dx = np.max(np.diff(x))
    if not dx < model.period / 6.0:
        raise ConfigError(
            f"grid spacing {dx * 1e6:.3g} um under-samples period "
            f"{model.period * 1e6:.3g} um (need < period/6)"
        )
    n = model.density(x)
    if noise > 0.0:
        if rng is None:
            if seed is None:
                raise ConfigError("noisy synthesis needs an explicit seed")
            rng = np.random.default_rng(seed)
        n = n * (1.0 + noise * rng.standard_normal(len(x)))
    return np.clip(n, 0.0, None)


@dataclass(frozen=True)
class FringeFitResult:
    """The covariance assumes uniform noise: under the 5% multiplicative
    noise of the c8 acceptance profile the phase scatters ~1.5x its
    covariance sigma (0.0079 against 0.0051 rad over 200 shots)."""

    envelope: GaussianEnvelope
    contrast: float
    period: float
    phase: float                      # wrapped to (-pi, pi]
    covariance: tuple[tuple[float, ...], ...]  # order (A, x0, sigma, alpha, Lambda, phi)
    residual_norm: float
    converged: bool
    contrast_pinned: bool
    n_evaluations: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.residual_norm):
            raise FitError("fit produced a non-finite residual")


def _initial_guess(x: np.ndarray, n: np.ndarray):
    """Envelope center and width from moments, fringe period from the
    spectrum peak of the envelope-normalized profile."""
    w = np.clip(n, 0.0, None)
    total = w.sum()
    if total <= 0.0:
        raise FitError("profile is nonpositive everywhere")
    x0 = float((x * w).sum() / total)
    sigma = float(np.sqrt(((x - x0) ** 2 * w).sum() / total))
    dx = float(x[1] - x[0])
    if sigma < dx:
        raise FitError("envelope narrower than the grid spacing")
    amp = float(total * dx / (sigma * np.sqrt(2.0 * np.pi)))

    g0 = amp * np.exp(-0.5 * ((x - x0) / sigma) ** 2)
    valid = g0 > 0.05 * amp
    m = np.where(valid, n / np.where(valid, g0, 1.0) - 1.0, 0.0)

    window = valid.sum() * dx
    fwhm = 2.0 * np.sqrt(2.0 * np.log(2.0)) * sigma
    spectrum = np.fft.rfft(m)
    freqs = np.fft.rfftfreq(len(x), dx)
    # fringes this fit accepts have >= 3 periods per FWHM; anything slower is
    # envelope mismatch, not modulation
    usable = (freqs >= 1.5 / window) & (freqs >= 2.0 / fwhm)
    if not np.any(usable):
        raise FitError("window too short to resolve any fringe")
    power = np.abs(spectrum)
    power_usable = np.where(usable, power, 0.0)
    k = int(np.argmax(power_usable))
    median = float(np.median(power[usable]))
    if power[k] <= 5.0 * median + 1e-6 * total:
        raise FitError("degenerate spectrum: no fringe peak (contrast ~ 0?)")
    period = 1.0 / freqs[k]

    corr = np.sum(m[valid] * np.exp(-2j * np.pi * x[valid] / period))
    if 2.0 * np.abs(corr) / max(valid.sum(), 1) < 0.02:
        # smooth envelope mismatch, not modulation: no usable fringe
        raise FitError("degenerate spectrum: no fringe peak (contrast ~ 0?)")
    return x0, sigma, period


def fit_modulated_gaussian(x, n, min_periods: float = MIN_PERIODS_IN_FWHM) -> FringeFitResult:
    """Least-squares fit of g(x)(1 + alpha cos(2 pi x/Lambda + phi)).

    Requires a near-uniform grid and at least ``min_periods`` fringe periods
    inside the envelope FWHM.  With g = A ghat and u = 2 pi x/Lambda the
    model is A ghat + C ghat cos u + S ghat sin u, linear in (A, C, S), so
    one bounded trust-region solve runs over (x0, sigma, Lambda) alone
    (variable projection): each step takes (A, C, S) from a linear solve
    on that basis, and the Jacobian is the basis derivative times the
    coefficients projected off the basis range (Kaufman's form).  Then
    alpha = sqrt(C^2 + S^2)/A and phi = atan2(-S, C); with no phase or
    contrast parameter there is no phase/contrast local minimum to start
    around.  Convergence at relative step < 1e-10 or 1400 evaluations.  An
    over-modulated profile (alpha > 1) reports contrast 1 and sets
    ``contrast_pinned``.
    """
    x = np.asarray(x, dtype=float)
    n = np.asarray(n, dtype=float)
    if x.shape != n.shape or x.ndim != 1 or len(x) < 16:
        raise FitError("need matching 1D arrays with at least 16 samples")
    steps = np.diff(x)
    if not np.allclose(steps, steps[0], rtol=1e-6, atol=0.0):
        raise FitError("fit requires a uniform grid")

    x0, sigma, period = _initial_guess(x, n)
    fwhm = 2.0 * np.sqrt(2.0 * np.log(2.0)) * sigma
    if fwhm / period < min_periods:
        raise FitError(
            f"only {fwhm / period:.2f} fringe periods inside the envelope FWHM "
            f"(need >= {min_periods})"
        )

    span = float(x[-1] - x[0])
    dx = float(steps[0])
    lower = [x[0] - span, dx / 2.0, 4.0 * dx]
    upper = [x[-1] + span, 2.0 * span, 2.0 * span]

    def basis(p):
        """ghat, cos u, sin u and the basis matrix [ghat, ghat cos u, ghat sin u]."""
        mu, s, lam = p
        g = np.exp(-0.5 * ((x - mu) / s) ** 2)
        u = 2.0 * np.pi * x / lam
        c, sn = np.cos(u), np.sin(u)
        return g, c, sn, np.column_stack((g, g * c, g * sn))

    last = {}  # the last point solved, by its bytes: its basis and coefficients

    def solve(p):
        """basis(p) and its (A, C, S) from the linear solve.  The solver asks
        for the Jacobian at the point it has just evaluated, so the last
        point's are kept."""
        key = p.tobytes()
        if key not in last:
            parts = basis(p)
            last.clear()
            last[key] = parts, np.linalg.lstsq(parts[3], n, rcond=None)[0]
        return last[key]

    def residual(p):
        (*_, phi), coefficients = solve(p)
        return phi @ coefficients - n

    def projected_jacobian(p):
        mu, s, lam = p
        (g, c, sn, phi), (a, cc, ss) = solve(p)
        h = g * (a + cc * c + ss * sn)
        d = np.column_stack((h * (x - mu) / s**2, h * (x - mu) ** 2 / s**3,
                             g * (cc * sn - ss * c) * 2.0 * np.pi * x / lam**2))
        q = np.linalg.qr(phi)[0]
        return d - q @ (q.T @ d)

    best = least_squares(residual, np.clip([x0, sigma, period], lower, upper),
                         jac=projected_jacobian, bounds=(lower, upper), method="trf",
                         xtol=_FIT_XTOL, ftol=1e-14, gtol=1e-14, max_nfev=_FIT_MAX_NFEV)
    mu, s, lam = best.x
    a, cc, ss = solve(best.x)[1]
    al = float(np.hypot(cc, ss) / a)
    ph = float(np.arctan2(-ss, cc))

    # covariance from the Jacobian in (A, x0, sigma, alpha, Lambda, phi)
    g = a * np.exp(-0.5 * ((x - mu) / s) ** 2)
    u = 2.0 * np.pi * x / lam + ph
    gm, gs = g * (1.0 + al * np.cos(u)), g * al * np.sin(u)
    J = np.column_stack((gm / a, gm * (x - mu) / s**2, gm * (x - mu) ** 2 / s**3,
                         g * np.cos(u), gs * 2.0 * np.pi * x / lam**2, -gs))
    cov = 2.0 * best.cost / max(len(x) - 6, 1) * np.linalg.pinv(J.T @ J)
    return FringeFitResult(
        envelope=GaussianEnvelope(center=float(mu), sigma=float(s), amplitude=float(a)),
        contrast=min(al, 1.0),
        period=float(lam),
        phase=wrap_phase(ph),
        covariance=tuple(tuple(float(v) for v in row) for row in cov),
        residual_norm=float(np.sqrt(2.0 * best.cost)),
        converged=bool(best.status > 0),
        contrast_pinned=bool(al <= 1e-9 or al >= 1.0 - 1e-9),
        n_evaluations=int(best.nfev),
    )


# ---------------------------------------------------------------------------
# circular statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseEnsembleStats:
    """Circular summary of an ensemble of fringe phases (radians)."""

    phases: tuple[float, ...]
    circular_mean: float
    circular_std: float        # sqrt(-2 ln R)
    angular_deviation: float   # sqrt(2 (1 - R)), always <= linear_std
    resultant_length: float
    linear_std: float          # population std of wrapped deviations
    histogram_bin_edges_deg: tuple[float, ...]
    histogram_counts: tuple[int, ...]
    uniform_suspect: bool      # resultant too short for a phase-locked ensemble

    def __post_init__(self) -> None:
        if not (0.0 <= self.resultant_length <= 1.0 + 1e-12):
            raise ValueError("resultant length must lie in [0, 1]")


def phase_statistics(phases: Sequence[float],
                     bin_width_deg: float = DEFAULT_HISTOGRAM_BIN_DEG,
                     uniform_threshold: float = 0.2) -> PhaseEnsembleStats:
    """Circular mean/std, resultant length and a (-180, 180] histogram.

    ``uniform_suspect`` is raised when the resultant length falls below
    ``uniform_threshold`` (phases consistent with a uniform circle for
    ensembles of ~100 shots).
    """
    phases = np.asarray(phases, dtype=float)
    if phases.size < 2:
        raise ConfigError("need at least 2 phases")
    z = np.exp(1j * phases)
    zbar = z.mean()
    r = min(float(np.abs(zbar)), 1.0)  # rounding can push |mean| past 1
    mean = float(np.angle(zbar))
    circ_std = float(np.sqrt(-2.0 * np.log(r))) if r > 0.0 else float("inf")
    ang_dev = float(np.sqrt(2.0 * (1.0 - r)))
    deviations = wrap_phase(phases - mean)
    lin_std = float(np.sqrt(np.mean(deviations**2)))

    n_bins = int(round(360.0 / bin_width_deg))
    edges = np.linspace(-180.0, 180.0, n_bins + 1)
    deg = np.degrees(wrap_phase(phases))
    # histogram over (-180, 180]: fold exact -180 onto +180
    deg = np.where(deg <= -180.0, 180.0, deg)
    counts, _ = np.histogram(deg, bins=edges)
    return PhaseEnsembleStats(
        phases=tuple(float(p) for p in phases),
        circular_mean=mean,
        circular_std=circ_std,
        angular_deviation=ang_dev,
        resultant_length=r,
        linear_std=lin_std,
        histogram_bin_edges_deg=tuple(edges.tolist()),
        histogram_counts=tuple(int(c) for c in counts),
        uniform_suspect=bool(r < uniform_threshold),
    )


# ---------------------------------------------------------------------------
# end-to-end simulated shots
# ---------------------------------------------------------------------------

def end_to_end_shot(well_report, species: AtomSpecies, x, phase: float,
                    contrast: float = 0.6, tof: float = DEFAULT_TOF,
                    envelope: GaussianEnvelope | None = None,
                    noise: float = 0.0,
                    rng: np.random.Generator | None = None,
                    seed: int | None = None) -> FringeFitResult:
    """Simulate one readout: double-well separation -> fringes -> fit.

    ``well_report`` must describe a genuine double well (n_minima == 2);
    its separation sets the fringe period.
    """
    if well_report.n_minima != 2:
        raise ConfigError("end-to-end shot needs a double well (n_minima == 2)")
    x = np.asarray(x, dtype=float)
    if envelope is None:
        span = x[-1] - x[0]
        envelope = GaussianEnvelope(center=float(x.mean()), sigma=span / 6.0, amplitude=1.0)
    model = FringeModel.from_double_well(
        separation=well_report.separation, tof=tof, species=species,
        envelope=envelope, contrast=contrast, phase=phase,
    )
    profile = synthesize_fringes(model, x, noise=noise, rng=rng, seed=seed)
    return fit_modulated_gaussian(x, profile)
