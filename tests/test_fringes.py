import numpy as np
import pytest
from scipy.optimize import least_squares

from atomchip.constants import PLANCK
from atomchip import fringes
from atomchip.errors import ConfigError, FitError
from atomchip.fringes import (
    FringeModel, GaussianEnvelope, end_to_end_shot, fit_modulated_gaussian,
    fringe_period, phase_statistics, synthesize_fringes, wrap_phase,
)
from atomchip.rf import DoubleWellReport


def well_report(separation=4e-6):
    return DoubleWellReport(
        n_minima=2, separation=separation, barrier=PLANCK * 10e3,
        barrier_hz=10e3, asymmetry=0.0, slice_axis=(1, 0, 0),
        minima_positions=(-separation / 2, separation / 2),
    )


@pytest.fixture(scope="module")
def grid():
    return np.linspace(-80e-6, 80e-6, 641)


@pytest.fixture(scope="module")
def model():
    env = GaussianEnvelope(center=2e-6, sigma=25e-6, amplitude=3.0)
    return FringeModel(envelope=env, contrast=0.6, period=16e-6,
                       phase=np.radians(37.0))


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def test_period_formula(species):
    # h t / (m d) = 16.07 um for d = 4 um, t = 14 ms, Rb-87
    lam = fringe_period(4e-6, 14e-3, species.mass)
    assert lam == pytest.approx(16.07e-6, rel=1e-3)


def test_halving_separation_doubles_period(species):
    lam = fringe_period(4e-6, 14e-3, species.mass)
    assert fringe_period(2e-6, 14e-3, species.mass) == 2.0 * lam


def test_zero_contrast_pure_envelope(grid):
    env = GaussianEnvelope(center=0.0, sigma=20e-6, amplitude=2.0)
    m = FringeModel(envelope=env, contrast=0.0, period=16e-6, phase=0.3)
    n = synthesize_fringes(m, grid)
    assert np.allclose(n, env(grid))


def test_undersampled_grid_rejected(model):
    x = np.linspace(-80e-6, 80e-6, 50)  # spacing 3.3 um > period/6
    with pytest.raises(ConfigError, match="under-samples"):
        synthesize_fringes(model, x)


def test_noise_requires_seed(model, grid):
    with pytest.raises(ConfigError, match="seed"):
        synthesize_fringes(model, grid, noise=0.05)
    a = synthesize_fringes(model, grid, noise=0.05, seed=5)
    b = synthesize_fringes(model, grid, noise=0.05, seed=5)
    assert np.array_equal(a, b)
    assert np.all(a >= 0.0)


def test_contrast_bounds_validated():
    env = GaussianEnvelope(0.0, 20e-6, 1.0)
    with pytest.raises(ConfigError):
        FringeModel(envelope=env, contrast=1.2, period=16e-6, phase=0.0)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def test_noiseless_recovery_to_1e6(model, grid):
    fit = fit_modulated_gaussian(grid, synthesize_fringes(model, grid))
    assert fit.converged
    assert fit.contrast == pytest.approx(0.6, rel=1e-6)
    assert fit.period == pytest.approx(16e-6, rel=1e-6)
    assert abs(wrap_phase(fit.phase - np.radians(37.0))) < 1e-6
    assert fit.envelope.sigma == pytest.approx(25e-6, rel=1e-6)
    assert fit.envelope.center == pytest.approx(2e-6, rel=1e-4)
    assert not fit.contrast_pinned


def test_noise_monte_carlo_phase_recovery(model, grid):
    # 60 seeded shots here; the full 200-shot run lives in the acceptance suite
    errs = []
    for k in range(60):
        rng = np.random.default_rng(3000 + k)
        n = synthesize_fringes(model, grid, noise=0.05, rng=rng)
        f = fit_modulated_gaussian(grid, n)
        errs.append(abs(np.degrees(wrap_phase(f.phase - np.radians(37.0)))))
    assert np.percentile(errs, 95) < 5.0


def test_fit_looks_up_the_module_least_squares(model, grid, monkeypatch):
    # bench/tracing.py spans atomchip.fringes.least_squares to count starts
    n = synthesize_fringes(model, grid)
    unpatched = fit_modulated_gaussian(grid, n)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return least_squares(*args, **kwargs)

    monkeypatch.setattr(fringes, "least_squares", counting)
    patched = fit_modulated_gaussian(grid, n)
    assert len(calls) == 1
    assert repr(patched) == repr(unpatched)  # float reprs round-trip every bit


def test_zero_contrast_degenerate_spectrum(grid):
    env = GaussianEnvelope(center=0.0, sigma=25e-6, amplitude=2.0)
    m = FringeModel(envelope=env, contrast=0.0, period=16e-6, phase=0.0)
    with pytest.raises(FitError, match="spectrum"):
        fit_modulated_gaussian(grid, synthesize_fringes(m, grid))


def test_too_few_periods_rejected(grid):
    env = GaussianEnvelope(center=0.0, sigma=18e-6, amplitude=2.0)
    m = FringeModel(envelope=env, contrast=0.5, period=20e-6, phase=0.0)
    with pytest.raises(FitError, match="period"):
        fit_modulated_gaussian(grid, synthesize_fringes(m, grid))


def test_nonuniform_grid_rejected(model, grid):
    n = synthesize_fringes(model, grid)
    bad = grid.copy()
    bad[5] += 3e-8
    with pytest.raises(FitError, match="uniform"):
        fit_modulated_gaussian(bad, n)


def _multistart_reference(x, n):
    """The former fit: four phase-offset starts (0/90/180/270 degrees) of a
    bounded least_squares over all six parameters (A, x0, sigma, alpha,
    Lambda, phi), each with the full evaluation budget; the lowest cost wins.
    Returns (parameters, cost)."""
    x0, sigma, period = fringes._initial_guess(x, n)
    dx = x[1] - x[0]
    span = x[-1] - x[0]
    amp = np.clip(n, 0.0, None).sum() * dx / (sigma * np.sqrt(2.0 * np.pi))
    g0 = amp * np.exp(-0.5 * ((x - x0) / sigma) ** 2)
    valid = g0 > 0.05 * amp
    corr = np.sum((n[valid] / g0[valid] - 1.0) * np.exp(-2j * np.pi * x[valid] / period))
    alpha = np.clip(2.0 * np.abs(corr) / valid.sum(), 0.02, 0.98)
    lower = [0.0, x[0] - span, dx / 2.0, 0.0, 4.0 * dx, -2.0 * np.pi]
    upper = [np.inf, x[-1] + span, 2.0 * span, 1.0, 2.0 * span, 2.0 * np.pi]

    def residual(theta):
        a, mu, s, al, lam, ph = theta
        g = a * np.exp(-0.5 * ((x - mu) / s) ** 2)
        return g * (1.0 + al * np.cos(2.0 * np.pi * x / lam + ph)) - n

    def jacobian(theta):
        a, mu, s, al, lam, ph = theta
        g = a * np.exp(-0.5 * ((x - mu) / s) ** 2)
        u = 2.0 * np.pi * x / lam + ph
        mod = 1.0 + al * np.cos(u)
        return np.column_stack((g / a * mod, g * (x - mu) / s**2 * mod,
                                g * (x - mu) ** 2 / s**3 * mod, g * np.cos(u),
                                g * al * np.sin(u) * 2.0 * np.pi * x / lam**2,
                                -g * al * np.sin(u)))

    fits = [least_squares(residual, np.clip([amp, x0, sigma, alpha, period,
                                             wrap_phase(np.angle(corr) + dphi)], lower, upper),
                          jac=jacobian, bounds=(lower, upper), method="trf", xtol=1e-10,
                          ftol=1e-14, gtol=1e-14, max_nfev=1400)
            for dphi in (0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi)]
    best = min(fits, key=lambda res: res.cost)
    return best.x, best.cost


def test_one_solve_matches_the_four_start_multistart():
    # c8 shots 5000-5019 at 5% noise: the variable-projection solve lands on
    # the multistart's minimum in a few evaluations
    x = np.linspace(-80e-6, 80e-6, 641)
    env = GaussianEnvelope(center=2e-6, sigma=25e-6, amplitude=3.0)
    m = FringeModel(envelope=env, contrast=0.6, period=16e-6, phase=np.radians(37.0))
    for k in range(20):
        n = synthesize_fringes(m, x, noise=0.05, rng=np.random.default_rng(5000 + k))
        fit = fit_modulated_gaussian(x, n)
        (a, mu, s, al, lam, ph), cost = _multistart_reference(x, n)
        assert fit.converged and fit.n_evaluations <= 50
        assert abs(wrap_phase(fit.phase - ph)) < 1e-8
        got = (fit.contrast, fit.period, fit.envelope.center, fit.envelope.sigma,
               fit.envelope.amplitude)
        assert got == pytest.approx((al, lam, mu, s, a), rel=1e-8, abs=0.0)
        assert 0.5 * fit.residual_norm**2 <= cost * (1.0 + 1e-9)


def test_covariance_matches_monte_carlo_scatter(model, grid):
    # uniform additive noise, the covariance's own assumption: the scatter of
    # each parameter over 200 shots matches its median covariance sigma
    clean = model.density(grid)
    params, sigmas = [], []
    for k in range(200):
        rng = np.random.default_rng(7000 + k)
        fit = fit_modulated_gaussian(grid, clean + 0.1 * rng.standard_normal(len(grid)))
        params.append((fit.envelope.amplitude, fit.envelope.center, fit.envelope.sigma,
                       fit.contrast, fit.period, fit.phase))
        sigmas.append(np.sqrt(np.diag(fit.covariance)))
    params = np.array(params)
    params[:, 5] = wrap_phase(params[:, 5] - model.phase)
    ratio = params.std(axis=0) / np.median(sigmas, axis=0)
    assert np.all((ratio >= 0.8) & (ratio <= 1.25)), ratio


def test_over_modulated_profile_pins_contrast(grid):
    # contrast-1 fringes with 5% noise often fit alpha > 1: the fit reports
    # contrast 1 with the pin flag and keeps the phase
    env = GaussianEnvelope(center=2e-6, sigma=25e-6, amplitude=3.0)
    m = FringeModel(envelope=env, contrast=1.0, period=16e-6, phase=np.radians(37.0))
    pinned = 0
    for k in range(20):
        n = synthesize_fringes(m, grid, noise=0.05, rng=np.random.default_rng(6000 + k))
        fit = fit_modulated_gaussian(grid, n)
        assert fit.contrast <= 1.0
        assert abs(np.degrees(wrap_phase(fit.phase - m.phase))) < 1.0
        # the unconstrained contrast at the fitted envelope and period
        g = np.exp(-0.5 * ((grid - fit.envelope.center) / fit.envelope.sigma) ** 2)
        u = 2.0 * np.pi * grid / fit.period
        a, c, s = np.linalg.lstsq(np.column_stack((g, g * np.cos(u), g * np.sin(u))), n,
                                  rcond=None)[0]
        alpha = np.hypot(c, s) / a
        if alpha >= 1.0:
            assert fit.contrast_pinned and fit.contrast == 1.0
        else:
            assert fit.contrast == pytest.approx(alpha, rel=1e-12)
        pinned += fit.contrast_pinned
    assert 0 < pinned < 20  # both sides of the pin are exercised


def test_phase_equivariance(model, grid):
    # shifting the profile by dx shifts phi by -2 pi dx / period
    base = fit_modulated_gaussian(grid, model.density(grid))
    dx = 5e-6
    shifted = fit_modulated_gaussian(grid, model.density(grid - dx))
    expected = wrap_phase(base.phase - 2 * np.pi * dx / model.period)
    assert abs(wrap_phase(shifted.phase - expected)) < 1e-6


def test_wrap_correctness(grid):
    env = GaussianEnvelope(center=0.0, sigma=25e-6, amplitude=1.0)
    a = FringeModel(envelope=env, contrast=0.5, period=16e-6, phase=1.0)
    b = FringeModel(envelope=env, contrast=0.5, period=16e-6, phase=1.0 + 2 * np.pi)
    assert a.phase == b.phase  # wrapped at construction
    fa = fit_modulated_gaussian(grid, a.density(grid))
    fb = fit_modulated_gaussian(grid, b.density(grid))
    assert fa.phase == pytest.approx(fb.phase, abs=1e-9)


def test_amplitude_scaling_separability(model, grid):
    n = model.density(grid)
    f1 = fit_modulated_gaussian(grid, n)
    f2 = fit_modulated_gaussian(grid, 7.5 * n)
    assert f2.envelope.amplitude == pytest.approx(7.5 * f1.envelope.amplitude, rel=1e-9)
    assert f2.contrast == pytest.approx(f1.contrast, rel=1e-9)
    assert f2.period == pytest.approx(f1.period, rel=1e-9)
    assert f2.phase == pytest.approx(f1.phase, abs=1e-9)


# ---------------------------------------------------------------------------
# circular statistics
# ---------------------------------------------------------------------------

def test_identical_phases_zero_spread():
    stats = phase_statistics([0.7] * 103)
    assert stats.circular_std < 1e-7  # float rounding of |mean(e^{i phi})|
    assert stats.resultant_length == pytest.approx(1.0, abs=1e-12)
    assert not stats.uniform_suspect


def test_wrapped_normal_23deg_recovery():
    rng = np.random.default_rng(103)
    draws = wrap_phase(np.radians(rng.normal(20.0, 23.0, 103)))
    stats = phase_statistics(draws)
    assert abs(np.degrees(stats.circular_std) - 23.0) < 4.0
    assert abs(np.degrees(stats.circular_mean) - 20.0) < 10.0


def test_uniform_phases_flagged():
    rng = np.random.default_rng(11)
    stats = phase_statistics(rng.uniform(-np.pi, np.pi, 103))
    assert stats.resultant_length < 0.2
    assert stats.uniform_suspect


def test_histogram_15_degree_bins():
    stats = phase_statistics(np.radians([0.0, 10.0, 170.001, -170.0]))
    assert len(stats.histogram_counts) == 24
    assert sum(stats.histogram_counts) == 4
    edges = stats.histogram_bin_edges_deg
    assert edges[0] == -180.0 and edges[-1] == 180.0


def test_circular_vs_linear_agreement(rng):
    # angular deviation <= linear std is exact; the Mardia std agrees with
    # the linear std within 2% for sigma <= 30 degrees
    for sigma_deg in (5.0, 15.0, 30.0):
        for _ in range(20):
            draws = wrap_phase(np.radians(rng.normal(0.0, sigma_deg, 400)))
            stats = phase_statistics(draws)
            assert stats.angular_deviation <= stats.linear_std * (1 + 1e-12)
            assert abs(stats.circular_std - stats.linear_std) < 0.02 * stats.linear_std


def test_requires_two_phases():
    with pytest.raises(ConfigError):
        phase_statistics([0.1])


# ---------------------------------------------------------------------------
# end-to-end shots
# ---------------------------------------------------------------------------

def test_end_to_end_requires_double_well(species, grid):
    single = DoubleWellReport(
        n_minima=1, separation=0.0, barrier=0.0, barrier_hz=0.0,
        asymmetry=0.0, slice_axis=(1, 0, 0), minima_positions=(0.0,),
    )
    with pytest.raises(ConfigError):
        end_to_end_shot(single, species, grid, phase=0.0)


def seeded_shots(species, grid, n_shots, seed, base_phase, phase_jitter=0.0, noise=0.0):
    """(fitted, injected) phases of ``n_shots`` end-to-end shots, each from its
    own child generator of ``seed``: first the injected phase, then the noise."""
    fitted, injected = [], []
    for child in np.random.SeedSequence(seed).spawn(n_shots):
        rng = np.random.default_rng(child)
        phi = base_phase + phase_jitter * rng.standard_normal()
        fitted.append(end_to_end_shot(well_report(), species, grid, phase=phi,
                                      noise=noise, rng=rng).phase)
        injected.append(wrap_phase(phi))
    return fitted, injected


def test_end_to_end_zero_noise_zero_jitter(species, grid):
    fitted, injected = seeded_shots(species, grid, n_shots=12, seed=9, base_phase=0.4)
    stats = phase_statistics(fitted)
    assert np.degrees(stats.circular_std) < 0.1
    assert abs(wrap_phase(stats.circular_mean - 0.4)) < 1e-3


def test_end_to_end_jitter_recovery(species, grid):
    # injected 20 degree jitter comes back through synthesize -> fit
    fitted, injected = seeded_shots(species, grid, n_shots=103, seed=77, base_phase=0.3,
                                    phase_jitter=np.radians(20.0), noise=0.03)
    recovered = np.degrees(phase_statistics(fitted).circular_std)
    injected_std = np.degrees(phase_statistics(injected).circular_std)
    assert abs(recovered - injected_std) < 4.0


def test_paper_well_resolvable_on_coarse_detector(species):
    assert fringe_period(4e-6, 14e-3, species.mass) / 3.4e-6 > 4.0
