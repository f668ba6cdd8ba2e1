import numpy as np
import pytest
from scipy import integrate, special

from atomchip import fields, roughness
from atomchip.constants import BOHR_MAGNETON, BOLTZMANN, GAUSS, MU_0, PLANCK
from atomchip.errors import ChipError, ConfigError, FieldDomainError, GeometryError
from atomchip.fields import BiotSavartModel
from atomchip.geometry import ChipLayout, CurrentConfig, WireSegmentPath, builtin_paper_layout
from atomchip.reproduction import roughness_test_wire
from atomchip.roughness import (
    RandomDeviation, SinusoidDeviation, TriangleDeviation, _merge_z_runs, _roughness_profiles,
    contact_interaction_constant, invert_density_boltzmann,
    invert_density_thomas_fermi, perturb_wire, remove_harmonic_background,
    roughness_field, thomas_fermi_linear_density,
)

RB87_A = 5.29e-9


@pytest.fixture(scope="module")
def straight_wire():
    return WireSegmentPath(
        name="w", channel="w",
        nodes=((0.0, -1.5e-6, -3e-3), (0.0, -1.5e-6, 3e-3)),
        width=50e-6, thickness=3e-6,
    )


# ---------------------------------------------------------------------------
# deviation profiles and wire perturbation
# ---------------------------------------------------------------------------

def test_zero_deviation_identical_resampled_path(straight_wire):
    a = perturb_wire(straight_wire, None, step=5e-6)
    b = perturb_wire(straight_wire, SinusoidDeviation(0.0, 400e-6), step=5e-6)
    assert a == b
    assert a.nodes.tobytes() == b.nodes.tobytes()


def test_sinusoid_max_slope(straight_wire):
    amp, period = 30e-9, 400e-6
    bent = perturb_wire(straight_wire, SinusoidDeviation(amp, period), step=2e-6)
    pts = bent.nodes
    slopes = np.diff(pts[:, 0]) / np.diff(pts[:, 2])
    assert np.max(np.abs(slopes)) == pytest.approx(2 * np.pi * amp / period, rel=2e-3)


def test_triangle_slope_everywhere(straight_wire):
    # "20 nm per 200 um" run: amplitude 20 nm, period 4 x 200 um
    bent = perturb_wire(straight_wire, TriangleDeviation(20e-9, 800e-6), step=100e-6)
    pts = bent.nodes
    slopes = np.diff(pts[:, 0]) / np.diff(pts[:, 2])
    assert np.allclose(np.abs(slopes), 1e-4, rtol=1e-9)


def test_deviation_exceeding_regime_rejected(straight_wire):
    with pytest.raises(GeometryError, match="width/10"):
        perturb_wire(straight_wire, SinusoidDeviation(6e-6, 400e-6))


def test_random_deviation_reproducible_and_scaled():
    dev1 = RandomDeviation(rms=20e-9, correlation_length=200e-6, seed=7,
                           z_min=-2e-3, z_max=2e-3)
    dev2 = RandomDeviation(rms=20e-9, correlation_length=200e-6, seed=7,
                           z_min=-2e-3, z_max=2e-3)
    z = np.linspace(-1.5e-3, 1.5e-3, 400)
    assert np.array_equal(dev1.offsets(z), dev2.offsets(z))
    full = np.linspace(-2e-3, 2e-3, 801)
    assert np.std(dev1.offsets(full)) == pytest.approx(20e-9, rel=0.2)
    dev3 = RandomDeviation(rms=20e-9, correlation_length=200e-6, seed=8,
                           z_min=-2e-3, z_max=2e-3)
    assert not np.array_equal(dev1.offsets(z), dev3.offsets(z))


@pytest.mark.parametrize("kwargs, match", [
    (dict(rms=-1e-9, correlation_length=1e-4), "rms must be finite and >= 0, got -1e-09 m"),
    (dict(rms=1e-9, correlation_length=2e-3), "profile span 0.001 m, got 0.002 m"),
])
def test_random_deviation_rejects_negative_rms_and_long_correlation(kwargs, match):
    with pytest.raises(ConfigError, match=match):
        RandomDeviation(seed=1, z_min=0.0, z_max=1e-3, **kwargs)


@pytest.mark.parametrize("cls", [SinusoidDeviation, TriangleDeviation])
@pytest.mark.parametrize("amplitude, period, match", [
    (20e-9, 0.0, "period must be finite and > 0, got 0 m"),
    (20e-9, -8e-4, "period must be finite and > 0, got -0.0008 m"),
    (20e-9, np.inf, "period must be finite and > 0, got inf m"),
    (20e-9, np.nan, "period must be finite and > 0, got nan m"),
    (np.nan, 8e-4, "amplitude must be finite, got nan m"),
    (-np.inf, 8e-4, "amplitude must be finite, got -inf m"),
])
def test_wave_deviation_rejects_bad_period_and_amplitude(cls, amplitude, period, match):
    with pytest.raises(ConfigError, match=match):
        cls(amplitude=amplitude, period=period)


@pytest.mark.parametrize("cls", [SinusoidDeviation, TriangleDeviation])
def test_wave_deviation_of_zero_amplitude_is_straight(cls):
    assert np.all(cls(amplitude=0.0, period=8e-4).offsets(np.linspace(-1e-3, 1e-3, 9)) == 0.0)


def test_random_deviation_step_contract():
    with pytest.raises(ConfigError):
        RandomDeviation(rms=1e-9, correlation_length=1e-4, seed=1,
                        z_min=0, z_max=1e-3, step=20e-6)


@pytest.mark.parametrize("step, shown", [
    (0.0, "0"), (-1e-6, "-1e-06"), (np.nan, "nan"), (np.inf, "inf"), (20e-6, "2e-05"),
])
def test_random_deviation_rejects_bad_step(step, shown):
    # 0 ended in a ZeroDivisionError and a negative or nan step in numpy
    # ValueErrors; tiny positive steps are valid, and allocate huge grids
    with pytest.raises(ConfigError, match=f"step must be > 0 and <= 5 um, got {shown} m"):
        RandomDeviation(rms=1e-9, correlation_length=1e-4, seed=1,
                        z_min=0, z_max=1e-3, step=step)


# ---------------------------------------------------------------------------
# roughness fields
# ---------------------------------------------------------------------------

def test_straight_wire_zero_roughness(straight_wire, species):
    z = np.linspace(-500e-6, 500e-6, 41)
    prof = roughness_field(straight_wire, None, current=2.0, height=150e-6,
                           z_values=z, species=species, n_width=4, n_thickness=1)
    assert max(abs(v) for v in prof.delta_Bz) == 0.0


# a Z wire whose filament offsets at the ends of its central run round
# differently from those inside it
_OFFSET_Z = WireSegmentPath(name="z", channel="z", width=10e-6, thickness=2e-6,
                            nodes=((-1.9e-4, -1e-6, -2e-3), (1e-5, -1e-6, -1e-3),
                                   (1e-5, -1e-6, 1e-3), (2.1e-4, -1e-6, 2e-3)))


@pytest.mark.parametrize("case", ["z2", "offset z"])
def test_bent_wire_zero_roughness(species, case):
    # against the merged reference, on a wire with diagonal leads
    if case == "z2":
        wire, filaments = builtin_paper_layout()[0].wire("z2"), {}
    else:
        wire, filaments = _OFFSET_Z, {"n_width": 4, "n_thickness": 2}
    z = np.linspace(-800e-6, 800e-6, 41)
    prof = roughness_field(wire, None, current=2.0, height=150e-6, z_values=z,
                           species=species, **filaments)
    assert max(abs(v) for v in prof.delta_Bz) == 0.0
    assert max(abs(v) for v in prof.ratio_to_main) == 0.0


def test_merged_reference_of_straight_wire_is_one_segment():
    wire = roughness_test_wire()
    assert len(perturb_wire(wire, None).nodes) == 1201
    assert np.array_equal(_merge_z_runs(perturb_wire(wire, None)).nodes, wire.nodes)


def test_merged_reference_keeps_every_bend():
    # z2's central run becomes three segments, the middle one merged; its
    # diagonal leads and the chords that cut their corners keep every node
    layout, _, _ = builtin_paper_layout()
    resampled = perturb_wire(layout.wire("z2"), None)
    merged, resampled = _merge_z_runs(resampled).nodes, resampled.nodes
    d, d_merged = np.diff(resampled, axis=0), np.diff(merged, axis=0)
    along_z = np.flatnonzero((d[:, 0] == 0.0) & (d[:, 1] == 0.0))
    merged_along_z = np.flatnonzero((d_merged[:, 0] == 0.0) & (d_merged[:, 1] == 0.0))
    assert len(along_z) == 1400 and len(merged_along_z) == 3
    assert len(merged) == len(resampled) - 1400 + 3
    assert np.array_equal(np.delete(d_merged, merged_along_z[1], axis=0),
                          np.delete(d, along_z[1:-1], axis=0))
    assert np.array_equal(merged[[0, -1]], resampled[[0, -1]])


@pytest.mark.parametrize("nodes_um, kept", [
    # out along +z and straight back along -z
    ([(0, 0, z) for z in (0, 100, 200, 300, 200, 100, 0)], [0, 2, 3, 4, 6]),
    # a 1 um step in x between the two runs
    ([(0, 0, 0), (0, 0, 100), (0, 0, 200), (0, 0, 300), (1, 0, 300), (1, 0, 200), (1, 0, 100),
      (1, 0, 0)], [0, 2, 3, 4, 5, 7]),
])
def test_merged_reference_keeps_turns_and_their_neighbours(nodes_um, kept):
    wire = WireSegmentPath(name="u", channel="u", width=1e-6, thickness=1e-6,
                           nodes=np.asarray(nodes_um) * 1e-6)
    assert np.array_equal(_merge_z_runs(wire).nodes, wire.nodes[kept])


def _profile_points(wire, n):
    """n points of a roughness profile at 150 um, as _roughness_profiles
    places them: at the centerline x nearest z = 0, z from -800 to 800 um."""
    x = wire.nodes[np.argmin(np.abs(wire.nodes[:, 2])), 0]
    z = np.linspace(-800e-6, 800e-6, n) if n > 1 else np.array([123e-6])
    return np.column_stack([np.full(n, x), np.full(n, 150e-6), z])


def _hex(values):
    return [v.hex() for v in values.tolist()]


def _line_rows(monkeypatch) -> list:
    """The ``rows`` argument of each _line_piece_field call from here on, ()
    where the caller leaves it out."""
    rows = []
    line = fields._line_piece_field
    monkeypatch.setattr(fields, "_line_piece_field",
                        lambda *args: rows.append(args[6:]) or line(*args))
    return rows


_MEANDERS = {
    "sinusoid": SinusoidDeviation(30e-9, 200e-6, 0.4),
    "triangle": TriangleDeviation(20e-9, 800e-6),
    "random": RandomDeviation(rms=20e-9, correlation_length=60e-6, seed=5, z_min=-3e-3,
                              z_max=3e-3),
}


@pytest.mark.parametrize("case", [*_MEANDERS, "z2 triangle"])
def test_meandered_bz_alone_bitwise_equal_to_field(case, monkeypatch):
    # the z row alone on the line path (161 points), and the stacked path's
    # z row below _LINE_MIN_POINTS (16 points) and at one point
    if case == "z2 triangle":
        wire = builtin_paper_layout()[0].wire("z2")  # with its diagonal leads
        bent = perturb_wire(wire, _MEANDERS["triangle"])
    else:
        wire = roughness_test_wire()
        bent = perturb_wire(wire, _MEANDERS[case])
    model = BiotSavartModel(ChipLayout(wires=(bent,)))
    currents = CurrentConfig(dc={wire.channel: 2.0}, bias=(1e-4, -2e-5, 3.3e-5))
    rows = _line_rows(monkeypatch)
    for n in (161, 16, 1):
        points = _profile_points(wire, n)
        rows.clear()
        alone = _hex(model._field_z(currents, points))
        assert rows == ([(fields._Z,)] if n == 161 else []), (case, n)
        assert alone == _hex(model.field(currents, points)[:, 2]), (case, n)


# a random meander confined to +-800 um of the 6 mm test wire; its noise grid
# reaches 5 correlation lengths further, to 1.31 mm
_CONFINED = RandomDeviation(rms=20e-9, correlation_length=100e-6, seed=3, z_min=-800e-6,
                            z_max=800e-6)


def test_merged_meander_keeps_every_bz_bit():
    wire = roughness_test_wire()
    bent = perturb_wire(wire, _CONFINED)
    merged = _merge_z_runs(bent)
    # each straight lead's 338 segments become one
    assert len(bent.nodes) == 1201 and len(merged.nodes) == 1201 - 2 * 337
    assert np.allclose(merged.nodes[[0, 1, -2, -1], 2], [-3e-3, -1.31e-3, 1.31e-3, 3e-3],
                       rtol=1e-12, atol=0.0)
    currents = CurrentConfig(dc={"w": 2.0})
    models = [BiotSavartModel(ChipLayout(wires=(w,))) for w in (merged, bent)]
    for n in (161, 16, 1):
        points = _profile_points(wire, n)
        assert (_hex(models[0]._field_z(currents, points))
                == _hex(models[1].field(currents, points)[:, 2])), n
    # a zero-amplitude meander is the straight wire: one segment per filament
    zero = perturb_wire(wire, SinusoidDeviation(0.0, 200e-6))
    assert np.array_equal(_merge_z_runs(zero).nodes, wire.nodes)


def test_unmeandered_stretches_leave_the_kernel(species, monkeypatch):
    # the nodes of each wire roughness_field builds a model of: the straight
    # reference, then the meandered wire with its straight stretches merged
    nodes = []
    model = roughness.BiotSavartModel
    monkeypatch.setattr(roughness, "BiotSavartModel",
                        lambda layout, *args: nodes.append(len(layout.wires[0].nodes))
                        or model(layout, *args))
    for deviation, expected in ((SinusoidDeviation(0.0, 200e-6), [2, 2]), (_CONFINED, [2, 527])):
        nodes.clear()
        roughness_field(roughness_test_wire(), deviation, current=2.0, height=150e-6,
                        z_values=np.linspace(-800e-6, 800e-6, 41), species=species)
        assert nodes == expected


def test_profile_inside_the_wire_is_a_domain_error(species):
    # 1 nm above the test wire's top face, inside its 1 nm conductor pad
    wire = roughness_test_wire()
    message = "point (0.000, 0.001, -800.000) um lies inside wire 'w'"
    with pytest.raises(FieldDomainError) as raised:
        roughness_field(wire, TriangleDeviation(20e-9, 800e-6), current=2.0, height=1e-9,
                        z_values=np.linspace(-800e-6, 800e-6, 161), species=species)
    assert str(raised.value) == message
    # the meandered wire's B_z alone is checked as its field is
    bent = perturb_wire(wire, TriangleDeviation(20e-9, 800e-6))
    model = BiotSavartModel(ChipLayout(wires=(bent,)))
    points = _profile_points(wire, 161)
    points[:, 1] = 1e-9
    for evaluate in (model.field, model._field_z):
        with pytest.raises(FieldDomainError) as raised:
            evaluate(CurrentConfig(dc={"w": 2.0}), points)
        assert str(raised.value) == message


def test_linearity_in_deviation_amplitude(straight_wire, species):
    z = np.linspace(-400e-6, 400e-6, 41)
    kw = dict(current=2.0, height=150e-6, z_values=z, species=species,
              n_width=4, n_thickness=1)
    p1 = roughness_field(straight_wire, TriangleDeviation(20e-9, 800e-6), **kw)
    p2 = roughness_field(straight_wire, TriangleDeviation(40e-9, 800e-6), **kw)
    d1, d2 = np.asarray(p1.delta_Bz), np.asarray(p2.delta_Bz)
    assert np.max(np.abs(d2 - 2 * d1)) / np.max(np.abs(d2)) < 0.02


def test_profiles_share_one_straight_wire_field(straight_wire, species, monkeypatch):
    # each profile has roughness_field's bits, from one straight-wire field;
    # each meandered wire takes its B_z alone
    z = np.linspace(-400e-6, 400e-6, 21)
    kw = dict(current=2.0, height=150e-6, z_values=z, species=species,
              n_width=4, n_thickness=1)
    deviations = (TriangleDeviation(20e-9, 800e-6), SinusoidDeviation(30e-9, 400e-6))
    alone = [repr(roughness_field(straight_wire, dev, **kw)) for dev in deviations]
    calls = {"field": 0, "_field_z": 0}
    for name in calls:
        def counted(self, *args, _name=name, _method=getattr(BiotSavartModel, name)):
            calls[_name] += 1
            return _method(self, *args)
        monkeypatch.setattr(BiotSavartModel, name, counted)
    assert [repr(p) for p in _roughness_profiles(straight_wire, deviations, **kw)] == alone
    assert calls == {"field": 1, "_field_z": 2}


def test_height_smoothing_monotone(species):
    # taller evaluation and shorter meander period both smooth delta_Bz
    wire = WireSegmentPath(name="w", channel="w",
                           nodes=((0.0, 0.0, -3e-3), (0.0, 0.0, 3e-3)),
                           width=5e-6, thickness=1e-6)
    z = np.linspace(-400e-6, 400e-6, 41)

    def max_ratio(height, period):
        prof = roughness_field(wire, SinusoidDeviation(20e-9, period),
                               current=2.0, height=height, z_values=z,
                               species=species, n_width=1, n_thickness=1)
        return max(abs(r) for r in prof.ratio_to_main)

    r_75_400 = max_ratio(75e-6, 400e-6)
    r_150_400 = max_ratio(150e-6, 400e-6)
    r_300_400 = max_ratio(300e-6, 400e-6)
    assert r_150_400 / r_75_400 > r_300_400 / r_150_400 * 0  # sanity of values
    assert r_75_400 > r_150_400 > r_300_400
    # shorter period smooths faster with height
    r_150_200 = max_ratio(150e-6, 200e-6)
    r_75_200 = max_ratio(75e-6, 200e-6)
    assert (r_150_200 / r_75_200) < (r_150_400 / r_75_400)


def test_delta_v_is_slope_times_delta_bz(straight_wire, species):
    # the trap bottom field lies along z, so the atoms feel slope * dB_z
    z = np.linspace(-400e-6, 400e-6, 41)
    prof = roughness_field(straight_wire, TriangleDeviation(20e-9, 800e-6),
                           current=2.0, height=150e-6, z_values=z,
                           species=species, n_width=4, n_thickness=1)
    assert max(abs(b) for b in prof.delta_Bz) > 0.0
    assert prof.delta_V == tuple((species.zeeman_slope * np.asarray(prof.delta_Bz)).tolist())


def esteve_delta_bz(wire, dev, current, height, z):
    """First-order dB_z of the meander a sin(kz + phi) of a straight wire
    along z, on the line ``height`` above its centreline.

    Esteve et al., PRA 70, 043629 (2004): an infinite filament at depth d
    and lateral offset x gives (mu0 I / 2 pi) a k^2 K1(k rho) (d / rho)
    cos(kz + phi), rho = hypot(x, d), averaged here over the cross-section
    by Gauss-Legendre quadrature.  The wire ends at |z| = L, so the centre
    filament's part beyond the ends, (mu0 I / 4 pi) a k d0 times the
    integral of cos(kz' + phi) / (d0^2 + (z - z')^2)^1.5 over |z'| > L, is
    subtracted.
    """
    k = 2.0 * np.pi / dev.period
    y_c = wire.nodes[0][1]
    half_length = max(abs(p[2]) for p in wire.nodes)
    gx, wx = np.polynomial.legendre.leggauss(16)
    gy, wy = np.polynomial.legendre.leggauss(4)
    d = height - (y_c + gy * wire.thickness / 2.0)
    rho = np.hypot((gx * wire.width / 2.0)[:, None], d[None, :])
    transfer = np.sum(np.outer(wx, wy) / 4.0 * special.k1(k * rho) * d / rho)
    scale = MU_0 * current / (2.0 * np.pi) * dev.amplitude * k
    infinite = scale * k * transfer * np.cos(k * z + dev.phase)

    d0 = height - y_c

    def beyond(c, psi):
        """Integral over v > 0 of cos(kv + psi) / (d0^2 + (c + v)^2)^1.5."""
        def g(v):
            return (d0 * d0 + (c + v) ** 2) ** -1.5
        return (np.cos(psi) * integrate.quad(g, 0.0, np.inf, weight="cos", wvar=k)[0]
                - np.sin(psi) * integrate.quad(g, 0.0, np.inf, weight="sin", wvar=k)[0])

    tails = np.array([beyond(half_length - zi, k * half_length + dev.phase)
                      + beyond(half_length + zi, k * half_length - dev.phase) for zi in z])
    return infinite - scale * d0 / 2.0 * tails


@pytest.mark.parametrize("period, height, amplitude, phase", [
    (200e-6, 100e-6, 50e-9, 0.7),
    (800e-6, 200e-6, 200e-9, 2.1),
])
def test_sinusoid_matches_esteve_transfer_function(species, period, height, amplitude, phase):
    # 0.17% of peak is the 5 um resampling of the 200 um sinusoid
    wire = roughness_test_wire()
    z = np.linspace(-400e-6, 400e-6, 81)
    dev = SinusoidDeviation(amplitude, period, phase)
    prof = roughness_field(wire, dev, current=2.0, height=height, z_values=z, species=species)
    oracle = esteve_delta_bz(wire, dev, 2.0, height, z)
    assert np.max(np.abs(np.asarray(prof.delta_Bz) - oracle)) <= 5e-3 * np.max(np.abs(oracle))


def test_rows_header(straight_wire, species):
    z = np.linspace(-100e-6, 100e-6, 11)
    prof = roughness_field(straight_wire, TriangleDeviation(20e-9, 800e-6),
                           current=2.0, height=150e-6, z_values=z,
                           species=species, n_width=2, n_thickness=1)
    assert prof.rows()[0] == "z_um,dBz_mG,dV_h_kHz,ratio"
    assert len(prof.rows()) == 12


def test_invalid_height_rejected(straight_wire, species):
    for height, z_values, match in [
        (0.0, [0.0], "height must be finite and > 0, got 0 m"),
        (np.nan, [0.0], "height must be finite and > 0, got nan m"),
        (np.inf, [0.0], "height must be finite and > 0, got inf m"),
        (150e-6, [], "z values must be finite, and at least one"),
        (150e-6, [0.0, np.nan], "z values must be finite, and at least one"),
        (150e-6, [np.inf], "z values must be finite, and at least one"),
    ]:
        with pytest.raises(ConfigError, match=match):
            roughness_field(straight_wire, None, current=2.0, height=height,
                            z_values=z_values, species=species)


# ---------------------------------------------------------------------------
# Boltzmann inversion
# ---------------------------------------------------------------------------

def test_boltzmann_uniform_density_zero_potential(species):
    z = np.linspace(-100e-6, 100e-6, 64)
    inv = invert_density_boltzmann(z, np.full_like(z, 3.0e6), 1.9e-6, species)
    assert max(abs(v) for v in inv.delta_V) == 0.0


def test_boltzmann_roundtrip_oracle(species):
    # forward model computed here, independent of the inversion under test
    z = np.linspace(-300e-6, 300e-6, 601)
    temperature = 1.9e-6
    v_true = (0.8 * np.sin(2 * np.pi * z / 170e-6) ** 2
              + 0.4 * np.cos(2 * np.pi * z / 90e-6)) * BOLTZMANN * temperature
    v_true -= v_true.min()
    n = np.exp(-v_true / (BOLTZMANN * temperature))
    inv = invert_density_boltzmann(z, n, temperature, species)
    kept = np.isin(z, np.asarray(inv.z))
    err = np.max(np.abs(np.asarray(inv.delta_V) - v_true[kept]))
    assert err / np.max(v_true[kept]) < 0.01


def test_boltzmann_e_dip_field_value(species):
    # a density dip of factor e at 1.9 uK: dBz = k_B T / mu_B = 28.29 mG
    z = np.linspace(-50e-6, 50e-6, 101)
    n = np.ones_like(z)
    n[40:60] = np.exp(-1.0)
    inv = invert_density_boltzmann(z, n, 1.9e-6, species)
    expected = BOLTZMANN * 1.9e-6 / BOHR_MAGNETON
    assert max(inv.delta_Bz) == pytest.approx(expected, rel=1e-9)
    assert expected == pytest.approx(28.29e-7, rel=1e-3)  # 28.29 mG in tesla


def test_boltzmann_floor_excludes_points(species):
    z = np.linspace(-50e-6, 50e-6, 101)
    n = np.ones_like(z)
    n[:10] = 1e-4  # below the 5% floor
    inv = invert_density_boltzmann(z, n, 1e-6, species)
    assert len(inv.z) == 91


def test_boltzmann_error_cases(species):
    z = np.linspace(0, 1e-4, 32)
    with pytest.raises(ChipError, match="zero"):
        invert_density_boltzmann(z, np.zeros_like(z), 1e-6, species)
    n = np.full_like(z, 1e-6)
    n[:3] = 1.0  # only 3 points survive the floor
    with pytest.raises(ChipError, match="narrow"):
        invert_density_boltzmann(z, n, 1e-6, species)


# ---------------------------------------------------------------------------
# Thomas-Fermi inversion
# ---------------------------------------------------------------------------

def test_tf_roundtrip_oracle(species):
    z = np.linspace(-200e-6, 200e-6, 801)
    mu = PLANCK * 3e3
    omega_perp = 2 * np.pi * 2000.0
    g = contact_interaction_constant(RB87_A, species.mass)
    omega_z = 2 * np.pi * 6.5
    v_true = 0.5 * species.mass * omega_z**2 * z**2 \
        + 0.04 * mu * np.sin(2 * np.pi * z / 120e-6) ** 2
    v_true -= v_true.min()
    # independent forward model
    n = np.pi * np.clip(mu - v_true, 0.0, None) ** 2 / (g * species.mass * omega_perp**2)
    inv = invert_density_thomas_fermi(z, n, g, omega_perp, species)
    keep = ~np.asarray(inv.clipped)
    err = np.max(np.abs(np.asarray(inv.V)[keep] - v_true[keep]))
    assert err / mu < 0.01
    assert inv.mu == pytest.approx(mu, rel=1e-6)


def test_tf_zero_density_clipped_and_flagged(species):
    z = np.linspace(-200e-6, 200e-6, 401)
    mu = PLANCK * 3e3
    omega_perp = 2 * np.pi * 2000.0
    g = contact_interaction_constant(RB87_A, species.mass)
    v = 0.5 * species.mass * (2 * np.pi * 6.5) ** 2 * z**2
    n = np.pi * np.clip(mu - v, 0.0, None) ** 2 / (g * species.mass * omega_perp**2)
    inv = invert_density_thomas_fermi(z, n, g, omega_perp, species)
    clipped = np.asarray(inv.clipped)
    V = np.asarray(inv.V)
    assert np.any(clipped)
    assert np.all(V[clipped] >= inv.mu * (1 - 1e-12))


def test_tf_atom_number_consistency(species):
    # ~1.5e4 atoms at mu = h x 3 kHz for chip-trap frequencies
    z = np.linspace(-200e-6, 200e-6, 2001)
    mu = PLANCK * 3e3
    omega_perp = 2 * np.pi * 2000.0
    omega_z = 2 * np.pi * 6.5
    g = contact_interaction_constant(RB87_A, species.mass)
    v = 0.5 * species.mass * omega_z**2 * z**2
    n = thomas_fermi_linear_density(v, mu, g, omega_perp, species.mass)
    total = np.trapezoid(n, z)
    assert total == pytest.approx(1.5e4, rel=0.2)


def test_tf_negative_density_rejected(species):
    g = contact_interaction_constant(RB87_A, species.mass)
    with pytest.raises(ChipError, match="negative"):
        invert_density_thomas_fermi([0.0, 1e-6], [1.0, -1.0], g, 1e4, species)


# ---------------------------------------------------------------------------
# harmonic background removal
# ---------------------------------------------------------------------------

def test_harmonic_removal_recovers_frequency(species):
    z = np.linspace(-250e-6, 250e-6, 501)
    omega_z = 2 * np.pi * 6.5
    v = 0.5 * species.mass * omega_z**2 * z**2 + 3.1e-31
    fit = remove_harmonic_background(z, v, species.mass)
    assert fit.positive_curvature
    assert fit.omega_z == pytest.approx(omega_z, rel=1e-3)
    assert np.max(np.abs(fit.residual)) < 1e-10 * np.max(v)


def test_harmonic_removal_extracts_sinusoid(species):
    # constructed input: an integer number of finely sampled periods keeps
    # the sinusoid near-orthogonal to the quadratic basis (leakage ~0.5%)
    z = np.linspace(-250e-6, 250e-6, 2000, endpoint=False)
    omega_z = 2 * np.pi * 6.5
    bump = 2e-31 * np.cos(2 * np.pi * z / 25e-6)
    v = 0.5 * species.mass * omega_z**2 * z**2 + bump
    fit = remove_harmonic_background(z, v, species.mass)
    assert np.max(np.abs(np.asarray(fit.residual) - bump)) / np.max(np.abs(bump)) < 0.01


def test_harmonic_removal_constant_input_flagged(species):
    z = np.linspace(-100e-6, 100e-6, 101)
    v = np.full_like(z, 5e-31)
    fit = remove_harmonic_background(z, v, species.mass)
    assert not fit.positive_curvature
    assert fit.omega_z == 0.0
    assert np.max(np.abs(fit.residual)) < 1e-12 * 5e-31 + 1e-45
