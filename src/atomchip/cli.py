"""Command-line front end.

Subcommands: field-map, trap, split-scan, roughness, invert-density,
thermal, fringe-fit, phase-stats, reproduce-paper.  Exit status 0 on
success, 1 on domain errors, 2 on usage errors.  Stochastic subcommands
require an explicit --seed; outputs are byte-deterministic for a fixed
seed and config.
"""

from __future__ import annotations

import argparse
import difflib
import sys
from pathlib import Path

import numpy as np

from .constants import DEG, GAUSS, NM, UM
from .errors import ChipError, ConfigError, ThermalRunawayError
from .fields import (
    DEFAULT_N_THICKNESS, DEFAULT_N_WIDTH, BiotSavartModel, GridSpec, field_map,
    field_map_csv_rows,
)
from .fringes import fit_modulated_gaussian, phase_statistics
from .geometry import builtin_paper_layout, load_layout_file
from .manifest import RunManifest, csv_document, json_document, write_output
from .reproduction import run_all_checks, summary_csv_rows, summary_markdown
from .rf import RfDriveState, split_scan
from .roughness import (
    RandomDeviation, SinusoidDeviation, TriangleDeviation,
    contact_interaction_constant, invert_density_boltzmann,
    invert_density_thomas_fermi, profile_csv_rows, remove_harmonic_background,
    roughness_field,
)
from .thermal import (
    paper_calibrated_network, paper_wire, resistance_monitor, steady_temperature,
)
from .trap import characterize_trap, magnetic_potential

_ALL_OPTIONS: set[str] = set()


class _Parser(argparse.ArgumentParser):
    """argparse with close-match suggestions for unknown flags."""

    def error(self, message: str) -> None:  # noqa: D401 - argparse contract
        if "unrecognized arguments:" in message:
            unknown = message.split("unrecognized arguments:")[1].split()
            for flag in unknown:
                if flag.startswith("-"):
                    close = difflib.get_close_matches(flag, sorted(_ALL_OPTIONS), n=1)
                    if close:
                        message += f" (did you mean {close[0]}?)"
                        break
        self.print_usage(sys.stderr)
        self.exit(2, f"{self.prog}: error: {message}\n")


def _add(parser, *args, **kwargs):
    action = parser.add_argument(*args, **kwargs)
    _ALL_OPTIONS.update(a for a in action.option_strings)
    return action


def _load_config(path: str | None):
    if path is None or path == "builtin":
        layout, currents, species = builtin_paper_layout()
        return layout, currents, species, "builtin"
    layout, currents, species = load_layout_file(path)
    return layout, currents, species, str(path)


def _parse_axis_um(spec: str, name: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--{name}: expected MIN:MAX:COUNT in um, got {spec!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"--{name}: {exc}") from exc
    if count < 1:
        raise ConfigError(f"--{name}: COUNT must be >= 1")
    return np.linspace(lo * UM, hi * UM, count)


def _parse_point_um(spec: str) -> tuple[float, float, float]:
    parts = spec.split(",")
    if len(parts) != 3:
        raise ConfigError(f"--seed-point: expected X,Y,Z in um, got {spec!r}")
    try:
        return tuple(float(p) * UM for p in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise ConfigError(f"--seed-point: {exc}") from exc


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {threads}")


def _read_csv_columns(path: str, columns: list[str]) -> list[np.ndarray]:
    """Two-column numeric CSV with a header row; '#' lines are comments."""
    rows = []
    header = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if header is None:
                    header = [c.strip() for c in line.split(",")]
                    continue
                rows.append([float(c) for c in line.split(",")])
    except OSError as exc:
        raise ChipError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if header is None:
        raise ConfigError(f"{path}: empty input")
    missing = [c for c in columns if c not in header]
    if missing:
        raise ConfigError(f"{path}: missing column(s) {', '.join(missing)} "
                          f"(header is {','.join(header)})")
    data = np.asarray(rows, dtype=float)
    if data.size == 0:
        raise ConfigError(f"{path}: no data rows")
    return [data[:, header.index(c)] for c in columns]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_field_map(ns) -> int:
    _check_threads(ns.threads)
    layout, currents, _, label = _load_config(ns.config)
    model = BiotSavartModel(layout, ns.n_width, ns.n_thickness)
    grid = GridSpec.from_ranges(
        _parse_axis_um(ns.x, "x"), _parse_axis_um(ns.y, "y"), _parse_axis_um(ns.z, "z")
    )
    B, _ = field_map(model, currents, grid, threads=ns.threads)
    manifest = RunManifest.create(
        "field-map", config=label,
        overrides={"x": ns.x, "y": ns.y, "z": ns.z,
                   "n_width": ns.n_width, "n_thickness": ns.n_thickness},
    )
    out = Path(ns.out) / "field_map.csv"
    write_output(out, csv_document(manifest, field_map_csv_rows(grid.points(), B)), ns.force)
    print(f"wrote {out} ({len(B)} samples)")
    return 0


def _trap_payload(tc) -> dict:
    return {
        "minimum_um": [c / UM for c in tc.minimum],
        "bottom_field_G": tc.bottom_field / GAUSS,
        "height_above_chip_um": tc.height_above_chip / UM,
        "frequencies_Hz": list(tc.frequencies) if tc.frequencies else None,
        "axes": [list(a) for a in tc.axes] if tc.axes else None,
        "depth_J": tc.depth,
        "depth_G": tc.depth_equivalent_gauss,
        "depth_is_lower_bound": tc.depth_is_lower_bound,
        "gradient_norm_J_per_m": tc.grad_norm,
    }


def _cmd_trap(ns) -> int:
    layout, currents, species, label = _load_config(ns.config)
    model = BiotSavartModel(layout, ns.n_width, ns.n_thickness)
    pdef = magnetic_potential(model, currents, species, gravity=ns.gravity)
    tc = characterize_trap(pdef, _parse_point_um(ns.seed_point))
    manifest = RunManifest.create(
        "trap", config=label,
        overrides={"seed_point": ns.seed_point, "gravity": ns.gravity},
    )
    doc = json_document(manifest, _trap_payload(tc))
    if ns.out:
        out = Path(ns.out) / "trap.json"
        write_output(out, doc, ns.force)
        print(f"wrote {out}")
    else:
        sys.stdout.write(doc)
    return 0


def _cmd_split_scan(ns) -> int:
    layout, currents, species, label = _load_config(ns.config)
    if not currents.rf:
        raise ConfigError("config has no rf channels; split-scan needs an rf section")
    if ns.steps < 1:
        raise ConfigError(f"--steps must be >= 1, got {ns.steps}")
    for name, value in (("--amp-min-mA", ns.amp_min_ma), ("--amp-max-mA", ns.amp_max_ma)):
        if not 0.0 <= value < np.inf:
            raise ConfigError(f"{name} must be finite and >= 0, got {value:g}")
    if ns.amp_min_ma > ns.amp_max_ma:
        raise ConfigError(f"--amp-min-mA {ns.amp_min_ma:g} exceeds --amp-max-mA {ns.amp_max_ma:g}")
    model = BiotSavartModel(layout, ns.n_width, ns.n_thickness)
    drive = RfDriveState.from_current_config(currents)
    amplitudes = np.linspace(ns.amp_min_ma * 1e-3, ns.amp_max_ma * 1e-3, ns.steps)
    direction = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}[ns.direction]
    result = split_scan(
        model, currents, species, drive, amplitudes, direction=direction,
        seed_point=_parse_point_um(ns.seed_point),
        halfwidth=ns.halfwidth_um * UM, n_samples=ns.samples,
    )
    manifest = RunManifest.create(
        "split-scan", config=label,
        overrides={"amp_min_mA": ns.amp_min_ma, "amp_max_mA": ns.amp_max_ma,
                   "steps": ns.steps, "direction": ns.direction,
                   "halfwidth_um": ns.halfwidth_um, "samples": ns.samples},
    )
    out = Path(ns.out) / "split_scan.csv"
    write_output(out, csv_document(manifest, result.rows()), ns.force)
    critical = ("none" if result.critical_amplitude is None
                else f"{result.critical_amplitude * 1e3:.9g} mA")
    print(f"wrote {out} (critical amplitude: {critical})")
    return 0


def _build_deviation(ns, z_half: float):
    if ns.kind == "triangle":
        return TriangleDeviation(amplitude=ns.amplitude_nm * NM, period=ns.period_um * UM)
    if ns.kind == "sinusoid":
        return SinusoidDeviation(amplitude=ns.amplitude_nm * NM, period=ns.period_um * UM)
    if ns.seed is None:
        raise ConfigError("random deviation requires --seed")
    return RandomDeviation(
        rms=ns.rms_nm * NM, correlation_length=ns.corr_um * UM, seed=ns.seed,
        z_min=-z_half, z_max=z_half,
    )


def _cmd_roughness(ns) -> int:
    layout, currents, species, label = _load_config(ns.config)
    wire = layout.wire(ns.wire)
    current = ns.current_a if ns.current_a is not None else currents.dc_current(wire.channel)
    if current == 0.0:
        raise ConfigError(
            f"channel {wire.channel!r} carries no current; pass --current-A"
        )
    if ns.points < 1:
        raise ConfigError(f"--points must be >= 1, got {ns.points}")
    if not 0.0 < ns.z_half_um < np.inf:
        raise ConfigError(f"--z-half-um must be finite and > 0, got {ns.z_half_um:g}")
    z_half = ns.z_half_um * UM
    deviation = _build_deviation(ns, z_half)
    z = np.linspace(-z_half, z_half, ns.points)
    profile = roughness_field(
        wire, deviation, current=current, height=ns.height_um * UM,
        z_values=z, species=species,
        n_width=ns.n_width, n_thickness=ns.n_thickness,
    )
    manifest = RunManifest.create(
        "roughness", config=label, seed=ns.seed,
        overrides={"wire": ns.wire, "kind": ns.kind, "amplitude_nm": ns.amplitude_nm,
                   "period_um": ns.period_um, "rms_nm": ns.rms_nm,
                   "corr_um": ns.corr_um, "height_um": ns.height_um,
                   "current_A": current, "z_half_um": ns.z_half_um,
                   "points": ns.points},
    )
    out = Path(ns.out) / "roughness.csv"
    write_output(out, csv_document(manifest, profile.rows()), ns.force)
    ratio = max(abs(r) for r in profile.ratio_to_main)
    print(f"wrote {out} (max |dBz/B| = {ratio:.3e})")
    return 0


def _cmd_invert_density(ns) -> int:
    _, _, species, _ = _load_config(ns.config)
    z_um, n_per_um = _read_csv_columns(ns.input, ["z_um", "n_per_um"])
    z = z_um * UM
    n = n_per_um / UM
    main_field = ns.main_field_g * GAUSS if ns.main_field_g is not None else None

    if ns.method == "boltzmann":
        if ns.temperature_uk is None:
            raise ConfigError("--method boltzmann requires --temperature-uK")
        inv = invert_density_boltzmann(z, n, ns.temperature_uk * 1e-6, species)
        z_out = np.asarray(inv.z)
        dv = np.asarray(inv.delta_V)
        dbz = np.asarray(inv.delta_Bz)
    else:
        if ns.f_perp_hz is None:
            raise ConfigError("--method thomas-fermi requires --f-perp-Hz")
        g_int = contact_interaction_constant(ns.scattering_length_nm * NM, species.mass)
        tf = invert_density_thomas_fermi(
            z, n, g_int, 2.0 * np.pi * ns.f_perp_hz, species
        )
        z_out = np.asarray(tf.z)
        dv = np.asarray(tf.V)
        dbz = dv / species.zeeman_slope

    omega_line = ""
    if ns.remove_harmonic:
        fit = remove_harmonic_background(z_out, dv, species.mass)
        dv = np.asarray(fit.residual)
        dbz = dv / species.zeeman_slope
        omega_line = (f" (removed harmonic background: "
                      f"f_z = {fit.omega_z / (2 * np.pi):.6g} Hz)")

    ratio = dbz / main_field if main_field else np.full(len(dbz), np.nan)
    rows = profile_csv_rows(z_out / UM, dbz, dv, ratio)
    manifest = RunManifest.create(
        "invert-density", config=ns.input,
        overrides={"method": ns.method, "temperature_uK": ns.temperature_uk,
                   "f_perp_Hz": ns.f_perp_hz,
                   "scattering_length_nm": ns.scattering_length_nm,
                   "remove_harmonic": ns.remove_harmonic},
    )
    out = Path(ns.out) / "inversion.csv"
    write_output(out, csv_document(manifest, rows), ns.force)
    print(f"wrote {out}{omega_line}")
    return 0


def _cmd_thermal(ns) -> int:
    wire = paper_wire(width=ns.width_um * UM, thickness=ns.thickness_um * UM,
                      length=ns.length_mm * 1e-3)
    network = paper_calibrated_network()
    area = wire.cross_section_area
    payload = {
        "wire": {"width_um": ns.width_um, "thickness_um": ns.thickness_um,
                 "length_mm": ns.length_mm},
        "I_A": ns.current_a,
        "J_A_per_m2": ns.current_a / area,
    }
    try:
        dt = steady_temperature(wire, ns.current_a, network)
        payload.update({
            "dT_K": dt,
            "resistance_rise": resistance_monitor(wire, network, ns.current_a),
            "runaway": False,
        })
    except ThermalRunawayError:
        payload.update({"dT_K": None, "resistance_rise": None, "runaway": True})
    manifest = RunManifest.create(
        "thermal",
        overrides={"width_um": ns.width_um, "thickness_um": ns.thickness_um,
                   "length_mm": ns.length_mm, "current_A": ns.current_a},
    )
    doc = json_document(manifest, payload)
    if ns.out:
        out = Path(ns.out) / "thermal.json"
        write_output(out, doc, ns.force)
        print(f"wrote {out}")
    else:
        sys.stdout.write(doc)
    return 0


def _cmd_fringe_fit(ns) -> int:
    x_um, n_arb = _read_csv_columns(ns.input, ["x_um", "n_arb"])
    fit = fit_modulated_gaussian(x_um * UM, n_arb)
    payload = {
        "envelope": {"center_um": fit.envelope.center / UM,
                     "sigma_um": fit.envelope.sigma / UM,
                     "amplitude": fit.envelope.amplitude},
        "contrast": fit.contrast,
        "period_um": fit.period / UM,
        "phase_deg": fit.phase / DEG,
        "residual_norm": fit.residual_norm,
        "converged": fit.converged,
        "contrast_pinned": fit.contrast_pinned,
    }
    manifest = RunManifest.create("fringe-fit", config=ns.input)
    doc = json_document(manifest, payload)
    if ns.out:
        out = Path(ns.out) / "fringe_fit.json"
        write_output(out, doc, ns.force)
        print(f"wrote {out}")
    else:
        sys.stdout.write(doc)
    return 0


def _cmd_phase_stats(ns) -> int:
    (phase_deg,) = _read_csv_columns(ns.input, ["phase_deg"])
    stats = phase_statistics(np.radians(phase_deg), bin_width_deg=ns.bins_deg)
    payload = {
        "n": len(stats.phases),
        "circular_mean_deg": stats.circular_mean / DEG,
        "circular_std_deg": stats.circular_std / DEG,
        "angular_deviation_deg": stats.angular_deviation / DEG,
        "resultant_length": stats.resultant_length,
        "linear_std_deg": stats.linear_std / DEG,
        "uniform_suspect": stats.uniform_suspect,
    }
    manifest = RunManifest.create(
        "phase-stats", config=ns.input, overrides={"bins_deg": ns.bins_deg}
    )
    doc = json_document(manifest, payload)
    sys.stdout.write(doc)
    if ns.out:
        write_output(Path(ns.out) / "phase_stats.json", doc, ns.force)
        edges = stats.histogram_bin_edges_deg
        rows = ["bin_center_deg,count"]
        for k, count in enumerate(stats.histogram_counts):
            center = 0.5 * (edges[k] + edges[k + 1])
            rows.append(f"{center:.9g},{count}")
        hist = Path(ns.out) / "phase_histogram.csv"
        write_output(hist, csv_document(manifest, rows), ns.force)
        print(f"wrote {ns.out}/phase_stats.json and {hist}")
    return 0


def _cmd_reproduce_paper(ns) -> int:
    _check_threads(ns.threads)
    rows = run_all_checks(ns.seed, threads=ns.threads)
    manifest = RunManifest.create("reproduce-paper", seed=ns.seed)
    out_dir = Path(ns.out)
    write_output(out_dir / "summary.csv",
                 csv_document(manifest, summary_csv_rows(rows)), ns.force)
    write_output(out_dir / "summary.md",
                 "\n".join(manifest.header_lines()) + "\n" + summary_markdown(rows),
                 ns.force)
    n_pass = sum(r.passed for r in rows)
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name}: {r.computed:.6g} {r.unit} (target {r.target})")
    print(f"{n_pass}/{len(rows)} checks passed; wrote {out_dir}/summary.csv")
    return 0 if n_pass == len(rows) else 1


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="atomchip",
        description="Atom-chip microtrap simulator and BEC interferometry analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True, filaments=True):
        _add(p, "--config", default=None,
             help="config JSON path, or 'builtin' for the six-wire chip (default)")
        _add(p, "--out", required=out_required, default=None, help="output directory")
        _add(p, "--force", action="store_true", help="overwrite existing outputs")
        if filaments:
            _add(p, "--n-width", type=int, default=DEFAULT_N_WIDTH,
                 help="filaments across the width")
            _add(p, "--n-thickness", type=int, default=DEFAULT_N_THICKNESS,
                 help="filaments across the thickness")

    p = sub.add_parser("field-map", help="field over a lattice -> CSV")
    common(p)
    _add(p, "--threads", type=int, default=1, help="worker cap (results identical)")
    _add(p, "--x", default="-500:500:101", help="x range um MIN:MAX:COUNT")
    _add(p, "--y", default="30:1030:101", help="y range um MIN:MAX:COUNT")
    _add(p, "--z", default="0:0:1", help="z range um MIN:MAX:COUNT")
    p.set_defaults(func=_cmd_field_map)

    p = sub.add_parser("trap", help="locate and characterize the trap -> JSON")
    common(p, out_required=False)
    _add(p, "--seed-point", default="0,150,0", help="search seed, um X,Y,Z")
    _add(p, "--gravity", action="store_true", help="include the -m g.r term")
    p.set_defaults(func=_cmd_trap)

    p = sub.add_parser("split-scan", help="rf amplitude ramp -> double-well CSV")
    common(p)
    _add(p, "--amp-min-mA", dest="amp_min_ma", type=float, default=1.0)
    _add(p, "--amp-max-mA", dest="amp_max_ma", type=float, default=30.0)
    _add(p, "--steps", type=int, default=15)
    _add(p, "--direction", choices=("x", "y", "z"), default="x")
    _add(p, "--halfwidth-um", dest="halfwidth_um", type=float, default=12.0)
    _add(p, "--samples", type=int, default=1201)
    _add(p, "--seed-point", default="0,110,0", help="static trap seed, um X,Y,Z")
    p.set_defaults(func=_cmd_split_scan)

    p = sub.add_parser("roughness", help="wire meander -> dBz(z) CSV")
    common(p)
    _add(p, "--wire", default="z2", help="wire name in the layout")
    _add(p, "--kind", choices=("triangle", "sinusoid", "random"), default="triangle")
    _add(p, "--amplitude-nm", dest="amplitude_nm", type=float, default=20.0)
    _add(p, "--period-um", dest="period_um", type=float, default=800.0)
    _add(p, "--rms-nm", dest="rms_nm", type=float, default=20.0)
    _add(p, "--corr-um", dest="corr_um", type=float, default=200.0)
    _add(p, "--seed", type=int, default=None, help="required for --kind random")
    _add(p, "--current-A", dest="current_a", type=float, default=None,
         help="override the config's channel current")
    _add(p, "--height-um", dest="height_um", type=float, default=150.0)
    _add(p, "--z-half-um", dest="z_half_um", type=float, default=800.0)
    _add(p, "--points", type=int, default=161)
    p.set_defaults(func=_cmd_roughness)

    p = sub.add_parser("invert-density", help="density profile -> potential CSV")
    common(p, filaments=False)
    _add(p, "--input", required=True, help="CSV with columns z_um,n_per_um")
    _add(p, "--method", choices=("boltzmann", "thomas-fermi"), default="boltzmann")
    _add(p, "--temperature-uK", dest="temperature_uk", type=float, default=None)
    _add(p, "--f-perp-Hz", dest="f_perp_hz", type=float, default=None)
    _add(p, "--scattering-length-nm", dest="scattering_length_nm", type=float,
         default=5.29)
    _add(p, "--main-field-G", dest="main_field_g", type=float, default=None,
         help="reference field for the ratio column")
    _add(p, "--remove-harmonic", action="store_true",
         help="subtract the quadratic background before writing")
    p.set_defaults(func=_cmd_invert_density)

    p = sub.add_parser("thermal", help="wire heating at a current -> JSON")
    _add(p, "--out", default=None)
    _add(p, "--force", action="store_true")
    _add(p, "--width-um", dest="width_um", type=float, default=50.0)
    _add(p, "--thickness-um", dest="thickness_um", type=float, default=3.0)
    _add(p, "--length-mm", dest="length_mm", type=float, default=11.0)
    _add(p, "--current-A", dest="current_a", type=float, required=True)
    p.set_defaults(func=_cmd_thermal)

    p = sub.add_parser("fringe-fit", help="fit a modulated gaussian -> JSON")
    _add(p, "--input", required=True, help="CSV with columns x_um,n_arb")
    _add(p, "--out", default=None)
    _add(p, "--force", action="store_true")
    p.set_defaults(func=_cmd_fringe_fit)

    p = sub.add_parser("phase-stats", help="circular statistics of phases -> JSON")
    _add(p, "--input", required=True, help="CSV with column phase_deg")
    _add(p, "--bins-deg", dest="bins_deg", type=float, default=15.0)
    _add(p, "--out", default=None)
    _add(p, "--force", action="store_true")
    p.set_defaults(func=_cmd_phase_stats)

    p = sub.add_parser("reproduce-paper",
                       help="run the quantitative reproduction table")
    _add(p, "--out", required=True)
    _add(p, "--force", action="store_true")
    _add(p, "--seed", type=int, required=True)
    _add(p, "--threads", type=int, default=1)
    p.set_defaults(func=_cmd_reproduce_paper)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return ns.func(ns)
    except ChipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
