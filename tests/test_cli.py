import json
from pathlib import Path

import numpy as np
import pytest

from atomchip.cli import run
from atomchip.fringes import FringeModel, GaussianEnvelope, synthesize_fringes

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def read_json_output(capsys):
    return json.loads(capsys.readouterr().out)


def test_trap_subcommand_json(capsys):
    assert run(["trap", "--seed-point", "0,155,0", "--n-width", "4",
                "--n-thickness", "1"]) == 0
    doc = read_json_output(capsys)
    assert doc["manifest"]["command"] == "trap"
    assert 140.0 < doc["height_above_chip_um"] < 170.0
    assert len(doc["frequencies_Hz"]) == 3


def test_trap_with_shipped_config(capsys):
    assert run(["trap", "--config", str(CONFIGS / "paper_chip.json"),
                "--seed-point=-42.5,150,0", "--n-width", "4",
                "--n-thickness", "1"]) == 0
    doc = read_json_output(capsys)
    assert 140.0 < doc["height_above_chip_um"] < 165.0


def test_phase_stats_identical_phases(tmp_path, capsys):
    src = tmp_path / "phases.csv"
    src.write_text("phase_deg\n" + "\n".join(["37.5"] * 103) + "\n")
    assert run(["phase-stats", "--input", str(src)]) == 0
    doc = read_json_output(capsys)
    assert doc["circular_std_deg"] < 1e-5
    assert doc["n"] == 103
    assert doc["resultant_length"] == pytest.approx(1.0, abs=1e-9)


def test_phase_stats_histogram_file(tmp_path, capsys):
    src = tmp_path / "phases.csv"
    src.write_text("phase_deg\n10\n20\n-30\n")
    out = tmp_path / "out"
    assert run(["phase-stats", "--input", str(src), "--out", str(out)]) == 0
    hist = (out / "phase_histogram.csv").read_text().splitlines()
    assert hist[0].startswith("# manifest:")
    assert hist[1] == "bin_center_deg,count"
    counts = [int(line.split(",")[1]) for line in hist[2:]]
    assert sum(counts) == 3


def test_fringe_fit_roundtrip(tmp_path, capsys):
    x = np.linspace(-80e-6, 80e-6, 641)
    model = FringeModel(envelope=GaussianEnvelope(0.0, 25e-6, 2.0),
                        contrast=0.55, period=16e-6, phase=np.radians(25.0))
    n = synthesize_fringes(model, x)
    src = tmp_path / "profile.csv"
    rows = ["x_um,n_arb"] + [f"{xx * 1e6},{nn}" for xx, nn in zip(x, n)]
    src.write_text("\n".join(rows) + "\n")
    assert run(["fringe-fit", "--input", str(src)]) == 0
    doc = read_json_output(capsys)
    assert doc["contrast"] == pytest.approx(0.55, rel=1e-5)
    assert doc["period_um"] == pytest.approx(16.0, rel=1e-5)
    assert doc["phase_deg"] == pytest.approx(25.0, abs=1e-3)


def test_invert_density_boltzmann_roundtrip(tmp_path, capsys):
    from atomchip.constants import BOLTZMANN
    z = np.linspace(-200e-6, 200e-6, 201)
    t_k = 1.9e-6
    v = 0.4 * BOLTZMANN * t_k * np.sin(2 * np.pi * z / 120e-6) ** 2
    n = np.exp(-v / (BOLTZMANN * t_k)) * 5.0  # per metre
    src = tmp_path / "density.csv"
    rows = ["z_um,n_per_um"] + [f"{zz * 1e6},{nn * 1e-6}" for zz, nn in zip(z, n)]
    src.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    assert run(["invert-density", "--input", str(src), "--method", "boltzmann",
                "--temperature-uK", "1.9", "--out", str(out)]) == 0
    body = (out / "inversion.csv").read_text().splitlines()
    assert body[1] == "z_um,dBz_mG,dV_h_kHz,ratio"
    data = np.array([[float(c) for c in line.split(",")] for line in body[2:]])
    from atomchip.constants import PLANCK
    v_rec = data[:, 2] * PLANCK * 1e3
    assert np.max(np.abs(v_rec - v)) / np.max(v) < 0.01


def test_field_map_deterministic_and_manifested(tmp_path):
    # leading-minus range values need the --flag=value form
    args = ["field-map", "--x=-50:50:5", "--y", "120:220:5", "--z", "0:0:1",
            "--n-width", "2", "--n-thickness", "1"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2), "--threads", "3"]) == 0
    b1 = (out1 / "field_map.csv").read_bytes()
    b2 = (out2 / "field_map.csv").read_bytes()
    assert b1 == b2
    text = b1.decode()
    assert text.startswith("# manifest: command=field-map")
    assert "x_um,y_um,z_um,Bx_G,By_G,Bz_G,Bmag_G" in text.splitlines()[1]


def test_force_required_to_overwrite(tmp_path, capsys):
    args = ["field-map", "--x", "0:0:1", "--y", "150:150:1", "--z", "0:0:1",
            "--n-width", "1", "--n-thickness", "1", "--out", str(tmp_path)]
    assert run(args) == 0
    assert run(args) == 1  # refuses without --force
    err = capsys.readouterr().err
    assert "--force" in err
    assert run(args + ["--force"]) == 0


def test_output_directory_created(tmp_path):
    deep = tmp_path / "x" / "y" / "z"
    assert run(["field-map", "--x", "0:0:1", "--y", "150:150:1", "--z", "0:0:1",
                "--n-width", "1", "--n-thickness", "1", "--out", str(deep)]) == 0
    assert (deep / "field_map.csv").exists()


def test_usage_error_exit_code():
    assert run(["no-such-command"]) == 2
    assert run(["trap", "--bogus-flag", "1"]) == 2


@pytest.mark.parametrize("args", [
    ["trap", "--threads", "2"],
    ["split-scan", "--threads", "2"],
    ["roughness", "--threads", "2"],
    ["invert-density", "--input", "density.csv", "--n-width", "2"],
])
def test_options_a_command_ignores_are_usage_errors(args, tmp_path):
    # only field-map and reproduce-paper take --threads; invert-density
    # builds no wire model, so it takes no filament counts
    out = [] if args[0] == "trap" else ["--out", str(tmp_path)]
    assert run(args + out) == 2


def test_unknown_flag_suggestion(capsys):
    run(["trap", "--seed-poit", "0,150,0"])
    err = capsys.readouterr().err
    assert "--seed-point" in err  # did-you-mean suggestion


def test_domain_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"wires": []}')
    code = run(["trap", "--config", str(bad)])
    assert code == 1


def test_bad_config_parse_line_reported(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"wires": [,]}')
    assert run(["trap", "--config", str(bad)]) == 1
    assert "line" in capsys.readouterr().err


def test_thermal_runaway_reported(capsys):
    assert run(["thermal", "--current-A", "10.0"]) == 0
    doc = read_json_output(capsys)
    assert doc["runaway"] is True
    assert doc["dT_K"] is None


def test_thermal_nan_current_is_an_error(capsys):
    assert run(["thermal", "--current-A", "nan"]) == 1
    assert "current must be >= 0, got nan" in capsys.readouterr().err


def test_roughness_random_requires_seed(tmp_path, capsys):
    code = run(["roughness", "--kind", "random", "--out", str(tmp_path)])
    assert code == 1
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("corr_um", ["0", "-200"])
def test_roughness_random_bad_correlation_is_an_error(tmp_path, capsys, corr_um):
    code = run(["roughness", "--kind", "random", "--seed", "1", f"--corr-um={corr_um}",
                "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "correlation length" in err
    assert "Traceback" not in err
    assert not (tmp_path / "roughness.csv").exists()


@pytest.mark.parametrize("option, message", [
    ("--rms-nm=-20", "rms must be finite and >= 0, got -2e-08 m"),
    ("--corr-um=1e8", "profile span 0.0016 m, got 100 m"),
])
def test_roughness_random_negative_rms_or_long_correlation_is_an_error(
        tmp_path, capsys, option, message):
    code = run(["roughness", "--kind", "random", "--seed", "1", option, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "roughness.csv").exists()


def test_roughness_csv(tmp_path):
    assert run(["roughness", "--kind", "triangle", "--amplitude-nm", "20",
                "--period-um", "800", "--points", "21", "--z-half-um", "200",
                "--n-width", "2", "--n-thickness", "1",
                "--out", str(tmp_path)]) == 0
    body = (tmp_path / "roughness.csv").read_text().splitlines()
    assert body[1] == "z_um,dBz_mG,dV_h_kHz,ratio"
    assert len(body) == 23


def test_split_scan_requires_rf_config(tmp_path, capsys):
    code = run(["split-scan", "--out", str(tmp_path)])  # builtin has rf off
    assert code == 1
    assert "rf" in capsys.readouterr().err


def test_split_scan_with_shipped_config(tmp_path):
    assert run(["split-scan", "--config", str(CONFIGS / "paper_split_scan.json"),
                "--amp-min-mA", "14", "--amp-max-mA", "18", "--steps", "2",
                "--samples", "801", "--out", str(tmp_path)]) == 0
    body = (tmp_path / "split_scan.csv").read_text().splitlines()
    assert body[1] == "rf_amplitude_A,n_minima,separation_um,barrier_kHz,asymmetry_kHz"
    first = body[2].split(",")
    assert first[1] == "2"
    assert 3.0 < float(first[2]) < 5.0


@pytest.mark.parametrize("option, message", [
    ("--samples=0", "n_samples >= 5, got 0"),
    ("--samples=3", "n_samples >= 5, got 3"),
    ("--halfwidth-um=0", "halfwidth must be finite and > 0, got 0.0 m"),
    ("--halfwidth-um=nan", "halfwidth must be finite and > 0, got nan m"),
])
def test_split_scan_bad_slice_is_an_error(tmp_path, capsys, option, message):
    code = run(["split-scan", "--config", str(CONFIGS / "paper_split_scan.json"), option,
                "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "split_scan.csv").exists()


@pytest.mark.parametrize("options, message", [
    (["--steps", "0"], "--steps must be >= 1, got 0"),
    (["--steps", "-2"], "--steps must be >= 1, got -2"),
    (["--amp-min-mA", "10", "--amp-max-mA", "5"], "--amp-min-mA 10 exceeds --amp-max-mA 5"),
    (["--amp-min-mA", "-5"], "--amp-min-mA must be finite and >= 0, got -5"),
    (["--amp-max-mA", "inf"], "--amp-max-mA must be finite and >= 0, got inf"),
    (["--amp-min-mA", "nan"], "--amp-min-mA must be finite and >= 0, got nan"),
])
def test_split_scan_bad_ramp_is_an_error(tmp_path, capsys, options, message):
    with np.errstate(all="raise"):  # a numpy warning on the way would raise here
        code = run(["split-scan", "--config", str(CONFIGS / "paper_split_scan.json"), *options,
                    "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "split_scan.csv").exists()


@pytest.mark.parametrize("args", [["field-map", "--threads", "0"],
                                  ["field-map", "--threads", "-3"],
                                  ["reproduce-paper", "--seed", "1", "--threads", "0"]])
def test_threads_below_one_is_an_error(tmp_path, capsys, args):
    assert run(args + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: --threads must be >= 1, got {args[-1]}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("option, message", [
    ("--points=0", "--points must be >= 1, got 0"),
    ("--points=-3", "--points must be >= 1, got -3"),
    ("--z-half-um=0", "--z-half-um must be finite and > 0, got 0"),
    ("--z-half-um=-800", "--z-half-um must be finite and > 0, got -800"),
    ("--z-half-um=nan", "--z-half-um must be finite and > 0, got nan"),
    ("--height-um=nan", "evaluation height must be finite and > 0, got nan m"),
    ("--height-um=inf", "evaluation height must be finite and > 0, got inf m"),
    ("--period-um=0", "triangle deviation period must be finite and > 0, got 0 m"),
    ("--amplitude-nm=nan", "triangle deviation amplitude must be finite, got nan m"),
])
def test_roughness_bad_slice_or_deviation_is_an_error(tmp_path, capsys, option, message):
    with np.errstate(all="raise"):  # a numpy warning on the way would raise here
        code = run(["roughness", option, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "roughness.csv").exists()


@pytest.mark.parametrize("point", ["nan,150,0", "0,inf,0"])
def test_trap_non_finite_seed_is_an_error(capsys, point):
    assert run(["trap", f"--seed-point={point}"]) == 1
    assert capsys.readouterr().err.startswith("error: seed point must be finite")


def test_stalled_trap_search_names_its_last_point(capsys):
    # seeded 0.5 um above the chip, the search ends ~1 nm above z2's top face
    assert run(["trap", "--seed-point=-42.5,0.5,0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: search stalled at point (-42.500, 0.001, 0.000) um: ")
