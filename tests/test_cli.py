"""End-to-end CLI runs: exit codes, file outputs, determinism."""

import dataclasses
import itertools
import json
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from twinfringes import (
    CorrelationModel,
    ParaxialWarning,
    __version__,
    config_to_dict,
    derive_constants,
    estimate_equivalent_wavelength,
    fringe_radius,
    infer_lambda_a,
    parse_config,
    read_pgm,
    read_profile_csv,
    ring_law_lambda_eq,
    visibility_closed_form,
    visibility_hwhms,
)
from twinfringes import analytics, state
from twinfringes.cli import (
    _SUFFIXES, build_parser, main, run_invert, run_oracle_check, run_simulate,
)

from conftest import make_config, mp_partial

PARTIAL = """\
lambda_a_nm = 1550
lambda_b_nm = 810
lambda_p_nm = 532
d_a_mm = 11.7
f0_mm = 150
sigma_b = 2.36e-2
sigma_theta = 9.37e-4
model = gaussian_partial
"""

MAXIMAL = PARTIAL.replace("sigma_theta = 9.37e-4\n", "").replace(
    "gaussian_partial", "maximal"
)
UNCORRELATED = PARTIAL.replace("sigma_theta = 9.37e-4\n", "").replace(
    "gaussian_partial", "uncorrelated"
)


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "partial.cfg"
    path.write_text(PARTIAL)
    return str(path)


def _cfg(tmp_path, text, name):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_simulate_writes_image_profile_manifest(tmp_path, cfg_file):
    out = tmp_path / "run"
    code = main(
        ["simulate", "--config", cfg_file, "--out", str(out),
         "--screen-mm", "1.5", "--resolution", "96"]
    )
    assert code == 0
    assert (tmp_path / "run.pgm").exists()
    assert (tmp_path / "run.csv").exists()
    manifest = json.loads((tmp_path / "run.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["config"]["correlation_model"] == "gaussian_partial"
    assert len(manifest["outputs"]) == 2
    assert manifest["duration_s"] >= 0.0


def test_simulate_is_deterministic(tmp_path, cfg_file):
    args = ["simulate", "--config", cfg_file, "--screen-mm", "1.0", "--resolution", "64"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("model", list(CorrelationModel), ids=lambda m: m.value)
def test_simulate_peaks_below_one_full_float_image(tmp_path, model):
    # the frame is rendered, stored and quantised as one quadrant, and
    # written out in mirrored row blocks
    cfg, resolution = make_config(model), 1024
    outputs = (tmp_path / "image.pgm", tmp_path / "profile.csv")
    run_simulate(cfg, 3.0, resolution, 0.4, *outputs)
    tracemalloc.start()
    try:
        run_simulate(cfg, 3.0, resolution, 0.4, *outputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < resolution * resolution * np.dtype(float).itemsize


@pytest.mark.parametrize("text", [PARTIAL, MAXIMAL, UNCORRELATED])
def test_simulate_takes_its_profile_from_render_pattern(tmp_path, monkeypatch, text):
    cfg = _cfg(tmp_path, text, "run.cfg")
    args = ["simulate", "--config", cfg, "--resolution", "65", "--phi0", "0.4"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0

    def refuse(*args):
        raise AssertionError("simulate evaluated the closed form a second time")

    monkeypatch.setattr(analytics, "radial_profile", refuse)
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for suffix in (".pgm", ".csv"):
        assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()


def test_simulate_requires_out(cfg_file):
    assert main(["simulate", "--config", cfg_file]) == 1


def test_unknown_flag_is_usage_error(cfg_file):
    assert main(["simulate", "--config", cfg_file, "--nope"]) == 1


def test_missing_config_is_io_error(tmp_path):
    absent = str(tmp_path / "absent.cfg")
    assert main(["simulate", "--config", absent, "--out", str(tmp_path / "x")]) == 3


def test_bad_resolution_is_usage_error(tmp_path, cfg_file):
    code = main(
        ["simulate", "--config", cfg_file, "--out", str(tmp_path / "x"), "--resolution", "8"]
    )
    assert code == 1


def test_visibility_sigma_scan(tmp_path, cfg_file):
    out = tmp_path / "scan"
    code = main(
        ["visibility", "--config", cfg_file, "--out", str(out),
         "--sigma-list", "0,9.37e-4,1.99e-3"]
    )
    assert code == 0
    lines = (tmp_path / "scan.csv").read_text().splitlines()
    assert lines[0] == "sigma_theta,v0,hwhm_m"
    rows = [line.split(",") for line in lines[1:]]
    # perfect correlation: v0 = 1 and no half point, so a blank hwhm field
    assert float(rows[0][1]) == 1.0
    assert rows[0][2] == ""
    assert float(rows[1][1]) == pytest.approx(0.996118297317, rel=1e-10, abs=0)
    assert float(rows[1][2]) == pytest.approx(9.5023261e-4, rel=1e-7, abs=0)
    assert float(rows[2][1]) == pytest.approx(0.928929436300, rel=1e-10, abs=0)
    assert float(rows[2][2]) == pytest.approx(4.87081099408e-4, rel=1e-10, abs=0)
    # both columns shrink as the correlation weakens
    assert float(rows[2][1]) < float(rows[1][1])
    assert float(rows[2][2]) < float(rows[1][2])


def test_single_source_sigma_scan_has_no_half_point(tmp_path):
    # one dark source: v0 = 0 at every width, so no HWHM either
    cfg = _cfg(tmp_path, PARTIAL + "alpha1_mag = 1\nalpha2_mag = 0\n", "single.cfg")
    out = tmp_path / "scan"
    argv = ["visibility", "--config", cfg, "--out", str(out), "--sigma-list", "5e-4,9.37e-4,0"]
    assert main(argv) == 0
    assert (tmp_path / "scan.csv").read_text().splitlines() == [
        "sigma_theta,v0,hwhm_m",
        "5.00000000000e-04,0.00000000000e+00,",
        "9.37000000000e-04,0.00000000000e+00,",
        "0.00000000000e+00,0.00000000000e+00,",
    ]


def test_visibility_sigma_scan_evaluates_all_widths_together(tmp_path, cfg_file, monkeypatch):
    # every crossing lies in the first march block: one march call and
    # at most two Newton rounds for the whole list, not two calls per width
    calls = []
    dm2 = analytics.dm2_pair_scaled
    monkeypatch.setattr(
        analytics, "dm2_pair_scaled", lambda *a: calls.append(np.shape(a[0])) or dm2(*a)
    )
    widths = "3e-4,5e-4,7e-4,9.37e-4,1.2e-3,1.5e-3,2e-3,2.5e-3,3e-3,0"
    out = tmp_path / "scan"
    argv = ["visibility", "--config", cfg_file, "--out", str(out), "--sigma-list", widths]
    assert main(argv) == 0
    assert calls[0] == (9, 65)
    assert len(calls) <= 3


def test_visibility_rho_scan(tmp_path, cfg_file):
    out = tmp_path / "rho"
    code = main(
        ["visibility", "--config", cfg_file, "--out", str(out), "--rho-mm-list", "0,0.6,1.5"]
    )
    assert code == 0
    lines = (tmp_path / "rho.csv").read_text().splitlines()
    assert lines[0] == "rho_m,visibility"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values[0] == pytest.approx(0.996118297317, rel=1e-10, abs=0)
    assert values[1] == pytest.approx(0.772281240225, rel=1e-10, abs=0)
    assert values[2] == pytest.approx(0.0718633085399, rel=1e-10, abs=0)


def test_visibility_rho_scan_rows_match_scalar_evaluations(tmp_path, cfg_file):
    # the whole list is one array call; every row is the scalar result
    radii_mm = [0.0, 1e-9, 0.05, 0.3, 0.6, 0.777, 0.9, 1.276, 1.5, 2.0, 2.5, 3.0, 7.5, 20.0]
    out = tmp_path / "rho"
    code = main(["visibility", "--config", cfg_file, "--out", str(out),
                 "--rho-mm-list", ",".join(map(repr, radii_mm))])
    assert code == 0
    cfg = parse_config(cfg_file)
    want = ["rho_m,visibility"] + [
        f"{r * 1e-3:.11e},{visibility_closed_form(r * 1e-3, cfg):.11e}" for r in radii_mm
    ]
    assert (tmp_path / "rho.csv").read_text().splitlines() == want


@pytest.mark.parametrize("text,name", [
    (PARTIAL, "partial.cfg"),
    (MAXIMAL + "sigma_theta = 9.37e-4\n", "maximal.cfg"),
    (UNCORRELATED + "sigma_theta = 9.37e-4\n", "uncorrelated.cfg"),
], ids=["partial", "maximal", "uncorrelated"])
def test_visibility_rho_scan_matches_simulate_column(tmp_path, text, name):
    # the rho-list rows are the visibility column simulate writes, under
    # every model, even where the config also sets sigma_theta
    cfg = _cfg(tmp_path, text, name)
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(sim),
                 "--screen-mm", "6", "--resolution", "64"]) == 0
    rows = [line.split(",") for line in (tmp_path / "sim.csv").read_text().splitlines()[1:]]
    radii_mm = [float(rho) * 1e3 for rho, _, _ in rows]
    out = tmp_path / "rho"
    assert main(["visibility", "--config", cfg, "--out", str(out),
                 "--rho-mm-list", ",".join(map(repr, radii_mm))]) == 0
    scan = [line.split(",") for line in (tmp_path / "rho.csv").read_text().splitlines()[1:]]
    assert len(scan) == len(rows)
    for (_, _, want), (_, got) in zip(rows, scan):
        # a radius read back from 12 printed digits may move the last digit
        assert float(got) == pytest.approx(float(want), rel=0.0, abs=1e-11)
    if name != "partial.cfg":
        assert [got for _, got in scan] == [want for _, _, want in rows]


def test_consecutive_main_calls_share_no_state(capsys, tmp_path, cfg_file):
    # the parser is built once per process; each call starts from its defaults
    first, second, third = tmp_path / "first", tmp_path / "second", tmp_path / "third"
    assert main(["simulate", "--config", cfg_file, "--out", str(first), "--resolution", "64",
                 "--screen-mm", "1.5", "--phi0", "0.4"]) == 0
    assert main(["simulate", "--config", cfg_file, "--out", str(second)]) == 0
    assert main(["invert", "--config", cfg_file, "--out", str(third),
                 "--v0", "0.9", "--rho1-mm", "nan"]) == 1
    capsys.readouterr()
    assert main(["invert", "--config", cfg_file, "--v0", "0.9"]) == 0
    cfg = parse_config(cfg_file)
    assert capsys.readouterr().out == run_invert(cfg, 0.9)
    assert read_pgm(tmp_path / "first.pgm")[0].shape == (64, 64)
    assert read_pgm(tmp_path / "second.pgm")[0].shape == (600, 600)
    run_simulate(cfg, 3.0, 600, 0.0, tmp_path / "ref.pgm", tmp_path / "ref.csv")
    assert (tmp_path / "second.pgm").read_bytes() == (tmp_path / "ref.pgm").read_bytes()
    assert (tmp_path / "second.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert not list(tmp_path.glob("third*"))
    assert build_parser() is build_parser()


@pytest.mark.parametrize("rho_list", ["-1,1", "0.5,-1e-9"])
def test_visibility_rejects_negative_radius(capsys, tmp_path, cfg_file, rho_list):
    out = tmp_path / "rho"
    code = main(
        ["visibility", "--config", cfg_file, "--out", str(out), f"--rho-mm-list={rho_list}"]
    )
    assert code == 1
    assert "nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "rho.csv").exists()
    assert not (tmp_path / "rho.manifest.json").exists()


def test_visibility_rejects_negative_width(capsys, tmp_path, cfg_file):
    out = tmp_path / "scan"
    code = main(
        ["visibility", "--config", cfg_file, "--out", str(out), "--sigma-list=1e-3,-1e-3"]
    )
    assert code == 1
    assert capsys.readouterr().err == (
        "twinfringes: error: invalid configuration: "
        "NonPositiveParameter: sigma_theta must be > 0, got -0.001\n"
    )
    assert not list(tmp_path.glob("scan*"))


def test_visibility_width_scan_warns_once_per_config(tmp_path):
    # only the parsed config is validated whole; a scanned width is
    # checked alone, so a wide sigma_b warns once, not once per width
    cfg = _cfg(tmp_path, PARTIAL.replace("2.36e-2", "0.12"), "wide.cfg")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["visibility", "--config", cfg, "--out", str(tmp_path / "scan"),
                     "--sigma-list", "5e-4,1e-3,2e-3"])
    assert code == 0
    assert [w.category for w in caught] == [ParaxialWarning]


@pytest.mark.parametrize("sigma_list", ["-0.001", "nan", "9.37e-4,inf"])
def test_visibility_rejects_invalid_scanned_width(tmp_path, cfg_file, sigma_list):
    out = tmp_path / "scan"
    code = main(
        ["visibility", "--config", cfg_file, "--out", str(out), "--sigma-list", sigma_list]
    )
    assert code == 1
    assert not (tmp_path / "scan.csv").exists()


@pytest.mark.parametrize("old,new", [
    ("sigma_b = 2.36e-2", "sigma_b = nan"),
    ("d_a_mm = 11.7", "d_a_mm = inf"),
])
def test_non_finite_config_is_validation_error(capsys, tmp_path, old, new):
    cfg = _cfg(tmp_path, PARTIAL.replace(old, new), "nonfinite.cfg")
    out = tmp_path / "run"
    code = main(["simulate", "--config", cfg, "--out", str(out), "--resolution", "64"])
    assert code == 1
    assert "NonFiniteParameter" in capsys.readouterr().err
    assert not (tmp_path / "run.csv").exists()
    assert not (tmp_path / "run.pgm").exists()


def test_visibility_requires_exactly_one_list(tmp_path, cfg_file):
    out = str(tmp_path / "scan")
    assert main(["visibility", "--config", cfg_file, "--out", out]) == 1
    assert (
        main(
            ["visibility", "--config", cfg_file, "--out", out,
             "--sigma-list", "1e-3", "--rho-mm-list", "0.5"]
        )
        == 1
    )
    assert not (tmp_path / "scan.csv").exists()


def test_invert_reports_width_and_cross_check(capsys, cfg_file):
    assert main(["invert", "--config", cfg_file, "--v0", "0.996118297317"]) == 0
    report = dict(
        line.split(" = ") for line in capsys.readouterr().out.strip().splitlines()
    )
    assert float(report["sigma_theta_rad"]) == pytest.approx(9.37e-4, rel=1e-9, abs=0)
    assert float(report["conditional_gaussian_std_rad"]) == pytest.approx(
        0.5 * 9.37e-4, rel=1e-9, abs=0
    )
    assert float(report["cross_check_rel"]) < 1e-9


def test_invert_with_ring_radius(capsys, cfg_file):
    code = main(
        ["invert", "--config", cfg_file, "--v0", "0.996118297317",
         "--rho1-mm", "1.27594659067"]
    )
    assert code == 0
    report = dict(
        line.split(" = ") for line in capsys.readouterr().out.strip().splitlines()
    )
    assert float(report["lambda_eq_nm"]) == pytest.approx(423.290323, abs=1e-4)
    assert float(report["lambda_a_nm"]) == pytest.approx(1550.0, abs=1e-3)


def test_invert_perfect_visibility_note(capsys, cfg_file):
    assert main(["invert", "--config", cfg_file, "--v0", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "sigma_theta_rad = 0.000000000000e+00" in out
    assert "maximal correlation" in out


def test_invert_rejects_out_of_range_visibility(cfg_file):
    assert main(["invert", "--config", cfg_file, "--v0", "1.5"]) == 1
    assert main(["invert", "--config", cfg_file, "--v0", "0"]) == 1


def test_invert_rejects_underflowing_visibility(capsys, tmp_path, cfg_file):
    # 1e-200 squared underflows to 0; the error is one line, not a traceback
    out = tmp_path / "width"
    assert main(["invert", "--config", cfg_file, "--v0", "1e-200", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("twinfringes: error: ") and "underflows" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "width.txt").exists()


@pytest.mark.parametrize("v0", ["1e-160", "1e-155"])
def test_invert_rejects_overflowing_visibility(capsys, tmp_path, cfg_file, v0):
    # 1 / v0^2 overflows; the closed-form inverse says so in one line
    out = tmp_path / "width"
    assert main(["invert", "--config", cfg_file, "--v0", v0, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("twinfringes: error: ") and "overflows" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "width.txt").exists()


def test_invert_rejects_overflowing_ring_radius(capsys, tmp_path, cfg_file):
    out = tmp_path / "inv"
    argv = ["--v0", "0.8", "--rho1-mm", "1e200"]
    assert main(["invert", "--config", cfg_file, "--out", str(out), *argv]) == 1
    assert "ring law gives lambda_eq = inf" in capsys.readouterr().err
    assert not (tmp_path / "inv.txt").exists()



@pytest.mark.parametrize("rho1_mm,accepted", [
    (14.9, True),  # ring angle 0.0993 rad
    (15.0, False),  # ring angle 0.1 rad, the limit
    (0.21, True),  # partner angle 0.0989 rad at lambda_a / lambda_b = 71
    (0.2, False),  # partner angle 0.104 rad
])
def test_invert_refuses_a_ring_or_partner_angle_at_the_paraxial_limit(rho1_mm, accepted):
    cfg = make_config()
    if accepted:
        assert "lambda_a_nm" in run_invert(cfg, 0.8, rho1_mm * 1e-3)
    else:
        with pytest.raises(ValueError, match=f"first-ring radius {rho1_mm:g} mm is not paraxial"):
            run_invert(cfg, 0.8, rho1_mm * 1e-3)


def test_invert_writes_file_when_out_given(tmp_path, cfg_file):
    out = tmp_path / "width"
    assert main(["invert", "--config", cfg_file, "--v0", "0.9", "--out", str(out)]) == 0
    text = (tmp_path / "width.txt").read_text()
    assert "sigma_theta_rad" in text
    manifest = json.loads((tmp_path / "width.manifest.json").read_text())
    assert manifest["command"] == "invert"


def test_eqwavelength_end_to_end(tmp_path, cfg_file):
    rows = ["d_a_mm,rho1_mm"]
    for d_mm in (5.0, 8.0, 11.7, 15.0, 20.0):
        geo = make_config(d_a=d_mm * 1e-3)
        rows.append(f"{d_mm},{fringe_radius(1, geo) * 1e3:.12e}")
    data = tmp_path / "rings.csv"
    data.write_text("\n".join(rows) + "\n")

    out = tmp_path / "fit"
    code = main(["eqwavelength", "--config", cfg_file, "--data", str(data), "--out", str(out)])
    assert code == 0
    report = dict(
        line.split(" = ") for line in (tmp_path / "fit.txt").read_text().strip().splitlines()
    )
    assert report["n_separations"] == "5"
    assert float(report["lambda_eq_nm"]) == pytest.approx(423.290323, abs=1e-4)
    assert float(report["lambda_eq_stderr_nm"]) == pytest.approx(0.0, abs=1e-4)
    assert float(report["lambda_a_nm"]) == pytest.approx(1550.0, abs=1e-3)


def test_eqwavelength_reads_a_byte_order_mark(capsys, tmp_path, cfg_file):
    # a spreadsheet's "CSV UTF-8" export starts with a BOM
    plain = Path(_rings_csv(tmp_path))
    marked = tmp_path / "rings_bom.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    reports = []
    for data in (plain, marked):
        assert main(["eqwavelength", "--config", cfg_file, "--data", str(data)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0].startswith("n_separations = 3\n")
    assert reports[1] == reports[0]


def test_eqwavelength_names_the_line_of_a_byte_that_is_not_utf8(capsys, tmp_path, cfg_file):
    # a Latin-1 "\xb5m" typed after a row
    data = tmp_path / "rings.csv"
    data.write_bytes(b"d_a_mm,rho1_mm\n5,1.95\n11.7,1.27 \xb5m\n20,0.98\n")
    assert main(["eqwavelength", "--config", cfg_file, "--data", str(data)]) == 1
    err = capsys.readouterr().err
    assert f"{data}:3: not UTF-8 text (byte 0xb5)" in err


def test_eqwavelength_rejects_bad_header(tmp_path, cfg_file):
    data = tmp_path / "rings.csv"
    data.write_text("separation,radius\n5,1.0\n")
    assert main(["eqwavelength", "--config", cfg_file, "--data", str(data)]) == 1


@pytest.mark.parametrize("row", ["nan,1.2", "11.7,inf", "inf,1.2"])
def test_eqwavelength_rejects_non_finite_row(capsys, tmp_path, cfg_file, row):
    data = tmp_path / "rings.csv"
    data.write_text(f"d_a_mm,rho1_mm\n5,1.95\n8,1.54\n{row}\n15,1.12\n")
    out = tmp_path / "fit"
    code = main(["eqwavelength", "--config", cfg_file, "--data", str(data), "--out", str(out)])
    assert code == 1
    assert f"{data}:4:" in capsys.readouterr().err
    assert not (tmp_path / "fit.txt").exists()
    assert not (tmp_path / "fit.manifest.json").exists()


@pytest.mark.parametrize("row", ["5,1e200", "1e-320,1.9"])
def test_eqwavelength_rejects_non_finite_fit(capsys, tmp_path, cfg_file, row):
    data = tmp_path / "rings.csv"
    data.write_text(f"d_a_mm,rho1_mm\n{row}\n8,1.54\n11.7,1.27\n")
    out = tmp_path / "fit"
    code = main(["eqwavelength", "--config", cfg_file, "--data", str(data), "--out", str(out)])
    assert code == 1
    assert "ring law gives lambda_eq" in capsys.readouterr().err
    assert not (tmp_path / "fit.txt").exists()
    assert not (tmp_path / "fit.manifest.json").exists()


@pytest.mark.parametrize("row,message", [
    ("8,-1.54", "ring radii must be positive"),
    ("8,0", "ring radii must be positive"),
    ("0,1.54", "observations require d_a > 0"),
    ("-8,1.54", "observations require d_a > 0"),
])
def test_eqwavelength_rejects_nonpositive_row(capsys, tmp_path, cfg_file, row, message):
    data = tmp_path / "rings.csv"
    data.write_text(f"d_a_mm,rho1_mm\n5,1.95\n{row}\n11.7,1.27\n15,1.12\n")
    out = tmp_path / "fit"
    code = main(["eqwavelength", "--config", cfg_file, "--data", str(data), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"twinfringes: error: {message}\n"
    assert not (tmp_path / "fit.txt").exists()
    assert not (tmp_path / "fit.manifest.json").exists()


@pytest.mark.parametrize("body,lineno", [
    ("5,1.95\n8,\u0661.54\n11.7,1.27\n", 3),
    ("5,1.95\n\n8,1.54\n11.7,1.27\n", 3),
    ("5,1.95\n8,1.54\n11.7,1.27\n \n", 5),
], ids=["non_ascii_digit", "blank_line", "blank_last_line"])
def test_eqwavelength_names_a_line_that_is_not_a_row(capsys, tmp_path, cfg_file, body, lineno):
    data = tmp_path / "rings.csv"
    data.write_text("d_a_mm,rho1_mm\n" + body, encoding="utf-8")
    out = tmp_path / "fit"
    code = main(["eqwavelength", "--config", cfg_file, "--data", str(data), "--out", str(out)])
    assert code == 1
    line = body.splitlines()[lineno - 2]
    assert capsys.readouterr().err == (
        f"twinfringes: error: {data}:{lineno}: expected two finite numbers, got {line!r}\n"
    )
    assert not (tmp_path / "fit.txt").exists()


def test_eqwavelength_refuses_a_slope_that_underflows_to_zero(capsys, tmp_path, cfg_file):
    # positive radii of 1e-170 mm, whose squares underflow to 0.0
    data = tmp_path / "rings.csv"
    data.write_text("d_a_mm,rho1_mm\n5,1e-170\n8,1e-170\n11.7,1e-170\n")
    out = tmp_path / "fit"
    code = main(["eqwavelength", "--config", cfg_file, "--data", str(data), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "twinfringes: error: fitted slope 0.0 is not positive\n"
    assert not (tmp_path / "fit.txt").exists()
    assert not (tmp_path / "fit.manifest.json").exists()


def _rings_csv(tmp_path):
    rows = ["d_a_mm,rho1_mm"]
    for d_mm in (5.0, 11.7, 20.0):
        rows.append(f"{d_mm},{fringe_radius(1, make_config(d_a=d_mm * 1e-3)) * 1e3:.12e}")
    data = tmp_path / "rings.csv"
    data.write_text("\n".join(rows) + "\n")
    return str(data)


# Each command's extra flags and the data files it writes under --out.
COMMANDS = [
    ("simulate", ["--resolution", "64"], (".pgm", ".csv")),
    ("visibility", ["--sigma-list", "9.37e-4"], (".csv",)),
    ("invert", ["--v0", "0.9", "--rho1-mm", "1.27594659067"], (".txt",)),
    ("eqwavelength", ["--data", None], (".txt",)),
    ("oracle", [], (".json",)),
]


@pytest.mark.parametrize("command,flags,suffixes", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_manifest_records_each_command(tmp_path, cfg_file, command, flags, suffixes):
    flags = [_rings_csv(tmp_path) if f is None else f for f in flags]
    out = tmp_path / "run"
    assert main([command, "--config", cfg_file, "--out", str(out), *flags]) == 0
    manifest = json.loads((tmp_path / "run.manifest.json").read_text())
    assert set(manifest) == {"command", "config", "outputs", "version", "duration_s", "started_at"}
    assert manifest["command"] == command
    assert manifest["config"] == config_to_dict(parse_config(cfg_file))
    assert manifest["version"] == __version__
    assert suffixes == _SUFFIXES[command]
    assert manifest["outputs"] == [str(out.with_suffix(s)) for s in suffixes]
    assert all(Path(path).exists() for path in manifest["outputs"])
    written = {p.name for p in tmp_path.iterdir()} - {"partial.cfg", "rings.csv"}
    assert written == {f"run{s}" for s in suffixes} | {"run.manifest.json"}


# The manifest of `invert --v0 0.9 --out TMP/run` on the PARTIAL config,
# with its start time and duration masked.
MANIFEST_TEXT = """\
{
  "command": "invert",
  "config": {
    "alpha1_mag": 0.7071067811865476,
    "alpha2_mag": 0.7071067811865476,
    "correlation_model": "gaussian_partial",
    "d_a": 0.0117,
    "f0": 0.15,
    "lambda_a": 1.5500000000000002e-06,
    "lambda_b": 8.100000000000001e-07,
    "lambda_p": 5.32e-07,
    "n_a": 1.0,
    "phi1": 0.0,
    "phi2": 0.0,
    "phi_b": 0.0,
    "sigma_b": 0.0236,
    "sigma_theta": 0.000937
  },
  "duration_s": DURATION,
  "outputs": [
    "TMP/run.txt"
  ],
  "started_at": "STARTED",
  "version": "0.1.0"
}
"""


def test_manifest_bytes_are_indented_sorted_json(tmp_path, cfg_file):
    # pins the indent, the key order and the final newline
    assert main(["invert", "--config", cfg_file, "--out", str(tmp_path / "run"),
                 "--v0", "0.9"]) == 0
    text = (tmp_path / "run.manifest.json").read_bytes().decode("utf-8")
    text = re.sub(r'"duration_s": [^,]+,', '"duration_s": DURATION,', text)
    text = re.sub(r'"started_at": "[^"]+"', '"started_at": "STARTED"', text)
    assert text.replace(str(tmp_path), "TMP") == MANIFEST_TEXT.replace("0.1.0", __version__)


def test_manifest_started_at_is_utc_to_the_second(tmp_path, cfg_file):
    assert main(["invert", "--config", cfg_file, "--out", str(tmp_path / "run"),
                 "--v0", "0.9"]) == 0
    manifest = json.loads((tmp_path / "run.manifest.json").read_text())
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", manifest["started_at"])


def test_dotted_out_base_keeps_its_whole_name(tmp_path, cfg_file):
    # two bases that differ only after their first dot write separate files
    for base, rho_list in (("s0.0005_vrho", "0,0.5"), ("s0.002_vrho", "0,1,1.5")):
        out = tmp_path / base
        argv = ["visibility", "--config", cfg_file, "--out", str(out), "--rho-mm-list", rho_list]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / f"{base}.manifest.json").read_text())
        assert manifest["outputs"] == [str(tmp_path / f"{base}.csv")]
    written = {p.name for p in tmp_path.iterdir()} - {"partial.cfg"}
    assert written == {
        "s0.0005_vrho.csv", "s0.0005_vrho.manifest.json",
        "s0.002_vrho.csv", "s0.002_vrho.manifest.json",
    }
    assert len((tmp_path / "s0.0005_vrho.csv").read_text().splitlines()) == 3
    assert len((tmp_path / "s0.002_vrho.csv").read_text().splitlines()) == 4


@pytest.mark.parametrize("command,flags,key", [
    ("invert", ["--v0", "0.9"], "sigma_theta_rad"),
    ("eqwavelength", ["--data", None], "lambda_eq_nm"),
], ids=["invert", "eqwavelength"])
def test_text_command_without_out_prints_only(capsys, tmp_path, cfg_file, command, flags, key):
    flags = [_rings_csv(tmp_path) if f is None else f for f in flags]
    before = set(tmp_path.iterdir())
    assert main([command, "--config", cfg_file, *flags]) == 0
    assert f"{key} = " in capsys.readouterr().out
    assert set(tmp_path.iterdir()) == before


@pytest.mark.parametrize("text,name", [
    (PARTIAL, "partial.cfg"),
    (MAXIMAL, "maximal.cfg"),
    (UNCORRELATED, "uncorrelated.cfg"),
])
def test_oracle_check_passes_per_model(tmp_path, text, name):
    cfg = _cfg(tmp_path, text, name)
    out = tmp_path / "oracle"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((tmp_path / "oracle.json").read_text())
    assert report["passed"] is True
    assert report["max_abs_visibility_discrepancy"] <= report["visibility_tolerance"]
    assert report["max_peak_relative_rate_discrepancy"] <= report["rate_tolerance"]


UNBALANCED = "alpha1_mag = 0.8\nalpha2_mag = 0.6\n"


def test_oracle_passes_on_unbalanced_sources(tmp_path):
    # every route scales the fringe term by 2|a1||a2| / (|a1|^2 + |a2|^2)
    for text in (PARTIAL, MAXIMAL, UNCORRELATED):
        cfg = _cfg(tmp_path, text + UNBALANCED, "unbalanced.cfg")
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "oracle")]) == 0
        report = json.loads((tmp_path / "oracle.json").read_text())
        assert report["passed"] is True


@pytest.mark.parametrize("text", [PARTIAL, MAXIMAL, UNCORRELATED],
                         ids=["gaussian_partial", "maximal", "uncorrelated"])
def test_source_phase_shifts_the_scan_phase(tmp_path, text):
    # phi1 = 0.5 makes the static phase phi_b + phi2 - phi1 = -0.5, so
    # the pattern at phi0 is the in-phase pattern at phi0 - 0.5
    shifted = _cfg(tmp_path, text + "phi1_rad = 0.5\n", "phi1.cfg")
    balanced = _cfg(tmp_path, text, "balanced.cfg")
    flags = ["--resolution", "96", "--screen-mm", "2"]
    for phi0 in (0.9, 2.5):
        assert main(["simulate", "--config", shifted, "--out", str(tmp_path / "a"),
                     "--phi0", repr(phi0), *flags]) == 0
        assert main(["simulate", "--config", balanced, "--out", str(tmp_path / "b"),
                     "--phi0", repr(phi0 - 0.5), *flags]) == 0
        for suffix in (".pgm", ".csv"):
            a = (tmp_path / "a").with_suffix(suffix).read_bytes()
            assert a == (tmp_path / "b").with_suffix(suffix).read_bytes()


def test_invert_divides_v0_by_the_source_contrast(capsys, tmp_path, cfg_file):
    # 2 * 0.8 * 0.6 = 0.96, so v0 = 0.9 is the balanced v0 = 0.9375
    unbalanced = _cfg(tmp_path, PARTIAL + UNBALANCED, "unbalanced.cfg")

    def width(cfg, v0):
        assert main(["invert", "--config", cfg, "--v0", v0]) == 0
        return capsys.readouterr().out.splitlines()[1]

    assert width(unbalanced, "0.9") == "sigma_theta_rad = 1.920382358776e-03"
    assert width(cfg_file, "0.9375") == "sigma_theta_rad = 1.920382358776e-03"
    assert width(cfg_file, "0.9") == "sigma_theta_rad = 2.193613243102e-03"
    assert main(["invert", "--config", unbalanced, "--v0", "0.97"]) == 1
    assert "outside (0, 0.96]" in capsys.readouterr().err


LENGTH_KEYS = ("lambda_a_nm", "lambda_b_nm", "lambda_p_nm", "d_a_mm", "f0_mm")


def _doubled_lengths(text):
    """Config text with every length doubled; 2 x is exact in binary floating point."""
    lines = []
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        lines.append(f"{key} = {2.0 * float(value)!r}" if key in LENGTH_KEYS else line)
    return "\n".join(lines) + "\n"


def _scaled_outputs(tmp_path, text, scale):
    """Run simulate, visibility, oracle and invert with every length x scale, 1 or 2.

    Returns each output file's bytes by command and suffix.
    """
    cfg = _cfg(tmp_path, text if scale == 1 else _doubled_lengths(text), f"x{scale}.cfg")

    def mm(*values):
        return ",".join(repr(scale * v) for v in values)

    runs = {
        "simulate": ["--resolution", "301", "--screen-mm", mm(3.0)],
        "visibility": ["--rho-mm-list", mm(0.0, 0.3, 0.9, 1.276, 2.5)],
        "oracle": ["--grid-points", "512"],
        "invert": ["--v0", "0.5", "--rho1-mm", mm(1.276)],
    }
    outputs = {}
    for command, flags in runs.items():
        base = tmp_path / f"x{scale}_{command}"
        assert main([command, "--config", cfg, "--out", str(base), *flags]) == 0
        for suffix in _SUFFIXES[command]:
            outputs[command, suffix] = base.with_name(base.name + suffix).read_bytes()
    return outputs


@pytest.mark.parametrize("text", [PARTIAL, MAXIMAL, UNCORRELATED],
                         ids=["gaussian_partial", "maximal", "uncorrelated"])
def test_doubling_every_length_leaves_every_output_unchanged(tmp_path, text):
    # rates and visibilities depend on lengths only through their
    # ratios, and doubling is exact, so a unit slip on any route, or in
    # what the routes share, changes a byte here
    text += UNBALANCED + "phi1_rad = 0.5\n"
    one, two = (_scaled_outputs(tmp_path, text, scale) for scale in (1, 2))
    assert one["simulate", ".pgm"] == two["simulate", ".pgm"]
    # the CSV radii are the profile's, exactly doubled; the rest is equal
    rho = np.linspace(0.0, 1.5e-3, 301)
    profiles = [out["simulate", ".csv"].decode().splitlines() for out in (one, two)]
    for lines, radii in zip(profiles, (rho, 2.0 * rho)):
        assert [line.split(",", 1)[0] for line in lines[1:]] == [format(r, ".11e") for r in radii]
    assert [line.split(",", 1)[1] for line in profiles[0]] == [
        line.split(",", 1)[1] for line in profiles[1]]
    visibility = [[line.split(",")[1] for line in out["visibility", ".csv"].decode().splitlines()]
                  for out in (one, two)]
    assert visibility[0] == visibility[1]
    reports = [json.loads(out["oracle", ".json"]) for out in (one, two)]
    radii = [report.pop("radii_m") for report in reports]
    assert radii[1] == [2.0 * r for r in radii[0]]
    assert reports[0] == reports[1]
    widths = [[line for line in out["invert", ".txt"].decode().splitlines()
               if line.startswith(("sigma_theta_rad =", "cross_check_rel ="))]
              for out in (one, two)]
    assert len(widths[0]) == 2 and widths[0] == widths[1]


@pytest.mark.parametrize("text", [PARTIAL, MAXIMAL, UNCORRELATED],
                         ids=["gaussian_partial", "maximal", "uncorrelated"])
def test_doubling_every_length_doubles_every_length_output(tmp_path, text):
    # the HWHM, lambda_eq, its stderr and lambda_a double exactly as
    # floats; their 12- and 6-digit texts may round 2 x differently
    text += UNBALANCED + "phi1_rad = 0.5\n"
    cfgs = [parse_config(_cfg(tmp_path, body, name))
            for body, name in ((text, "x1.cfg"), (_doubled_lengths(text), "x2.cfg"))]
    sigmas = [2e-4, 9.37e-4, 3e-3]
    hwhms = [visibility_hwhms(sigmas, [derive_constants(cfg, s) for s in sigmas])
             for cfg in cfgs]
    assert None not in hwhms[0] and hwhms[1] == [2.0 * h for h in hwhms[0]]
    rings = [(5e-3, 1.95e-3), (10e-3, 1.38e-3), (15e-3, 1.13e-3), (20e-3, 0.98e-3)]
    fits = [estimate_equivalent_wavelength([(s * d, s * r) for d, r in rings], cfg)
            for s, cfg in zip((1.0, 2.0), cfgs)]
    assert fits[0].stderr > 0.0
    assert fits[1].lambda_eq == 2.0 * fits[0].lambda_eq
    assert fits[1].stderr == 2.0 * fits[0].stderr
    assert (infer_lambda_a(fits[1].lambda_eq, cfgs[1].lambda_b)
            == 2.0 * infer_lambda_a(fits[0].lambda_eq, cfgs[0].lambda_b))
    d, r = rings[1]
    single = [ring_law_lambda_eq((s * r) ** 2 * (s * d), cfg) for s, cfg in zip((1.0, 2.0), cfgs)]
    assert single[1] == 2.0 * single[0]


def test_negative_source_magnitude_exits_usage(capsys, tmp_path):
    # normalised, but a magnitude is never negative
    text = PARTIAL + "alpha1_mag = -0.7071067811865476\n"
    cfg = _cfg(tmp_path, text, "negative.cfg")
    for command in ("simulate", "oracle"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 1
        assert "NonPositiveParameter: alpha1_mag must be >= 0" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["negative.cfg"]


@pytest.mark.parametrize("model", [CorrelationModel.MAXIMAL, CorrelationModel.UNCORRELATED],
                         ids=lambda m: m.value)
def test_exact_oracle_gates_sit_tenfold_above_the_worst_case(tmp_path, model):
    # the claim behind the maximal and uncorrelated gates: at least 10x
    # above every discrepancy over n_a 1-3, d_a 1-50 mm and 128-4096 modes,
    # with the worst fringe cases of that domain's 10 d_a values (maximal
    # n_a 3, d_a 39.1 mm; uncorrelated n_a 1.7, d_a 22.8 mm) included
    out = tmp_path / "oracle.json"
    d_a_values = np.linspace(1e-3, 50e-3, 10).tolist()
    worst = [(3.0, d_a_values[7], 512), (1.7, d_a_values[4], 128)]
    for n_a, d_a, points in [*itertools.product((1.0, 3.0), (1e-3, 50e-3), (128, 4096)), *worst]:
        run_oracle_check(make_config(model, n_a=n_a, d_a=d_a), points, out)
        report = json.loads(out.read_text())
        assert report["max_abs_visibility_discrepancy"] <= report["visibility_tolerance"] / 10
        assert (report["max_peak_relative_rate_discrepancy"]
                <= report["rate_tolerance"] / 10)
        assert report["max_abs_fringe_discrepancy"] <= report["fringe_tolerance"] / 10


@pytest.mark.parametrize("text", [MAXIMAL, PARTIAL], ids=["maximal", "gaussian_partial"])
def test_oracle_fails_a_closed_form_fringe_of_the_conjugate_phase(monkeypatch, tmp_path, text):
    # F -> conj F leaves every visibility and every phi_0 = 0 rate as it
    # was, so only the fringe comparison can see the mirrored phase
    closed_form = analytics._closed_form

    def conjugated(*args):
        mean, fringe, visibility = closed_form(*args)
        return mean, np.conj(fringe), visibility

    argv = ["oracle", "--config", _cfg(tmp_path, text, "x.cfg"), "--out", str(tmp_path / "o")]
    assert main(argv) == 0
    clean = json.loads((tmp_path / "o.json").read_text())
    monkeypatch.setattr(analytics, "_closed_form", conjugated)
    assert main(argv) == 2
    report = json.loads((tmp_path / "o.json").read_text())
    for key in ("max_abs_visibility_discrepancy", "max_peak_relative_rate_discrepancy"):
        assert report[key] == clean[key]
    assert report["max_abs_fringe_discrepancy"] > 100 * report["fringe_tolerance"]


# Each input's floor on the reference optics with 0.8/0.6 sources: a
# length, width or magnitude scaled by 1 + eps, or a phase shifted by
# eps rad, on one route only, trips one of oracle's gates at 512 modes by
# at least 1.5x. The uncorrelated rate reads only f0 and sigma_b.
ONE_INPUT_FAULTS = {
    "maximal": {"lambda_a": 1e-6, "lambda_b": 1e-6, "d_a": 1e-6, "f0": 1e-6, "n_a": 1e-6,
                "sigma_b": 1e-6, "alpha1_mag": 1e-6, "phi1": 1e-6},
    "uncorrelated": {"f0": 1e-6, "sigma_b": 1e-6},
    "gaussian_partial": {"lambda_a": 1e-2, "lambda_b": 1e-2, "lambda_p": 2e-2, "d_a": 1e-2,
                         "f0": 1e-2, "n_a": 1e-2, "sigma_theta": 2e-2, "sigma_b": 1e-1,
                         "alpha1_mag": 1e-1, "phi1": 2e-2},
}
GRID_SIDE_FAULTS = {"maximal": "d_a", "uncorrelated": "sigma_b", "gaussian_partial": "d_a"}


@pytest.mark.parametrize("model, field, eps, route", [
    *((model, field, eps, "closed form")
      for model, faults in ONE_INPUT_FAULTS.items() for field, eps in faults.items()),
    *((model, field, ONE_INPUT_FAULTS[model][field], "grid")
      for model, field in GRID_SIDE_FAULTS.items()),
])
def test_oracle_fails_a_fault_in_one_input_on_one_route(monkeypatch, tmp_path, model, field, eps,
                                                        route):
    text = {"maximal": MAXIMAL, "uncorrelated": UNCORRELATED, "gaussian_partial": PARTIAL}[model]
    text += "alpha1_mag = 0.8\nalpha2_mag = 0.6\n"
    argv = ["oracle", "--config", _cfg(tmp_path, text, "x.cfg"), "--out", str(tmp_path / "o"),
            "--grid-points", "512"]
    assert main(argv) == 0

    def faulty(cfg):
        value = getattr(cfg, field)
        return dataclasses.replace(
            cfg, **{field: value + eps if field.startswith("phi") else value * (1.0 + eps)})

    if route == "closed form":
        closed_form = analytics._closed_form
        monkeypatch.setattr(analytics, "_closed_form",
                            lambda rho, phi_0, cfg, m: closed_form(rho, phi_0, faulty(cfg), m))
    else:
        assemble_state = state.assemble_state
        monkeypatch.setattr(state, "assemble_state",
                            lambda cfg, rho, points: assemble_state(faulty(cfg), rho, points))
    assert main(argv) == 2
    report = json.loads((tmp_path / "o.json").read_text())
    margin = max(report[f"max_{name}_discrepancy"] / report[f"{gate}_tolerance"]
                 for name, gate in (("abs_visibility", "visibility"),
                                    ("peak_relative_rate", "rate"), ("abs_fringe", "fringe")))
    assert margin >= 1.5


def test_uncorrelated_oracle_at_zero_separation_exits_usage(capsys, tmp_path):
    cfg = _cfg(tmp_path, UNCORRELATED.replace("d_a_mm = 11.7", "d_a_mm = 0"), "zero.cfg")
    assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "oracle")]) == 1
    assert capsys.readouterr().err == (
        "twinfringes: error: the uncorrelated check needs d_a_mm > 0: at zero "
        "separation no a phase dephases, so there is nothing to compare\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["zero.cfg"]


def test_oracle_rejects_coarse_grid(capsys, tmp_path):
    # one rule for every model: an even count of at least 128 a-side modes
    for text, name in ((PARTIAL, "partial.cfg"), (MAXIMAL, "maximal.cfg"),
                       (UNCORRELATED, "uncorrelated.cfg")):
        cfg = _cfg(tmp_path, text, name)
        for points in ("64", "126", "127", "129", "513"):
            out = str(tmp_path / "oracle")
            assert main(["oracle", "--config", cfg, "--out", out, "--grid-points", points]) == 1
            err = capsys.readouterr().err
            assert f"--grid-points must be an even number >= 128, got {points}" in err
            assert not (tmp_path / "oracle.json").exists()


def test_simulate_at_extreme_separation_matches_mpmath(tmp_path):
    # a 117 m source separation puts ~1e3 fringe oscillations inside the
    # shell integral support, beyond what the reference quadrature can
    # resolve; the closed form has no such limit
    text = PARTIAL.replace("d_a_mm = 11.7", "d_a_mm = 117000")
    cfg_path = _cfg(tmp_path, text, "extreme.cfg")
    out = tmp_path / "x"
    assert main(["simulate", "--config", cfg_path, "--out", str(out), "--resolution", "64"]) == 0
    cfg = parse_config(cfg_path)
    prof = read_profile_csv(out.with_suffix(".csv"))
    peak, _ = mp_partial(float(prof.rho[np.argmax(prof.rate)]), 0.0, cfg)
    for i in (0, 9, 31, 63):
        rate, vis = mp_partial(float(prof.rho[i]), 0.0, cfg)
        # 12 significant digits in the CSV
        assert prof.rate[i] == pytest.approx(rate / peak, abs=1e-12)
        assert prof.visibility[i] == pytest.approx(vis, abs=1e-12)


def test_oracle_gate_miss_exits_tolerance(tmp_path):
    # at sigma_theta = 2e-4 the 512-mode grid misses the 0.01 rate gate
    # (peak-relative discrepancy 1.18e-2); the report is still written
    text = PARTIAL.replace("sigma_theta = 9.37e-4", "sigma_theta = 2e-4")
    cfg = _cfg(tmp_path, text, "narrow.cfg")
    out = tmp_path / "oracle"
    assert main(["oracle", "--config", cfg, "--out", str(out), "--grid-points", "512"]) == 2
    report = json.loads((tmp_path / "oracle.json").read_text())
    assert report["passed"] is False
    assert report["max_peak_relative_rate_discrepancy"] > report["rate_tolerance"]
    assert not (tmp_path / "oracle.manifest.json").exists()


@pytest.mark.parametrize("argv,written", [
    (["simulate", "--screen-mm", "nan"], "x.csv"),
    (["simulate", "--screen-mm", "inf"], "x.pgm"),
    (["simulate", "--phi0=-inf"], "x.csv"),
    (["invert", "--v0", "nan"], "x.txt"),
    (["invert", "--v0", "0.9", "--rho1-mm", "inf"], "x.txt"),
    (["visibility", "--rho-mm-list", "nan"], "x.csv"),
    (["visibility", "--rho-mm-list=0.5,-inf"], "x.csv"),
    (["visibility", "--sigma-list", "1e-3,nan"], "x.csv"),
])
def test_non_finite_flag_is_usage_error(capsys, tmp_path, cfg_file, argv, written):
    out = tmp_path / "x"
    code = main([argv[0], "--config", cfg_file, "--out", str(out), *argv[1:]])
    assert code == 1
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / written).exists()


# Flags that Python's float and int would read (Arabic-Indic digits,
# empty list entries) and the CLI refuses, naming the flag.
NON_ASCII_FLAGS = {
    "screen_mm": (["simulate", "--screen-mm", "\u0663"], "x.pgm",
                  "--screen-mm: expected a finite number, got '\u0663'"),
    "resolution": (["simulate", "--resolution", "\u0666\u0664"], "x.pgm",
                   "--resolution: expected an integer, got '\u0666\u0664'"),
    "grid_points": (["oracle", "--grid-points", "\u0665\u0661\u0662"], "x.json",
                    "--grid-points: expected an integer, got '\u0665\u0661\u0662'"),
    "rho_entry": (["visibility", "--rho-mm-list", "0,\u0661"], "x.csv",
                  "--rho-mm-list: expected a finite number, got '\u0661'"),
    "sigma_entry": (["visibility", "--sigma-list", "1e-3,\u0660"], "x.csv",
                    "--sigma-list: expected a finite number, got '\u0660'"),
    "v0": (["invert", "--v0", "\u0660.\u0669"], "x.txt",
           "--v0: expected a finite number, got '\u0660.\u0669'"),
    "empty_entry": (["visibility", "--rho-mm-list", "0,,1"], "x.csv",
                    "--rho-mm-list: expected a finite number, got ''"),
    "trailing_comma": (["visibility", "--sigma-list", "1e-3,"], "x.csv",
                       "--sigma-list: expected a finite number, got ''"),
}


@pytest.mark.parametrize("argv,written,message", NON_ASCII_FLAGS.values(),
                         ids=NON_ASCII_FLAGS.keys())
def test_numeric_flag_reads_only_ascii_numbers(capsys, tmp_path, cfg_file, argv, written, message):
    out = tmp_path / "x"
    assert main([argv[0], "--config", cfg_file, "--out", str(out), *argv[1:]]) == 1
    assert capsys.readouterr().err == f"twinfringes: error: argument {message}\n"
    assert not (tmp_path / written).exists()
    assert not (tmp_path / "x.manifest.json").exists()


# Inputs a run must refuse with one error line, exit 1 and no data
# file: a shell too narrow for any grid mode to see it, an image or a
# grid too large to allocate, a separation whose frame overflows to NaN,
# and ring radii whose squares underflow to a zero slope.
HOSTILE = {
    "narrow_shell": (PARTIAL.replace("9.37e-4", "1e-7"), ["oracle"],
                     "rate is zero at every scan phase"),
    "huge_image": (PARTIAL, ["simulate", "--resolution", "100000000000"],
                   "resolution must be at most 8192 pixels"),
    "huge_grid": (PARTIAL, ["oracle", "--grid-points", "100000000000"],
                  "--grid-points must be at most 65536"),
    "overflowing_frame": (PARTIAL.replace("d_a_mm = 11.7", "d_a_mm = 1e30"), ["simulate"],
                          "rate field must be finite"),
    "underflowing_rings": (PARTIAL, ["eqwavelength", "--data", "RINGS"],
                           "fitted slope 0.0 is not positive"),
    "overflowing_oracle": (PARTIAL.replace("d_a_mm = 11.7", "d_a_mm = 1e30"), ["oracle"],
                           "the closed form overflows on this config"),
    "overflowing_radius": (PARTIAL, ["visibility", "--rho-mm-list", "0,1e300"],
                           "the closed form overflows at scanned radius 1e+300 mm"),
    "underflowing_ring": (PARTIAL, ["invert", "--v0", "0.5", "--rho1-mm", "1e-200"],
                          "first-ring radius 1e-200 mm is too small"),
    "wide_shell": (PARTIAL.replace("9.37e-4", "5e-3"), ["oracle"],
                   "the shell grid reaches 0.11 rad, past the paraxial limit 0.1 rad: "
                   "sigma_theta = 0.005 and rho_max = 1.77 mm"),
    "nonparaxial_ring": (PARTIAL, ["invert", "--v0", "0.5", "--rho1-mm", "1e150"],
                         "first-ring radius 1e+150 mm is not paraxial"),
    "nonparaxial_partner": (PARTIAL, ["invert", "--v0", "0.5", "--rho1-mm", "1e-150"],
                            "first-ring radius 1e-150 mm is not paraxial"),
}


@pytest.mark.parametrize("text,argv,message", HOSTILE.values(), ids=HOSTILE.keys())
def test_hostile_input_exits_with_one_error_line(tmp_path, text, argv, message):
    cfg = _cfg(tmp_path, text, "hostile.cfg")
    rings = _cfg(tmp_path, "d_a_mm,rho1_mm\n5,1e-170\n8,1e-170\n11.7,1e-170\n", "rings.csv")
    argv = [rings if arg == "RINGS" else arg for arg in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "twinfringes.cli", argv[0], "--config", cfg,
         "--out", str(tmp_path / "x"), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()  # no numpy RuntimeWarning either
    assert line.startswith(f"twinfringes: error: {message}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hostile.cfg", "rings.csv"]


def test_cli_import_leaves_quadrature_unloaded():
    # no command needs scipy; the reference quadrature is numpy alone
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, twinfringes.cli; print('scipy.integrate' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_datetime_unloaded():
    # the manifest stamps its start time with the time module alone
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, twinfringes.cli; print('datetime' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# Runs CLI commands in order in one fresh interpreter and prints, after
# the import and after each step, the exit code and every loaded scipy
# module.
_IMPORT_GRAPH_RUNNER = """\
import json, sys
from twinfringes import cli

def loaded():
    names = sorted(sys.modules)
    return {
        "scipy": [m for m in names if m == "scipy" or m.startswith("scipy.")],
        "numpy": [m for m in names if m == "numpy" or m.startswith("numpy.")],
        "twinfringes": [m for m in names if m.startswith("twinfringes.")],
    }

steps = [[0, loaded()]]
for argv in json.loads(sys.argv[1]):
    steps.append([cli.main(argv), loaded()])
print(json.dumps(steps))
"""

_SCALAR_STEPS = 3  # import twinfringes.cli, invert, eqwavelength
_ARRAY_MODULES = ["twinfringes.analytics", "twinfringes.oracle", "twinfringes.special",
                  "twinfringes.state"]


@pytest.fixture(scope="module")
def import_graph(tmp_path_factory):
    """(label, exit code, loaded modules) after each step of one fresh interpreter.

    The interpreter imports the CLI, runs the two scalar commands, then
    every array command under every model.
    """
    tmp_path = tmp_path_factory.mktemp("import_graph")
    cfgs = {name: _cfg(tmp_path, text, f"{name}.cfg")
            for name, text in (("partial", PARTIAL), ("maximal", MAXIMAL),
                               ("uncorrelated", UNCORRELATED))}
    data = tmp_path / "rings.csv"
    data.write_text("d_a_mm,rho1_mm\n5,1.95\n11.7,1.27\n20,0.98\n")
    out = str(tmp_path / "run")
    argvs = [
        ["invert", "--config", cfgs["partial"], "--v0", "0.9", "--out", out],
        ["eqwavelength", "--config", cfgs["partial"], "--data", str(data), "--out", out],
        ["visibility", "--config", cfgs["partial"], "--out", out,
         "--sigma-list", "0,9.37e-4,2e-3"],
        ["visibility", "--config", cfgs["partial"], "--out", out, "--rho-mm-list", "0,0.6,1.5"],
    ]
    for model in ("partial", "maximal", "uncorrelated"):
        argvs.append(["simulate", "--config", cfgs[model], "--out", out, "--resolution", "64"])
        argvs.append(["oracle", "--config", cfgs[model], "--out", out])
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_GRAPH_RUNNER, json.dumps(argvs)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    labels = ["import twinfringes.cli"] + [" ".join(argv) for argv in argvs]
    steps = json.loads(proc.stdout)
    assert len(steps) == len(labels)
    return [(label, code, modules) for label, (code, modules) in zip(labels, steps)]


def test_no_cli_command_loads_scipy(import_graph):
    for label, code, modules in import_graph:
        assert code == 0, label
        assert modules["scipy"] == [], label


def test_no_cli_command_loads_numpy_polynomial(import_graph):
    # the quadrature's Legendre nodes are built on its first call, not
    # when special is imported
    for label, code, modules in import_graph:
        assert code == 0, label
        assert not [m for m in modules["numpy"] if m.startswith("numpy.polynomial")], label


# Blocks scipy, then runs the quadrature on 16 radii and every command
# given as JSON, and prints one exit code per step.
_SCIPY_BLOCKED_RUNNER = """\
import json, sys
sys.modules["scipy"] = None  # every scipy import now raises ImportError
import numpy as np
import twinfringes
from twinfringes import cli

cfg = twinfringes.parse_config(sys.argv[2])
rates = twinfringes.counting_rate_partial_quadrature(np.linspace(0.0, 5e-3, 16), 0.3, cfg)
codes = [0 if rates.shape == (16,) and np.isfinite(rates).all() else 1]
codes += [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps(codes))
"""


def test_quadrature_and_every_command_run_without_scipy(tmp_path):
    cfgs = {name: _cfg(tmp_path, text, f"{name}.cfg")
            for name, text in (("partial", PARTIAL), ("maximal", MAXIMAL),
                               ("uncorrelated", UNCORRELATED))}
    data = _cfg(tmp_path, "d_a_mm,rho1_mm\n5,1.95\n11.7,1.27\n20,0.98\n", "rings.csv")
    out = str(tmp_path / "run")
    argvs = [
        ["invert", "--config", cfgs["partial"], "--v0", "0.9", "--out", out],
        ["eqwavelength", "--config", cfgs["partial"], "--data", data, "--out", out],
        ["visibility", "--config", cfgs["partial"], "--out", out, "--sigma-list", "0,9.37e-4"],
    ]
    for model in ("partial", "maximal", "uncorrelated"):
        argvs.append(["simulate", "--config", cfgs[model], "--out", out, "--resolution", "64"])
        argvs.append(["oracle", "--config", cfgs[model], "--out", out])
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_BLOCKED_RUNNER, json.dumps(argvs), cfgs["partial"]],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0] * (1 + len(argvs))


def test_scalar_commands_load_no_numpy(import_graph):
    for label, code, modules in import_graph[:_SCALAR_STEPS]:
        assert code == 0, label
        assert modules["numpy"] == [], label
        assert not set(_ARRAY_MODULES) & set(modules["twinfringes"]), label
        assert "twinfringes.floattext" not in modules["twinfringes"], label
    # every array command runs, and the first one loads the whole array half
    for label, code, modules in import_graph[_SCALAR_STEPS:]:
        assert code == 0, label
        assert set(_ARRAY_MODULES) <= set(modules["twinfringes"]), label


def test_no_cli_command_loads_numpy_ma(import_graph):
    # np.unique imports numpy.ma on its first call, which every cold
    # oracle paid for while ModeGrid used it to check distinct angles
    for label, code, modules in import_graph:
        assert code == 0, label
        assert "numpy.ma" not in modules["numpy"], label


def test_module_entry_point_runs_in_subprocess(cfg_file):
    proc = subprocess.run(
        [sys.executable, "-m", "twinfringes.cli", "invert", "--config", cfg_file,
         "--v0", "0.5"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "sigma_theta_rad" in proc.stdout
