"""Config parsing, PGM/CSV round trips and the run manifest."""

import codecs
import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinfringes import (
    ConfigError,
    CorrelationModel,
    FringeImage,
    ParseError,
    RadialProfile,
    UnknownKey,
    config_to_dict,
    parse_config,
    read_pgm,
    read_profile_csv,
    render_pattern,
    radial_profile,
    write_manifest,
    write_pgm,
    write_profile_csv,
)
from twinfringes.fileio import parse_number
from twinfringes.floattext import format_e11_rows

GOOD_CONFIG = """\
# reference run
lambda_a_nm = 1550
lambda_b_nm = 810
lambda_p_nm = 532
d_a_mm = 11.7
f0_mm = 150
sigma_b = 2.36e-2
sigma_theta = 9.37e-4
model = gaussian_partial
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_config_units_and_model(tmp_path):
    cfg = parse_config(_write(tmp_path, GOOD_CONFIG))
    assert cfg.lambda_a == pytest.approx(1550e-9, rel=1e-14, abs=0)
    assert cfg.d_a == pytest.approx(11.7e-3, rel=1e-14, abs=0)
    assert cfg.f0 == pytest.approx(0.150, rel=1e-14, abs=0)
    assert cfg.sigma_theta == pytest.approx(9.37e-4, rel=1e-14, abs=0)
    assert cfg.correlation_model is CorrelationModel.GAUSSIAN_PARTIAL
    assert cfg.n_a == 1.0  # defaulted


def test_parse_config_accepts_bare_separator_and_comments(tmp_path):
    text = GOOD_CONFIG.replace("d_a_mm = 11.7", "d_a_mm 11.7  # inline note")
    cfg = parse_config(_write(tmp_path, text))
    assert cfg.d_a == pytest.approx(11.7e-3, rel=1e-14, abs=0)


def test_parse_config_reads_a_byte_order_mark(tmp_path):
    # Windows editors save "UTF-8 with BOM"
    marked = tmp_path / "bom.cfg"
    marked.write_bytes(b"\xef\xbb\xbf" + GOOD_CONFIG.encode("utf-8"))
    assert parse_config(marked) == parse_config(_write(tmp_path, GOOD_CONFIG))


def test_parse_config_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    # a Latin-1 "\xb5m" in a comment on line 3, after a byte-order mark,
    # with each line ending that splitlines knows
    lines = GOOD_CONFIG.encode("ascii").splitlines()
    lines[2] += b"  # \xb5m"
    path = tmp_path / "latin1.cfg"
    for ending in (b"\n", b"\r\n", b"\r"):
        path.write_bytes(b"\xef\xbb\xbf" + ending.join(lines) + ending)
        with pytest.raises(ParseError) as excinfo:
            parse_config(path)
        assert str(excinfo.value) == f"{path}:3: not UTF-8 text (byte 0xb5)"


def test_parse_config_duplicate_key_names_both_lines(tmp_path):
    text = GOOD_CONFIG + "f0_mm = 200\n"
    with pytest.raises(ParseError, match="f0_mm") as excinfo:
        parse_config(_write(tmp_path, text))
    message = str(excinfo.value)
    assert "line 10" in message and "line 6" in message


def test_parse_config_unknown_key(tmp_path):
    text = GOOD_CONFIG + "focal_mm = 150\n"
    with pytest.raises(UnknownKey, match="focal_mm"):
        parse_config(_write(tmp_path, text))


def test_parse_config_missing_required_keys(tmp_path):
    with pytest.raises(ParseError, match="sigma_b"):
        parse_config(_write(tmp_path, "lambda_a_nm = 1550\n"))


def test_parse_config_bad_number_names_line(tmp_path):
    text = GOOD_CONFIG.replace("sigma_b = 2.36e-2", "sigma_b = wide")
    with pytest.raises(ParseError, match="line 7"):
        parse_config(_write(tmp_path, text))


def test_parse_config_bad_model_token(tmp_path):
    text = GOOD_CONFIG.replace("gaussian_partial", "partial")
    with pytest.raises(ParseError, match="model"):
        parse_config(_write(tmp_path, text))


def test_parse_config_runs_validation(tmp_path):
    # structurally fine, physically inconsistent: partial model without
    # its correlation width
    text = GOOD_CONFIG.replace("sigma_theta = 9.37e-4\n", "")
    with pytest.raises(ConfigError) as excinfo:
        parse_config(_write(tmp_path, text))
    assert any(v.kind == "MissingSigmaTheta" for v in excinfo.value.violations)


def test_parse_config_malformed_line(tmp_path):
    with pytest.raises(ParseError, match="line 2"):
        parse_config(_write(tmp_path, "# header\njust-some-words\n"))


# 1550 in Arabic-Indic digits: Python's float reads every Unicode decimal
# digit, the readers do not
ARABIC_1550 = "\u0661\u0665\u0665\u0660"


@pytest.mark.parametrize("text, kind", [
    ("1550", float), (" 2.36e-2 ", float), ("+1E3", float), ("1_000", float), ("inf", float),
    (" +512 ", int), ("600", int),
])
def test_parse_number_reads_ascii_as_float_and_int_do(text, kind):
    value = parse_number(text, kind)
    assert type(value) is kind and value == kind(text)


@pytest.mark.parametrize("text", [ARABIC_1550, "\uff11", "\u00a01", "1\u2009"])
def test_parse_number_refuses_non_ascii_text(text):
    float(text)  # which float alone would read
    for kind in (float, int):
        with pytest.raises(ValueError, match="not an ASCII number"):
            parse_number(text, kind)


def test_parse_config_refuses_a_non_ascii_digit(tmp_path):
    text = GOOD_CONFIG.replace("lambda_a_nm = 1550", f"lambda_a_nm = {ARABIC_1550}")
    with pytest.raises(ParseError) as excinfo:
        parse_config(_write(tmp_path, text))
    assert str(excinfo.value) == f"line 2: lambda_a_nm must be a number, got {ARABIC_1550!r}"


def test_parse_config_names_the_first_faulty_line(tmp_path):
    # one pass: a bad value is reported before a later unknown key and
    # before the keys that are missing
    text = "lambda_a_nm = 1550\nd_a_mm = wide\nfocal_mm = 150\n"
    with pytest.raises(ParseError, match="^line 2: d_a_mm must be a number"):
        parse_config(_write(tmp_path, text))
    with pytest.raises(UnknownKey, match="^line 3: unknown key 'focal_mm'"):
        parse_config(_write(tmp_path, text.replace("wide", "11.7")))


def test_read_profile_csv_refuses_a_non_ascii_digit(tmp_path):
    path = tmp_path / "profile.csv"
    row = "\u0660,\u0661,\u0661"
    path.write_text(f"rho_m,rate_norm,visibility\n0.0,1.0,1.0\n{row}\n", encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        read_profile_csv(path)
    assert str(excinfo.value) == f"{path}:3: expected three finite numbers, got {row!r}"


def _maximal_cfg_file(tmp_path):
    text = (
        "lambda_a_nm = 1550\nlambda_b_nm = 810\nlambda_p_nm = 532\n"
        "d_a_mm = 11.7\nf0_mm = 150\nsigma_b = 2.36e-2\nmodel = maximal\n"
    )
    return parse_config(_write(tmp_path, text, "maximal.cfg"))


def test_pgm_round_trip(tmp_path):
    cfg = _maximal_cfg_file(tmp_path)
    image, _ = render_pattern(cfg, 1e-3, 64, 0.0)
    path = tmp_path / "image.pgm"
    write_pgm(image, path)

    parts = path.read_bytes().split(b"\n", 4)
    assert parts[0] == b"P5"
    assert parts[1].startswith(b"# rate_max ")
    assert parts[2] == b"64 64"
    assert parts[3] == b"65535"

    samples, rate_max = read_pgm(path)
    assert samples.shape == (64, 64)
    assert samples.dtype == np.dtype(">u2")
    assert samples.max() == 65535
    assert rate_max == pytest.approx(image.normalization, rel=1e-11, abs=0)
    # quantization bound: half a granule of the 16-bit scale
    restored = samples[32:, 32:].astype(float) * (image.normalization / 65535.0)
    assert np.max(np.abs(restored - image.quadrant)) <= 0.5 * image.normalization / 65535.0


def test_pgm_big_endian_on_disk(tmp_path):
    cfg = _maximal_cfg_file(tmp_path)
    image, _ = render_pattern(cfg, 1e-3, 64, 0.0)
    path = tmp_path / "image.pgm"
    write_pgm(image, path)
    payload = path.read_bytes().split(b"\n", 4)[4]
    assert len(payload) == 2 * 64 * 64
    # the full-scale sample must appear as big-endian 0xFFFF
    assert b"\xff\xff" in payload
    # spot check one sample against the array order numpy reports
    samples, _ = read_pgm(path)
    k = int(np.argmax(samples))
    assert payload[2 * k : 2 * k + 2] == b"\xff\xff"


def test_profile_csv_round_trip(tmp_path, partial_cfg):
    profile = radial_profile(partial_cfg, 1.5e-3, 16, 0.0)
    path = tmp_path / "profile.csv"
    write_profile_csv(profile, path)

    lines = path.read_text().splitlines()
    assert lines[0] == "rho_m,rate_norm,visibility"
    assert len(lines) == 17
    # 12 significant digits per field
    first = lines[1].split(",")
    assert all(len(f.split("e")[0].replace(".", "").replace("-", "")) == 12 for f in first[1:])

    back = read_profile_csv(path)
    assert np.allclose(back.rho, profile.rho, rtol=1e-11)
    assert np.allclose(back.visibility, profile.visibility, rtol=1e-10, atol=1e-12)
    assert back.rate.max() == pytest.approx(1.0, rel=1e-11, abs=0)


@pytest.mark.parametrize("n", [1, 16])
def test_read_profile_csv_returns_the_written_columns(tmp_path, partial_cfg, n):
    # 1-D float arrays, a one-row file included, holding the written values
    profile = RadialProfile(*(column[:n] for column in radial_profile(partial_cfg, 1.5e-3, 16, 0.0)))
    path = tmp_path / "profile.csv"
    write_profile_csv(profile, path)
    rows = [[float(field) for field in line.split(",")] for line in path.read_text().splitlines()[1:]]
    back = read_profile_csv(path)
    for column, written in zip(back, zip(*rows)):
        assert column.dtype == np.float64 and column.shape == (n,)
        assert column.tolist() == list(written)


@pytest.mark.parametrize("body, where, message", [
    ("", "", "no profile rows after the header"),
    ("0.0,1.0,1.0\n1e-4,0.5\n", ":3", "expected three finite numbers, got '1e-4,0.5'"),
    ("0.0,1.0,1.0,2.0\n", ":2", "expected three finite numbers"),
    ("0.0,one,1.0\n", ":2", "expected three finite numbers, got '0.0,one,1.0'"),
    ("0.0,1.0,nan\n", ":2", "expected three finite numbers"),
    ("0.0,1.0,1.0\n\n", ":3", "expected three finite numbers, got ''"),
    ("0.0,1.0,1.0\n1e-4,0.5,0.9\n1e-4,0.4,0.8\n", ":4", "rho must increase"),
    ("0.0,1.0,1.0\n1e-4,0.5,1.5\n", ":3", "visibility must lie in [0, 1]"),
    ("0.0,1.0,-1e-3\n", ":2", "visibility must lie in [0, 1]"),
])
def test_read_profile_csv_names_the_path_and_line(tmp_path, body, where, message):
    path = tmp_path / "profile.csv"
    path.write_text("rho_m,rate_norm,visibility\n" + body)
    with pytest.raises(ParseError) as excinfo:
        read_profile_csv(path)
    assert str(excinfo.value).startswith(f"{path}{where}: {message}")


def test_read_profile_csv_reads_utf8_text(tmp_path):
    text = "rho_m,rate_norm,visibility\n0.0,1.0,1.0\n1e-4,0.5,0.9\n"
    plain, marked, bad = (tmp_path / name for name in ("plain.csv", "bom.csv", "bad.csv"))
    plain.write_text(text)
    marked.write_bytes(codecs.BOM_UTF8 + text.encode("ascii"))
    got, want = read_profile_csv(marked), read_profile_csv(plain)
    for field in ("rho", "rate", "visibility"):
        assert np.array_equal(getattr(got, field), getattr(want, field))
    bad.write_bytes(text.encode("ascii") + b"2e-4,0.4,0.8 # \xb5m\n")
    with pytest.raises(ParseError, match=re.escape(f"{bad}:4: not UTF-8 text (byte 0xb5)")):
        read_profile_csv(bad)


def assert_pgm_is_the_quadrant(path, image):
    """Pin every sample of the PGM that write_pgm wrote for ``image``.

    The header must be write_pgm's, and read_pgm takes exactly the
    samples it announces. The frame's lower-right block, rows and
    columns i >= N // 2, must equal the quadrant quantised to 16 bits;
    the frame must be exactly symmetric under both flips, which maps
    every other sample onto that block, and under transposition when
    the quantised quadrant is.
    """
    size = image.resolution
    header = f"P5\n# rate_max {image.normalization:.12e}\n{size} {size}\n65535\n"
    assert path.read_bytes()[:len(header)] == header.encode("ascii")
    samples, _ = read_pgm(path)
    scale = 65535 / image.normalization if image.normalization > 0.0 else 0.0
    quantised = np.rint(image.quadrant * scale).clip(0, 65535).astype(">u2")
    half = size // 2
    assert samples.shape == (size, size)
    assert np.array_equal(samples[half:, half:], quantised)
    assert np.array_equal(samples, samples[::-1, :])
    assert np.array_equal(samples, samples[:, ::-1])
    assert np.array_equal(samples, samples.T) == np.array_equal(quantised, quantised.T)


def _reference_profile_text(profile):
    """The per-row f-string CSV writer the formatted map replaced."""
    peak = float(profile.rate.max())
    scale = 1.0 / peak if peak > 0.0 else 0.0
    lines = ["rho_m,rate_norm,visibility"]
    for rho, rate, vis in zip(profile.rho, profile.rate, profile.visibility):
        lines.append(f"{rho:.11e},{rate * scale:.11e},{vis:.11e}")
    return "\n".join(lines) + "\n"


def _pgm_cases(cfgs):
    rng = np.random.default_rng(7)
    images = [render_pattern(cfg, 3e-3, n, 0.4)[0] for cfg in cfgs for n in (64, 257)]
    # several quantise and write blocks, at both parities
    images += [render_pattern(cfgs[0], 3e-3, n, 0.4)[0] for n in (2048, 2049)]
    images.append(FringeImage(90, rng.random((45, 45)) * 3.7e-9))
    # samples on exact half granules, where rint rounds half to even,
    # in a 363 x 363 quadrant padded with zeros
    half_granules = np.zeros(363 * 363)
    half_granules[:131071] = np.arange(0.0, 65535.5, 0.5)
    images.append(FringeImage(725, half_granules.reshape(363, 363)))
    images.append(FringeImage(64, np.zeros((32, 32))))
    return images


@pytest.mark.parametrize("resolution", [2048, 2049])
def test_write_pgm_holds_the_16_bit_quadrant_and_small_blocks(tmp_path, partial_cfg, resolution):
    # no float copy of the quadrant and no full frame: the 16-bit
    # quadrant is a quarter of the float one, and the blocks stay small
    image, _ = render_pattern(partial_cfg, 3e-3, resolution, 0.4)
    tracemalloc.start()
    try:
        write_pgm(image, tmp_path / "image.pgm")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= image.quadrant.nbytes / 4 + 2**20


def test_read_pgm_holds_only_its_samples(tmp_path, partial_cfg):
    image, _ = render_pattern(partial_cfg, 3e-3, 2048, 0.4)
    path = tmp_path / "image.pgm"
    write_pgm(image, path)
    tracemalloc.start()
    try:
        samples, _ = read_pgm(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert samples.shape == (2048, 2048)
    assert peak <= samples.nbytes + 2**20


@pytest.mark.parametrize("edit", [
    lambda blob: blob.replace(b"\n64 64\n", b"\n4096 4096\n"),
    lambda blob: blob[:-50],
    lambda blob: blob.replace(b"\n64 64\n", b"\n64 x\n"),
    lambda blob: blob.replace(b"\n64 64\n", b"\n0 64\n"),
    lambda blob: blob.replace(b"\n65535\n", b"\n255\n"),
    lambda blob: blob + b"\0\0",
], ids=["size_4096", "cut_short", "size_not_a_number", "size_zero", "maxval_255", "trailing"])
def test_read_pgm_checks_header_and_length_before_allocating(tmp_path, maximal_cfg, edit):
    path = tmp_path / "image.pgm"
    write_pgm(render_pattern(maximal_cfg, 1e-3, 64, 0.0)[0], path)
    path.write_bytes(edit(path.read_bytes()))
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=re.escape(str(path))):
            read_pgm(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_write_pgm_lays_out_the_quadrant(tmp_path, partial_cfg, maximal_cfg, uncorrelated_cfg):
    path = tmp_path / "image.pgm"
    for image in _pgm_cases([partial_cfg, maximal_cfg, uncorrelated_cfg]):
        write_pgm(image, path)
        assert_pgm_is_the_quadrant(path, image)


def test_write_profile_csv_matches_reference_text(
    tmp_path, partial_cfg, maximal_cfg, uncorrelated_cfg
):
    rng = np.random.default_rng(11)
    profiles = [
        radial_profile(cfg, 1.5e-3, n, phi)
        for cfg in (partial_cfg, maximal_cfg, uncorrelated_cfg)
        for n, phi in ((2, 0.0), (301, 0.4), (1024, 5.9))
    ]
    rho = np.cumsum(rng.random(50) * 1e-4)
    profiles.append(RadialProfile(rho, rng.random(50) * 1e-300, rng.random(50)))
    profiles.append(RadialProfile(rho, np.zeros(50), np.zeros(50)))
    path = tmp_path / "profile.csv"
    for profile in profiles:
        write_profile_csv(profile, path)
        assert path.read_bytes() == _reference_profile_text(profile).encode("ascii")


def _reference_e11_rows(values):
    """The per-float Python formatting that format_e11_rows replaces."""
    return "".join(",".join(format(v, ".11e") for v in row) + "\n" for row in values.tolist())


finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1e-99),  # subnormals and three-digit exponents
    st.floats(min_value=1e-12, max_value=1.0),  # the profile's range
    st.floats(min_value=1e22, max_value=1e40),  # past the exact powers of ten
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(finite_floats, finite_floats, finite_floats), min_size=1, max_size=20))
def test_format_e11_rows_matches_python_format(rows):
    values = np.array(rows, dtype=float)
    assert format_e11_rows(values).decode("ascii") == _reference_e11_rows(values)


@pytest.mark.parametrize("value,text", [
    (2.0**-18, "3.81469726562e-06"),  # an exact tie, rounded half to even
    (9.999999999995e-3, "1.00000000000e-02"),  # rounds up into the next decade
    (0.0, "0.00000000000e+00"),
    (5e-324, "4.94065645841e-324"),
])
def test_format_e11_rows_fixed_cases(value, text):
    values = np.array([[value, 0.5], [1.0, value]])
    want = f"{text},5.00000000000e-01\n1.00000000000e+00,{text}\n"
    assert format_e11_rows(values).decode("ascii") == want


def test_format_e11_rows_at_powers_of_ten():
    powers = np.array([float(f"1e{k}") for k in range(-120, 121)])
    values = np.stack([np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)], axis=1)
    assert format_e11_rows(values).decode("ascii") == _reference_e11_rows(values)


def test_format_e11_rows_non_finite_and_negative():
    values = np.array([[np.nan, 1.0, -0.0], [0.25, -np.inf, -1e-5], [np.inf, 2.0, 3.0]])
    assert format_e11_rows(values).decode("ascii") == _reference_e11_rows(values)


def test_format_e11_rows_signed_zeros():
    # +0.0 is written by a masked assignment, -0.0 (18 bytes) takes its row to Python
    values = np.array([[0.0, -0.0, 1.0], [0.0, 0.5, 0.0], [-0.0, 0.0, 0.0]])
    assert format_e11_rows(values).decode("ascii") == _reference_e11_rows(values)
    assert format_e11_rows(values.T.copy()).decode("ascii") == _reference_e11_rows(values.T)


def test_format_e11_rows_zero_column():
    # the visibility column of an uncorrelated profile
    values = np.zeros((1024, 1))
    assert format_e11_rows(values).decode("ascii") == _reference_e11_rows(values)
    values = np.stack([np.linspace(0.0, 2e-3, 1024), np.ones(1024), np.zeros(1024)], axis=1)
    assert format_e11_rows(values).decode("ascii") == _reference_e11_rows(values)


def _manifest(outputs):
    return {
        "command": "simulate",
        "config": {"d_a": 0.0117},
        "outputs": outputs,
        "version": "0.1.0",
        "duration_s": 1.5,
        "started_at": "2026-08-23T00:00:00+00:00",
    }


def test_manifest_requires_existing_outputs(tmp_path):
    path = tmp_path / "run.manifest.json"
    missing = str(tmp_path / "never-written.csv")
    target = tmp_path / "out.csv"
    target.write_text("data\n")
    with pytest.raises(ValueError, match="do not exist"):
        write_manifest(_manifest([str(target), missing]), path)
    assert not path.exists()


def test_write_manifest_is_readable_json(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("data\n")
    path = tmp_path / "run.manifest.json"
    write_manifest(_manifest([str(target)]), path)
    assert json.loads(path.read_text()) == _manifest([str(target)])


def test_config_to_dict_round_trips_model(partial_cfg):
    d = config_to_dict(partial_cfg)
    assert d["correlation_model"] == "gaussian_partial"
    assert d["lambda_a"] == partial_cfg.lambda_a
    assert d["sigma_theta"] == partial_cfg.sigma_theta


def test_manifest_dicts_match_asdict(partial_cfg, maximal_cfg):
    # the shallow config view serializes exactly as dataclasses.asdict did
    for cfg in (partial_cfg, maximal_cfg):
        deep = dataclasses.asdict(cfg)
        deep["correlation_model"] = cfg.correlation_model.value
        assert config_to_dict(cfg) == deep
