"""Property tests of the closed forms over the validated input domain."""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinfringes import (
    ConfigError,
    CorrelationModel,
    NoHalfPoint,
    central_visibility,
    counting_rate_maxcorr,
    ToleranceNotReached,
    assemble_state,
    counting_rate_partial,
    counting_rate_partial_quadrature,
    counting_rate_uncorrelated,
    derive_constants,
    effective_curvature,
    estimate_sigma_theta,
    parse_config,
    read_pgm,
    render_pattern,
    visibility_closed_form,
    visibility_hwhm,
    visibility_hwhms,
    visibility_scan,
    write_pgm,
)
from twinfringes.analytics import _closed_form, _fringe
from twinfringes.cli import run_oracle_check

from conftest import make_config
from test_analytics import SEPARABLE_TOL, pixel_radii, quadrant_centers
from test_fileio import assert_pgm_is_the_quadrant

# Deterministic draws keep the tier-1 run reproducible.
PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)

sigma_theta = st.floats(1e-6, 3e-2)
d_a = st.floats(1e-4, 1.0)
n_a = st.floats(1.0, 3.0)
rho = st.floats(0.0, 20e-3)
phi_0 = st.floats(allow_nan=False, allow_infinity=False)


@PROPERTY_SETTINGS
@given(sigma_theta, d_a, n_a, rho)
def test_visibility_lies_in_unit_interval(sigma, d, n, r):
    cfg = make_config(sigma_theta=sigma, d_a=d, n_a=n)
    v = visibility_closed_form(r, cfg)
    assert 0.0 <= v <= 1.0
    assert 0.0 <= visibility_closed_form(np.array([r]), cfg)[0] <= 1.0


@PROPERTY_SETTINGS
@given(sigma_theta, d_a, n_a, rho, phi_0)
def test_model_rates_are_nonnegative(sigma, d, n, r, phi):
    fields = dict(sigma_theta=sigma, d_a=d, n_a=n)
    rates = (
        counting_rate_maxcorr(r, phi, make_config(CorrelationModel.MAXIMAL, **fields)),
        counting_rate_uncorrelated(r, make_config(CorrelationModel.UNCORRELATED, **fields)),
        counting_rate_partial(r, phi, make_config(**fields)),
    )
    for rate in rates:
        assert math.isfinite(rate)
        assert rate >= 0.0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(sigma_theta, d_a, n_a, phi_0)
def test_quadrature_meets_the_closed_form_or_refuses(sigma, d, n, phi):
    # where the rule certifies its gap it lies within 1e-13 of the rate
    # scale sigma^2 P(rho); it may refuse only on shell chirps far past
    # any rendered config (kappa >= 1e3, against at most 10 there)
    cfg = make_config(sigma_theta=sigma, d_a=d, n_a=n)
    radii = np.linspace(0.0, 5e-3, 16)
    try:
        quad = counting_rate_partial_quadrature(radii, phi, cfg)
    except ToleranceNotReached:
        assert derive_constants(cfg).kappa >= 1e3
        return
    scale = sigma * sigma * counting_rate_uncorrelated(radii, cfg)
    assert np.max(np.abs(quad - counting_rate_partial(radii, phi, cfg)) / scale) <= 1e-13


@PROPERTY_SETTINGS
@given(st.floats(1e-5, 3e-2), d_a, n_a)
def test_sigma_theta_round_trips_through_central_visibility(sigma, d, n):
    cfg = make_config(sigma_theta=sigma, d_a=d, n_a=n)
    v0 = central_visibility(cfg)
    err = abs(estimate_sigma_theta(v0, cfg) - sigma) / sigma
    if v0 <= 0.999:
        assert err <= 1e-12
    else:
        # Near v0 = 1 the inverse is ill-conditioned: v0 = 2 / sqrt(4 +
        # kappa^2) carries about one ulp of rounding, and 1 / v0^2 - 1 =
        # kappa^2 / 4 turns it into a relative error of order eps / kappa^2.
        kappa = derive_constants(cfg).kappa
        assert err <= 4.0 * sys.float_info.epsilon / kappa**2


@PROPERTY_SETTINGS
@given(sigma_theta, d_a, n_a)
def test_hwhm_is_the_innermost_crossing(sigma, d, n):
    # the march grid: 1024 radii out to 10 chi / sigma_theta. Every grid
    # radius before the HWHM keeps V >= v0 / 2, and the next one is below
    cfg = make_config(sigma_theta=sigma, d_a=d, n_a=n)
    half = 0.5 * central_visibility(cfg)
    grid = np.arange(1, 1025) * (10.0 * derive_constants(cfg).chi / sigma / 1024)
    try:
        hwhm = visibility_hwhm(cfg)
    except NoHalfPoint:
        assert np.all(visibility_closed_form(grid, cfg) >= half)
        return
    inner = grid[grid < hwhm]
    assert np.all(visibility_closed_form(inner, cfg) >= half)
    assert visibility_closed_form(grid[len(inner)], cfg) < half


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.lists(st.one_of(st.just(0.0), st.floats(1e-5, 3e-2)), min_size=1, max_size=8),
    st.data(),
    st.floats(1e-3, 50e-3),
    st.floats(1.0, 3.0),
)
def test_batched_hwhms_equal_one_width_hwhm_bit_for_bit(widths, data, d, n):
    # unsorted as drawn, with 0 and a repeated width in the batch
    repeat = data.draw(st.sampled_from(widths))
    sigmas = widths + [repeat, 0.0]
    cfg = make_config(d_a=d, n_a=n)
    scanned = [dataclasses.replace(cfg, sigma_theta=s) for s in sigmas]
    batch = visibility_hwhms(sigmas, [derive_constants(c) for c in scanned])
    for sigma, c, got in zip(sigmas, scanned, batch):
        try:
            expected = visibility_hwhm(c).hex()
        except NoHalfPoint:
            expected = None
        assert (got.hex() if got is not None else None) == expected, sigma


# Every image size of the render workload (256-1024 px) and beyond, odd
# and even; each example renders one image and evaluates it per pixel.
RENDER_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


@RENDER_SETTINGS
@given(
    st.integers(64, 1100),
    st.floats(5e-4, 6e-3),
    st.floats(-10.0, 10.0),
    st.sampled_from(list(CorrelationModel)),
)
def test_render_quadrant_and_pgm_match_per_pixel_references(
    tmp_path_factory, resolution, screen, phi, model
):
    # the partial quadrant is bit-equal to interpolating its radial
    # profile at every pixel's radius; the maximal and uncorrelated
    # quadrants are the exact closed form there, within SEPARABLE_TOL of
    # the peak, and their PGMs' lower-right blocks within 1 LSB of that
    # rate quantised
    cfg = make_config(model)
    image, _ = render_pattern(cfg, screen, resolution, phi)
    radii = pixel_radii(quadrant_centers(screen, resolution))
    path = tmp_path_factory.mktemp("render") / "image.pgm"
    write_pgm(image, path)
    assert_pgm_is_the_quadrant(path, image)
    if model is CorrelationModel.GAUSSIAN_PARTIAL:
        pitch = screen / resolution
        r_prof = np.linspace(0.0, 0.5 * screen * math.sqrt(2.0) + pitch, 4 * resolution + 2)
        direct = np.interp(radii, r_prof, _fringe(r_prof, phi, cfg)[0])
        assert np.array_equal(image.quadrant, direct)
        return
    direct = _fringe(radii, phi, cfg)[0]
    assert np.max(np.abs(image.quadrant - direct)) <= SEPARABLE_TOL * direct.max()
    samples, _ = read_pgm(path)
    quantised = np.rint(direct * (65535 / direct.max()))
    half = resolution // 2
    assert np.max(np.abs(samples[half:, half:].astype(float) - quantised)) <= 1.0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.floats(0.0, 0.5 * math.pi), st.floats(-10.0, 10.0), st.floats(-10.0, 10.0),
       st.floats(-10.0, 10.0))
def test_oracle_passes_for_any_source_amplitudes_and_phases(tmp_path_factory, angle, p1, p2, pb):
    # the grid route puts the static phase in its a-phase table and the
    # magnitudes in its phasor; the closed forms take both from source_fringe
    out = tmp_path_factory.mktemp("oracle") / "oracle.json"
    for model in CorrelationModel:
        cfg = make_config(model, alpha1_mag=math.cos(angle), alpha2_mag=math.sin(angle),
                          phi1=p1, phi2=p2, phi_b=pb)
        run_oracle_check(cfg, 512, out)


EPS = sys.float_info.epsilon
LENGTH_FIELDS = ("lambda_a", "lambda_b", "lambda_p", "d_a", "f0")

# Worst changes of the closed-form phasor under length scaling over 3000
# random draws of this domain (s log-uniform in [0.1, 1e3], phi_0 in
# [-10, 10], 41 radii over 0-2 mm): the peak-relative A in units of
# eps, and F and V in units of eps (1 + K rho_max^2 + |phi_0|), since
# they inherit the rounding of the fringe phase. Each bound is 4x these.
SCALING_WORST = {"mean": 1.5, "fringe": 4.5, "visibility": 1.6}


@PROPERTY_SETTINGS
@given(sigma_theta, d_a, n_a, st.floats(-10.0, 10.0), st.floats(0.1, 1e3))
def test_scaling_every_length_leaves_the_phasor_unchanged(sigma, d, n, phi, s):
    # rates and visibilities depend on lengths only through their ratios
    rho = np.linspace(0.0, 2e-3, 41)
    for model in CorrelationModel:
        cfg = make_config(model, sigma_theta=sigma, d_a=d, n_a=n)
        scaled = dataclasses.replace(cfg, **{f: s * getattr(cfg, f) for f in LENGTH_FIELDS})
        (a1, f1, v1), (a2, f2, v2) = (_closed_form(r, phi, c, model)
                                      for r, c in ((rho, cfg), (s * rho, scaled)))
        phase_scale = 1.0 + effective_curvature(cfg) * rho[-1] ** 2 + abs(phi)
        assert np.max(np.abs(a1 / a1.max() - a2 / a2.max())) <= 4 * SCALING_WORST["mean"] * EPS
        bound = 4 * EPS * phase_scale
        assert np.max(np.abs(f1 - f2)) <= SCALING_WORST["fringe"] * bound
        assert np.max(np.abs(v1 - v2)) <= SCALING_WORST["visibility"] * bound


# Worst changes of the quadrature and the grid under length scaling over
# 3000 random draws of this domain (s log-uniform in [0.1, 1e3],
# phi_0 in [-10, 10], the 16 radii of oracle, 512 modes, three models),
# in units of eps (1 + K rho_max^2 + |phi_0|): each output carries the
# rounding of the fringe phase, and only the quadrature takes phi_0.
# Each bound is 4x these.
ROUTE_SCALING_WORST = {"quadrature rate": 1.0, "grid visibility": 0.8, "grid rate": 1.2,
                       "grid fringe": 3.9}


@PROPERTY_SETTINGS
@given(st.floats(5e-4, 2e-3), st.floats(1e-3, 50e-3), n_a, st.floats(-10.0, 10.0),
       st.floats(0.1, 1e3))
def test_scaling_every_length_leaves_the_quadrature_and_the_grid_unchanged(sigma, d, n, phi, s):
    for model in CorrelationModel:
        cfg = make_config(model, sigma_theta=sigma, d_a=d, n_a=n)
        scaled = dataclasses.replace(cfg, **{f: s * getattr(cfg, f) for f in LENGTH_FIELDS})
        rho = np.linspace(0.0, 0.5 * cfg.f0 * cfg.sigma_b, 16)
        bound = 4 * EPS * (1.0 + effective_curvature(cfg) * rho[-1] ** 2)
        (v1, r1, f1), (v2, r2, f2) = (visibility_scan(assemble_state(c, r, 512))
                                      for r, c in ((rho, cfg), (s * rho, scaled)))
        assert np.max(np.abs(v1 - v2)) <= ROUTE_SCALING_WORST["grid visibility"] * bound
        assert (np.max(np.abs(r1 / r1.max() - r2 / r2.max()))
                <= ROUTE_SCALING_WORST["grid rate"] * bound)
        assert np.max(np.abs(f1 - f2)) <= ROUTE_SCALING_WORST["grid fringe"] * bound
        if model is CorrelationModel.GAUSSIAN_PARTIAL:
            q1, q2 = (counting_rate_partial_quadrature(r, phi, c)
                      for r, c in ((rho, cfg), (s * rho, scaled)))
            assert (np.max(np.abs(q1 / q1.max() - q2 / q2.max()))
                    <= ROUTE_SCALING_WORST["quadrature rate"] * (bound + 4 * EPS * abs(phi)))


@pytest.mark.parametrize("field, value", [
    ("f0", 0.1), ("f0", 0.3), ("lambda_b", 700e-9), ("lambda_b", 900e-9),
])
def test_central_visibility_is_blind_to_f0_and_lambda_b(field, value):
    # V(0) = 2c / gamma, and kappa = sigma^2 n_a pi d_a lambda_a / lambda_p^2
    # holds neither f0 nor lambda_b; on the reference widths no rounding shows
    for sigma in (5e-4, 9.37e-4, 2e-3):
        cfg = make_config(sigma_theta=sigma)
        moved = dataclasses.replace(cfg, **{field: value})
        v0 = central_visibility(cfg)
        assert central_visibility(moved) == v0
        model = CorrelationModel.GAUSSIAN_PARTIAL
        assert _closed_form(np.zeros(1), 0.4, moved, model)[2][0] == v0


# Worst |V(0) change| in units of eps over 20000 random draws of this
# domain, t log-uniform in [0.1, 10], f0 in [0.01, 1] m and lambda_b in
# [400, 2000] nm; the bound is 4x it.
KAPPA_WORST = 1.5


@PROPERTY_SETTINGS
@given(sigma_theta, d_a, n_a, st.floats(0.1, 10.0), st.floats(0.01, 1.0), st.floats(400e-9, 2e-6))
def test_central_visibility_depends_on_kappa_alone(sigma, d, n, t, f0, lambda_b):
    # along d_a t, sigma_theta / sqrt(t) kappa is constant; f0 and
    # lambda_b do not enter it; the phasor's V at rho = 0 is the same law
    v0 = central_visibility(make_config(sigma_theta=sigma, d_a=d, n_a=n))
    for cfg in (make_config(sigma_theta=sigma / math.sqrt(t), d_a=d * t, n_a=n),
                make_config(sigma_theta=sigma, d_a=d, n_a=n, f0=f0),
                make_config(sigma_theta=sigma, d_a=d, n_a=n, lambda_b=lambda_b)):
        assert abs(central_visibility(cfg) - v0) <= 4 * KAPPA_WORST * EPS
        v_phasor = _closed_form(np.zeros(1), 0.0, cfg, CorrelationModel.GAUSSIAN_PARTIAL)[2][0]
        assert v_phasor == central_visibility(cfg)


def _grid_v0(cfg):
    # rho = 0 alone: the table is normalized over every column, so other
    # radii, whose angles hold f0 and lambda_b, would reach V(0) by rounding
    return visibility_scan(assemble_state(cfg, [0.0], 512))[0][0]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.floats(2e-4, 3e-3), st.floats(1e-3, 50e-3), n_a, st.floats(0.5, 2.0),
       st.floats(400e-9, 2e-6), st.floats(0.5, 4.0))
def test_grid_central_visibility_obeys_the_kappa_law(sigma, d, n, f0_scale, lambda_b, t):
    # the grid's V(0) holds neither f0 nor lambda_b, bit for bit, and
    # along d_a t, sigma_theta / sqrt(t) moves by rounding alone (a probe
    # of 400 draws moved it by at most 4.4e-16)
    cfg = make_config(sigma_theta=sigma, d_a=d, n_a=n)
    v0 = _grid_v0(cfg)
    assert _grid_v0(dataclasses.replace(cfg, f0=f0_scale * cfg.f0)) == v0
    assert _grid_v0(dataclasses.replace(cfg, lambda_b=lambda_b)) == v0
    along = make_config(sigma_theta=sigma / math.sqrt(t), d_a=d * t, n_a=n)
    assert abs(_grid_v0(along) - v0) <= 1e-15


# Config keys in file units: key -> (config field, scale to SI units).
FILE_KEYS = {
    "lambda_a_nm": ("lambda_a", 1e-9),
    "lambda_b_nm": ("lambda_b", 1e-9),
    "lambda_p_nm": ("lambda_p", 1e-9),
    "d_a_mm": ("d_a", 1e-3),
    "f0_mm": ("f0", 1e-3),
    "n_a": ("n_a", 1.0),
    "sigma_b": ("sigma_b", 1.0),
    "sigma_theta": ("sigma_theta", 1.0),
    "alpha1_mag": ("alpha1_mag", 1.0),
    "alpha2_mag": ("alpha2_mag", 1.0),
    "phi1_rad": ("phi1", 1.0),
    "phi2_rad": ("phi2", 1.0),
    "phi_b_rad": ("phi_b", 1.0),
}
REQUIRED_KEYS = ("lambda_a_nm", "lambda_b_nm", "d_a_mm", "f0_mm", "sigma_b")

# Values inside the validated domain, in file units. Positive lengths stay
# far above the subnormal range, so the scaled value is never rounded to 0,
# and sigma_b stays below the paraxial warning.
POSITIVE = st.floats(1e-3, 1e6)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
VALID_VALUES = {
    "lambda_a_nm": POSITIVE,
    "lambda_b_nm": POSITIVE,
    "lambda_p_nm": POSITIVE,
    "d_a_mm": st.floats(0.0, 1e6),
    "f0_mm": POSITIVE,
    "n_a": st.floats(1.0, 10.0),
    "sigma_b": st.floats(1e-6, 0.1, exclude_max=True),
    "sigma_theta": st.floats(1e-9, 1.0),
    "phi1_rad": FINITE,
    "phi2_rad": FINITE,
    "phi_b_rad": FINITE,
}

# Values outside it. A drawn source magnitude is written with the other
# one left at its default sqrt(1/2), so -sqrt(1/2) is normalised and out
# of the domain only by its sign.
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NON_POSITIVE = st.floats(-1e6, 0.0) | NON_FINITE
NEGATIVE_NORMALISED = st.just(-math.sqrt(0.5))

INVALID_VALUES = {
    "lambda_a_nm": NON_POSITIVE,
    "lambda_b_nm": NON_POSITIVE,
    "lambda_p_nm": NON_POSITIVE,
    "d_a_mm": st.floats(-1e6, -1e-6) | NON_FINITE,
    "f0_mm": NON_POSITIVE,
    "n_a": st.floats(-1e6, 1.0, exclude_max=True) | NON_FINITE,
    "sigma_b": NON_POSITIVE,
    "sigma_theta": NON_POSITIVE,
    "alpha1_mag": st.floats(0.0, 2.0).filter(lambda a: abs(a * a - 0.5) > 1e-9)
    | NON_FINITE | NEGATIVE_NORMALISED,
    "alpha2_mag": NEGATIVE_NORMALISED,
    "phi1_rad": NON_FINITE,
    "phi2_rad": NON_FINITE,
    "phi_b_rad": NON_FINITE,
}

SPACE = st.sampled_from(["", " ", "  ", "\t"])
SEPARATOR = st.sampled_from(["=", " = ", "\t=  ", "= ", " ", "   "])
PRINTABLE = st.characters(min_codepoint=32, max_codepoint=126)
COMMENT = st.just("") | st.text(PRINTABLE, max_size=12).map(lambda text: " # " + text)


@st.composite
def valid_entries(draw) -> dict[str, object]:
    """Config entries, key -> value, that validate: a model token or a float."""
    model = draw(st.sampled_from(list(CorrelationModel)))
    keys = list(REQUIRED_KEYS)
    optional = ["lambda_p_nm", "sigma_theta", "n_a", "phi1_rad", "phi2_rad", "phi_b_rad"]
    keys += [key for key in optional if draw(st.booleans())]
    if model is CorrelationModel.GAUSSIAN_PARTIAL:
        keys += [key for key in ("lambda_p_nm", "sigma_theta") if key not in keys]
    entries: dict[str, object] = {"model": model.value}
    entries.update((key, draw(VALID_VALUES[key])) for key in keys)
    if draw(st.booleans()):
        angle = draw(st.floats(0.0, math.pi / 2))
        entries["alpha1_mag"] = math.cos(angle)
        entries["alpha2_mag"] = math.sin(angle)
    return entries


@st.composite
def config_text(draw, entries: dict[str, object]) -> str:
    """One ``key = repr(value)`` line per entry, shuffled, with random
    spacing, trailing comments and comment-only lines."""
    lines = []
    for key, value in draw(st.permutations(list(entries.items()))):
        lines += draw(st.lists(COMMENT.map(str.strip), max_size=1))
        text = value if isinstance(value, str) else repr(value)
        lines.append(f"{draw(SPACE)}{key}{draw(SEPARATOR)}{text}{draw(SPACE)}{draw(COMMENT)}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("properties") / "drawn.cfg"


@PROPERTY_SETTINGS
@given(st.data())
def test_parse_config_round_trips_file_values(config_path, data):
    entries = data.draw(valid_entries())
    config_path.write_text(data.draw(config_text(entries)))
    cfg = parse_config(config_path)
    assert cfg.correlation_model is CorrelationModel(entries.pop("model"))
    for key, value in entries.items():
        name, scale = FILE_KEYS[key]
        assert getattr(cfg, name) == float(repr(value)) * scale


@PROPERTY_SETTINGS
@given(st.data())
def test_parse_config_rejects_values_outside_the_domain(config_path, data):
    entries = data.draw(valid_entries())
    key = data.draw(st.sampled_from(sorted(INVALID_VALUES)))
    entries[key] = data.draw(INVALID_VALUES[key])
    if key in ("alpha1_mag", "alpha2_mag"):
        entries.pop("alpha2_mag" if key == "alpha1_mag" else "alpha1_mag", None)
    config_path.write_text(data.draw(config_text(entries)))
    with pytest.raises(ConfigError):
        parse_config(config_path)
