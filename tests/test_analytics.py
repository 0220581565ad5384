"""Closed-form rates, visibility curve, ring geometry and rendering."""

import dataclasses
import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from twinfringes import (
    CorrelationModel,
    FringeImage,
    NoHalfPoint,
    RadialProfile,
    ZeroDistance,
    central_visibility,
    counting_rate_maxcorr,
    counting_rate_partial,
    counting_rate_partial_quadrature,
    counting_rate_uncorrelated,
    derive_constants,
    effective_curvature,
    fringe_radius,
    radial_profile,
    read_pgm,
    render_pattern,
    sweep_visibility,
    visibility_closed_form,
    visibility_hwhm,
    write_pgm,
)
from twinfringes import analytics
from twinfringes.analytics import _fringe
from twinfringes.config import source_fringe

from conftest import make_config, mp_partial

# Frozen closed-form visibility for the reference setup (sigma_theta = 9.37e-4).
V_REF = {
    0.0: 0.996118297317,
    0.3e-3: 0.936664728497,
    0.6e-3: 0.772281240225,
    0.9e-3: 0.540157269712,
    1.276e-3: 0.228089711058,
    1.5e-3: 0.0718633085399,
}
RHO_1_REF = 1.27594659067e-3
HWHM_REF = 9.5023261e-4


def test_maxcorr_rate_bright_and_dark(maximal_cfg):
    assert counting_rate_maxcorr(0.0, 0.0, maximal_cfg) == 2.0
    # phase-shifted center sits exactly on a dark fringe
    assert counting_rate_maxcorr(0.0, math.pi, maximal_cfg) == 0.0
    r1 = fringe_radius(1, maximal_cfg)
    envelope = math.exp(-2.0 * r1**2 / (maximal_cfg.f0 * maximal_cfg.sigma_b) ** 2)
    rate = counting_rate_maxcorr(r1, 0.0, maximal_cfg)
    assert rate == pytest.approx(2.0 * envelope, rel=1e-9, abs=0)


def test_maxcorr_rate_rejects_negative_radius(maximal_cfg):
    with pytest.raises(ValueError):
        counting_rate_maxcorr(-1e-3, 0.0, maximal_cfg)


def test_fringe_radius_reference_and_scaling(maximal_cfg):
    assert fringe_radius(0, maximal_cfg) == 0.0
    r1 = fringe_radius(1, maximal_cfg)
    assert r1 == pytest.approx(RHO_1_REF, rel=1e-11, abs=0)
    for n in range(2, 11):
        assert fringe_radius(n, maximal_cfg) == pytest.approx(r1 * math.sqrt(n), rel=1e-13, abs=0)


def test_fringe_radius_equivalent_wavelength_form(maximal_cfg):
    cfg = maximal_cfg
    lam_eq = cfg.lambda_b**2 / cfg.lambda_a
    expect = math.sqrt(2.0 * lam_eq * cfg.f0**2 / (cfg.n_a * cfg.d_a))
    assert fringe_radius(1, cfg) == pytest.approx(expect, rel=1e-13, abs=0)


def test_fringe_radius_errors(maximal_cfg):
    with pytest.raises(ValueError):
        fringe_radius(-1, maximal_cfg)
    with pytest.raises(ZeroDistance):
        fringe_radius(1, make_config(CorrelationModel.MAXIMAL, d_a=0.0))


def test_uncorrelated_rate_is_bare_envelope(uncorrelated_cfg):
    scale = (uncorrelated_cfg.f0 * uncorrelated_cfg.sigma_b) ** 2
    for rho in (0.0, 0.5e-3, 1.5e-3):
        expect = math.exp(-2.0 * rho**2 / scale)
        rate = counting_rate_uncorrelated(rho, uncorrelated_cfg)
        assert rate == pytest.approx(expect, rel=1e-13, abs=0)


def test_partial_rate_dc_level(partial_cfg):
    # opposite scan phases cancel the fringe term; what is left is the
    # phase-independent sigma_theta^2 envelope level
    sigma2 = partial_cfg.sigma_theta**2
    for phi_0 in (0.0, 0.7, 2.2):
        total = counting_rate_partial_quadrature(0.0, phi_0, partial_cfg)
        total += counting_rate_partial_quadrature(0.0, phi_0 + math.pi, partial_cfg)
        assert total == pytest.approx(sigma2, rel=1e-9, abs=0)


def test_partial_rate_phase_sweep_matches_closed_form(partial_cfg):
    rho = np.array([0.0, 0.6e-3, 1.276e-3])
    v = sweep_visibility(lambda p: counting_rate_partial_quadrature(rho, p, partial_cfg))
    assert v == pytest.approx(visibility_closed_form(rho, partial_cfg), abs=1e-9)


def test_partial_rate_requires_sigma_theta():
    cfg = make_config(CorrelationModel.MAXIMAL)
    with pytest.raises(ValueError):
        counting_rate_partial_quadrature(0.0, 0.0, cfg)
    with pytest.raises(ValueError, match="lambda_p"):
        counting_rate_partial_quadrature(0.0, 0.0, dataclasses.replace(make_config(), lambda_p=None))
    with pytest.raises(ValueError):
        counting_rate_partial(0.0, 0.0, cfg)


def test_partial_rate_rejects_negative_radius(partial_cfg):
    with pytest.raises(ValueError):
        counting_rate_partial(np.array([0.0, -1e-3]), 0.0, partial_cfg)


@pytest.mark.parametrize("sigma", [1e-4, 3e-4, 9.37e-4, 3e-3])
def test_partial_rate_matches_quadrature(sigma):
    # closed form vs the independent quadrature route, peak-relative,
    # across the revival region; the quadrature certifies 1e-10 absolute
    # on an O(0.5) integral (measured worst 1e-15)
    rho = np.linspace(0.0, 10e-3, 26)
    worst = 0.0
    grid = itertools.product((5e-3, 11.7e-3, 20e-3), (1.0, 1.5), (0.0, 0.7, 2.5, -1.0))
    for d_a, n_a, phi_0 in grid:
        cfg = make_config(sigma_theta=sigma, d_a=d_a, n_a=n_a)
        quad = counting_rate_partial_quadrature(rho, phi_0, cfg)
        closed = counting_rate_partial(rho, phi_0, cfg)
        worst = max(worst, float(np.max(np.abs(closed - quad)) / quad.max()))
    assert worst <= 1e-9


def test_quadrature_does_not_stop_on_one_false_panel():
    # a render-workload request on which QUADPACK, started from one
    # 21-point panel on [0, 6], reported an error of 3.2e-11 and was
    # 1.8e-9 off; the rule compares two panel counts, each at least one
    # panel per unit width, and gives the rate to rounding
    cfg = make_config(d_a=13.676531330592502e-3, sigma_theta=1.0581348608163475e-3)
    phi_0, rho = 2.2085900119408275, 4.4893563987119897e-4
    exact = mp_partial(rho, phi_0, cfg)[0]
    assert abs(counting_rate_partial_quadrature(rho, phi_0, cfg) - exact) <= 1e-12 * exact



def test_quadrature_takes_a_radius_or_an_array(partial_cfg):
    rho = np.array([[0.0, 0.4e-3], [1.1e-3, 2.5e-3]])
    rates = counting_rate_partial_quadrature(rho, 0.3, partial_cfg)
    assert rates.shape == rho.shape
    one = counting_rate_partial_quadrature(1.1e-3, 0.3, partial_cfg)
    assert isinstance(one, float)
    assert one == pytest.approx(rates[1, 0], rel=1e-14, abs=0)


def test_quadrature_forms_its_own_constants(partial_cfg, monkeypatch):
    # a fault in derive_constants must not reach the reference route
    expected = counting_rate_partial_quadrature(np.array([0.0, 1e-3]), 0.3, partial_cfg)

    def broken(*args, **kwargs):
        raise AssertionError("the quadrature read derive_constants")

    monkeypatch.setattr(analytics, "derive_constants", broken)
    got = counting_rate_partial_quadrature(np.array([0.0, 1e-3]), 0.3, partial_cfg)
    assert np.array_equal(got, expected)

@pytest.mark.parametrize("sigma,d_a,n_a", [
    (1e-4, 11.7e-3, 1.0),
    (9.37e-4, 11.7e-3, 1.0),
    (9.37e-4, 5e-3, 1.5),
    (3e-3, 20e-3, 1.0),
    (9.37e-4, 117.0, 1.0),
])
def test_partial_rate_and_visibility_match_mpmath(sigma, d_a, n_a):
    # 0-10 mm includes the first visibility minimum and its revival
    cfg = make_config(sigma_theta=sigma, d_a=d_a, n_a=n_a)
    rho = np.linspace(0.0, 10e-3, 21)
    ref = np.array([mp_partial(float(r), 0.7, cfg) for r in rho])
    rate = counting_rate_partial(rho, 0.7, cfg)
    assert np.max(np.abs(rate - ref[:, 0])) <= 1e-13 * ref[:, 0].max()
    assert np.max(np.abs(visibility_closed_form(rho, cfg) - ref[:, 1])) <= 1e-13


def test_partial_rate_phase_sweep_is_closed_form_visibility(partial_cfg):
    for rho in (0.0, 0.6e-3, 1.276e-3, 1.5e-3, 3e-3, 8e-3):
        v = sweep_visibility(lambda p: counting_rate_partial(rho, p, partial_cfg))
        assert v == pytest.approx(visibility_closed_form(rho, partial_cfg), abs=1e-14)


@pytest.mark.parametrize("cfg_name", ["partial_cfg", "maximal_cfg", "uncorrelated_cfg"])
def test_rates_take_scalars_and_arrays(request, cfg_name):
    cfg = request.getfixturevalue(cfg_name)
    rho = np.linspace(0.0, 3e-3, 7)
    rates = {
        "maximal": lambda r: counting_rate_maxcorr(r, 0.4, cfg),
        "uncorrelated": lambda r: counting_rate_uncorrelated(r, cfg),
        "gaussian_partial": lambda r: counting_rate_partial(r, 0.4, cfg),
    }
    rate = rates[cfg.correlation_model.value]
    curve = rate(rho)
    assert curve.shape == rho.shape
    for r, value in zip(rho, curve):
        scalar = rate(float(r))
        assert isinstance(scalar, float)
        assert scalar == pytest.approx(value, rel=1e-15, abs=0.0)
    assert np.allclose(radial_profile(cfg, 3e-3, 7, 0.4).rate, curve, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("rho,want", sorted(V_REF.items()))
def test_visibility_closed_form_reference(partial_cfg, rho, want):
    assert visibility_closed_form(rho, partial_cfg) == pytest.approx(want, rel=1e-10, abs=0)


def test_visibility_depends_only_on_radius(partial_cfg):
    assert visibility_closed_form(-0.7e-3, partial_cfg) == visibility_closed_form(
        0.7e-3, partial_cfg
    )


def test_central_visibility_identities(partial_cfg):
    v0 = central_visibility(partial_cfg)
    assert v0 == pytest.approx(0.996118297317, rel=1e-10, abs=0)
    assert v0 == 2.0 / derive_constants(partial_cfg).gamma
    # rho = 0 closed form collapses to the same number bit-exactly
    assert visibility_closed_form(0.0, partial_cfg) == v0


def test_perfect_correlation_visibility_is_unity(maximal_cfg):
    assert central_visibility(maximal_cfg) == 1.0
    assert visibility_closed_form(0.9e-3, maximal_cfg) == 1.0


def test_hwhm_reference_and_half_property(partial_cfg):
    r0 = visibility_hwhm(partial_cfg)
    assert r0 == pytest.approx(HWHM_REF, rel=1e-7, abs=0)
    v0 = central_visibility(partial_cfg)
    assert visibility_closed_form(r0, partial_cfg) == pytest.approx(0.5 * v0, rel=1e-8, abs=0)


def test_hwhm_against_mpmath_root():
    # the root of |Br(r g)| = 1 at 40 digits, with r g formed exactly.
    # The bound is 1e-15 relative, plus the shift that 4 ulp of |Br| ~ 1
    # cause where the crossing is shallow: a float64 |Br| pins its root
    # no closer than that.
    rng = np.random.default_rng(61)
    eps = np.finfo(float).eps
    for _ in range(40):
        cfg = make_config(
            sigma_theta=math.exp(rng.uniform(math.log(1e-4), math.log(2e-2))),
            n_a=rng.uniform(1.0, 3.0),
            d_a=rng.uniform(1e-3, 50e-3),
        )
        got = visibility_hwhm(cfg)
        with mpmath.workdps(40):
            g = mpmath.mpc(derive_constants(cfg).g)

            def excess(r):
                z = r * g
                return abs(mpmath.exp(z * z / 4) * (mpmath.pcfd(-2, z) + mpmath.pcfd(-2, -z))) - 1

            r0 = mpmath.mpf(got)
            root = mpmath.findroot(excess, (r0 * (1 - mpmath.mpf(1e-9)), r0 * (1 + mpmath.mpf(1e-9))),
                                   solver="secant")
            slope = mpmath.diff(excess, root)
            tol = 1e-15 * root + 4 * eps / abs(slope)
            assert abs(got - root) <= tol, (cfg.sigma_theta, cfg.n_a, cfg.d_a)


def test_hwhm_absent_for_perfect_correlation(maximal_cfg):
    with pytest.raises(NoHalfPoint):
        visibility_hwhm(maximal_cfg)


def test_radial_profile_per_model(partial_cfg, maximal_cfg, uncorrelated_cfg):
    prof = radial_profile(maximal_cfg, 1.5e-3, 32, 0.0)
    assert np.all(prof.visibility == 1.0)
    assert prof.rate[0] == 2.0
    prof = radial_profile(uncorrelated_cfg, 1.5e-3, 32, 0.0)
    assert np.all(prof.visibility == 0.0)
    assert np.all(np.diff(prof.rate) < 0.0)
    prof = radial_profile(partial_cfg, 1.5e-3, 8, 0.0)
    assert np.all((prof.visibility >= 0.0) & (prof.visibility <= 1.0))
    assert np.all(np.diff(prof.visibility) < 0.0)


@pytest.mark.parametrize("d_a,sigma", [(5e-3, 5e-4), (11.7e-3, 9.37e-4), (20e-3, 3e-3)])
def test_radial_profile_partial_matches_rate_and_visibility_bit_for_bit(d_a, sigma):
    cfg = make_config(d_a=d_a, sigma_theta=sigma)
    prof = radial_profile(cfg, 4e-3, 301, 2.3)
    assert np.array_equal(prof.rate, counting_rate_partial(prof.rho, 2.3, cfg))
    assert np.array_equal(prof.visibility, np.clip(visibility_closed_form(prof.rho, cfg), 0.0, 1.0))


@pytest.mark.parametrize("model", list(CorrelationModel), ids=lambda m: m.value)
def test_unbalanced_sources_scale_the_visibility_by_their_contrast(model):
    # 2 |a1||a2| / (|a1|^2 + |a2|^2) = 0.96 for magnitudes 0.8 and 0.6
    balanced = radial_profile(make_config(model), 3e-3, 65, 0.4)
    unbalanced = radial_profile(make_config(model, alpha1_mag=0.8, alpha2_mag=0.6), 3e-3, 65, 0.4)
    assert unbalanced.visibility == pytest.approx(0.96 * balanced.visibility, rel=1e-15, abs=0.0)
    assert np.all(unbalanced.visibility <= 0.96 + 1e-15)


@pytest.mark.parametrize("model", list(CorrelationModel), ids=lambda m: m.value)
def test_static_source_phase_adds_to_the_scan_phase(model):
    # phi_b + phi2 - phi1 = 0.3 + 1.1 - 0.5 = 0.9 in every closed-form rate
    shifted = make_config(model, phi1=0.5, phi2=1.1, phi_b=0.3)
    rho = np.linspace(0.0, 2e-3, 33)
    for phi_0 in (0.0, 0.4, -2.0):
        got = _fringe(rho, phi_0, shifted)[0]
        want = _fringe(rho, phi_0 + 0.9, make_config(model))[0]
        assert got == pytest.approx(want, rel=1e-13, abs=0)


def test_quadrature_carries_the_source_factor(partial_cfg):
    # contrast 0.96 on the visibility, and phi2 = 0.7 added to the scan phase
    in_phase = make_config(alpha1_mag=0.8, alpha2_mag=0.6)
    cfg = dataclasses.replace(in_phase, phi2=0.7)
    rho = np.array([0.0, 0.6e-3, 1.3e-3])
    v = sweep_visibility(lambda p: counting_rate_partial_quadrature(rho, p, cfg))
    assert v == pytest.approx(0.96 * visibility_closed_form(rho, partial_cfg), rel=1e-9, abs=0)
    expected = counting_rate_partial(rho, 1.1, in_phase)
    got = counting_rate_partial_quadrature(rho, 0.4, cfg)
    assert got == pytest.approx(expected, rel=1e-9, abs=0)


def test_radial_profile_needs_two_samples(partial_cfg):
    with pytest.raises(ValueError):
        radial_profile(partial_cfg, 1e-3, 1, 0.0)


def test_radial_profile_validates_arrays():
    with pytest.raises(ValueError, match="increasing"):
        RadialProfile(np.array([0.0, 0.0]), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError, match="congruent"):
        RadialProfile(np.array([0.0, 1.0]), np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError, match="visibility"):
        RadialProfile(np.array([0.0, 1.0]), np.zeros(2), np.array([0.0, 1.5]))


def test_render_pattern_geometry(maximal_cfg):
    for resolution in (64, 65):
        image, _ = render_pattern(maximal_cfg, 3e-3, resolution, 0.0)
        side = (resolution + 1) // 2
        assert image.quadrant.shape == (side, side)
        assert image.normalization == image.quadrant.max()
        # radial pattern on a centered square grid: the stored quadrant
        # is bit-identical under transpose
        assert np.array_equal(image.quadrant, image.quadrant.T)


# The maximal and uncorrelated images are products of x and y factors;
# against _fringe at each pixel's own radius they agree within this
# fraction of the peak. Worst seen: 9.2e-15, maximal, d_a 50 mm, 6 mm
# screen, 600 px; the fringe phase there reaches about 300 rad, and its
# rounding dominates.
SEPARABLE_TOL = 2e-14


def quadrant_centers(screen, resolution):
    """Centers c_i = (i - (N - 1) / 2) * pitch of the stored quadrant's rows, i >= N // 2."""
    return (np.arange(resolution // 2, resolution) - 0.5 * (resolution - 1)) * (screen / resolution)


def _exact_quadrant(cfg, screen, resolution, phi_0):
    """_fringe at the center radius of every pixel of the stored quadrant."""
    centers = quadrant_centers(screen, resolution)
    return _fringe(np.hypot(centers[:, None], centers[None, :]), phi_0, cfg)[0]


def pixel_radii(centers):
    """Center radius sqrt(c_i^2 + c_j^2) of every pixel, formed as render_pattern forms it.

    Asserts that each radius is within 1 ulp of hypot(c_i, c_j), which
    pins the geometry to the exact one.
    """
    square = centers * centers
    radii = np.sqrt(square[:, None] + square[None, :])
    exact = np.hypot(centers[:, None], centers[None, :])
    assert np.all(np.abs(radii - exact) <= np.spacing(exact))
    return radii


@pytest.mark.parametrize("model", list(CorrelationModel))
@pytest.mark.parametrize("resolution", [64, 65, 255, 256, 1023])
def test_render_pattern_equals_direct_per_pixel_evaluation(model, resolution):
    # the stored quadrant equals evaluating every one of its pixels at
    # its own radius: bit for bit the interpolated profile for the
    # partial model, and the exact closed form within SEPARABLE_TOL of
    # the peak for the other two
    cfg = make_config(model, sigma_theta=9.37e-4)
    screen, phi_0 = 2.5e-3, 0.7
    image, _ = render_pattern(cfg, screen, resolution, phi_0)
    radii = pixel_radii(quadrant_centers(screen, resolution))
    if model is CorrelationModel.GAUSSIAN_PARTIAL:
        pitch = screen / resolution
        r_prof = np.linspace(0.0, 0.5 * screen * math.sqrt(2.0) + pitch, 4 * resolution + 2)
        direct = np.interp(radii, r_prof, _fringe(r_prof, phi_0, cfg)[0])
        assert np.array_equal(image.quadrant, direct)
        assert image.normalization == direct.max()
    else:
        direct = _fringe(radii, phi_0, cfg)[0]
        assert np.max(np.abs(image.quadrant - direct)) <= SEPARABLE_TOL * direct.max()
        assert image.normalization == image.quadrant.max()


@pytest.mark.parametrize("model", [CorrelationModel.MAXIMAL, CorrelationModel.UNCORRELATED],
                         ids=lambda m: m.value)
@pytest.mark.parametrize("d_a", [5e-3, 11.7e-3, 20e-3, 50e-3])
@pytest.mark.parametrize("screen,resolution", [(3e-3, 600), (6e-3, 600), (2.5e-3, 1023),
                                               (4e-3, 257)])
@pytest.mark.parametrize("sources", [{}, {"alpha1_mag": 0.8, "alpha2_mag": 0.6, "phi1": 0.5}],
                         ids=["balanced", "unbalanced_phi1"])
def test_separable_render_is_the_exact_closed_form(tmp_path, model, d_a, screen, resolution,
                                                   sources):
    # the float quadrant is within SEPARABLE_TOL of the peak of the exact
    # per-pixel rate, and the PGM's lower-right block within 1 LSB of
    # that rate quantised.
    # d_a 50 mm on a 6 mm screen at 600 px, where the corner phase steps
    # 1.4 rad per pixel, is the case a 4x radial profile missed by 33 LSB
    cfg = make_config(model, d_a=d_a, **sources)
    image, _ = render_pattern(cfg, screen, resolution, 0.4)
    exact = _exact_quadrant(cfg, screen, resolution, 0.4)
    assert np.max(np.abs(image.quadrant - exact)) <= SEPARABLE_TOL * exact.max()
    path = tmp_path / "image.pgm"
    write_pgm(image, path)
    samples, _ = read_pgm(path)
    quantised = np.rint(exact * (65535 / exact.max()))
    half = resolution // 2
    assert np.max(np.abs(samples[half:, half:].astype(float) - quantised)) <= 1.0


@pytest.mark.parametrize("resolution", [65, 600])
@pytest.mark.parametrize("sources,contrast", [
    ({}, 1.0),
    ({"alpha1_mag": 0.8, "alpha2_mag": 0.6, "phi1": 0.5, "phi_b": 0.3}, 0.96),
    # the contrast quotient rounds to 1 + 2^-52 here; it is capped at 1
    ({"alpha1_mag": 0.7071067808051352, "alpha2_mag": 0.7071067815679599}, 1.0),
])
def test_maximal_render_is_nonnegative_on_exact_dark_fringes(resolution, sources, contrast):
    # phi_0 puts a dark fringe exactly on the center of pixel (i, j) of
    # the quadrant; there the rate is (1 - c) E, 0 for equal magnitudes
    cfg = make_config(CorrelationModel.MAXIMAL, d_a=20e-3, **sources)
    assert source_fringe(cfg)[0] == contrast
    static = source_fringe(cfg)[1]
    screen = 3e-3
    pitch = screen / resolution
    centers = (np.arange(resolution // 2, resolution) - 0.5 * (resolution - 1)) * pitch
    for i, j in [(0, 0), (3, 7), (centers.size - 1, centers.size // 2)]:
        rho_sq = centers[i] ** 2 + centers[j] ** 2
        phi_0 = effective_curvature(cfg) * rho_sq - math.pi - static
        image, _ = render_pattern(cfg, screen, resolution, phi_0)
        assert np.fmin.reduce(image.quadrant, axis=None) >= 0.0
        dark = (1.0 - contrast) * float(np.exp(-2.0 * rho_sq / (cfg.f0 * cfg.sigma_b) ** 2))
        assert image.quadrant[i, j] == pytest.approx(dark, abs=1e-12 * image.normalization)


def test_contrast_is_capped_at_one():
    cfg = make_config(CorrelationModel.MAXIMAL, alpha1_mag=0.7071067808051352,
                      alpha2_mag=0.7071067815679599)
    a1, a2 = cfg.alpha1_mag, cfg.alpha2_mag
    assert 2.0 * a1 * a2 / (a1 * a1 + a2 * a2) > 1.0
    assert source_fringe(cfg)[0] == 1.0
    profile = radial_profile(cfg, 1.5e-3, 64, 0.0)
    assert np.all(profile.visibility == 1.0)
    assert central_visibility(make_config(alpha1_mag=a1, alpha2_mag=a2)) <= 1.0


@pytest.mark.parametrize("model", list(CorrelationModel), ids=lambda m: m.value)
@pytest.mark.parametrize("resolution", [256, 257])
@pytest.mark.parametrize("sources", [{}, {"alpha1_mag": 0.8, "alpha2_mag": 0.6}])
def test_render_pattern_profile_is_radial_profile(model, resolution, sources):
    # the profile comes out of the image's closed-form call, bit for bit
    cfg = make_config(model, sigma_theta=9.37e-4, **sources)
    _, profile = render_pattern(cfg, 2.5e-3, resolution, 0.4)
    want = radial_profile(cfg, 1.25e-3, resolution, 0.4)
    for name in ("rho", "rate", "visibility"):
        assert getattr(profile, name).tobytes() == getattr(want, name).tobytes()


def test_partial_render_peaks_near_its_quadrant(partial_cfg):
    # the closed form runs before the quadrant is allocated, and each
    # strip of its upper triangle holds about 32768 radii
    tracemalloc.start()
    try:
        image, _ = render_pattern(partial_cfg, 3e-3, 2048, 0.4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= image.quadrant.nbytes + 1.5 * 2**20


def test_render_pattern_reproduces_ring_structure(maximal_cfg):
    image, _ = render_pattern(maximal_cfg, 3e-3, 128, 0.0)
    # the quadrant's first row is row 64 of the frame, columns 64 to 127
    row = image.quadrant[0]
    centers = quadrant_centers(3e-3, 128)
    # dark fringe between center and first ring: the minimum along the row
    # sits near sqrt(pi / curvature)
    dark = math.sqrt(math.pi / effective_curvature(maximal_cfg))
    window = centers < 1.2e-3
    r_min = centers[window][np.argmin(row[window])]
    assert abs(r_min - dark) < 3e-3 / 128


def test_render_pattern_validates_arguments(maximal_cfg):
    with pytest.raises(ValueError):
        render_pattern(maximal_cfg, 3e-3, 32, 0.0)
    with pytest.raises(ValueError):
        render_pattern(maximal_cfg, 0.0, 128, 0.0)


def test_fringe_image_invariants():
    # the image stores its (ceil(n/2), ceil(n/2)) lower-right quadrant
    with pytest.raises(ValueError, match="shape"):
        FringeImage(4, np.zeros((3, 4)))
    with pytest.raises(ValueError, match="shape"):
        FringeImage(4, np.zeros((4, 4)))
    with pytest.raises(ValueError):  # an empty frame has no maximum
        FringeImage(0, np.zeros((0, 0)))
    with pytest.raises(ValueError, match="nonnegative"):
        FringeImage(4, np.array([[1.0, -0.1], [0.0, 0.5]]))
    # the normalization is the frame maximum, computed, not passed in
    assert FringeImage(3, np.array([[0.5, 0.25], [2.0, 0.0]])).normalization == 2.0


def test_fringe_image_sign_and_nan_checks():
    quadrant = np.ones((3, 3))
    quadrant[-1, -1] = -1e-300
    with pytest.raises(ValueError, match="nonnegative"):
        FringeImage(5, quadrant)
    quadrant[-1, -1] = -0.0
    assert np.signbit(FringeImage(5, quadrant).quadrant[-1, -1])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            FringeImage(4, np.array([[1.0, bad], [0.0, 0.5]]))
    # a NaN does not hide a negative pixel
    with pytest.raises(ValueError, match="nonnegative"):
        FringeImage(4, np.array([[np.nan, 1.0], [-0.5, 0.5]]))
