"""Closed-form rates, visibility curve, ring geometry and rendering."""

import math

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
    counting_rate_partial_quadrature,
    counting_rate_uncorrelated,
    derive_constants,
    effective_curvature,
    fringe_radius,
    radial_profile,
    render_pattern,
    sweep_visibility,
    visibility_closed_form,
    visibility_hwhm,
)

from conftest import make_config

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
    assert counting_rate_maxcorr(r1, 0.0, maximal_cfg) == pytest.approx(2.0 * envelope, rel=1e-9)


def test_maxcorr_rate_rejects_negative_radius(maximal_cfg):
    with pytest.raises(ValueError):
        counting_rate_maxcorr(-1e-3, 0.0, maximal_cfg)


def test_fringe_radius_reference_and_scaling(maximal_cfg):
    assert fringe_radius(0, maximal_cfg) == 0.0
    r1 = fringe_radius(1, maximal_cfg)
    assert r1 == pytest.approx(RHO_1_REF, rel=1e-11)
    for n in range(2, 11):
        assert fringe_radius(n, maximal_cfg) == pytest.approx(r1 * math.sqrt(n), rel=1e-13)


def test_fringe_radius_equivalent_wavelength_form(maximal_cfg):
    cfg = maximal_cfg
    lam_eq = derive_constants(cfg).lambda_eq
    expect = math.sqrt(2.0 * lam_eq * cfg.f0**2 / (cfg.n_a * cfg.d_a))
    assert fringe_radius(1, cfg) == pytest.approx(expect, rel=1e-13)


def test_fringe_radius_errors(maximal_cfg):
    with pytest.raises(ValueError):
        fringe_radius(-1, maximal_cfg)
    with pytest.raises(ZeroDistance):
        fringe_radius(1, make_config(CorrelationModel.MAXIMAL, d_a=0.0))


def test_uncorrelated_rate_is_bare_envelope(uncorrelated_cfg):
    scale = (uncorrelated_cfg.f0 * uncorrelated_cfg.sigma_b) ** 2
    for rho in (0.0, 0.5e-3, 1.5e-3):
        expect = math.exp(-2.0 * rho**2 / scale)
        assert counting_rate_uncorrelated(rho, uncorrelated_cfg) == pytest.approx(expect, rel=1e-13)


def test_partial_rate_dc_level(partial_cfg):
    # opposite scan phases cancel the fringe term; what is left is the
    # phase-independent sigma_theta^2 envelope level
    sigma2 = partial_cfg.sigma_theta**2
    for phi_0 in (0.0, 0.7, 2.2):
        total = counting_rate_partial_quadrature(0.0, phi_0, partial_cfg)
        total += counting_rate_partial_quadrature(0.0, phi_0 + math.pi, partial_cfg)
        assert total == pytest.approx(sigma2, rel=1e-9)


def test_partial_rate_phase_sweep_matches_closed_form(partial_cfg):
    for rho in (0.0, 0.6e-3, 1.276e-3):
        v = sweep_visibility(lambda p: counting_rate_partial_quadrature(rho, p, partial_cfg))
        assert v == pytest.approx(visibility_closed_form(rho, partial_cfg), abs=1e-9)


def test_partial_rate_requires_sigma_theta():
    cfg = make_config(CorrelationModel.MAXIMAL)
    with pytest.raises(ValueError):
        counting_rate_partial_quadrature(0.0, 0.0, cfg)


@pytest.mark.parametrize("rho,want", sorted(V_REF.items()))
def test_visibility_closed_form_reference(partial_cfg, rho, want):
    assert visibility_closed_form(rho, partial_cfg) == pytest.approx(want, rel=1e-10)


def test_visibility_depends_only_on_radius(partial_cfg):
    assert visibility_closed_form(-0.7e-3, partial_cfg) == visibility_closed_form(
        0.7e-3, partial_cfg
    )


def test_central_visibility_identities(partial_cfg):
    v0 = central_visibility(partial_cfg)
    assert v0 == pytest.approx(0.996118297317, rel=1e-10)
    assert v0 == 2.0 / derive_constants(partial_cfg).gamma
    # rho = 0 closed form collapses to the same number bit-exactly
    assert visibility_closed_form(0.0, partial_cfg) == v0


def test_perfect_correlation_visibility_is_unity(maximal_cfg):
    assert central_visibility(maximal_cfg) == 1.0
    assert visibility_closed_form(0.9e-3, maximal_cfg) == 1.0


def test_hwhm_reference_and_half_property(partial_cfg):
    r0 = visibility_hwhm(partial_cfg)
    assert r0 == pytest.approx(HWHM_REF, rel=1e-7)
    v0 = central_visibility(partial_cfg)
    assert visibility_closed_form(r0, partial_cfg) == pytest.approx(0.5 * v0, rel=1e-8)


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
    image = render_pattern(maximal_cfg, 3e-3, 64, 0.0)
    assert image.values.shape == (64, 64)
    assert image.pixel_pitch == pytest.approx(3e-3 / 64)
    assert image.normalization == image.values.max()
    # radial pattern on a centered square grid: bit-identical under
    # transpose, symmetric to rounding under flips (pixel centers mirror
    # only up to one ulp)
    assert np.array_equal(image.values, image.values.T)
    assert np.allclose(image.values, image.values[::-1, :], rtol=0.0, atol=1e-12)
    assert np.allclose(image.values, image.values[:, ::-1], rtol=0.0, atol=1e-12)


def test_render_pattern_reproduces_ring_structure(maximal_cfg):
    image = render_pattern(maximal_cfg, 3e-3, 128, 0.0)
    row = image.values[64]
    centers = (np.arange(128) + 0.5) * image.pixel_pitch - 1.5e-3
    # dark fringe between center and first ring: the minimum along the row
    # sits near sqrt(pi / curvature)
    dark = math.sqrt(math.pi / effective_curvature(maximal_cfg))
    window = (centers > 0) & (centers < 1.2e-3)
    r_min = centers[window][np.argmin(row[window])]
    assert abs(r_min - dark) < image.pixel_pitch


def test_render_pattern_validates_arguments(maximal_cfg):
    with pytest.raises(ValueError):
        render_pattern(maximal_cfg, 3e-3, 32, 0.0)
    with pytest.raises(ValueError):
        render_pattern(maximal_cfg, 0.0, 128, 0.0)


def test_fringe_image_invariants():
    with pytest.raises(ValueError, match="shape"):
        FringeImage(4, 4, 1e-5, np.zeros((3, 4)), 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        FringeImage(2, 2, 1e-5, np.array([[1.0, -0.1], [0.0, 0.5]]), 1.0)
    with pytest.raises(ValueError, match="normalization"):
        FringeImage(2, 2, 1e-5, np.ones((2, 2)), 0.5)
