"""Parameter estimation: width inversion and ring regression."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

import twinfringes.inverse

from twinfringes import (
    CorrelationModel,
    DegenerateVisibility,
    ExperimentConfig,
    InsufficientData,
    NegativeSlope,
    central_visibility,
    estimate_equivalent_wavelength,
    estimate_sigma_theta,
    estimate_sigma_theta_bisect,
    fringe_radius,
    infer_lambda_a,
    ring_law_lambda_eq,
)

from conftest import SIGMA_THETA, make_config

# Central visibility frozen for the reference sigma_theta = 9.37e-4.
V0_REF = 0.996118297317

def test_round_trip_through_visibility(partial_cfg):
    v0 = central_visibility(partial_cfg)
    assert v0 == pytest.approx(V0_REF, rel=1e-10, abs=0)
    assert estimate_sigma_theta(v0, partial_cfg) == pytest.approx(SIGMA_THETA, rel=1e-12, abs=0)


def test_round_trip_other_widths(partial_cfg):
    for sigma in (2e-4, 6.16e-4, 1.99e-3, 8e-3):
        cfg = make_config(sigma_theta=sigma)
        v0 = central_visibility(cfg)
        assert estimate_sigma_theta(v0, cfg) == pytest.approx(sigma, rel=1e-9, abs=0)


def test_perfect_visibility_means_zero_width(partial_cfg):
    assert estimate_sigma_theta(1.0, partial_cfg) == 0.0
    assert estimate_sigma_theta_bisect(1.0, partial_cfg) == 0.0


@pytest.mark.parametrize("bad", [0.0, -0.3, 1.0000001, 2.0])
def test_out_of_range_visibility_rejected(partial_cfg, bad):
    with pytest.raises(DegenerateVisibility):
        estimate_sigma_theta(bad, partial_cfg)
    with pytest.raises(DegenerateVisibility):
        estimate_sigma_theta_bisect(bad, partial_cfg)


def test_unbalanced_sources_invert_v0_over_their_contrast(partial_cfg):
    # the central visibility is 2 c / gamma, c = 0.96 for magnitudes 0.8, 0.6
    cfg = make_config(alpha1_mag=0.8, alpha2_mag=0.6)
    v0 = central_visibility(cfg)
    assert v0 == pytest.approx(0.96 * V0_REF, rel=1e-10, abs=0)
    for estimate in (estimate_sigma_theta, estimate_sigma_theta_bisect):
        assert estimate(v0, cfg) == pytest.approx(SIGMA_THETA, rel=1e-9, abs=0)
        assert estimate(0.9, cfg) == pytest.approx(estimate(0.9375, partial_cfg), rel=1e-9, abs=0)
        assert estimate(2.0 * 0.8 * 0.6 / (0.8**2 + 0.6**2), cfg) == 0.0
        for bad in (0.97, 1.0):
            with pytest.raises(DegenerateVisibility, match=r"outside \(0, 0.96\]"):
                estimate(bad, cfg)


@pytest.mark.parametrize("tiny", [1e-200, 5e-324])
def test_underflowing_visibility_rejected(partial_cfg, tiny):
    # v0^2 underflows to 0 in the closed-form inverse's 1 / v0^2
    assert tiny * tiny == 0.0
    with pytest.raises(DegenerateVisibility, match="underflows"):
        estimate_sigma_theta(tiny, partial_cfg)


@pytest.mark.parametrize("tiny", [1e-160, 1e-155])
def test_overflowing_visibility_rejected(partial_cfg, tiny):
    # v0^2 is a normal number here, but 1 / v0^2 overflows to inf
    assert tiny * tiny > 0.0 and 1.0 / (tiny * tiny) == math.inf
    with pytest.raises(DegenerateVisibility, match="overflows"):
        estimate_sigma_theta(tiny, partial_cfg)


def _mp_sigma_theta(v0, cfg):
    """sigma_theta from v0 at 40 digits, with the config's floats as exact inputs."""
    with mpmath.workdps(40):
        v0 = mpmath.mpf(v0)
        k0p = 2 * mpmath.pi / mpmath.mpf(cfg.lambda_p)
        scale = 8 * mpmath.pi / (mpmath.mpf(cfg.n_a) * k0p**2 * cfg.lambda_a * mpmath.mpf(cfg.d_a))
        return mpmath.sqrt(scale * mpmath.sqrt(1 / v0**2 - 1))


def test_estimate_matches_mpmath_up_to_v0_near_one():
    # 1 / v0^2 - 1 cancels near v0 = 1 unless it is formed from the
    # exact 1 - v0; at 1 - 1e-9 the cancelling form was off by 3.8e-10
    rng = np.random.default_rng(1013)
    near_one = [1.0 - 2.0**-k for k in range(1, 54)] + [0.999999, 1.0 - 1e-9, 1.0 - 1e-12]
    for _ in range(10):
        cfg = make_config(n_a=rng.uniform(1.0, 3.0), d_a=rng.uniform(1e-3, 50e-3))
        inside = np.exp(rng.uniform(math.log(1e-150), 0.0, size=40)).tolist()
        for v0 in near_one + inside + rng.uniform(0.0, 1.0, size=40).tolist():
            expected = _mp_sigma_theta(v0, cfg)
            rel = abs(estimate_sigma_theta(v0, cfg) - expected) / expected
            assert rel <= 1e-15, (v0, cfg.n_a, cfg.d_a)


def test_estimate_needs_pump_and_separation():
    no_pump = make_config(CorrelationModel.MAXIMAL, lambda_p=None)
    with pytest.raises(ValueError):
        estimate_sigma_theta(0.9, no_pump)
    no_gap = make_config(d_a=0.0)
    with pytest.raises(ValueError):
        estimate_sigma_theta(0.9, no_gap)


def test_bisect_agrees_with_closed_inverse(partial_cfg):
    # independent route: no shared algebra beyond the forward model
    for v0 in (0.05, 0.3, 0.7, 0.9961, 0.99999):
        direct = estimate_sigma_theta(v0, partial_cfg)
        scanned = estimate_sigma_theta_bisect(v0, partial_cfg)
        assert scanned == pytest.approx(direct, rel=1e-10, abs=0)


def test_bisect_rejects_unreachable_visibility(partial_cfg):
    with pytest.raises(ValueError, match="not reachable"):
        estimate_sigma_theta_bisect(1e-3, partial_cfg)


def _reference_bisect(v0, cfg, hi=5e-2):
    """The width bisection with a config copy per step, for bit comparison."""

    def forward(sigma):
        return central_visibility(dataclasses.replace(cfg, sigma_theta=sigma))

    if forward(hi) > v0:
        raise ValueError("not reachable")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if forward(mid) > v0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_bisect_matches_config_copy_bisection_bit_for_bit():
    rng = np.random.default_rng(1009)
    v0s = [0.1, 0.5, 0.9, 0.98, 0.999999, 1.0 - 1e-12, 1.0 - 2.0**-52, 1.0 - 2.0**-53]
    for _ in range(30):
        cfg = make_config(n_a=rng.uniform(1.0, 3.0), d_a=rng.uniform(1e-3, 50e-3))
        for v0 in v0s + rng.uniform(0.0, 1.0, size=4).tolist():
            try:
                expected = _reference_bisect(v0, cfg)
            except ValueError:
                with pytest.raises(ValueError, match="not reachable"):
                    estimate_sigma_theta_bisect(v0, cfg)
                continue
            got = estimate_sigma_theta_bisect(v0, cfg)
            assert got.hex() == expected.hex(), (v0, cfg.n_a, cfg.d_a)


def test_bisect_builds_no_config_per_step(partial_cfg, monkeypatch):
    derived, built = [], []
    derive, init = twinfringes.inverse.derive_constants, ExperimentConfig.__init__
    monkeypatch.setattr(
        twinfringes.inverse, "derive_constants", lambda cfg: derived.append(cfg) or derive(cfg)
    )
    monkeypatch.setattr(
        ExperimentConfig, "__init__", lambda self, *a, **k: built.append(k) or init(self, *a, **k)
    )
    estimate_sigma_theta_bisect(0.9, partial_cfg)
    assert derived == [partial_cfg]
    assert built == []


def _observations(cfg, separations):
    rows = []
    for d in separations:
        geo = make_config(
            CorrelationModel.MAXIMAL,
            d_a=d,
            lambda_a=cfg.lambda_a,
            lambda_b=cfg.lambda_b,
            f0=cfg.f0,
        )
        rows.append((d, fringe_radius(1, geo)))
    return rows


def test_ring_regression_recovers_equivalent_wavelength(maximal_cfg):
    obs = _observations(maximal_cfg, [5e-3, 8e-3, 11.7e-3, 15e-3, 20e-3])
    est = estimate_equivalent_wavelength(obs, maximal_cfg)
    lam_eq = maximal_cfg.lambda_b**2 / maximal_cfg.lambda_a
    assert est.lambda_eq == pytest.approx(lam_eq, rel=1e-12, abs=0)
    assert est.stderr == pytest.approx(0.0, abs=1e-18)
    assert infer_lambda_a(est.lambda_eq, maximal_cfg.lambda_b) == pytest.approx(
        maximal_cfg.lambda_a, rel=1e-12, abs=0
    )


def test_ring_regression_reports_noise(maximal_cfg):
    rng = np.random.default_rng(5)
    obs = []
    for d in (5e-3, 8e-3, 11.7e-3, 15e-3, 20e-3):
        geo = make_config(CorrelationModel.MAXIMAL, d_a=d)
        rho = fringe_radius(1, geo) * (1.0 + 0.01 * rng.standard_normal())
        obs.append((d, rho))
    est = estimate_equivalent_wavelength(obs, maximal_cfg)
    lam_eq = maximal_cfg.lambda_b**2 / maximal_cfg.lambda_a
    assert est.stderr > 0.0
    assert abs(est.lambda_eq - lam_eq) < 5.0 * max(est.stderr, 0.02 * lam_eq)


def test_ring_regression_requires_three_distinct_separations(maximal_cfg):
    obs = _observations(maximal_cfg, [5e-3, 8e-3])
    with pytest.raises(InsufficientData):
        estimate_equivalent_wavelength(obs, maximal_cfg)
    duplicated = _observations(maximal_cfg, [5e-3, 5e-3, 8e-3])
    with pytest.raises(InsufficientData):
        estimate_equivalent_wavelength(duplicated, maximal_cfg)


def test_infer_lambda_a_validates():
    with pytest.raises(ValueError):
        infer_lambda_a(0.0, 810e-9)
    with pytest.raises(ValueError):
        infer_lambda_a(423e-9, -810e-9)


def test_ring_regression_rejects_nonpositive_radius_and_separation(maximal_cfg):
    good = _observations(maximal_cfg, [5e-3, 8e-3, 11.7e-3])
    for rho in (-1e-3, 0.0):
        with pytest.raises(ValueError, match="ring radii must be positive"):
            estimate_equivalent_wavelength(good + [(15e-3, rho)], maximal_cfg)
        # a bad radius is reported before a bad separation, wherever it sits
        with pytest.raises(ValueError, match="ring radii must be positive"):
            estimate_equivalent_wavelength([(0.0, 1e-3)] + good + [(15e-3, rho)], maximal_cfg)
    with pytest.raises(InsufficientData, match="observations require d_a > 0"):
        estimate_equivalent_wavelength(good + [(-15e-3, 1e-3)], maximal_cfg)


@pytest.mark.parametrize("first_radii", [
    [(5e-3, 1e197), (8e-3, 1.54e-3), (11.7e-3, 1.27e-3)],  # rho_1^2 overflows: slope inf
    [(1e-323, 1.9e-3), (8e-3, 1.54e-3), (11.7e-3, 1.27e-3)],  # 1 / d_a overflows: slope nan
    [(5e-3, 1e149), (8e-3, 1.54e-3), (11.7e-3, 1.27e-3)],  # finite slope, residual^2 overflows
])
def test_ring_regression_rejects_non_finite_fit(maximal_cfg, first_radii):
    with pytest.raises(ValueError, match="ring law gives lambda_eq"):
        estimate_equivalent_wavelength(first_radii, maximal_cfg)


def test_ring_regression_rejects_a_slope_that_underflows_to_zero(maximal_cfg):
    # positive radii whose squares underflow: 1e-173^2 is 0.0 in float64
    first_radii = [(d, 1e-173) for d in (5e-3, 8e-3, 11.7e-3)]
    with pytest.raises(NegativeSlope) as excinfo:
        estimate_equivalent_wavelength(first_radii, maximal_cfg)
    assert str(excinfo.value) == "fitted slope 0.0 is not positive"


@pytest.mark.parametrize("d_a", [5e-3, 11.7e-3, 20e-3])
@pytest.mark.parametrize("n_a", [1.0, 1.5])
def test_ring_law_inverts_fringe_radius(d_a, n_a):
    # lambda_eq = lambda_b^2 / lambda_a for the 1550/810 nm pair
    cfg = make_config(d_a=d_a, n_a=n_a)
    rho1 = fringe_radius(1, cfg)
    lambda_eq = ring_law_lambda_eq(rho1 * rho1 * d_a, cfg)
    assert lambda_eq == pytest.approx(cfg.lambda_b**2 / cfg.lambda_a, rel=1e-12, abs=0)
