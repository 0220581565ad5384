"""Config validation and derived-constant checks against frozen references."""

import dataclasses
import math
import warnings

import pytest

from twinfringes import (
    ConfigError,
    CorrelationModel,
    ExperimentConfig,
    ParaxialWarning,
    derive_constants,
    effective_curvature,
    validate_config,
)
from twinfringes.config import validate_sigma_theta

from conftest import make_config

# Derived constants for the reference setup, frozen from an independent
# high-precision evaluation of the defining formulas.
A_REF = 3859356.3158
B_REF = 0.228383458647
GAMMA_REF = 2.00779365803
CHI_REF = 2.27792570683e-6
G_REF = complex(-36.3137172843, 823.479348053)


def _kinds(excinfo):
    return [v.kind for v in excinfo.value.violations]


def test_derived_constants_match_reference(partial_cfg):
    c = derive_constants(partial_cfg)
    assert c.A == pytest.approx(A_REF, rel=1e-10, abs=0)
    assert c.B == pytest.approx(B_REF, rel=1e-10, abs=0)
    assert c.gamma == pytest.approx(GAMMA_REF, rel=1e-10, abs=0)
    assert c.chi == pytest.approx(CHI_REF, rel=1e-10, abs=0)
    assert c.g.real == pytest.approx(G_REF.real, rel=1e-10, abs=0)
    assert c.g.imag == pytest.approx(G_REF.imag, rel=1e-10, abs=0)


def test_effective_curvature_formula(partial_cfg):
    cfg = partial_cfg
    expect = cfg.n_a * math.pi * cfg.d_a * cfg.lambda_a / (cfg.f0 * cfg.lambda_b) ** 2
    assert effective_curvature(cfg) == expect
    # scales linearly with the refractive index of the a path
    scaled = make_config(n_a=1.5)
    assert effective_curvature(scaled) == pytest.approx(1.5 * expect, rel=1e-14, abs=0)


def test_gamma_definition_holds_at_other_index():
    cfg = make_config(n_a=1.45)
    c = derive_constants(cfg)
    d = cfg.sigma_theta**2 * effective_curvature(cfg) * c.B**2
    assert c.gamma == pytest.approx(math.sqrt(4.0 + d * d), rel=1e-14, abs=0)
    assert c.chi == pytest.approx(c.gamma / (effective_curvature(cfg) * c.B), rel=1e-14, abs=0)


def test_perfect_correlation_limits(maximal_cfg):
    # sigma_theta = None acts as the sigma -> 0 limit: gamma = 2 and g = 0 exactly
    c = derive_constants(maximal_cfg)
    assert c.gamma == 2.0
    assert c.g == 0.0


def test_zero_separation_degenerate_constants():
    cfg = make_config(d_a=0.0)
    c = derive_constants(cfg)
    assert c.gamma == 2.0
    assert c.g == 0.0
    assert math.isinf(c.chi)


def test_derive_constants_requires_pump_wavelength():
    cfg = make_config(CorrelationModel.MAXIMAL, lambda_p=None)
    with pytest.raises(ConfigError) as excinfo:
        derive_constants(cfg)
    assert "MissingPumpWavelength" in _kinds(excinfo)


def test_validate_returns_config_unchanged(partial_cfg):
    assert validate_config(partial_cfg) is partial_cfg


def test_nonpositive_lengths_rejected():
    with pytest.raises(ConfigError) as excinfo:
        make_config(lambda_a=-1550e-9, f0=0.0)
    kinds = _kinds(excinfo)
    assert kinds.count("NonPositiveParameter") >= 2


def test_zero_separation_is_valid():
    cfg = make_config(d_a=0.0)
    assert cfg.d_a == 0.0


def test_index_below_one_rejected():
    with pytest.raises(ConfigError) as excinfo:
        make_config(n_a=0.9)
    assert "NonPositiveParameter" in _kinds(excinfo)


def test_amplitude_normalization_enforced():
    with pytest.raises(ConfigError) as excinfo:
        make_config(alpha1_mag=0.9, alpha2_mag=0.6)
    assert "AmplitudeNotNormalized" in _kinds(excinfo)


def test_partial_model_requires_sigma_theta():
    with pytest.raises(ConfigError) as excinfo:
        make_config(sigma_theta=None)
    assert "MissingSigmaTheta" in _kinds(excinfo)


def test_nonpositive_sigma_theta_rejected():
    with pytest.raises(ConfigError) as excinfo:
        make_config(sigma_theta=0.0)
    assert "NonPositiveParameter" in _kinds(excinfo)


FLOAT_FIELDS = (
    "lambda_a", "lambda_b", "lambda_p", "d_a", "f0", "sigma_b", "sigma_theta",
    "n_a", "alpha1_mag", "alpha2_mag", "phi1", "phi2", "phi_b",
)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_rejected(value):
    with pytest.raises(ConfigError) as excinfo:
        make_config(**dict.fromkeys(FLOAT_FIELDS, value))
    violations = excinfo.value.violations
    named = {v.message.split()[0] for v in violations if v.kind == "NonFiniteParameter"}
    assert named == set(FLOAT_FIELDS)


def test_sigma_theta_must_be_positive_in_every_model():
    with pytest.raises(ConfigError) as excinfo:
        make_config(CorrelationModel.MAXIMAL, sigma_theta=-1e-3)
    assert "NonPositiveParameter" in _kinds(excinfo)


def test_violation_messages_are_frozen():
    with pytest.raises(ConfigError) as excinfo:
        make_config(lambda_a=math.nan, sigma_theta=-1e-3, n_a=0.5, d_a=-1.0)
    assert str(excinfo.value) == (
        "invalid configuration: NonFiniteParameter: lambda_a must be finite, got nan; "
        "NonPositiveParameter: sigma_theta must be > 0, got -0.001; "
        "NonPositiveParameter: d_a must be >= 0, got -1.0; "
        "NonPositiveParameter: n_a must be >= 1, got 0.5"
    )


@pytest.mark.parametrize("sigma", [-1e-3, 0.0, -0.0, math.nan, math.inf, -math.inf])
def test_width_check_reports_as_the_config_check(partial_cfg, sigma):
    with pytest.raises(ConfigError) as alone:
        validate_sigma_theta(sigma)
    with pytest.raises(ConfigError) as whole:
        validate_config(dataclasses.replace(partial_cfg, sigma_theta=sigma))
    assert str(alone.value) == str(whole.value)


def test_width_check_accepts_positive_width():
    validate_sigma_theta(9.37e-4)


@pytest.mark.parametrize("sigma", [0.0, 2e-4, 9.37e-4, 3e-3])
def test_derive_constants_width_argument_replaces_config_width(partial_cfg, sigma):
    copied = derive_constants(dataclasses.replace(partial_cfg, sigma_theta=sigma))
    assert derive_constants(partial_cfg, sigma) == copied


def test_all_violations_collected_in_one_error():
    with pytest.raises(ConfigError) as excinfo:
        make_config(lambda_b=0.0, sigma_b=-1.0, alpha1_mag=1.0, alpha2_mag=1.0)
    kinds = _kinds(excinfo)
    assert len(kinds) >= 3
    assert "AmplitudeNotNormalized" in kinds


def test_wide_envelope_warns_but_validates():
    with pytest.warns(ParaxialWarning):
        cfg = make_config(sigma_b=0.15)
    assert cfg.sigma_b == 0.15


def test_narrow_envelope_does_not_warn(partial_cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        validate_config(partial_cfg)


def test_config_is_frozen(partial_cfg):
    with pytest.raises(dataclasses.FrozenInstanceError):
        partial_cfg.d_a = 1.0
