"""Shared fixtures: one reference setup in all three correlation regimes."""

import mpmath
import pytest

from twinfringes import CorrelationModel, ExperimentConfig, derive_constants, validate_config

# Pass/fail lines queued by the acceptance tests; replayed after capture
# ends so they always appear in the terminal report.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)

# Reference setup used throughout the suite: 1550/810 nm photon pair,
# 532 nm pump, 11.7 mm source separation, 150 mm lens.
REFERENCE = dict(
    lambda_a=1550e-9,
    lambda_b=810e-9,
    lambda_p=532e-9,
    d_a=11.7e-3,
    f0=150e-3,
    sigma_b=2.36e-2,
)

SIGMA_THETA = 9.37e-4


def make_config(model=CorrelationModel.GAUSSIAN_PARTIAL, **overrides):
    """Reference config in the given regime, with field overrides."""
    fields = dict(REFERENCE, correlation_model=model)
    if model is CorrelationModel.GAUSSIAN_PARTIAL:
        fields["sigma_theta"] = SIGMA_THETA
    fields.update(overrides)
    return validate_config(ExperimentConfig(**fields))


def mp_partial(rho, phi_0, cfg):
    """Partial-model (rate, visibility) from mpmath's D_{-2} at 30 digits.

    Independent of the package's Faddeeva route: the scaled pair
    e^{z^2/4} [D_{-2}(z) + D_{-2}(-z)] comes from mpmath.pcfd.
    """
    c = derive_constants(cfg)
    with mpmath.workdps(30):
        rho = mpmath.mpf(rho)
        z = rho * mpmath.mpc(c.g)
        pair = mpmath.exp(z * z / 4) * (mpmath.pcfd(-2, z) + mpmath.pcfd(-2, -z))
        phase = cfg.n_a * c.A * rho**2 - phi_0
        fringe = mpmath.expj(phase) * pair / mpmath.mpc(2.0, -c.kappa)
        envelope = mpmath.exp(-2 * rho**2 / (mpmath.mpf(cfg.f0) * cfg.sigma_b) ** 2)
        rate = cfg.sigma_theta**2 / 2 * envelope * (1 + fringe.real)
        return float(rate), float(abs(pair) / c.gamma)


@pytest.fixture
def partial_cfg():
    return make_config()


@pytest.fixture
def maximal_cfg():
    return make_config(CorrelationModel.MAXIMAL)


@pytest.fixture
def uncorrelated_cfg():
    return make_config(CorrelationModel.UNCORRELATED)
