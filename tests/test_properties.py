"""Property tests of the closed forms over the validated input domain."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from twinfringes import (
    CorrelationModel,
    counting_rate_maxcorr,
    counting_rate_partial,
    counting_rate_uncorrelated,
    visibility_closed_form,
)

from conftest import make_config

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
