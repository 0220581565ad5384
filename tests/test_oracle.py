"""Brute-force counting rates and the exact fringe phasor of every column."""

import itertools
import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinfringes import (
    CorrelationModel,
    ParaxialWarning,
    SuperposedState,
    ZeroRate,
    assemble_state,
    camera_grid,
    conjugate_grid,
    counting_rate_reduced,
    derive_constants,
    phase_a,
    sweep_visibility,
    visibility_closed_form,
    visibility_scan,
)
from twinfringes import oracle
from twinfringes.analytics import _closed_form
from twinfringes.config import PARAXIAL_LIMIT
from twinfringes.oracle import _phasor, _row_sums

from conftest import make_config

# On-axis a-path phase for the reference geometry, 2 pi n_a d_a / lambda_a;
# phase_a leaves it out and keeps the curvature PHASE_A_AXIS / 2.
PHASE_A_AXIS = 47427.9148994
# Partner emission angle for a b photon detected at 1.276 mm.
THETA_A_REF = 0.0162781893004

RHO = np.linspace(0.0, 1.5e-3, 16)


def test_phase_a_on_axis_value(partial_cfg):
    # the on-axis path phase is the same for both sources, so no fringe sees it
    assert phase_a(0.0, partial_cfg) == 0.0


def test_phase_a_quadratic_increment(partial_cfg):
    theta = 8e-3
    inc = phase_a(theta, partial_cfg) - phase_a(0.0, partial_cfg)
    assert inc == pytest.approx(0.5 * PHASE_A_AXIS * theta**2, rel=1e-9, abs=0)


def test_phase_a_array_shape_and_scalar_type(partial_cfg):
    out = phase_a(np.array([0.0, 1e-3, 2e-3]), partial_cfg)
    assert out.shape == (3,)
    assert isinstance(phase_a(1e-3, partial_cfg), float)


def test_phase_a_zero_separation():
    cfg = make_config(d_a=0.0)
    assert phase_a(0.0, cfg) == 0.0
    assert phase_a(5e-3, cfg) == 0.0


def test_phase_a_warns_outside_paraxial_window(partial_cfg):
    with pytest.warns(ParaxialWarning):
        phase_a(0.15, partial_cfg)


def test_phase_a_warns_from_exactly_the_paraxial_limit(partial_cfg):
    # the window is open: its edge warns, the float below it does not
    for theta in (PARAXIAL_LIMIT, -PARAXIAL_LIMIT):
        with pytest.warns(ParaxialWarning):
            phase_a(theta, partial_cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phase_a(np.nextafter(PARAXIAL_LIMIT, 0.0), partial_cfg)


def test_map_kb_to_theta_a(partial_cfg):
    # the partner angle of a b photon at camera radius rho is the a-side
    # image of the camera grid under the anti-correlated momentum map
    def theta_a(rho):
        return -conjugate_grid(camera_grid([rho], partial_cfg), partial_cfg)[0]

    assert theta_a(1.276e-3) == pytest.approx(THETA_A_REF, rel=1e-11, abs=0)
    assert theta_a(0.0) == 0.0
    with pytest.raises(ValueError):
        theta_a(-1e-3)


def test_map_is_identity_for_equal_wavelengths():
    cfg = make_config(CorrelationModel.MAXIMAL, lambda_a=810e-9)
    grid = conjugate_grid(camera_grid([1e-3], cfg), cfg)
    assert grid[0] == pytest.approx(-1e-3 / cfg.f0, rel=1e-14, abs=0)


def _column(state, k_b):
    """Column k_b's weights C^2 and a phases, the phases as the table broadcasts them."""
    phases = np.broadcast_to(state.phase_a, state.amplitudes.shape)[:, k_b]
    return state.amplitudes[:, k_b] ** 2, phases


def test_full_rate_matches_reduced_for_balanced_sources(partial_cfg):
    # |a1|^2 + |a2|^2 = 1 and 2 |a1||a2| = 1 at the balanced point, so the
    # general-amplitude rate collapses onto the equal-emission formula
    state = assemble_state(partial_cfg, RHO, n_modes=64)
    for phi_0 in (0.0, 1.3, 4.0):
        rates = counting_rate_reduced(state, phi_0)
        for k_b in (0, 7, 15):
            weights, phases = _column(state, k_b)
            balanced = math.fsum(weights * (1.0 + np.cos(phases - phi_0)))
            assert rates[k_b] == pytest.approx(balanced, rel=1e-12, abs=0)


def test_single_source_rate_is_phase_independent(partial_cfg):
    cfg = make_config(alpha1_mag=1.0, alpha2_mag=0.0)
    state = assemble_state(cfg, RHO, n_modes=64)
    rates = [counting_rate_reduced(state, phi)[5] for phi in np.linspace(0.0, 6.0, 9)]
    assert np.ptp(rates) <= 1e-15 * rates[0]
    marginal = np.sum(state.amplitudes[:, 5] ** 2)
    assert rates[0] == pytest.approx(marginal, rel=1e-12, abs=0)


def test_unbalanced_rate_has_reduced_visibility():
    # a fringe term 2 |a1||a2| against a floor |a1|^2 + |a2|^2 = 1
    cfg = make_config(CorrelationModel.MAXIMAL, alpha1_mag=0.8, alpha2_mag=0.6)
    state = assemble_state(cfg, RHO, n_modes=128)
    assert visibility_scan(state)[0][4] == pytest.approx(0.96, abs=1e-15)


def test_reduced_rate_is_nonnegative_and_periodic(partial_cfg):
    state = assemble_state(partial_cfg, RHO, n_modes=64)
    for phi_0 in np.linspace(0.0, 2.0 * math.pi, 17):
        r = counting_rate_reduced(state, phi_0)
        assert np.all(r >= 0.0)
        wrapped = counting_rate_reduced(state, phi_0 + 2.0 * math.pi)
        assert wrapped == pytest.approx(r, rel=1e-12, abs=1e-15)


def test_maximal_rate_is_pure_cosine(maximal_cfg):
    state = assemble_state(maximal_cfg, RHO, n_modes=16)
    k_b = 3
    # one a mode a column: the partner's weight and phase
    (weight,), (delta,) = _column(state, k_b)
    for phi_0 in (0.0, 0.8, 2.9):
        got = counting_rate_reduced(state, phi_0)[k_b]
        assert got == pytest.approx(weight * (1.0 + math.cos(delta - phi_0)), rel=1e-12, abs=1e-18)


def test_sweep_visibility_recovers_known_modulations():
    assert sweep_visibility(lambda p: 1.0 + math.cos(p)) == pytest.approx(1.0, abs=1e-15)
    for shift in (0.0, 1.0, 2.5, -2.0):
        shifted = lambda p, s=shift: 3.0 + math.cos(p - s)  # noqa: E731
        assert sweep_visibility(shifted) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert sweep_visibility(lambda p: 2.0) == 0.0
    assert type(sweep_visibility(lambda p: 1.0 + 0.5 * math.cos(p))) is float


def test_sweep_visibility_rejects_second_harmonic():
    # four phases alias a second harmonic onto the mean; the check refuses it
    with pytest.raises(ValueError):
        sweep_visibility(lambda p: 1.0 + math.cos(2.0 * p))


def test_sweep_visibility_flags_dark_output():
    with pytest.raises(ZeroRate):
        sweep_visibility(lambda p: 0.0)


def test_visibility_scan_center_matches_closed_form(partial_cfg):
    state = assemble_state(partial_cfg, RHO, n_modes=512)
    assert visibility_scan(state)[0][0] == pytest.approx(0.996118297317, abs=1e-6)


def test_visibility_scan_monotone_in_shell_width():
    previous = 2.0
    for sigma in (3e-4, 9.37e-4, 3e-3):
        cfg = make_config(sigma_theta=sigma)
        state = assemble_state(cfg, np.array([0.0, 1e-4]), n_modes=512)
        v = visibility_scan(state)[0][0]
        assert v < previous
        previous = v


def test_partial_oracle_converges_in_grid_size(partial_cfg):
    # each column's shell is a midpoint rule whose error falls 4.00-4.02x
    # per doubling from 128 modes on (1.5e-3 at 128, 1.45e-6 at 4096)
    radii = np.linspace(0.0, 0.5 * partial_cfg.f0 * partial_cfg.sigma_b, 16)
    closed = np.array([visibility_closed_form(float(r), partial_cfg) for r in radii])
    sizes = (128, 256, 512, 1024, 2048, 4096)
    errors = []
    for n in sizes:
        state = assemble_state(partial_cfg, radii, n_modes=n)
        grid = visibility_scan(state)[0]
        errors.append(float(np.max(np.abs(grid - closed))))
    order = -np.polyfit(np.log(sizes), np.log(errors), 1)[0]
    assert abs(order - 2.0) <= 0.1
    assert errors[-1] <= 2e-5


def test_partial_rate_tends_to_the_maximal_rate_as_the_shell_narrows():
    # as sigma_theta -> 0 the partial rate / (sigma_theta^2 / 2) tends to
    # the maximal rate as O(sigma_theta^2), about 7.8e5 sigma_theta^2
    # peak-relative over 0-2 mm on the reference optics. The grid, whose
    # rates share an arbitrary scale, is compared peak-normalized, and
    # every column's shell gets all 512 modes down to 1e-7
    radii = np.linspace(0.0, 2e-3, 41)
    sigmas = np.array([1e-4, 1e-5, 1e-6, 1e-7])

    def closed(cfg):
        mean, fringe, _ = _closed_form(radii, 0.0, cfg, cfg.correlation_model)
        rate = mean * (1.0 + fringe.real)
        return rate / (0.5 * cfg.sigma_theta**2 if cfg.sigma_theta else 1.0)

    def grid(cfg):
        rate = visibility_scan(assemble_state(cfg, radii, 512))[1]
        return rate / rate.max()

    gaps = {}
    for route in (closed, grid):
        limit = route(make_config(CorrelationModel.MAXIMAL))
        gaps[route] = np.array([np.max(np.abs(route(make_config(sigma_theta=s)) - limit))
                                for s in sigmas]) / limit.max()
        order = np.polyfit(np.log(sigmas), np.log(gaps[route]), 1)[0]
        assert abs(order - 2.0) <= 0.1
    assert np.allclose(gaps[grid], gaps[closed], rtol=1e-3, atol=0.0)


def _reference_phasor(state, k_b):
    """One column's (A, Re S, Im S) from its own three scalar sums."""
    a1 = state.config.alpha1_mag
    a2 = state.config.alpha2_mag
    weights, phases = _column(state, k_b)
    w, c, s = (math.fsum(weights * part) for part in (1.0, np.cos(phases), np.sin(phases)))
    k = 2.0 * a1 * a2
    return (a1 * a1 + a2 * a2) * w, k * c, k * s


def _four_term_rate(state, k_b, phi_0):
    """One column's rate summed term by term at one scan phase."""
    a1 = state.config.alpha1_mag
    a2 = state.config.alpha2_mag
    weights, phases = _column(state, k_b)
    arg = phases - phi_0
    return math.fsum(weights * ((a1 * a1 + a2 * a2) + 2.0 * a1 * a2 * np.cos(arg)))


AMPLITUDES = pytest.mark.parametrize(
    "amplitudes",
    [{}, {"alpha1_mag": 0.8, "alpha2_mag": 0.6}, {"alpha1_mag": 1.0, "alpha2_mag": 0.0}],
    ids=["balanced", "unbalanced", "single"],
)
PHASES = (0.0, 0.4, 0.5 * math.pi, 2.1, math.pi, 1.5 * math.pi, -3.0)


@pytest.mark.parametrize("model", list(CorrelationModel), ids=lambda m: m.value)
@pytest.mark.parametrize("n_modes", (128, 512, 1024))
@AMPLITUDES
def test_batched_oracle_is_bit_identical_to_per_column_sums(model, n_modes, amplitudes):
    cfg = make_config(model, **amplitudes)
    radii = np.linspace(0.0, 0.5 * cfg.f0 * cfg.sigma_b, 16)
    state = assemble_state(cfg, radii, n_modes=n_modes)
    a, re_s, im_s = np.array([_reference_phasor(state, k) for k in range(16)]).T
    for phi_0 in PHASES:
        reference = a + (re_s * math.cos(phi_0) + im_s * math.sin(phi_0))
        assert counting_rate_reduced(state, phi_0).tobytes() == reference.tobytes()
    reference = np.clip(np.abs(re_s + 1j * im_s) / a, 0.0, 1.0)
    assert visibility_scan(state)[0].tobytes() == reference.tobytes()


@pytest.mark.parametrize("model", list(CorrelationModel), ids=lambda m: m.value)
@pytest.mark.parametrize("n_modes", (128, 1024))
def test_scan_rate_is_the_phi0_zero_rate_of_every_column(model, n_modes):
    # run_oracle_check takes its rate curve and visibility from one phasor
    cfg = make_config(model)
    radii = np.linspace(0.0, 0.5 * cfg.f0 * cfg.sigma_b, 16)
    state = assemble_state(cfg, radii, n_modes=n_modes)
    vis, rate, fringe = visibility_scan(state)
    assert np.array_equal(rate, counting_rate_reduced(state, 0.0))
    a, s = _phasor(state)
    assert np.array_equal(vis, np.clip(np.abs(s) / a, 0.0, 1.0))
    assert np.array_equal(fringe, s / a)


@pytest.mark.parametrize("model", list(CorrelationModel), ids=lambda m: m.value)
@pytest.mark.parametrize("n_modes", (128, 512, 1024))
@AMPLITUDES
def test_phasor_agrees_with_four_term_sums_and_four_phase_sweep(model, n_modes, amplitudes):
    # the phasor regroups the sum of the term-by-term rate, so the two
    # agree to rounding at every phase, and so do the visibilities
    cfg = make_config(model, **amplitudes)
    radii = np.linspace(0.0, 0.5 * cfg.f0 * cfg.sigma_b, 16)
    state = assemble_state(cfg, radii, n_modes=n_modes)

    def four_term(phi_0):
        return np.array([_four_term_rate(state, k, phi_0) for k in range(16)])

    for phi_0 in PHASES:
        reference = four_term(phi_0)
        error = np.max(np.abs(counting_rate_reduced(state, phi_0) - reference))
        assert error <= 1e-15 * np.max(reference)
    error = np.max(np.abs(visibility_scan(state)[0] - sweep_visibility(four_term)))
    assert error <= 1e-15


def test_one_column_state_answers_with_arrays():
    for model in CorrelationModel:
        state = assemble_state(make_config(model), RHO[4:5], n_modes=128)
        vis, rate, _ = visibility_scan(state)
        assert counting_rate_reduced(state, 0.3).shape == vis.shape == rate.shape == (1,)


def test_sweep_visibility_applies_the_formula_per_column():
    def rates(p):
        return np.array([1.0 + math.cos(p), 3.0 + math.cos(p - 1.0), 2.0])

    got = sweep_visibility(rates)
    assert got.shape == (3,)
    assert got[0] == pytest.approx(1.0, abs=1e-15)
    assert got[1] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert got[2] == 0.0
    with pytest.raises(ZeroRate):
        sweep_visibility(lambda p: np.array([1.0 + math.cos(p), 0.0]))
    with pytest.raises(ValueError, match="second harmonic"):
        sweep_visibility(lambda p: np.array([2.0, 1.0 + math.cos(2.0 * p)]))


def _fsum_rows(x):
    return np.array([math.fsum(row) for row in x.tolist()])


def _domain_exponent(n):
    """e of the _row_sums domain |x| < 2^e for rows of n entries."""
    return 1023 - (n + 1).bit_length()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.one_of(st.integers(1, 4096), st.sampled_from([1, 2, 3, 511, 512, 1000, 1024, 4095, 4096])),
    st.integers(-1074, 1022),
    st.integers(0, 2100),
    st.integers(0, 2**32 - 1),
)
def test_row_sums_are_fsum_bit_for_bit(n, lo, span, seed):
    # five row shapes at one length, with entries 2^e times (-1, 1) for
    # e drawn from [lo, lo + span] clipped to the domain bound
    rng = np.random.default_rng(seed)
    top = _domain_exponent(n)
    lo = min(lo, top)
    hi = min(lo + span, top)

    def wide(size):
        mantissa = rng.uniform(-1.0, 1.0, size) * (1.0 - 2.0**-53)
        return np.ldexp(mantissa, rng.integers(lo, hi + 1, size))

    # negated copies plus a small residue, shuffled
    k = (n - 1) // 2
    cancelling = np.zeros(n)
    cancelling[:k] = wide(k)
    cancelling[k:2 * k] = -cancelling[:k]
    cancelling[-1] = math.ldexp(rng.choice([-1.0, 1.0]), int(rng.integers(-1074, lo + 1)))
    # an exact tie between two neighbours of 2^e, broken or not by a tail
    tie = np.zeros(n)
    tie[0] = math.ldexp(1.0, hi - 1)
    tie[1:2] = math.ldexp(rng.choice([-1.0, 1.0]), hi - 54)
    tie[2:3] = rng.choice([0.0, math.ldexp(1.0, max(hi - 200, -1074)), -5e-324])
    # signed zeros
    zeros = rng.choice([0.0, -0.0], n)
    # one nonzero entry, the maximal model's column
    single = np.zeros(n)
    single[rng.integers(n)] = wide(1)[0]
    x = np.array([wide(n), rng.permutation(cancelling), rng.permutation(tie), zeros, single])
    before = x.tobytes()
    assert _row_sums(x).tobytes() == _fsum_rows(x).tobytes()
    assert x.tobytes() == before


@pytest.mark.parametrize("row", [
    [1.0, 2.0**-53], [1.0, -2.0**-54], [1.0 + 2.0**-52, 2.0**-53], [2.0**-53, 1.0, 2.0**-105],
    [0.0], [-0.0], [-0.0, -0.0], [5e-324, -5e-324], [5e-324] * 3, [1e300, -1e300, 1e-300],
])
def test_row_sums_ties_and_zeros(row):
    x = np.array([row])
    assert _row_sums(x).tobytes() == _fsum_rows(x).tobytes()


@pytest.mark.parametrize("n", (1, 2, 510, 4096))
def test_row_sums_domain_ends_below_sigma_overflow(n):
    bound = math.ldexp(1.0, _domain_exponent(n))
    inside = np.full((2, n), np.nextafter(bound, 0.0))
    inside[1] *= -1.0
    assert _row_sums(inside).tobytes() == _fsum_rows(inside).tobytes()
    for value in (bound, -bound, math.inf, math.nan):
        outside = np.zeros((2, n))
        outside[1, -1] = value
        with pytest.raises(ValueError, match="finite entries below"):
            _row_sums(outside)


def _fsum_counter(monkeypatch, fsum):
    """Route oracle's math.fsum through ``fsum``; return the list of its calls."""
    calls = []

    def counted(values):
        calls.append(None)
        return fsum(values)

    monkeypatch.setattr(oracle, "math", types.SimpleNamespace(**dict(vars(math), fsum=counted)))
    return calls


@pytest.mark.parametrize("n, passes", [(1024, 51), (65536, 60)])
def test_row_sums_take_every_pass_of_the_bound_on_the_worst_row(monkeypatch, n, passes):
    # +-2^e pairs whose exponents span the domain, plus 2^-1074: the
    # largest entry sits at the top of the domain and the remainder loses
    # the fewest bits a pass, so the row settles on the last pass of the
    # bound ceil(2045 / (52 - M)) + 1
    top = _domain_exponent(n) - 1
    exponents = np.unique(np.linspace(-1074, top, (n - 1) // 2).round())
    row = np.zeros(n)
    row[:exponents.size] = np.ldexp(1.0, exponents.astype(int))
    row[exponents.size:2 * exponents.size] = -row[:exponents.size]
    row[-1] = 5e-324
    calls = _fsum_counter(monkeypatch, math.fsum)
    assert _row_sums(row[None, :]).tobytes() == _fsum_rows(row[None, :]).tobytes()
    # two fsum calls a pass for the one row
    assert len(calls) == 2 * passes


def test_row_sums_raise_instead_of_looping_when_a_row_never_settles(monkeypatch):
    # the two sides of the settling test never agree
    counter = itertools.count()
    calls = _fsum_counter(monkeypatch, lambda values: float(next(counter)))
    with pytest.raises(RuntimeError, match="did not settle"):
        _row_sums(np.ones((2, 8)))
    # two calls a pass for each of the two rows, for ceil(2045 / 48) + 1 passes
    assert len(calls) == 2 * 2 * 44


@pytest.mark.parametrize("sigma", (2e-4, 9.37e-4, 3e-3))
def test_two_dimensional_shell_grid_sums_to_its_closed_form(sigma):
    # A test-only route over the whole plane of theta' rather than one
    # line: per column, a 64 x 64 midpoint grid on [-6 sigma, 6 sigma]^2
    # with weight exp(-2 |theta'|^2 / sigma^2) p_b, whose a photon leaves
    # at (k0' theta' - k_b theta_b x) / k_a. Each column holds its own a
    # angles, and S / A must be
    # F_2D = c e^{i(C rho^2 - phi)} (2 / p) exp(-C^2 b^2 rho^2 / p), p = 2 - i kappa.
    cfg = make_config(sigma_theta=sigma, alpha1_mag=0.8, alpha2_mag=0.6, phi1=0.3, phi_b=0.2)
    radii = np.linspace(0.0, 0.5 * cfg.f0 * cfg.sigma_b, 16)
    k_a, k_b, k0p = (2.0 * math.pi / lam for lam in (cfg.lambda_a, cfg.lambda_b, cfg.lambda_p))
    nodes = (np.arange(64) + 0.5) * (12.0 * sigma / 64) - 6.0 * sigma
    tx, ty = (t.ravel()[:, None] for t in np.meshgrid(nodes, nodes))
    theta_b = radii / cfg.f0
    theta_a = np.hypot(k0p * tx - k_b * theta_b, k0p * ty) / k_a
    weights = np.exp(-2.0 * (tx**2 + ty**2) / sigma**2) * np.exp(-2.0 * theta_b**2 / cfg.sigma_b**2)
    static = cfg.phi_b + cfg.phi2 - cfg.phi1
    state = SuperposedState(np.sqrt(weights / weights.sum()), phase_a(theta_a, cfg) - static, cfg)
    assert state.phase_a.shape == state.amplitudes.shape == (64 * 64, 16)
    a, s = _phasor(state)

    constants = derive_constants(cfg)
    curvature, b = cfg.n_a * constants.A, constants.B * sigma
    p = complex(2.0, -constants.kappa)
    a1, a2 = cfg.alpha1_mag, cfg.alpha2_mag
    contrast = 2.0 * a1 * a2 / (a1 * a1 + a2 * a2)
    closed = (contrast * np.exp(1j * (curvature * radii**2 - static)) * (2.0 / p)
              * np.exp(-(curvature * b * radii) ** 2 / p))
    assert np.max(np.abs(s / a - closed)) <= 1e-13
