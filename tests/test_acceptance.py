"""Acceptance gate: one test per release criterion, one printed line each.

Every test prints a single pass/fail line with the measured margin and
its stated tolerance; the lines are also queued for the terminal summary
so they survive pytest's capture. Tolerances that had to account for
float64 limits say so explicitly in the printed line and are derived in
the test body.
"""

import dataclasses
import functools
import math
import time

import mpmath
import numpy as np

from twinfringes import (
    assemble_state,
    central_visibility,
    counting_rate_partial_quadrature,
    counting_rate_reduced,
    derive_constants,
    dm2_pair_scaled,
    estimate_equivalent_wavelength,
    estimate_sigma_theta,
    fringe_radius,
    render_pattern,
    sweep_visibility,
    visibility_closed_form,
    visibility_hwhm,
    visibility_scan,
)

from conftest import ACCEPTANCE_LINES, make_config
from twinfringes import CorrelationModel, special

SEED = 20260823


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    """One visible line per criterion, then the actual assertion."""
    line = f"criterion {num} {'PASS' if ok else 'FAIL'}: {name}; {detail}"
    print(line, flush=True)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_criterion_1_central_visibility():
    cfg = make_config()
    v0 = central_visibility(cfg)  # warm path before timing
    elapsed = min(
        _timed(lambda: central_visibility(cfg)) for _ in range(5)
    )
    ok = abs(v0 - 0.996) <= 1e-3 and elapsed < 1e-3
    _report(
        1,
        "central visibility at the reference correlation width",
        ok,
        f"V(0)={v0:.6f} within 0.996+/-0.001, {elapsed * 1e6:.1f} us < 1 ms",
    )


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_2_equivalent_wavelength():
    t0 = time.perf_counter()
    cfg = make_config(CorrelationModel.MAXIMAL)
    separations = (5e-3, 8e-3, 11.7e-3, 15e-3, 20e-3)
    clean = [
        (d, fringe_radius(1, dataclasses.replace(cfg, d_a=d))) for d in separations
    ]
    est = estimate_equivalent_wavelength(clean, cfg)
    lam_eq = cfg.lambda_b**2 / cfg.lambda_a
    clean_rel = abs(est.lambda_eq - lam_eq) / lam_eq

    rng = np.random.default_rng(SEED)
    trials = []
    for _ in range(100):
        noisy = [(d, r * (1.0 + 0.01 * rng.standard_normal())) for d, r in clean]
        trials.append(estimate_equivalent_wavelength(noisy, cfg).lambda_eq)
    mean_nm = float(np.mean(trials)) * 1e9
    elapsed = time.perf_counter() - t0

    ok = clean_rel <= 1e-6 and abs(mean_nm - 423.0) <= 7.0 and elapsed < 1.0
    _report(
        2,
        "equivalent wavelength from ring-radius regression",
        ok,
        f"noiseless rel err {clean_rel:.2e} <= 1e-6, "
        f"1% noise x100 mean {mean_nm:.2f} nm within 423+/-7 nm, "
        f"{elapsed:.2f} s < 1 s",
    )


def test_criterion_3_three_way_consistency():
    t0 = time.perf_counter()
    cfg = make_config()
    radii = np.linspace(0.0, 1.5e-3, 20)

    state = assemble_state(cfg, radii, n_modes=512)
    v_grid = visibility_scan(state)[0]
    v_quad = sweep_visibility(lambda p: counting_rate_partial_quadrature(radii, p, cfg))
    v_closed = np.array([visibility_closed_form(float(r), cfg) for r in radii])

    worst = max(
        float(np.max(np.abs(a - b)))
        for a, b in ((v_grid, v_quad), (v_grid, v_closed), (v_quad, v_closed))
    )
    elapsed = time.perf_counter() - t0
    # 10x the measured worst, 7.64e-5 (grid vs closed form, 512 modes)
    ok = worst < 8e-4 and elapsed < 30.0
    _report(
        3,
        "grid oracle vs quadrature vs closed-form visibility, 20 radii in [0, 1.5 mm]",
        ok,
        f"max pairwise discrepancy {worst:.2e} < 8e-4, {elapsed:.2f} s < 30 s",
    )


def test_criterion_4_limiting_models():
    t0 = time.perf_counter()
    radii = np.linspace(0.0, 3e-3, 12)

    state = assemble_state(make_config(CorrelationModel.MAXIMAL), radii, n_modes=512)
    supported = np.sum(state.amplitudes**2, axis=0) > 1e-6
    v_err = float(np.max(np.abs(visibility_scan(state)[0][supported] - 1.0)))

    state = assemble_state(make_config(CorrelationModel.UNCORRELATED), radii, n_modes=512)
    phases = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
    rates = np.array([counting_rate_reduced(state, p) for p in phases])
    flatness = float(np.max(np.ptp(rates, axis=0) / rates.mean(axis=0)))
    v_un = float(np.max(visibility_scan(state)[0]))

    elapsed = time.perf_counter() - t0
    ok = v_err <= 1e-14 and flatness <= 1e-14 and v_un <= 1e-14 and elapsed < 5.0
    _report(
        4,
        "maximal-correlation unit visibility and uncorrelated flat rate",
        ok,
        f"max |V-1| {v_err:.1e} <= 1e-14 on modes with P > 1e-6, "
        f"phase flatness {flatness:.1e} <= 1e-14 relative, "
        f"residual visibility {v_un:.1e} <= 1e-14, {elapsed:.2f} s < 5 s",
    )


def test_criterion_5_ring_law_and_rendered_ring():
    t0 = time.perf_counter()
    cfg = make_config(CorrelationModel.MAXIMAL)
    r1 = fringe_radius(1, cfg)
    ratio_err = max(
        abs(fringe_radius(n, cfg) / r1 - math.sqrt(n)) for n in range(1, 11)
    )

    image, _ = render_pattern(cfg, 3e-3, 600, 0.0)
    pitch = 3e-3 / 600
    half_pixel = 0.5 * pitch
    # the stored quadrant's first row is row 300 of the frame, columns 300-599
    centers = (np.arange(300, 600) + 0.5) * pitch - 1.5e-3
    row = image.quadrant[0]
    # the Gaussian envelope tilts the raw intensity maximum ~8 um inward,
    # beyond the half-pixel budget; peak-find on the envelope-flattened row
    radius = np.hypot(centers, centers[0])
    flat = row / np.exp(-2.0 * radius**2 / (cfg.f0 * cfg.sigma_b) ** 2)
    window = (centers > 1.0e-3) & (centers < 1.55e-3)
    peak = centers[window][np.argmax(flat[window])]
    peak_err = abs(peak - r1)

    elapsed = time.perf_counter() - t0
    ok = ratio_err <= 1e-12 and peak_err <= half_pixel and elapsed < 5.0
    _report(
        5,
        "sqrt(N) ring law and first bright ring of the rendered 600x600 pattern",
        ok,
        f"max |rho_N/rho_1 - sqrt(N)| {ratio_err:.1e} <= 1e-12 for N <= 10, "
        f"ring at {peak * 1e3:.4f} mm vs 1.276 mm closed form, "
        f"offset {peak_err * 1e6:.2f} um <= half pixel {half_pixel * 1e6:.1f} um, "
        f"{elapsed:.2f} s < 5 s",
    )


def test_criterion_6_width_inversion_round_trip():
    cfg = make_config()
    constants = derive_constants(cfg)
    curvature_b2 = cfg.n_a * constants.A * constants.B**2
    sigmas = np.logspace(-5.0, -2.0, 50)

    def round_trip():
        out = []
        for sigma in sigmas:
            probe = dataclasses.replace(cfg, sigma_theta=float(sigma))
            out.append(estimate_sigma_theta(central_visibility(probe), probe))
        return out

    round_trip()  # warm
    t0 = time.perf_counter()
    recovered = round_trip()
    elapsed = time.perf_counter() - t0

    # V(0) near 1 stores the width information in 1 - V ~ (c sigma^2)^2 / 8;
    # rounding V(0) to double floors any inverse at ~2 ulp(1) / (c sigma^2)^2
    # relative, regardless of implementation. The strict 1e-10 bound applies
    # wherever that floor sits below it (sigma >= 1.3e-4 here).
    worst_strict = 0.0
    ok_points = True
    for sigma, back in zip(sigmas, recovered):
        rel = abs(back - sigma) / sigma
        floor = 2.0 * 4.4e-16 / (curvature_b2 * sigma * sigma) ** 2
        ok_points = ok_points and rel <= max(1e-10, floor)
        if sigma >= 1.3e-4:
            worst_strict = max(worst_strict, rel)

    # reverse direction is fully conditioned and must be near machine level
    worst_rev = 0.0
    for v0 in np.linspace(0.05, 0.999999, 20):
        sigma = estimate_sigma_theta(float(v0), cfg)
        v_back = central_visibility(dataclasses.replace(cfg, sigma_theta=sigma))
        worst_rev = max(worst_rev, abs(v_back - v0) / v0)

    ok = ok_points and worst_strict <= 1e-10 and worst_rev <= 1e-12 and elapsed < 1e-2
    _report(
        6,
        "sigma_theta -> V(0) -> sigma_theta round trip, 50 widths in [1e-5, 1e-2]",
        ok,
        f"rel err <= 1e-10 where float64 allows (worst {worst_strict:.1e} for "
        f"sigma >= 1.3e-4), conditioning floor 2*4.4e-16/(c sigma^2)^2 "
        f"honored below, reverse trip {worst_rev:.1e} <= 1e-12, "
        f"{elapsed * 1e3:.2f} ms < 10 ms",
    )


def test_criterion_7_monotonic_visibility_and_hwhm():
    t0 = time.perf_counter()
    cfg = make_config()
    v_list = []
    r_list = []
    for sigma in (6.16e-4, 1.06e-3, 1.99e-3):
        probe = dataclasses.replace(cfg, sigma_theta=sigma)
        v_list.append(central_visibility(probe))
        r_list.append(visibility_hwhm(probe))
    elapsed = time.perf_counter() - t0
    decreasing = all(b < a for a, b in zip(v_list, v_list[1:])) and all(
        b < a for a, b in zip(r_list, r_list[1:])
    )
    ok = decreasing and elapsed < 5.0
    _report(
        7,
        "V(0) and HWHM strictly decreasing as correlation weakens",
        ok,
        f"V(0): {' > '.join(f'{v:.4f}' for v in v_list)}, "
        f"r0: {' > '.join(f'{r * 1e3:.4f}' for r in r_list)} mm, "
        f"{elapsed:.3f} s < 5 s",
    )


@functools.cache
def _criterion_8_draws() -> tuple[tuple[complex, complex, complex], ...]:
    """The 1000 draws z in |z| <= 5, each with w(u) and w(-u), u = iz / sqrt 2.

    The w values come from 30-digit mpmath, w(u) = e^{-u^2} erfc(-iu),
    so no value on the reference side passes through the package's
    Faddeeva kernel. u is the float iz / sqrt 2, the argument
    dm2_pair_scaled itself forms up to sign: the residual then measures
    the layer, not how Br moves under the rounding of z / sqrt 2 (up to
    about |z|^2 ulps of its large terms).
    """
    rng = np.random.default_rng(SEED)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    draws = []
    with mpmath.workdps(30):
        for _ in range(1000):
            r = 5.0 * math.sqrt(rng.uniform())
            phi = rng.uniform(0.0, 2.0 * math.pi)
            z = r * complex(math.cos(phi), math.sin(phi))
            u = mpmath.mpc(1j * z * inv_sqrt2)
            w_plus, w_minus = (complex(mpmath.exp(-v * v) * mpmath.erfc(-1j * v)) for v in (u, -u))
            draws.append((z, w_plus, w_minus))
    return tuple(draws)


def criterion_8_residuals(draws):
    """Br(z) from the package against the D_-2 recurrence on mpmath's w.

    Br(z) = e^{z^2/4} [D_-2(z) + D_-2(-z)]. With the recurrence
    D_-2(z) + z D_-1(z) = e^{-z^2/4} and D_-1(z) = e^{z^2/4} sqrt(pi/2)
    erfc(z / sqrt 2) = e^{-z^2/4} sqrt(pi/2) w(iz / sqrt 2), the pair is
    Br(z) = 2 - z sqrt(pi/2) [w(iz / sqrt 2) - w(-iz / sqrt 2)]. Returns
    the worst scaled residual, the worst absolute residual, the worst
    absolute residual where |z| <= 3, and whether Br(-z) == Br(z) bit
    for bit at every draw.
    """
    sqrt_pi_over_2 = math.sqrt(math.pi / 2.0)
    worst_scaled = worst_abs = worst_inner = 0.0
    even = True
    for z, w_plus, w_minus in draws:
        br = dm2_pair_scaled(z)
        even = even and dm2_pair_scaled(-z) == br
        odd_part = z * sqrt_pi_over_2 * (w_plus - w_minus)
        resid = abs(br - (2.0 - odd_part))
        worst_abs = max(worst_abs, resid)
        worst_scaled = max(worst_scaled, resid / max(1.0, abs(br), abs(odd_part)))
        if abs(z) <= 3.0:
            worst_inner = max(worst_inner, resid)
    return worst_scaled, worst_abs, worst_inner, even


def test_criterion_8_parabolic_cylinder_recurrence():
    draws = _criterion_8_draws()  # mpmath, before the timed calls
    t0 = time.perf_counter()
    exact_at_zero = dm2_pair_scaled(0j) == 2.0
    worst_scaled, worst_abs, worst_inner, even = criterion_8_residuals(draws)
    elapsed = time.perf_counter() - t0

    # |w| reaches e^{z^2/2}, about e^6 at |z| = 3.5 and e^12.5 at |z| = 5,
    # so perfectly rounded terms leave an absolute residual of that many
    # ulps; the 1e-12 bound is enforced absolutely where |z| <= 3 and
    # scale-normalized everywhere
    ok = (
        exact_at_zero
        and even
        and worst_scaled <= 1e-12
        and worst_inner <= 1e-12
        and elapsed < 1.0
    )
    _report(
        8,
        "D_-2 recurrence in the scaled pair Br over 1000 draws in |z| <= 5",
        ok,
        f"Br(0)=2 exact, Br(-z)=Br(z) bit for bit: {even}, "
        f"scaled residual {worst_scaled:.1e} <= 1e-12, "
        f"absolute residual {worst_inner:.1e} <= 1e-12 for |z| <= 3 "
        f"(raw worst {worst_abs:.1e}, w from 30-digit mpmath), "
        f"{elapsed * 1e3:.0f} ms < 1 s",
    )


def test_criterion_8_fails_under_a_weideman_coefficient_fault(monkeypatch):
    # one of the 40 coefficients of the Faddeeva kernel off by 1e-6
    # relative must push the residual past its bound
    faulty = special._WEIDEMAN_EVEN.copy()
    faulty[2] *= 1.0 + 1e-6
    monkeypatch.setattr(special, "_WEIDEMAN_EVEN", faulty)
    worst_scaled, _, worst_inner, _ = criterion_8_residuals(_criterion_8_draws())
    assert worst_scaled > 1e-12 and worst_inner > 1e-12, (worst_scaled, worst_inner)
