"""Special-function checks: frozen references, symmetries, mpmath spot checks."""

import math
import re

import mpmath
import numpy as np
import pytest

from twinfringes import ToleranceNotReached, dm2_pair_scaled, faddeeva, integrate_radial
from twinfringes.special import (
    _INV_SQRT_PI_ARRAY, _L_ARRAY, _WEIDEMAN_EVEN, _WEIDEMAN_ODD, _w_from_iz, dm2_pair_slope,
    two_product,
)

# Frozen from an independent 50-digit evaluation.
W_REF = {
    1j: 0.427583576155807 + 0j,
    0.5 + 0.5j: 0.5331567079121749 + 0.2304882313844584j,
    2 + 1j: 0.1402395813662779 + 0.2222134401798991j,
    -3 + 0.25j: 0.01939221549012719 - 0.1988980790215782j,
    4j: 0.1369994576250614 + 0j,
    5 + 0j: 1.388794386496402e-11 + 0.1152459618309366j,
}


def _close(got, want, rel=1e-12):
    assert got == pytest.approx(want, rel=rel, abs=1e-15)


@pytest.mark.parametrize("z,want", sorted(W_REF.items(), key=lambda kv: str(kv[0])))
def test_faddeeva_reference_values(z, want):
    _close(faddeeva(z), want)


def test_faddeeva_real_on_imaginary_axis():
    for y in (0.1, 1.0, 3.0, 10.0):
        w = faddeeva(1j * y)
        assert w.imag == 0.0
        assert 0.0 < w.real < 1.0


def test_faddeeva_at_origin():
    assert faddeeva(0j) == 1.0 + 0j


@pytest.mark.parametrize("z", [-40j, 1 - 1e-300j, complex(math.nan, 1.0), complex(1.0, math.nan),
                               complex(math.inf, 1.0), complex(0.0, math.inf)])
def test_faddeeva_rejects_z_outside_the_upper_half_plane(z):
    with pytest.raises(ValueError, match=re.escape(f"got z = {z!r}")):
        faddeeva(z)


def _mp_faddeeva(z):
    with mpmath.workdps(40):
        z = mpmath.mpc(z)
        return mpmath.exp(-z * z) * mpmath.erfc(-1j * z)


def test_faddeeva_against_mpmath_in_the_upper_half_disc():
    # uniform in the half-disc |z| <= 30, Im z >= 0
    rng = np.random.default_rng(31)
    radius = 30.0 * np.sqrt(rng.uniform(size=600))
    angle = rng.uniform(0.0, math.pi, size=600)
    for z in radius * np.exp(1j * angle):
        want = complex(_mp_faddeeva(z))
        assert abs(faddeeva(z) - want) <= 1e-13 * abs(want), z


def test_faddeeva_against_mpmath_far_out_in_the_first_quadrant():
    rng = np.random.default_rng(37)
    radius = 10.0 ** rng.uniform(0.0, 4.0, size=300)
    angle = rng.uniform(0.0, math.pi / 2, size=300)
    for z in radius * np.exp(1j * angle):
        want = complex(_mp_faddeeva(z))
        assert abs(faddeeva(z) - want) <= 1e-13 * abs(want), z


def test_faddeeva_matches_scipy_wofz():
    # scipy is a test-only dependency: its wofz is a second reference
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(41)
    for z in rng.uniform([-8.0, 0.0], 8.0, size=(300, 2)) @ np.array([1.0, 1j]):
        want = complex(special.wofz(z))
        assert abs(faddeeva(z) - want) <= 1e-13 * abs(want), z


def test_dm2_pair_scaled_against_mpmath():
    # Br(z) = e^{z^2/4} [D_{-2}(z) + D_{-2}(-z)] on the rays z = rho g the
    # visibility uses (arg g in [pi/2, 3pi/4)), out past the revival region;
    # errors are measured against the O(1) visibility scale |Br| / gamma
    for kappa in (1e-3, 0.5, 2.0, 30.0):
        root = complex(2.0, -kappa) ** 0.5
        ray = 1j * math.sqrt(2.0) / root
        gamma = math.hypot(2.0, kappa)
        radii = np.linspace(0.0, 40.0, 41)
        got = dm2_pair_scaled(radii * ray)
        for r, value in zip(radii, got):
            z = mpmath.mpf(r) * mpmath.mpc(ray)
            want = mpmath.exp(z * z / 4) * (mpmath.pcfd(-2, z) + mpmath.pcfd(-2, -z))
            assert abs(value - complex(want)) <= 1e-13 * gamma


def test_dm2_pair_scaled_scalar_and_symmetry():
    assert dm2_pair_scaled(0j) == 2.0
    for z in (0.3 + 1.1j, -2.0 + 0.7j, 4.0j):
        assert dm2_pair_scaled(-z) == dm2_pair_scaled(z)
        assert dm2_pair_scaled(z) == dm2_pair_scaled(np.array([z]))[0]
    assert np.isnan(dm2_pair_scaled(complex(math.nan, 0.0)))


def test_dm2_pair_scaled_bits_do_not_depend_on_array_length():
    # a radius gives the same number in a rendered profile, a rho list
    # and a scalar call
    rng = np.random.default_rng(43)
    z = rng.uniform(-6.0, 6.0, size=700) + 1j * rng.uniform(-6.0, 6.0, size=700)
    whole = dm2_pair_scaled(z)
    assert all(dm2_pair_scaled(v) == w for v, w in zip(z.tolist(), whole))
    assert np.array_equal(dm2_pair_scaled(z[3:50]), whole[3:50])
    assert np.array_equal(dm2_pair_scaled(z.reshape(7, 100)), whole.reshape(7, 100))


def test_dm2_pair_scaled_low_part_extends_the_argument():
    # z + tail as one double-double argument: the exact product r g
    rng = np.random.default_rng(47)
    for _ in range(100):
        r = rng.uniform(0.5, 60.0)
        g = complex(-rng.uniform(0.0, 1.0), 1.0)
        got = dm2_pair_scaled(*two_product(r, g))
        with mpmath.workdps(40):
            z = mpmath.mpf(r) * mpmath.mpc(g)
            want = complex(mpmath.exp(z * z / 4) * (mpmath.pcfd(-2, z) + mpmath.pcfd(-2, -z)))
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_dm2_pair_slope_against_central_difference():
    # Br'(z) = z Br(z) + (Br(z) - 2) / z, against a fourth-order central
    # difference of dm2_pair_scaled itself
    rng = np.random.default_rng(53)
    h = 1e-3
    for _ in range(100):
        z = complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        slope = dm2_pair_slope(z, dm2_pair_scaled(z))
        br = [dm2_pair_scaled(z + k * h) for k in (-2, -1, 1, 2)]
        numeric = (br[0] - 8.0 * br[1] + 8.0 * br[2] - br[3]) / (12.0 * h)
        assert abs(slope - numeric) <= 1e-9 * max(1.0, abs(slope)), z


def test_two_product_is_exact():
    rng = np.random.default_rng(59)
    for a, b, c in rng.uniform(-1e3, 1e3, size=(200, 3)).tolist():
        p, err = two_product(a, complex(b, c))
        assert p == a * complex(b, c)
        with mpmath.workdps(60):
            assert mpmath.mpc(p) + mpmath.mpc(err) == mpmath.mpf(a) * mpmath.mpc(b, c)


def test_integrate_radial_polynomial():
    value = integrate_radial(lambda x: x * x, 0.0, 1.0, 1e-12)
    assert value == pytest.approx(1.0 / 3.0, rel=1e-12, abs=0)


def test_integrate_radial_gaussian_ring():
    # integral of u exp(-2 u^2) over [0, 6]: (1 - e^{-72}) / 4
    value = integrate_radial(lambda u: u * np.exp(-2.0 * u * u), 0.0, 6.0, 1e-12)
    assert value == pytest.approx(0.25, rel=1e-12, abs=0)


def test_integrate_radial_integrates_a_family_in_one_call():
    # integral of cos(k u) over [0, 3]: sin(3k) / k, for a (2, 3) array of k
    k = np.array([[0.5, 1.0, 2.0], [4.0, 8.0, 16.0]])
    value = integrate_radial(lambda u: np.cos(np.multiply.outer(k, u)), 0.0, 3.0, 1e-13)
    assert value.shape == k.shape
    assert np.max(np.abs(value - np.sin(3.0 * k) / k)) <= 1e-14


def test_integrate_radial_compares_two_panel_counts():
    # one panel per unit of [0, 2], then two: the rule evaluates the
    # integrand at both counts before it accepts the finer estimate
    sizes = []

    def integrand(u):
        sizes.append(u.size)
        return np.exp(u)

    value = integrate_radial(integrand, 0.0, 2.0, 1e-12)
    assert sizes == [40, 80]
    assert value == pytest.approx(math.expm1(2.0), rel=1e-15, abs=0)


def test_integrate_radial_rejects_bad_interval():
    with pytest.raises(ValueError):
        integrate_radial(lambda x: x, 1.0, 1.0, 1e-9)
    with pytest.raises(ValueError):
        integrate_radial(lambda x: x, 2.0, 1.0, 1e-9)


def test_integrate_radial_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        integrate_radial(lambda x: x, 0.0, 1.0, 0.0)


def test_integrate_radial_flags_unreachable_tolerance():
    # about 5e5 periods, far beyond what the panel budget can resolve
    with pytest.raises(ToleranceNotReached, match="4096 panels") as excinfo:
        integrate_radial(lambda x: np.cos(3.0e6 * x), 0.0, 1.0, 1e-13)
    assert excinfo.value.estimate > 1e-13


def test_integrate_radial_matches_scipy_quad():
    # scipy is a test-only dependency: QUADPACK is a second reference
    # for the rule, on shell integrands of growing chirp
    integrate = pytest.importorskip("scipy.integrate")
    for kappa, beat in ((0.0, 0.0), (0.5, 3.0), (5.0, 20.0), (40.0, 60.0)):
        got = integrate_radial(
            lambda u: u * np.exp(-2.0 * u * u) * np.cos(kappa * u * u + beat * u), 0.0, 6.0, 1e-13
        )
        want = integrate.quad(
            lambda u: u * math.exp(-2.0 * u * u) * math.cos(kappa * u * u + beat * u), 0.0, 6.0,
            epsabs=1e-14, epsrel=0.0, limit=400, points=[1, 2, 3, 4, 5],
        )[0]
        assert abs(got - want) <= 1e-13, (kappa, beat)


def _w_from_iz_out_of_place(iz):
    """The earlier Estrin evaluation of _w_from_iz, every step a new array."""
    denom = _L_ARRAY - iz
    big_z = (_L_ARRAY + iz) / denom
    z2 = big_z * big_z
    z4 = z2 * z2
    z8 = z4 * z4
    p = _WEIDEMAN_EVEN + _WEIDEMAN_ODD * big_z
    p = p[0::2] + p[1::2] * z2
    p = p[0::2] + p[1::2] * z4
    q = p[0:4:2] + p[1:4:2] * z8
    z16 = z8 * z8
    poly = q[0] + (q[1] + p[4] * z16) * z16
    return (poly / denom + _INV_SQRT_PI_ARRAY) / denom


@pytest.mark.parametrize("n", [1, 16, 65, 650, 2562, 4098])
def test_estrin_levels_in_place_keep_every_bit(n):
    # one product per level and an in-place sum take the same operations
    # as the out-of-place form, with operands swapped under + and *
    rng = np.random.default_rng(n)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, n)
    iz = scale * (-np.abs(rng.standard_normal(n)) + 1j * rng.standard_normal(n))
    got, want = _w_from_iz(iz), _w_from_iz_out_of_place(iz)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
