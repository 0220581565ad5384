"""The Faddeeva function, the scaled D_{-2} pair, and radial quadrature.

Everything here is a stateless pure function; all of them are safe to
call concurrently. The complex substrate is the Faddeeva function
``w(z) = exp(-z^2) erfc(-iz)``, evaluated with numpy alone by
Weideman's rational approximation (J. A. C. Weideman, SIAM J. Numer.
Anal. 31 (1994) 1497-1518), whose 40 coefficients are computed once
at import; the scaled D_{-2} pair is a thin closed-form layer on top
of it, so the two share one accuracy budget. The reference quadrature
is a composite Gauss-Legendre rule in numpy; nothing here imports scipy.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)

# Panel budget of integrate_radial, which raises ToleranceNotReached
# rather than double its panels past it.
_MAX_PANELS = 4096


def _weideman_coefficients(n: int) -> tuple[float, np.ndarray]:
    """Scale L and coefficients a_1, ..., a_n of Weideman's w(z).

    The a_j are the cosine coefficients of
    f(t) = e^{-t^2} (L^2 + t^2) sampled at t_k = L tan(k pi / 2M),
    M = 2n: the real DFT of Weideman's paper, written out so that
    numpy.fft is not needed. The angle index j k is reduced mod 2M
    before the cosine, which keeps every coefficient within an ulp of
    its exact value.
    """
    m = 2 * n
    scale = math.sqrt(n / math.sqrt(2.0))
    k = np.arange(1, m)
    t = scale * np.tan(k * (math.pi / (2 * m)))
    f = np.exp(-t * t) * (scale * scale + t * t)
    angle = np.outer(np.arange(1, n + 1), k) % (2 * m) * (math.pi / m)
    return scale, (scale * scale + 2.0 * np.cos(angle) @ f) / (2 * m)


_WEIDEMAN_L, _coef = _weideman_coefficients(40)
# 2 a_j, split into even- and odd-degree complex columns: the first
# level of the Estrin scheme in _w_from_iz.
_WEIDEMAN_EVEN = 2.0 * _coef[0::2, None].astype(complex)
_WEIDEMAN_ODD = 2.0 * _coef[1::2, None].astype(complex)
del _coef

# Constants of the array paths as one-element complex arrays: numpy 2
# combines a Python float with a short complex array about 0.4 us more
# slowly than two arrays, with the same bits.
_L_ARRAY = np.array([complex(_WEIDEMAN_L)])
_INV_SQRT_PI_ARRAY = np.array([complex(_INV_SQRT_PI)])
_INV_SQRT2_ARRAY = np.array([complex(_INV_SQRT2)])
_SQRT_2PI_ARRAY = np.array([complex(_SQRT_2PI)])
_TWO_ARRAY = np.array([2.0 + 0j])


def _w_from_iz(iz: np.ndarray) -> np.ndarray:
    """w(z) from iz = i z, for a 1-d complex array with Re(iz) <= 0 (Im z >= 0).

    Weideman's approximation with N = 40:
    w(z) = 2 p(Z) / (L - iz)^2 + 1 / (sqrt(pi) (L - iz)), where
    p(Z) = a_1 + a_2 Z + ... + a_40 Z^39 and Z = (L + iz) / (L - iz)
    maps the upper half-plane into the unit disc. p is evaluated by
    Estrin's scheme (pairs of terms, then pairs of pairs in Z^2, Z^4,
    ...) in about 20 array operations where Horner takes 80: on a short
    array each operation costs about the same whatever its length, so
    their number sets the time. Each level of pairs is one product into
    a fresh block of half the rows (20, 10, 5, then 2), to which the
    other half is added in place, so a long array allocates one block
    per level; the same products and sums in another operand order
    give the same bits. The one-row steps after that stay out of place:
    numpy 2 runs an in-place operation on a one-element array at about
    twice the cost of a new one, and scalars come through here. Every
    step is elementwise, so an element's bits do not depend on the
    length of the array.
    """
    denom = _L_ARRAY - iz
    big_z = (_L_ARRAY + iz) / denom
    z2 = big_z * big_z
    z4 = z2 * z2
    z8 = z4 * z4
    p = _WEIDEMAN_ODD * big_z  # 20 rows, degree 1 in Z
    p += _WEIDEMAN_EVEN
    q = p[1::2] * z2  # 10 rows, degree 3
    q += p[0::2]
    p = q[1::2] * z4  # 5 rows, degree 7, in Z^0, Z^8, ..., Z^32
    p += q[0::2]
    q = p[1:4:2] * z8  # 2 rows, degree 15, in Z^0 and Z^16
    q += p[0:4:2]
    z16 = z8 * z8
    poly = q[0] + (q[1] + p[4] * z16) * z16
    return (poly / denom + _INV_SQRT_PI_ARRAY) / denom


def _split(v):
    """Veltkamp split v = head + tail, head carrying 26 significant bits.

    Works on real or complex scalars and arrays (parts split apart).
    """
    head = 134217729.0 * v  # 2^27 + 1
    head = head - (head - v)
    return head, v - head


def two_product(a, b):
    """(p, e) with p = a b rounded and p + e = a b exactly (Dekker).

    a is real; b is real or complex (each part is one real product).
    Scalars or arrays, whose products neither overflow nor underflow.
    """
    a_head, a_tail = _split(a)
    b_head, b_tail = _split(b)
    p = a * b
    err = ((a_head * b_head - p) + a_head * b_tail + a_tail * b_head) + a_tail * b_tail
    return p, err


def _exp_half_square(s, tail):
    """e^{(s + tail)^2 / 2} with an exact imaginary exponent.

    On the visibility rays at large kappa the phase Im(s^2) / 2 = xy
    reaches 1e3 rad, where a rounded x y moves the result by 1e-13
    relative. That is also the effect of rounding s itself, so it only
    pays to form the phase exactly when the rounding of s is known, as
    ``tail``: s + tail = head + rest with head's parts on 26 bits
    (Veltkamp), which makes Im(head^2) exact, and the result is
    e^{head^2/2} e^{rest (2 head + rest) / 2}. The rounding left in
    Re(head^2) costs an absolute error of at most
    eps |Re s^2| e^{Re s^2 / 2}, negligible where Re s^2 <= 0, as on
    those rays (|Im s| >= |Re s|).
    """
    head, rest = _split(s)
    rest = rest + tail
    return np.exp(0.5 * (head * head)) * np.exp(0.5 * (rest * (head + head + rest)))


class ToleranceNotReached(RuntimeError):
    """Quadrature could not certify the requested tolerance within its budget."""

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


def faddeeva(z: complex) -> complex:
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz), for finite z with Im z >= 0.

    Weideman's rational approximation with N = 40 terms, through the
    kernel that ``dm2_pair_scaled`` uses; that pair reflects its
    argument into this half-plane first, so no route evaluates w(z)
    below the real axis. Measured against 40-digit mpmath, the relative
    error is at most 6.3e-16 over 1800 random points of the upper
    half-disc |z| <= 30 (scipy's wofz: 1.1e-14), and 7.2e-16 over 400
    points of the first quadrant with 1 <= |z| <= 1e6. w(0) = 1 and the
    vanishing imaginary part on the imaginary axis come out exactly.

    Raises
    ------
    ValueError
        For Im z < 0 or a part that is not finite, naming z.
    """
    z = complex(z)
    if not (z.imag >= 0.0 and math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"faddeeva needs finite z with Im z >= 0, got z = {z!r}")
    return complex(_w_from_iz(np.array([1j * z]))[0])


def dm2_pair_scaled(z, tail=None):
    """Br(z) = e^{z^2/4} [D_{-2}(z) + D_{-2}(-z)], for a scalar or an array.

    Br is even, so z is first reflected into Re z <= 0, and on the
    imaginary axis into Im z >= 0, so that z and -z share one path and
    Br(-z) == Br(z) bit for bit. There,
    u = -iz / sqrt 2 lies in the upper half-plane, and the erfc form of
    D_{-2} with w(-u) = 2 e^{-u^2} - w(u) gives

        Br(z) = 2 + z sqrt(2 pi) [w(u) - e^{z^2/2}],

    one Faddeeva evaluation, with the counter-growing exponentials of
    the two D_{-2} terms never formed. On the rays z = rho g the
    visibility uses (arg g in [pi/2, 3pi/4)), u is in the first
    quadrant and |e^{z^2/2}| <= 1. Br(0) = 2. Non-finite input gives
    non-finite output rather than an exception. A scalar goes through
    the same array code as a one-element array, and no element's bits
    depend on the length of the array it is in.

    Br is ill-conditioned in one place: the phase of e^{z^2/2} moves by
    |z|^2 times a relative change of z, so the rounding of z = rho g
    alone shifts Br by up to about eps |z|^3 |e^{z^2/2}|. ``tail``, an
    optional low part of z such as the rounding error of the product
    that formed it (``two_product``), makes z + tail the argument, and
    the phase is then formed exactly. Over 300 random configurations
    (sigma_theta 1e-6..3e-2, d_a 0.1 mm..1 m, n_a 1-3, rho 0-20 mm) the
    visibility |Br| / gamma is within 1.1e-15 of 30-digit mpmath.
    """
    z = np.asarray(z, dtype=complex)
    s = z.reshape(-1)
    flip = (s.real > 0.0) | ((s.real == 0.0) & (s.imag < 0.0))
    if flip.any():
        s = np.where(flip, -s, s)
        if tail is not None:
            tail = np.where(flip, -tail, tail)
    iz = s * _INV_SQRT2_ARRAY
    with np.errstate(invalid="ignore"):  # nan input, in the complex divisions
        exp_term = np.exp(iz * iz) if tail is None else _exp_half_square(s, tail)
        bracket = _w_from_iz(iz) - exp_term
    return (_TWO_ARRAY + s * (_SQRT_2PI_ARRAY * bracket)).reshape(z.shape)[()]


def dm2_pair_slope(z, br):
    """Br'(z) = z Br(z) + (Br(z) - 2) / z, from z != 0 and br = Br(z).

    With B(z) = e^{z^2/4} D_{-2}(z), the recurrences
    D_{-2}'(z) = (z/2) D_{-2}(z) - D_{-1}(z) and
    D_{-2}(z) = e^{-z^2/4} - z D_{-1}(z) (DLMF 12.8.2, 12.8.1) give
    B'(z) = z B(z) - (1 - B(z)) / z; Br(z) = B(z) + B(-z) then gives
    the slope from the value alone, with no further evaluation.
    Br'(0) = 0.
    """
    return z * br + (br - 2.0) / z


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """20-point Legendre nodes as offsets in [0, 1] of a panel, and weights summing to 1."""
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(20)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def integrate_radial(f, lower: float, upper: float, abs_tol: float):
    """Composite Gauss-Legendre quadrature of ``f`` over [lower, upper].

    ``f`` maps a 1-D array of nodes to an array whose last axis runs
    over those nodes, so one call integrates a whole family of
    integrands; the result has the shape of ``f``'s output without that
    axis. The rule puts 20 Legendre nodes on each of n equal panels,
    starting from one panel per unit of the variable (the integrands
    here are shell Gaussians of unit width in u = theta' / sigma), and
    doubles n until two successive estimates agree within ``abs_tol``
    everywhere; it returns the finer one. No single estimate is trusted
    on its own: the gap between the two is the certificate. When the
    next doubling would exceed _MAX_PANELS, ToleranceNotReached carries
    the last gap instead of a value. The nodes come from numpy's
    ``leggauss`` on the first call. Deterministic for fixed inputs.

    Parameters
    ----------
    f : callable
        Integrand, vectorised over its nodes, finite on the interval.
    lower, upper : float
        Integration limits, lower < upper.
    abs_tol : float
        Largest accepted gap between successive estimates.
    """
    if not lower < upper:
        raise ValueError(f"empty integration interval [{lower}, {upper}]")
    if abs_tol <= 0.0:
        raise ValueError("abs_tol must be positive")
    offsets, weights = _gauss_legendre()

    def estimate(n: int):
        width = (upper - lower) / n
        nodes = lower + width * (np.arange(n)[:, None] + offsets).ravel()
        return (f(nodes) * np.tile(width * weights, n)).sum(axis=-1)

    n = max(1, math.ceil(upper - lower))
    value, gap = estimate(n), math.inf
    while 2 * n <= _MAX_PANELS:
        n *= 2
        value, previous = estimate(n), value
        gap = float(np.max(np.abs(value - previous)))
        if gap <= abs_tol:
            return value
    raise ToleranceNotReached(f"quadrature gap {gap:.3e} > {abs_tol:.3e} at {n} panels", gap)
