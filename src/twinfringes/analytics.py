"""Closed-form counting rates, fringe geometry, visibility, rendering.

The closed form of every correlation regime is one fringe phasor per
radius, ``_closed_form``: the mean rate A, the complex fringe F and the
visibility V, at a scalar or an array of radii, with the rate
A (1 + Re F); the partially correlated F is the parabolic-cylinder
closed form. The public rates, ``visibility_closed_form`` and the
profiles are views of it. The radial quadrature of the partial rate is
kept only as an independent reference route. The maximal and uncorrelated images are
evaluated in closed form at every pixel from outer products of 1D
factors over the pixel centres; only the partial model's image is
interpolated from a 1D radial profile. Either way the circular symmetry
of the patterns is exact by construction.

A square image of N pixels is centred with c_{N-1-i} = -c_i bit for
bit, so it is fixed by both flips and by transposition. A
``FringeImage`` therefore stores only N and its lower-right quadrant,
the ceil(N/2) x ceil(N/2) block of nonnegative centres, and computes the
frame maximum from it once. ``render_pattern`` builds that quadrant,
transpose-symmetric bit for bit, together with the radial profile that
``simulate`` writes; the PGM writer is the one place that lays the
quadrant out as a full frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import (
    CorrelationModel, ExperimentConfig, derive_constants, effective_curvature, source_fringe,
)
from .special import dm2_pair_scaled, dm2_pair_slope, integrate_radial, two_product

# The shell Gaussian is integrated out to this many widths; the tail
# beyond contributes < 1e-15 of the total.
QUADRATURE_SPAN = 6.0

# Absolute tolerance handed to the adaptive quadrature, relative to the
# O(1) scale of the substituted integrand.
QUADRATURE_ABS_TOL = 1e-10


class ZeroDistance(ValueError):
    """Ring radii requested for zero source separation (no rings exist)."""


class NoHalfPoint(ValueError):
    """Visibility never falls to half its central value in the search window."""


@dataclass(frozen=True, eq=False)
class RadialProfile:
    """Sampled counting rate and visibility versus camera radius."""

    rho: np.ndarray
    rate: np.ndarray
    visibility: np.ndarray

    def __post_init__(self):
        for name in ("rho", "rate", "visibility"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        rho, rate, vis = self.rho, self.rate, self.visibility
        if rho.ndim != 1 or rate.shape != rho.shape or vis.shape != rho.shape:
            raise ValueError("rho, rate and visibility must be congruent 1D arrays")
        if np.any(np.diff(rho) <= 0.0):
            raise ValueError("rho samples must be strictly increasing")
        if np.any(vis < 0.0) or np.any(vis > 1.0):
            raise ValueError("visibility must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class FringeImage:
    """Rendered square counting-rate field and its maximum.

    The field is symmetric under both flips, so only its lower-right
    quadrant, of shape (ceil(resolution / 2), ceil(resolution / 2)), is
    stored: rows and columns i >= resolution // 2 of the frame.
    ``normalization``, the frame maximum, is computed from the quadrant,
    which must be nonnegative and finite.
    """

    resolution: int
    quadrant: np.ndarray
    normalization: float = field(init=False)

    def __post_init__(self):
        quadrant = np.asarray(self.quadrant, dtype=float)
        object.__setattr__(self, "quadrant", quadrant)
        side = (self.resolution + 1) // 2
        if quadrant.shape != (side, side):
            raise ValueError(f"quadrant shape {quadrant.shape}, expected {(side, side)}")
        # one pass and no boolean temporary; fmin skips NaN, as the
        # comparison x < 0 does, so a NaN frame fails on finiteness
        if np.fmin.reduce(quadrant, axis=None) < 0.0:
            raise ValueError("rate field must be nonnegative")
        peak = float(quadrant.max())
        if not math.isfinite(peak):
            raise ValueError(f"rate field must be finite, its maximum is {peak!r}")
        object.__setattr__(self, "normalization", peak)


def _envelope(rho, cfg: ExperimentConfig):
    """b-photon marginal envelope exp(-2 rho^2 / (f0 sigma_b)^2)."""
    return np.exp(-2.0 * np.square(rho) / (cfg.f0 * cfg.sigma_b) ** 2)


def _require_nonnegative(rho) -> None:
    if np.any(rho < 0.0):
        raise ValueError("rho must be nonnegative")


def _closed_form(rho, phi_0: float, cfg: ExperimentConfig, model: CorrelationModel):
    """(A, F, V) of ``model`` at each radius rho >= 0: the fringe as one phasor.

    The rate at scan phase phi_0 is A (1 + Re F): A is the mean rate and
    F the complex fringe with e^{-i phi_0} applied, so |F| is the
    fringe's local contrast and arg F its position in the scan phase, as
    S / A is on the grid route (``oracle._phasor``). V, the visibility,
    does not depend on phi_0. With P(rho) the envelope, (c, static) =
    ``source_fringe(cfg)`` and phi = phi_0 + static:
    - uncorrelated: A = P(rho), F = 0, V = 0;
    - maximal: A = P(rho), F = c e^{i(K rho^2 - phi)}, V = c, with
      K = ``effective_curvature(cfg)``;
    - partial: A = (sigma^2 / 2) P(rho),
      F = c e^{i(C rho^2 - phi)} Br(rho g) / (2 - i kappa) and
      V = c |Br(rho g)| / gamma (derived at counting_rate_partial).

    Re F is formed with the operations each model's rate has always
    used, so the rates keep their bits. A missing sigma_theta reads as
    0, as in ``derive_constants``, which makes the partial A zero.
    ``rho`` is a radius or an array of radii.
    """
    _require_nonnegative(rho)
    contrast, static = source_fringe(cfg)
    envelope = _envelope(rho, cfg)
    if model is CorrelationModel.UNCORRELATED:
        return envelope, np.zeros_like(envelope, dtype=complex), np.zeros_like(envelope)
    if model is CorrelationModel.MAXIMAL:
        arg = effective_curvature(cfg) * rho * rho - (phi_0 + static)
        fringe = contrast * np.cos(arg) + 1j * (contrast * np.sin(arg))
        return envelope, fringe, np.full_like(envelope, contrast)
    constants = derive_constants(cfg)
    br = dm2_pair_scaled(rho * constants.g)
    phase = cfg.n_a * constants.A * rho * rho - (phi_0 + static)
    fringe = contrast * (np.exp(1j * phase) * br / complex(2.0, -constants.kappa))
    mean = 0.5 * (cfg.sigma_theta or 0.0) ** 2 * envelope
    return mean, fringe, contrast * np.abs(br) / constants.gamma


def counting_rate_maxcorr(rho, phi_0: float, cfg: ExperimentConfig):
    """Perfect-correlation rate P(rho) {1 + c cos[n_a A rho^2 - phi_0 - static]}.

    (c, static) is ``source_fringe(cfg)``. phi_0 is referenced to the
    on-axis bright fringe of balanced, in-phase sources, so phi_0 = 0
    gives them a bright center. ``rho`` is a radius or an array of radii.
    The maximal A (1 + Re F) of ``_closed_form``.
    """
    mean, fringe, _ = _closed_form(rho, phi_0, cfg, CorrelationModel.MAXIMAL)
    return mean * (1.0 + fringe.real)


def fringe_radius(N: int, cfg: ExperimentConfig) -> float:
    """Radius of the N-th bright ring, sqrt(2 N lambda_eq f0^2 / (n_a d_a)).

    Equivalently sqrt(2 pi N / (n_a A)): the N-th revolution of the
    quadratic fringe phase. N = 0 is the central maximum.
    """
    if N < 0:
        raise ValueError("ring index must be nonnegative")
    curvature = effective_curvature(cfg)
    if curvature == 0.0:
        raise ZeroDistance("d_a = 0 produces no rings (infinite radius)")
    return math.sqrt(2.0 * math.pi * N / curvature)


def counting_rate_uncorrelated(rho, cfg: ExperimentConfig):
    """Zero-correlation rate: the bare envelope, independent of any phase.

    The uncorrelated A of ``_closed_form``, whose F is 0.
    """
    return _closed_form(rho, 0.0, cfg, CorrelationModel.UNCORRELATED)[0]


def counting_rate_partial(rho, phi_0: float, cfg: ExperimentConfig):
    """Partially correlated rate in closed form, for a radius or an array.

    Returns (sigma^2 / 2) P(rho) {1 + c Re[e^{i(C rho^2 - phi)} Br(rho g) / (2 - i kappa)]}
    with C = n_a A, b = B sigma_theta, kappa = C b^2, (c, static) =
    ``source_fringe(cfg)``, phi = phi_0 + static and Br the scaled D_{-2}
    pair of ``special.dm2_pair_scaled``; the scale is the one of
    counting_rate_partial_quadrature, whose shell integral this is.

    Derivation: with u = theta' / sigma_theta the shell integral is
    1/2 + Re[e^{-i phi_0} I(rho)], where the two cosine lobes fold into
    one integral over the whole line,

        I(rho) = int |u| exp(-2u^2 + iC(bu - rho)^2) du
               = e^{iC rho^2} int |u| exp(-p u^2 - q u) du,

    p = 2 - i kappa, q = 2iCb rho. Substituting u = t / sqrt(2p) on each
    half-line and using the integral representation of
    U(3/2, z) = D_{-2}(z) (DLMF 12.5(i), valid since Re p > 0),

        int_0^inf t exp(-t^2/2 - zt) dt = e^{z^2/4} D_{-2}(z),

    gives I(rho) = e^{iC rho^2} Br(z) / (2p) with z = q / sqrt(2p) = rho g.
    The erfc form of D_{-2} (DLMF 12.7) turns Br into Faddeeva functions.
    The visibility is c |Br(rho g)| / |p| = visibility_closed_form.
    This is the partial A (1 + Re F) of ``_closed_form``.
    """
    if cfg.sigma_theta is None:
        raise ValueError("partial-correlation rate requires sigma_theta")
    mean, fringe, _ = _closed_form(rho, phi_0, cfg, CorrelationModel.GAUSSIAN_PARTIAL)
    return mean * (1.0 + fringe.real)


def counting_rate_partial_quadrature(rho, phi_0: float, cfg: ExperimentConfig):
    """Partially correlated rate as the radial shell integral (reference route).

    Integrates
    theta' exp(-2 theta'^2 / sigma^2) {2 + c cos[C (B theta' - rho)^2 - phi]
    + c cos[C (B theta' + rho)^2 - phi]}
    over the shell angle theta', times the camera envelope, with
    (c, static) = ``source_fringe(cfg)`` and phi = phi_0 + static.
    C = n_a pi d_a lambda_a / (f0 lambda_b)^2 and B = f0 lambda_b /
    lambda_p are formed here from the config fields, not taken from
    ``derive_constants``, so that a fault there cannot cancel between
    this route and the closed form. In u = theta' / sigma, truncated at
    QUADRATURE_SPAN widths, with b = B sigma and kappa = C b^2, the two
    cosines sum to 2 Re[e^{i(C rho^2 - phi)} e^{i kappa u^2}] cos(2 C b rho u),
    and the rest integrates to 1/2 (to within e^{-72}). So
    ``special.integrate_radial`` integrates u e^{(i kappa - 2) u^2}
    cos(2 C b rho u), for every radius at once, and the large phase
    C rho^2 - phi is applied once per radius, never added to a node's.
    The radial delta of the shell model is resolved analytically
    beforehand; nothing here approximates a delta numerically. ``rho``
    is a radius, giving a float, or an array of radii. No command calls
    this; it is the independent check on counting_rate_partial.
    """
    _require_nonnegative(rho)
    if cfg.sigma_theta is None or cfg.lambda_p is None:
        raise ValueError("partial-correlation rate requires sigma_theta and lambda_p")
    curvature = cfg.n_a * (math.pi * cfg.d_a * cfg.lambda_a / (cfg.f0 * cfg.lambda_b) ** 2)
    b_sigma = cfg.f0 * cfg.lambda_b / cfg.lambda_p * cfg.sigma_theta
    exponent = complex(-2.0, curvature * b_sigma * b_sigma)
    beat = 2.0 * curvature * b_sigma * rho
    contrast, static = source_fringe(cfg)

    def integrand(u):
        return u * np.exp(exponent * (u * u)) * np.cos(np.multiply.outer(beat, u))

    value = integrate_radial(integrand, 0.0, QUADRATURE_SPAN, QUADRATURE_ABS_TOL)
    fringe = np.exp(1j * (curvature * rho * rho - (phi_0 + static))) * value
    return cfg.sigma_theta**2 * _envelope(rho, cfg) * (0.5 + 2.0 * contrast * fringe.real)


def visibility_closed_form(rho, cfg: ExperimentConfig):
    """Closed-form visibility c |Br(rho g)| / gamma, for a radius or an array.

    c is the source contrast of ``source_fringe`` and Br(z) =
    e^{z^2/4} [D_{-2}(z) + D_{-2}(-z)] (``special.dm2_pair_scaled``).
    This is the textbook (c/gamma) e^{-sigma^2 rho^2 / chi^2}
    |D_{-2}(rho g) + D_{-2}(-rho g)|, because |e^{-z^2/4}| is exactly
    e^{sigma^2 rho^2 / chi^2} at z = rho g. Depends only on |rho|; at
    rho = 0 it reduces bit-exactly to central_visibility. This is the
    partial-model V of ``_closed_form``, whatever model ``cfg`` names.
    """
    return _closed_form(np.abs(rho), 0.0, cfg, CorrelationModel.GAUSSIAN_PARTIAL)[2]


def central_visibility(cfg: ExperimentConfig) -> float:
    """On-axis visibility 2 c / gamma, c the source contrast."""
    return 2.0 * source_fringe(cfg)[0] / derive_constants(cfg).gamma


# visibility_hwhm marches over this many grid radii, in array calls of
# _MARCH_BLOCK radii each.
_MARCH_POINTS = 1024
_MARCH_BLOCK = 64

# Newton stops once its predicted error, (|f''| / 2|f'|) step^2, is
# below this fraction of the radius; float64 resolves about 1.1e-16.
_NEWTON_RTOL = 1e-17


def _inverse_hermite(lo, hi, f_lo, f_hi, d_lo, d_hi):
    """Zero of f on [lo, hi] by cubic Hermite interpolation of r(f).

    Needs f_lo >= 0 > f_hi and slopes d = df/dr < 0 at both ends, so
    that r(f) exists on the bracket; otherwise falls back to the secant.
    """
    s = f_lo / (f_lo - f_hi)
    if not (d_lo < 0.0 and d_hi < 0.0):
        return lo + s * (hi - lo)
    span = f_hi - f_lo
    h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
    h01 = s * s * (3.0 - 2.0 * s)
    h10 = s * (1.0 - s) ** 2
    h11 = s * s * (s - 1.0)
    return h00 * lo + h01 * hi + span * (h10 / d_lo + h11 / d_hi)


def visibility_hwhm(cfg: ExperimentConfig) -> float:
    """Radius where the visibility falls to half its central value.

    The one-width case of ``visibility_hwhms``, which describes the
    method and its accuracy. Raises NoHalfPoint when the visibility
    never reaches half (perfect-correlation limit).
    """
    sigma = cfg.sigma_theta if cfg.sigma_theta is not None else 0.0
    (hwhm,) = visibility_hwhms([sigma], [derive_constants(cfg)])
    if hwhm is None:
        raise NoHalfPoint(f"visibility stays above half out to 10 chi / sigma_theta = {sigma!r}")
    return hwhm


def _slope(r: float, br: complex, g: complex) -> float:
    """f'(r) = Re[conj(Br) Br'(r g) g] / |Br| from br = Br(r g)."""
    if r == 0.0:
        return 0.0
    return (br.conjugate() * dm2_pair_slope(r * g, br) * g).real / abs(br)


def visibility_hwhms(sigmas, constants) -> list[float | None]:
    """Innermost half-visibility radius of each width, in a few array calls.

    ``sigmas`` are widths sigma_theta and ``constants`` their
    ``derive_constants``. An entry is None where the visibility never
    falls to half: sigma_theta = 0, d_a = 0, or no crossing in the
    window. The visibility is not monotone (it revives past its first
    minimum); this is the innermost crossing. V = v0 / 2 is
    |Br(r g)| = 1, so the search is on f(r) = |Br(r g)| - 1, whose
    slope f'(r) = Re[conj(Br) Br'(r g) g] / |Br| needs no further
    evaluation (``special.dm2_pair_slope``).

    - march: f on 1024 grid radii out to 10x the envelope scale
      chi / sigma_theta, in blocks of 64 radii, one array call per
      block over every width still open, stopping each width at its
      first grid radius with f < 0;
    - seed: inverse cubic Hermite interpolation of the two bracketing
      grid values and slopes, within about 1e-9 of the root;
    - refine: Newton, kept inside the bracket, on Br(r g) with the
      product r g formed exactly (``two_product``), until its predicted
      next error is below 1e-17 of the radius; one array call per round
      over the widths not yet converged, usually one round.

    Br is evaluated elementwise and the rest of each width's arithmetic
    is its own scalar code, so no result depends on the other widths.
    Against a 40-digit mpmath root of |Br(r g)| = 1 over 120 random
    configurations (sigma_theta 1e-4..2e-2, n_a 1-3, d_a 1-50 mm), the
    median relative error is 1e-16 and the worst 1.1e-15, where the
    crossing is shallow and a few ulp of |Br| move the root that far.
    """
    out: list[float | None] = [None] * len(sigmas)
    open_ = [
        i for i, (sigma, c) in enumerate(zip(sigmas, constants))
        if 2.0 / c.gamma > 0.0 and sigma != 0.0 and c.g != 0.0
    ]
    # each bracketed width: (index, g, lo, hi, r, |f''| on the bracket)
    newton = []
    for start in range(0, _MARCH_POINTS, _MARCH_BLOCK):
        if not open_:
            break
        spacing = np.array([10.0 * constants[i].chi / sigmas[i] / _MARCH_POINTS for i in open_])
        radii = np.arange(start, start + _MARCH_BLOCK + 1) * spacing[:, None]
        br = dm2_pair_scaled(radii * np.array([[constants[i].g] for i in open_]))
        # radii[:, 0] is 0 or the last radius of the previous block, both
        # above half, so argmax 0 means no radius of the row is below
        first_below = np.argmax(np.abs(br) < 1.0, axis=1).tolist()
        still_open = []
        for i, k, row_r, row_br in zip(open_, first_below, radii, br):
            if not k:
                still_open.append(i)
                continue
            g = constants[i].g
            lo, hi = float(row_r[k - 1]), float(row_r[k])
            br_lo, br_hi = complex(row_br[k - 1]), complex(row_br[k])
            f_lo, f_hi = abs(br_lo) - 1.0, abs(br_hi) - 1.0
            d_lo, d_hi = _slope(lo, br_lo, g), _slope(hi, br_hi, g)
            curvature = abs(d_hi - d_lo) / (hi - lo)
            seed = _inverse_hermite(lo, hi, f_lo, f_hi, d_lo, d_hi)
            newton.append((i, g, lo, hi, seed, curvature))
        open_ = still_open
    for _ in range(100):
        if not newton:
            return out
        newton = [
            (i, g, lo, hi, r if lo < r < hi else 0.5 * (lo + hi), c) for i, g, lo, hi, r, c in newton
        ]
        _, g, _, _, r, _ = zip(*newton)
        br = dm2_pair_scaled(*two_product(np.array(r), np.array(g))).tolist()
        unconverged = []
        for (i, g, lo, hi, r, curvature), br_r in zip(newton, br):
            f_r, d_r = abs(br_r) - 1.0, _slope(r, br_r, g)
            if f_r < 0.0:
                hi = r
            else:
                lo = r
            step = f_r / d_r if d_r < 0.0 else math.inf
            if 0.5 * curvature * step * step <= _NEWTON_RTOL * r * abs(d_r):
                out[i] = r - step
            else:
                unconverged.append((i, g, lo, hi, r - step, curvature))
        newton = unconverged
    for i, _, lo, hi, _, _ in newton:
        out[i] = 0.5 * (lo + hi)
    return out


def _fringe(rho: np.ndarray, phi_0: float, cfg: ExperimentConfig):
    """Closed-form (rate, visibility) of the configured model at each radius.

    The rate A (1 + Re F) and V of ``_closed_form``, V clipped into [0, 1].
    """
    mean, fringe, visibility = _closed_form(rho, phi_0, cfg, cfg.correlation_model)
    return mean * (1.0 + fringe.real), np.clip(visibility, 0.0, 1.0)


# _separable_rate fills the maximal rate and render_pattern the partial
# quadrant in row blocks of about this many samples, so that each block
# and its scratch stay in cache.
_BLOCK_SAMPLES = 32768


def _separable_rate(centers: np.ndarray, phi_0: float, cfg: ExperimentConfig) -> np.ndarray:
    """Maximal or uncorrelated rate at (x, y) = (centers_i, centers_j), one array.

    Both rates are functions of rho^2 = x^2 + y^2, so they factor into
    outer products of 1D factors over the centers, with
    E = exp(-2 c^2 / (f0 sigma_b)^2) the envelope of ``_envelope``:
    - uncorrelated: E (x) E;
    - maximal, by 1 + c cos(2 theta) = (1 - c) + 2 c cos^2(theta):
      (1 - c) E (x) E + 2 c (a (x) a - b (x) b)^2, with
      (a, b) = sqrt(E) (cos h, sin h), h = K c^2 / 2 - (phi_0 + static) / 4,
      K = effective_curvature(cfg) and (c, static) = source_fringe(cfg),
      so that a_i a_j - b_i b_j = sqrt(E_i E_j) cos(h_i + h_j).
    Each term is a product of a factor at x and the same factor at y,
    so the result is transpose-symmetric bit for bit, and each term is
    nonnegative, so the rate is too, dark fringes included. The (1 - c)
    term is 0 for equal source magnitudes and is then not formed. The
    maximal rate is built in row blocks, next to one block of scratch.
    """
    envelope = _envelope(centers, cfg)
    if cfg.correlation_model is CorrelationModel.UNCORRELATED:
        return np.multiply.outer(envelope, envelope)
    contrast, static = source_fringe(cfg)
    half = 0.5 * effective_curvature(cfg) * centers * centers - 0.25 * (phi_0 + static)
    root = np.sqrt(envelope)
    a, b = root * np.cos(half), root * np.sin(half)
    n = centers.size
    rows = max(1, _BLOCK_SAMPLES // n)
    rate = np.empty((n, n))
    scratch = np.empty((min(rows, n), n))
    for r0 in range(0, n, rows):
        block = rate[r0:r0 + rows]
        term = scratch[:len(block)]
        np.multiply.outer(a[r0:r0 + rows], a, out=block)
        np.multiply.outer(b[r0:r0 + rows], b, out=term)
        np.subtract(block, term, out=block)
        np.square(block, out=block)
        block *= 2.0 * contrast
        if contrast < 1.0:
            np.multiply.outer(envelope[r0:r0 + rows], envelope, out=term)
            term *= 1.0 - contrast
            block += term
    return rate


def radial_profile(
    cfg: ExperimentConfig, rho_max: float, n_samples: int, phi_0: float
) -> RadialProfile:
    """Rate and visibility sampled on n_samples radii in [0, rho_max]."""
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    rho = np.linspace(0.0, rho_max, n_samples)
    return RadialProfile(rho, *_fringe(rho, phi_0, cfg))


# render_pattern evaluates the upper triangle of a partial-model
# quadrant in at least this many row strips, and in more of about
# _BLOCK_SAMPLES samples each where the quadrant is larger; fewer
# strips evaluate more of the lower triangle.
_RENDER_STRIPS = 8


def render_pattern(
    cfg: ExperimentConfig, screen_size: float, resolution: int, phi_0: float
) -> tuple[FringeImage, RadialProfile]:
    """Square fringe image on a screen of the given physical size, and its profile.

    Returns the image and the radial profile that
    ``radial_profile(cfg, screen_size / 2, resolution, phi_0)`` gives,
    bit for bit: both come from one closed-form call on the partial
    model's image-profile radii and the profile's radii together, made
    before the image is allocated.

    Pixel i (row or column) of N has its center at
    c_i = (i - (N - 1) / 2) * pitch. The offset i - (N - 1) / 2 is an
    exact half-integer, so each center is one rounding of the exact
    value and c_{N-1-i} = -c_i holds bit for bit; for odd N the middle
    center is exactly 0. The image is therefore exactly symmetric under
    both flips and is stored as its n x n quadrant i, j >= N // 2,
    n = ceil(N/2), which is transpose-symmetric bit for bit as well.

    The maximal and uncorrelated rates are evaluated in closed form at
    every pixel center, from outer products of 1D factors over the
    centers (``_separable_rate``). Only the partial rate, whose
    Br(rho g) factor does not separate in x and y, is interpolated: it
    is computed on a radial profile oversampled 4x relative to the
    pixel pitch and mapped to pixels by their center radius, which costs
    a fraction of a per-pixel evaluation. A pixel's center radius is
    sqrt(c_i^2 + c_j^2), from the squared centers formed once; it is
    within an ulp of hypot(c_i, c_j). A sum of squares commutes, so
    only the quadrant's upper triangle is interpolated, in
    max(_RENDER_STRIPS, ceil(n^2 / _BLOCK_SAMPLES)) row strips (rows
    a0:a1, columns a0:), and each strip is also written transposed into
    columns a0:a1. Every pixel is the interpolated rate at its own
    center radius, whatever the strips.
    """
    if resolution < 64:
        raise ValueError("resolution must be at least 64 pixels")
    if resolution > 8192:
        raise ValueError(f"resolution must be at most 8192 pixels, got {resolution}")
    if screen_size <= 0.0:
        raise ValueError("screen_size must be positive")
    pitch = screen_size / resolution
    centers = (np.arange(resolution // 2, resolution) - 0.5 * (resolution - 1)) * pitch
    rho = np.linspace(0.0, 0.5 * screen_size, resolution)
    if cfg.correlation_model is not CorrelationModel.GAUSSIAN_PARTIAL:
        rate, visibility = _fringe(rho, phi_0, cfg)
        quadrant = _separable_rate(centers, phi_0, cfg)
    else:
        r_corner = 0.5 * screen_size * math.sqrt(2.0)
        r_prof = np.linspace(0.0, r_corner + pitch, 4 * resolution + 2)
        rates, visibility = _fringe(np.concatenate([r_prof, rho]), phi_0, cfg)
        rates, rate = np.split(rates, [r_prof.size])
        visibility = visibility[r_prof.size:]
        square = centers * centers
        n = centers.size
        strips = max(_RENDER_STRIPS, math.ceil(n * n / _BLOCK_SAMPLES))
        quadrant = np.empty((n, n))
        edges = [n * k // strips for k in range(strips + 1)]
        for a0, a1 in zip(edges[:-1], edges[1:]):
            radius = np.add.outer(square[a0:a1], square[a0:])
            np.sqrt(radius, out=radius)
            strip = np.interp(radius, r_prof, rates)
            quadrant[a0:a1, a0:] = strip
            quadrant[a0:, a0:a1] = strip.T
    return FringeImage(resolution, quadrant), RadialProfile(rho, rate, visibility)
