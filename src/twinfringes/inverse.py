"""Recovery of correlation parameters from fringe observables.

The central visibility fixes the momentum-correlation width through an
explicit inverse; ring radii measured at several source separations fix
the equivalent wavelength, and with it the undetected photon's
wavelength. Everything operates on single-beam observables only; no
coincidence data enters anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import ExperimentConfig, derive_constants, shell_gamma, source_fringe


class DegenerateVisibility(ValueError):
    """Visibility outside (0, c], c the source contrast; no width gives it."""


class InsufficientData(ValueError):
    """Too few observations for the requested fit."""


class NegativeSlope(ValueError):
    """Ring-radius fit produced a nonpositive slope; data are inconsistent."""


@dataclass(frozen=True)
class WavelengthEstimate:
    """Equivalent wavelength with the standard error of the fitted slope."""

    lambda_eq: float
    stderr: float


def estimate_sigma_theta(v0: float, cfg: ExperimentConfig) -> float:
    """Correlation width from the central visibility.

    Inverts the closed-form central visibility v0 = c v, c the source
    contrast: sigma_theta^2 = (8 pi / (n_a k0'^2 lambda_a d_a)) sqrt(1 / v^2 - 1).
    1 / v^2 - 1 is formed as (1 - v)(1 + v) / v^2, where 1 - v is
    exact for v >= 1/2 (Sterbenz), so no cancellation is left near
    v = 1. v0 = c returns exactly 0 (perfect correlation); anything
    outside (0, c], or so small that v^2 underflows to 0 or 1 / v^2
    overflows (v below about 7.5e-155), raises DegenerateVisibility.
    """
    contrast = source_fringe(cfg)[0]
    if not 0.0 < v0 <= contrast:
        raise DegenerateVisibility(f"v0 = {v0!r} outside (0, {contrast:g}]")
    v0 = v0 / contrast
    if v0 == 1.0:
        return 0.0
    if v0 * v0 == 0.0:
        raise DegenerateVisibility(f"v0 = {v0!r} too small: v0^2 underflows to 0")
    if 1.0 / (v0 * v0) == math.inf:
        raise DegenerateVisibility(f"v0 = {v0!r} too small: 1 / v0^2 overflows")
    if cfg.lambda_p is None:
        raise ValueError("estimate_sigma_theta requires lambda_p for the pump wavenumber")
    if cfg.d_a <= 0.0:
        raise ValueError("estimate_sigma_theta requires d_a > 0")
    k0p = 2.0 * math.pi / cfg.lambda_p
    sigma_sq = (
        8.0
        * math.pi
        / (cfg.n_a * k0p * k0p * cfg.lambda_a * cfg.d_a)
        * math.sqrt((1.0 - v0) * (1.0 + v0) / (v0 * v0))
    )
    return math.sqrt(sigma_sq)


def estimate_sigma_theta_bisect(v0: float, cfg: ExperimentConfig) -> float:
    """Scan-based width inverse: bisection on the forward visibility.

    Shares no algebra with estimate_sigma_theta; the two must agree,
    which guards the constant derivations on both sides. The forward
    model is central_visibility, 2 c / gamma: the factors of gamma that
    do not depend on sigma_theta are derived once, and each step is the
    same float operations through ``shell_gamma``, without a config
    copy. Every rounded operation is monotone, so the forward model is
    non-increasing in sigma_theta and plain bisection on [0, 5e-2]
    converges unconditionally.
    """
    contrast = source_fringe(cfg)[0]
    if not 0.0 < v0 <= contrast:
        raise DegenerateVisibility(f"v0 = {v0!r} outside (0, {contrast:g}]")
    if v0 == contrast:
        return 0.0
    constants = derive_constants(cfg)
    a_eff = cfg.n_a * constants.A

    def forward(sigma: float) -> float:
        return 2.0 * contrast / shell_gamma(sigma, a_eff, constants.B)[1]

    hi = 5e-2
    if forward(hi) > v0:
        raise ValueError(f"v0 = {v0!r} not reachable within sigma_theta <= {hi}")
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


def estimate_equivalent_wavelength(
    first_radii: list[tuple[float, float]], cfg: ExperimentConfig
) -> WavelengthEstimate:
    """Equivalent wavelength from first-ring radii at several separations.

    ``first_radii`` holds one (d_a, rho_1) pair per separation, both in
    meters: the source separation and the radius of the first bright
    ring measured there. Fits rho_1^2 = slope / d_a through the origin
    by least squares and maps the slope through ``ring_law_lambda_eq``.
    The reported stderr is the ordinary no-intercept slope standard
    error propagated through that relation (the error model is plain
    homoscedastic OLS). Needs at least three distinct separations; a
    non-positive radius raises ValueError, and a non-positive d_a
    InsufficientData. Finite data whose squares or reciprocals leave
    the float range give a non-finite slope or stderr, which
    ``ring_law_lambda_eq`` rejects with ValueError.
    """
    if any(r <= 0.0 for _, r in first_radii):
        raise ValueError("ring radii must be positive")
    if any(d <= 0.0 for d, _ in first_radii):
        raise InsufficientData("observations require d_a > 0")
    if len({d for d, _ in first_radii}) < 3:
        raise InsufficientData("need at least 3 observations with distinct d_a")

    x = [1.0 / d for d, _ in first_radii]
    y = [r * r for _, r in first_radii]
    sxx = math.fsum(xi * xi for xi in x)
    slope = math.fsum(xi * yi for xi, yi in zip(x, y)) / sxx
    if slope <= 0.0:
        raise NegativeSlope(f"fitted slope {slope!r} is not positive")
    residual = [yi - slope * xi for xi, yi in zip(x, y)]
    dof = len(x) - 1
    slope_var = math.fsum(ri * ri for ri in residual) / dof / sxx
    return WavelengthEstimate(
        lambda_eq=ring_law_lambda_eq(slope, cfg),
        stderr=ring_law_lambda_eq(math.sqrt(slope_var), cfg),
    )


def ring_law_lambda_eq(rho1_sq_d_a: float, cfg: ExperimentConfig) -> float:
    """Equivalent wavelength from the first-ring law rho_1^2 d_a = 2 lambda_eq f0^2 / n_a.

    ``rho1_sq_d_a`` is rho_1^2 d_a in m^3, one measured ring or a fitted
    slope. The law is linear in it, so a slope's standard error maps
    through it too. A result that is not finite, from an input that
    overflowed or is undefined, raises ValueError.
    """
    lambda_eq = rho1_sq_d_a * (cfg.n_a / (2.0 * cfg.f0 * cfg.f0))
    if not math.isfinite(lambda_eq):
        raise ValueError(
            f"ring law gives lambda_eq = {lambda_eq!r} from rho_1^2 d_a = {rho1_sq_d_a!r} m^3"
        )
    return lambda_eq


def infer_lambda_a(lambda_eq: float, lambda_b: float) -> float:
    """Wavelength of the undetected photon: lambda_a = lambda_b^2 / lambda_eq."""
    if lambda_eq <= 0.0 or lambda_b <= 0.0:
        raise ValueError("wavelengths must be positive")
    return lambda_b * lambda_b / lambda_eq

