"""Discretized biphoton states over signed transverse-mode lines.

A mode grid is a 1-D float array of the signed transverse angles of one
photon's modes along a single line through the optical axis; its place
in ``build_amplitudes`` says which photon it is, and that is where both
grids are checked. The superposed state stores the real amplitude table
C over a pair of grids together with the phase of every a mode relative
to the on-axis mode, from which :mod:`twinfringes.oracle` sums the
counting rates. Only phase differences along the a path reach a fringe,
so the absolute path phase 2 pi n_a d_a / lambda_a is never formed. This
module is the ground truth the closed-form analytics are tested against.
"""

from __future__ import annotations

import collections
import math
import warnings

import numpy as np

from .config import PARAXIAL_LIMIT, CorrelationModel, ExperimentConfig, ParaxialWarning


class GridMismatch(ValueError):
    """Maximal-correlation table requested on non-conjugate grids."""


# The biphoton state that both sources emit coherently, as built by
# build_amplitudes, its one constructor. amplitudes is the real table
# C[k_a, k_b] over grid_a x grid_b, normalized so that sum C^2 = 1.
# phase_a holds the phase of every mode of grid_a: the a-path phase
# beyond the on-axis one, (pi n_a d_a / lambda_a) theta^2, less the
# static phase phi_b + phi2 - phi1. The scanned phase phi_0 is measured
# against it, so phi_0 = 0 is the on-axis bright fringe of in-phase
# sources. The originating config supplies the source magnitudes and the
# camera geometry.
SuperposedState = collections.namedtuple("SuperposedState", "amplitudes phase_a config")


def _checked_angles(angles) -> np.ndarray:
    """A grid's angles as a float array: 1-D, non-empty, distinct, |angle| < PARAXIAL_LIMIT."""
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 1 or angles.size == 0:
        raise ValueError("angles must be a non-empty 1D array")
    # a sorted copy, not np.unique, which loads numpy.ma on its first
    # call; NaNs sort last, and two of them repeat, as in np.unique
    ordered = np.sort(angles)
    if np.any(ordered[1:] == ordered[:-1]) or np.isnan(ordered[-2:]).sum() == 2:
        raise ValueError("angles must be distinct")
    if not np.all(np.abs(angles) < PARAXIAL_LIMIT):
        raise ValueError(f"angles must lie in (-{PARAXIAL_LIMIT}, {PARAXIAL_LIMIT})")
    return angles


# ---------------------------------------------------------------------------
# grid factories
# ---------------------------------------------------------------------------

def camera_grid(rho_values, cfg: ExperimentConfig) -> np.ndarray:
    """Grid of b modes that land on the given camera radii (theta_b = rho / f0)."""
    rho = np.asarray(rho_values, dtype=float)
    if np.any(rho < 0.0):
        raise ValueError("camera radii must be non-negative")
    return rho / cfg.f0


def conjugate_grid(grid_b: np.ndarray, cfg: ExperimentConfig) -> np.ndarray:
    """The a-side image of a b grid under the anti-correlated momentum map.

    Transverse momenta cancel pairwise: k_a theta_a = -k_b theta_b, so
    mode j of this grid is the partner of column j of ``grid_b``. The
    maximal model accepts no other a grid.
    """
    return -(cfg.lambda_a / cfg.lambda_b) * grid_b


def line_grid(t_max: float, n_modes: int) -> np.ndarray:
    """Signed transverse line for photon a at midpoint angles.

    The 2 m modes sit at +(i + 1/2) t_max / m and -(i + 1/2) t_max / m,
    i < m = n_modes / 2, interleaved in that order: the midpoint
    discretization of the signed interval [-t_max, t_max] used by the
    brute-force rate sums.
    """
    if n_modes < 4 or n_modes % 2:
        raise ValueError("n_modes must be an even number >= 4")
    half = n_modes // 2
    theta = (np.arange(half) + 0.5) * (t_max / half)
    return np.column_stack((theta, -theta)).ravel()


def shell_line_grid(cfg: ExperimentConfig, rho_max: float, n_modes: int) -> np.ndarray:
    """Line grid wide enough to hold the correlation shell for every camera
    radius up to ``rho_max``.

    The shell conditioned on a b mode at theta_b is centered at
    -(k_b / k_a) theta_b with angular half-width 6 sigma_theta k0' / k_a,
    so the symmetric extent below covers all columns at once.
    """
    if cfg.sigma_theta is None or cfg.lambda_p is None:
        raise ValueError("shell_line_grid needs sigma_theta and lambda_p")
    k_a = 2.0 * math.pi / cfg.lambda_a
    k_b = 2.0 * math.pi / cfg.lambda_b
    k0p = 2.0 * math.pi / cfg.lambda_p
    t_max = (6.0 * cfg.sigma_theta * k0p + k_b * rho_max / cfg.f0) / k_a
    # line_grid's outermost node, with its bits: where build_amplitudes
    # would reject the grid, say which inputs put it there; at rho_max = 0
    # the width alone sets the reach
    half = n_modes // 2
    outermost = (half - 0.5) * (t_max / half) if half else 0.0
    if outermost >= PARAXIAL_LIMIT:
        culprits = f"sigma_theta = {cfg.sigma_theta!r} " + (
            f"and rho_max = {rho_max * 1e3:g} mm are" if rho_max else "is"
        )
        raise ValueError(
            f"the shell grid reaches {outermost:.3g} rad, past the paraxial "
            f"limit {PARAXIAL_LIMIT} rad: {culprits} too large for the partial-model oracle"
        )
    return line_grid(t_max, n_modes)


def dephasing_grid(cfg: ExperimentConfig, n_modes: int) -> np.ndarray:
    """Uncorrelated-model a grid whose quadratic phases cancel exactly.

    The angles are chosen so the accumulated phases
    (pi n_a d_a / lambda_a) theta^2 land on 2 pi (i + 1/2) / N, the N-th
    roots of unity rotated by pi / N; with uniform weights their sum is
    exactly zero, making the phase-averaged rate flat to rounding level
    rather than to the O(1/N) of a generic grid.
    """
    c2 = math.pi * cfg.n_a * cfg.d_a / cfg.lambda_a
    if c2 <= 0.0:
        raise ValueError(
            "the uncorrelated check needs d_a_mm > 0: at zero separation no a "
            "phase dephases, so there is nothing to compare"
        )
    return np.sqrt(2.0 * math.pi * (np.arange(n_modes) + 0.5) / (n_modes * c2))


# ---------------------------------------------------------------------------
# state constructors
# ---------------------------------------------------------------------------

def build_amplitudes(grid_a: np.ndarray, grid_b: np.ndarray, cfg: ExperimentConfig) -> SuperposedState:
    """Construct the normalized state for the config's correlation model.

    Maximal: diagonal, since mode j of ``conjugate_grid(grid_b)`` cancels
    the momentum of b column j; any other grid_a raises GridMismatch.
    Uncorrelated: product of a uniform a marginal and the Gaussian b
    envelope. Gaussian partial: the pump-shell conditional, with the
    radial delta resolved analytically; each node carries the ring
    measure |theta'| times the Gaussian in the shell angle
    theta' = |x_a + x_b| / k0', x = (2 pi / lambda) angle. The phase of
    every a mode, relative to the on-axis mode, is attached as well.
    Both grids are checked here, as ``_checked_angles`` says.
    """
    grid_a, grid_b = _checked_angles(grid_a), _checked_angles(grid_b)
    model = cfg.correlation_model
    p_b = np.exp(-2.0 * grid_b**2 / cfg.sigma_b**2)

    if model is CorrelationModel.MAXIMAL:
        if not np.array_equal(grid_a, conjugate_grid(grid_b, cfg)):
            raise GridMismatch(
                "grid_a is not the anti-correlated image of grid_b; "
                "build it with conjugate_grid()"
            )
        weights = np.diag(p_b)
    elif model is CorrelationModel.UNCORRELATED:
        u_a = np.full(grid_a.size, 1.0 / grid_a.size)
        weights = np.outer(u_a, p_b)
    else:
        if cfg.sigma_theta is None or cfg.lambda_p is None:
            raise ValueError("gaussian_partial model requires sigma_theta and lambda_p")
        k0p = 2.0 * math.pi / cfg.lambda_p
        x_a = (2.0 * math.pi / cfg.lambda_a) * grid_a
        x_b = (2.0 * math.pi / cfg.lambda_b) * grid_b
        theta_prime = (x_a[:, None] + x_b[None, :]) / k0p
        weights = (
            p_b[None, :]
            * np.abs(theta_prime)
            * np.exp(-2.0 * theta_prime**2 / cfg.sigma_theta**2)
        )

    total = weights.sum()
    if not total > 0.0:
        raise ValueError("amplitude table underflowed to zero; grids miss the support")
    static = cfg.phi_b + cfg.phi2 - cfg.phi1
    return SuperposedState(np.sqrt(weights / total), phase_a(grid_a, cfg) - static, cfg)


def phase_a(theta_a, cfg: ExperimentConfig):
    """Optical phase of an a photon traveling between the sources at angle
    theta, beyond that of the on-axis photon.

    Small-angle form (pi n_a d_a / lambda_a) theta^2: the path phase
    (2 pi n_a d_a / lambda_a) (1 + theta^2 / 2) less its on-axis
    constant, which no fringe sees. Accepts a scalar or an array;
    returns matching shape.
    """
    theta = np.asarray(theta_a, dtype=float)
    if np.any(np.abs(theta) >= PARAXIAL_LIMIT):
        warnings.warn(
            f"phase_a called with |theta| >= {PARAXIAL_LIMIT}; the quadratic "
            "expansion is unreliable there",
            ParaxialWarning,
            stacklevel=2,
        )
    out = (math.pi * cfg.n_a * cfg.d_a / cfg.lambda_a) * theta**2
    if np.ndim(theta_a) == 0:
        return float(out)
    return out


def assemble_state(cfg: ExperimentConfig, rho_values, n_modes: int) -> SuperposedState:
    """Build the two-source state sampled at the given camera radii.

    Convenience wrapper that picks the a-side grid suited to the
    configured correlation model: the anti-correlated image of the
    camera grid (maximal), the exact-cancellation grid (uncorrelated),
    or a signed line wide enough for the pump shell (gaussian partial).
    """
    grid_b = camera_grid(rho_values, cfg)
    model = cfg.correlation_model
    if model is CorrelationModel.MAXIMAL:
        grid_a = conjugate_grid(grid_b, cfg)
    elif model is CorrelationModel.UNCORRELATED:
        grid_a = dephasing_grid(cfg, n_modes)
    else:
        grid_a = shell_line_grid(cfg, float(np.max(rho_values)), n_modes)
    return build_amplitudes(grid_a, grid_b, cfg)
