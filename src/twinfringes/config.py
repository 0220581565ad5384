"""Physical parameters and derived fringe constants.

All lengths are SI meters internally; the config-file surface
(:mod:`twinfringes.fileio`) accepts nm/mm keys and converts on parse.
Configs are immutable after validation and safe to share between workers.
"""

from __future__ import annotations

import cmath
import collections
import enum
import math
import warnings
from dataclasses import dataclass

_SQRT_HALF = math.sqrt(0.5)

# Normalization slack for |alpha1|^2 + |alpha2|^2.
AMPLITUDE_NORM_TOL = 1e-12

# Angles [rad] at or above this strain the small-angle treatment: sigma_b
# is still accepted but flagged, phase_a warns, and mode grids reject them.
PARAXIAL_LIMIT = 0.1


class CorrelationModel(enum.Enum):
    """Transverse-momentum correlation regime of the photon-pair sources."""

    MAXIMAL = "maximal"
    UNCORRELATED = "uncorrelated"
    GAUSSIAN_PARTIAL = "gaussian_partial"


class ParaxialWarning(UserWarning):
    """Angular widths approaching the small-angle limit of the model."""


# One validation failure: a machine-readable kind plus a message.
Violation = collections.namedtuple("Violation", "kind message")


class ConfigError(ValueError):
    """Invalid configuration; carries the complete list of violations."""

    def __init__(self, violations: list[Violation]):
        self.violations = list(violations)
        joined = "; ".join(f"{v.kind}: {v.message}" for v in self.violations)
        super().__init__(f"invalid configuration: {joined}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Every physical parameter of the two-source interference setup.

    Parameters
    ----------
    lambda_a : float
        Mean wavelength of the undetected photon a [m].
    lambda_b : float
        Mean wavelength of the detected photon b [m].
    d_a : float
        Effective propagation distance between the two sources along the
        a beam [m]. Zero is allowed (balanced imaging case).
    f0 : float
        Focal length of the camera lens [m].
    sigma_b : float
        Angular 1/e^2 width of the b-photon marginal
        ``P(k_b) = exp(-2 theta_b^2 / sigma_b^2)`` [rad].
    correlation_model : CorrelationModel
        Joint-momentum model of the source.
    lambda_p : float, optional
        Mean pump wavelength [m]. Required by the partially correlated
        model (it fixes the wavenumber of the correlation shell) and by
        any derived constant involving the pump.
    sigma_theta : float, optional
        Angular width of the conditional momentum distribution [rad].
        Required when ``correlation_model`` is ``GAUSSIAN_PARTIAL``; must
        be positive whenever given.
    n_a : float
        Refractive index seen by photon a between the sources.
    alpha1_mag, alpha2_mag : float
        Source emission amplitude magnitudes, >= 0; their squares must
        sum to 1.
    phi1, phi2 : float
        Source phases [rad].
    phi_b : float
        Fixed b-path phase difference between the two arms [rad].
    """

    lambda_a: float
    lambda_b: float
    d_a: float
    f0: float
    sigma_b: float
    correlation_model: CorrelationModel
    lambda_p: float | None = None
    sigma_theta: float | None = None
    n_a: float = 1.0
    alpha1_mag: float = _SQRT_HALF
    alpha2_mag: float = _SQRT_HALF
    phi1: float = 0.0
    phi2: float = 0.0
    phi_b: float = 0.0


# Derived quantities of the closed-form visibility model:
#   A      pi * d_a * lambda_a / (f0 * lambda_b)**2  [1/m^2]
#   B      f0 * lambda_b / lambda_p                  [m]
#   kappa  sigma_theta^2 n_a A B^2, the shell-phase curvature
#   gamma  sqrt(4 + kappa^2)
#   chi    gamma / (n_a A B)                         [m]
#   g      i sqrt(2) n_a A B sigma_theta / sqrt(2 - i kappa), complex
# A is the quadratic fringe-phase coefficient per unit refractive index;
# rates use n_a * A. gamma, chi and g already include n_a so that the
# whole family stays mutually consistent (for n_a = 1 they reduce to the
# plain formulas). The fields are what the closed-form rates and
# visibilities read; the equivalent wavelength lambda_b^2 / lambda_a
# enters only through the ring law (analytics.fringe_radius,
# inverse.ring_law_lambda_eq).
FringeConstants = collections.namedtuple("FringeConstants", "A B kappa gamma chi g")


def effective_curvature(cfg: ExperimentConfig) -> float:
    """Coefficient of rho^2 in the fringe phase: n_a * pi * d_a * lambda_a / (f0 * lambda_b)**2."""
    return cfg.n_a * math.pi * cfg.d_a * cfg.lambda_a / (cfg.f0 * cfg.lambda_b) ** 2


def source_fringe(cfg: ExperimentConfig) -> tuple[float, float]:
    """(contrast, static): the sources' one factor on every fringe term.

    contrast = 2|a1||a2| / (|a1|^2 + |a2|^2), exactly 1.0 for equal
    magnitudes, scales the term; the rate at scan phase phi_0 is that of
    in-phase sources at phi_0 + static, static = phi_b + phi2 - phi1.
    The quotient rounds to 1 + 2^-52 for some nearly equal magnitudes;
    contrast is capped at 1, its exact bound, so that no rate dips below
    0 at a dark fringe and no visibility exceeds 1.
    """
    a1, a2 = cfg.alpha1_mag, cfg.alpha2_mag
    return min(2.0 * a1 * a2 / (a1 * a1 + a2 * a2), 1.0), cfg.phi_b + cfg.phi2 - cfg.phi1


# Lower bounds of the range-checked parameters, in reporting order:
# name -> (bound, strict). d_a = 0 is the balanced case.
_LOWER_BOUNDS = {
    "lambda_a": (0, True),
    "lambda_b": (0, True),
    "lambda_p": (0, True),
    "f0": (0, True),
    "sigma_b": (0, True),
    "sigma_theta": (0, True),
    "d_a": (0, False),
    "n_a": (1, False),
    "alpha1_mag": (0, False),
    "alpha2_mag": (0, False),
}


def _range_violations(values: dict) -> list[Violation]:
    """Non-finite floats, then values at or below their lower bound (None is unset)."""
    bad = [
        Violation("NonFiniteParameter", f"{name} must be finite, got {value!r}")
        for name, value in values.items()
        if isinstance(value, float) and not math.isfinite(value)
    ]
    for name, (bound, strict) in _LOWER_BOUNDS.items():
        value = values.get(name)
        if value is not None and ((value <= bound) if strict else (value < bound)):
            relation = ">" if strict else ">="
            message = f"{name} must be {relation} {bound}, got {value!r}"
            bad.append(Violation("NonPositiveParameter", message))
    return bad


def validate_sigma_theta(sigma: float) -> None:
    """Check one correlation width as ``validate_config`` checks a config's.

    Raises ConfigError with the same violations, and message, that the
    config holding the width would.
    """
    bad = _range_violations({"sigma_theta": sigma})
    if bad:
        raise ConfigError(bad)


def validate_config(raw: ExperimentConfig) -> ExperimentConfig:
    """Check every invariant and return the config unchanged if all hold.

    Raises
    ------
    ConfigError
        With the complete list of violations, not just the first one.

    Warns
    -----
    ParaxialWarning
        When ``sigma_b`` is large enough to strain the small-angle model.
        This is advisory only and never rejects the config.
    """
    bad = _range_violations(vars(raw))

    norm = raw.alpha1_mag**2 + raw.alpha2_mag**2
    if abs(norm - 1.0) > AMPLITUDE_NORM_TOL:
        bad.append(
            Violation(
                "AmplitudeNotNormalized",
                f"alpha1_mag^2 + alpha2_mag^2 = {norm!r}, expected 1 within {AMPLITUDE_NORM_TOL}",
            )
        )

    if raw.correlation_model is CorrelationModel.GAUSSIAN_PARTIAL:
        if raw.sigma_theta is None:
            bad.append(
                Violation("MissingSigmaTheta", "gaussian_partial model requires sigma_theta")
            )
        if raw.lambda_p is None:
            bad.append(
                Violation(
                    "MissingPumpWavelength",
                    "gaussian_partial model requires lambda_p (correlation-shell wavenumber)",
                )
            )

    if bad:
        raise ConfigError(bad)

    if raw.sigma_b >= PARAXIAL_LIMIT:
        warnings.warn(
            f"sigma_b = {raw.sigma_b} is outside the comfortable paraxial regime "
            f"(< {PARAXIAL_LIMIT} rad)",
            ParaxialWarning,
            stacklevel=2,
        )
    return raw


def shell_gamma(sigma: float, a_eff: float, b_coeff: float) -> tuple[float, float]:
    """(kappa, gamma) at width sigma: kappa = sigma^2 n_a A B^2, gamma = sqrt(4 + kappa^2).

    ``a_eff`` is n_a A and ``b_coeff`` is B. ``derive_constants`` and
    the width bisection both go through this, so a width's gamma has
    the same bits on either path.
    """
    kappa = sigma * sigma * a_eff * b_coeff * b_coeff
    return kappa, math.sqrt(4.0 + kappa * kappa)


def derive_constants(cfg: ExperimentConfig, sigma_theta: float | None = None) -> FringeConstants:
    """Compute all closed-form constants from a validated config.

    Pure function: identical inputs give bit-identical outputs. Needs
    ``lambda_p``; a missing ``sigma_theta`` is treated as 0 (perfect
    correlation), which gives ``gamma = 2`` exactly and ``g = 0``.
    A ``sigma_theta`` argument replaces the config's width, so a scan
    over widths needs no config copy per width.
    """
    if cfg.lambda_p is None:
        raise ConfigError(
            [Violation("MissingPumpWavelength", "lambda_p is required to derive constants")]
        )
    a_coeff = math.pi * cfg.d_a * cfg.lambda_a / (cfg.f0 * cfg.lambda_b) ** 2
    b_coeff = cfg.f0 * cfg.lambda_b / cfg.lambda_p
    if sigma_theta is None:
        sigma_theta = cfg.sigma_theta
    sigma = sigma_theta if sigma_theta is not None else 0.0
    a_eff = cfg.n_a * a_coeff
    kappa, gamma = shell_gamma(sigma, a_eff, b_coeff)
    ab = a_eff * b_coeff
    chi = gamma / ab if ab != 0.0 else math.inf
    g = 1j * math.sqrt(2.0) * ab * sigma / cmath.sqrt(complex(2.0, -kappa))
    return FringeConstants(
        A=a_coeff,
        B=b_coeff,
        kappa=kappa,
        gamma=gamma,
        chi=chi,
        g=g,
    )
