"""Two-source biphoton fringe simulator and inverse estimator.

Models the single-photon interference pattern behind a pair of
identical photon-pair sources whose undetected beams are overlapped,
covering the maximal, uncorrelated, and Gaussian-partial transverse
momentum correlation regimes. Provides the brute-force mode-sum
oracle, closed-form rate and visibility curves, and estimators that
recover the correlation width and equivalent wavelength from fringe
data, plus a small CLI for rendering and scanning.

Public names load their defining module on first access (PEP 562), so
importing the package, or running the scalar CLI commands, does not
import numpy.
"""

import importlib

__version__ = "0.1.0"

# Defining module -> the public names it exports.
_EXPORTS = {
    "analytics": (
        "FringeImage", "NoHalfPoint", "RadialProfile", "ZeroDistance", "central_visibility",
        "counting_rate_maxcorr", "counting_rate_partial", "counting_rate_partial_quadrature",
        "counting_rate_uncorrelated", "fringe_radius", "radial_profile", "render_pattern",
        "visibility_closed_form", "visibility_hwhm", "visibility_hwhms",
    ),
    "config": (
        "ConfigError", "CorrelationModel", "ExperimentConfig", "FringeConstants",
        "ParaxialWarning", "Violation", "derive_constants", "effective_curvature",
        "validate_config",
    ),
    "fileio": (
        "ParseError", "UnknownKey", "config_to_dict", "parse_config", "read_pgm",
        "read_profile_csv", "write_manifest", "write_pgm", "write_profile_csv",
    ),
    "inverse": (
        "DegenerateVisibility", "InsufficientData", "NegativeSlope", "WavelengthEstimate",
        "estimate_equivalent_wavelength", "estimate_sigma_theta", "estimate_sigma_theta_bisect",
        "infer_lambda_a", "ring_law_lambda_eq",
    ),
    "oracle": (
        "ZeroRate", "counting_rate_reduced", "sweep_visibility", "visibility_scan",
    ),
    "special": (
        "ToleranceNotReached", "dm2_pair_scaled", "faddeeva", "integrate_radial",
    ),
    "state": (
        "SuperposedState", "assemble_state", "build_amplitudes",
        "camera_grid", "conjugate_grid", "dephasing_grid", "line_grid", "phase_a",
        "shell_grid",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
