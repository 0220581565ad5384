"""Two-source biphoton fringe simulator and inverse estimator.

Models the single-photon interference pattern behind a pair of
identical photon-pair sources whose undetected beams are overlapped,
covering the maximal, uncorrelated, and Gaussian-partial transverse
momentum correlation regimes. Provides the brute-force mode-sum
oracle, closed-form rate and visibility curves, and estimators that
recover the correlation width and equivalent wavelength from fringe
data, plus a small CLI for rendering and scanning.
"""

__version__ = "0.1.0"

from .analytics import (
    FringeImage,
    NoHalfPoint,
    RadialProfile,
    ZeroDistance,
    central_visibility,
    counting_rate_maxcorr,
    counting_rate_partial,
    counting_rate_partial_quadrature,
    counting_rate_uncorrelated,
    fringe_radius,
    radial_profile,
    render_pattern,
    visibility_closed_form,
    visibility_hwhm,
    visibility_hwhms,
)
from .config import (
    ConfigError,
    CorrelationModel,
    ExperimentConfig,
    FringeConstants,
    ParaxialWarning,
    Violation,
    derive_constants,
    effective_curvature,
    validate_config,
)
from .fileio import (
    ParseError,
    RunManifest,
    UnknownKey,
    config_to_dict,
    parse_config,
    read_pgm,
    read_profile_csv,
    write_manifest,
    write_pgm,
    write_profile_csv,
)
from .inverse import (
    DegenerateVisibility,
    FringeObservation,
    InsufficientData,
    NegativeSlope,
    WavelengthEstimate,
    estimate_equivalent_wavelength,
    estimate_sigma_theta,
    estimate_sigma_theta_bisect,
    infer_lambda_a,
    pump_waist_to_sigma,
    reconstruct_joint_probability,
    ring_law_lambda_eq,
)
from .oracle import (
    UnequalAmplitudes,
    ZeroRate,
    counting_rate_reduced,
    sweep_visibility,
    visibility_scan,
)
from .special import (
    ToleranceNotReached,
    dm2_pair_scaled,
    erfc_complex,
    faddeeva,
    integrate_radial,
    parabolic_cylinder_Dm2,
)
from .state import (
    GridMismatch,
    ModeGrid,
    SuperposedState,
    TwoPhotonState,
    ZeroMarginal,
    assemble_state,
    build_amplitudes,
    camera_grid,
    conditional_probability,
    conjugate_grid,
    dephasing_grid,
    joint_probability,
    line_grid,
    marginal_b,
    mutual_information_bits,
    phase_a,
    shell_line_grid,
    superpose_sources,
)

