"""Command-line front end: simulate, visibility, invert, eqwavelength, oracle.

Every command reads one flat key-value config file (``--config``) and
derives its output paths from one base path (``--out``); ``invert`` and
``eqwavelength`` print their report to stdout when ``--out`` is absent.
Each ``run_*`` function only computes and writes its data, and
``_dispatch`` names the files and writes the run manifest. Exit codes:
0 success, 1 usage or validation error (numeric flags must be finite
ASCII numbers, read by ``fileio.parse_number``),
2 oracle tolerance failure, 3 I/O error. Data files are
byte-deterministic; the JSON manifest written next to them carries the
only timestamp.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

from . import __version__
from .config import (
    PARAXIAL_LIMIT, CorrelationModel, ExperimentConfig, derive_constants, source_fringe,
    validate_sigma_theta,
)
from .fileio import (
    config_to_dict,
    parse_config,
    parse_number,
    read_rows,
    write_manifest,
    write_pgm,
    write_profile_csv,
)
from .inverse import (
    estimate_equivalent_wavelength,
    estimate_sigma_theta,
    estimate_sigma_theta_bisect,
    infer_lambda_a,
    ring_law_lambda_eq,
)

# numpy and the array half of the package, bound by _load_arrays.
np = analytics = oracle = state = None

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TOLERANCE = 2
EXIT_IO = 3

# Oracle-check tolerances per model: (max |V_grid - V_closed|, max
# peak-relative rate discrepancy, max |F_grid - F_closed|), F = S / A the
# complex fringe at phi_0 = 0. Each gate is the smallest 1-2-5 value at
# least 10x the worst discrepancy on the reference optics. The maximal
# and uncorrelated grids are exact up to rounding: worst over n_a
# 1/1.7/2.5/3, d_a 1-50 mm (10 values) and 128-4096 modes, maximal
# 3.3e-16, 1.65e-14, 5.7e-14; uncorrelated 1.1e-16, 2.2e-16, 1.06e-16.
# The partial grid is a midpoint rule over each column's shell, O(h^2):
# worst at 512 modes over n_a 1-3, d_a 1-50 mm and sigma_theta
# 1e-4..3e-3, 1.85e-4, 1.54e-4, 1.85e-4, all at n_a 3, d_a 50 mm,
# sigma_theta 3e-3 (kappa 23). From 512 modes on each doubling cuts the
# error about 4x; 128 modes alias at that corner (0.31).
_ORACLE_TOLS = {
    CorrelationModel.MAXIMAL: (5e-15, 2e-13, 1e-12),
    CorrelationModel.UNCORRELATED: (2e-15, 5e-15, 2e-15),
    CorrelationModel.GAUSSIAN_PARTIAL: (2e-3, 2e-3, 2e-3),
}


def _load_arrays() -> None:
    """Import numpy, analytics (which imports special), oracle and state.

    simulate, visibility and oracle call this first; invert and
    eqwavelength never do, so they run without numpy. It loads the whole
    array half at once, so a process that has run any array command
    holds every array module.
    """
    global np, analytics, oracle, state
    if state is None:
        import numpy as np

        from . import analytics, oracle, state


class UsageError(ValueError):
    """Bad command line (unknown flag, missing argument, bad value)."""


class ToleranceExceeded(RuntimeError):
    """Oracle check found grid/closed-form discrepancies above tolerance."""


def run_simulate(
    cfg: ExperimentConfig,
    screen_mm: float,
    resolution: int,
    phi_0: float,
    out_image,
    out_profile,
) -> None:
    """Render the fringe image and its radial profile CSV.

    One ``render_pattern`` call gives both the image and the profile
    of ``resolution`` radii out to half the screen, from one closed-form
    evaluation.

    Parameters
    ----------
    cfg : ExperimentConfig
        Validated experimental configuration.
    screen_mm : float
        Physical edge length of the square screen, in millimeters.
    resolution : int
        Image width and height in pixels, 64 to 8192.
    phi_0 : float
        Scan phase in radians, measured from the on-axis bright fringe.
    out_image, out_profile : path-like
        Destination PGM and CSV paths.
    """
    _load_arrays()
    # an overflow leaves a non-finite frame, which FringeImage rejects
    with np.errstate(over="ignore", invalid="ignore"):
        image, profile = analytics.render_pattern(cfg, screen_mm * 1e-3, resolution, phi_0)
    write_pgm(image, out_image)
    write_profile_csv(profile, out_profile)


def run_visibility_scan(cfg: ExperimentConfig, out_csv, sigma_list=None, rho_list=None) -> None:
    """Scan visibility against correlation width or camera radius.

    Exactly one of ``sigma_list`` (dimensionless widths; emits
    ``sigma_theta,v0,hwhm_m`` rows, the HWHM column blank where the
    visibility never falls to half or the source contrast is 0) and
    ``rho_list`` (nonnegative camera radii in meters; emits
    ``rho_m,visibility`` rows) must be a non-empty sequence. The sigma
    list always tabulates the gaussian_partial model at each listed
    width, whatever the configured model. Each scanned width is checked
    as the config's own width is, except 0, the perfect-correlation
    limit, which is reported as v0 = c, the source contrast, with a
    blank HWHM. The rho list follows the configured model: its rows are
    the visibility column that ``simulate`` writes at the same radii; a
    radius at which the closed-form rate overflows raises UsageError.
    Nothing is written before the arguments validate.
    """
    if bool(sigma_list) == bool(rho_list):
        raise UsageError("provide exactly one non-empty scan list (sigma or rho)")
    _load_arrays()
    lines = []
    if sigma_list:
        lines.append("sigma_theta,v0,hwhm_m")
        sigmas = [float(sigma) for sigma in sigma_list]
        constants = []
        for sigma in sigmas:
            if sigma != 0.0:
                validate_sigma_theta(sigma)
            constants.append(derive_constants(cfg, sigma))
        peak = 2.0 * source_fringe(cfg)[0]
        # a zero visibility curve (one source dark) has no half point
        hwhms = analytics.visibility_hwhms(sigmas, constants) if peak else [None] * len(sigmas)
        for sigma, c, hwhm in zip(sigmas, constants, hwhms):
            # 2 contrast / gamma is the central visibility at this width
            hwhm_text = "" if hwhm is None else f"{hwhm:.11e}"
            lines.append(f"{sigma:.11e},{peak / c.gamma:.11e},{hwhm_text}")
    else:
        if min(rho_list) < 0.0:
            raise UsageError("scanned radii must be nonnegative")
        lines.append("rho_m,visibility")
        radii = np.array(rho_list, dtype=float)
        # a radius so large that the fringe phase or Br(rho g) overflows
        # leaves a non-finite rate; it is named instead of warned about
        with np.errstate(over="ignore", invalid="ignore"):
            rate, visibility = analytics._fringe(radii, 0.0, cfg)
        overflowed = ~np.isfinite(rate)
        if overflowed.any():
            rho_mm = radii[overflowed][0] * 1e3
            raise UsageError(f"the closed form overflows at scanned radius {rho_mm:g} mm")
        for rho, vis in zip(radii.tolist(), visibility.tolist()):
            lines.append(f"{rho:.11e},{vis:.11e}")
    Path(out_csv).write_text("\n".join(lines) + "\n", encoding="ascii")


def run_invert(cfg: ExperimentConfig, v0: float, rho1: float | None = None) -> str:
    """Report the correlation width implied by a measured central visibility.

    Runs both the closed-form inverse and the independent bisection
    inverse and reports their relative difference as a cross-check.
    With a first-ring radius supplied, also reports the single-point
    equivalent wavelength and the inferred undetected wavelength.
    Returns the text report.
    """
    sigma = estimate_sigma_theta(v0, cfg)
    lines = [f"v0 = {v0:.12g}", f"sigma_theta_rad = {sigma:.12e}"]
    if sigma == 0.0:
        lines.append("note = maximal correlation; conditional collapses to the momentum shell")
    else:
        sigma_scan = estimate_sigma_theta_bisect(v0, cfg)
        lines.append(f"conditional_gaussian_std_rad = {0.5 * sigma:.12e}")
        lines.append(f"cross_check_rel = {abs(sigma_scan - sigma) / sigma:.3e}")
    if rho1 is not None:
        if rho1 <= 0.0:
            raise UsageError("first-ring radius must be positive")
        lambda_eq = ring_law_lambda_eq(rho1 * rho1 * cfg.d_a, cfg)
        # rho_1^2 d_a underflows to 0, or lambda_a = lambda_b^2 / lambda_eq
        # overflows in nm
        lambda_a_nm = infer_lambda_a(lambda_eq, cfg.lambda_b) * 1e9 if lambda_eq > 0.0 else math.inf
        if math.isinf(lambda_a_nm):
            raise UsageError(
                f"first-ring radius {rho1 * 1e3:g} mm is too small: rho_1^2 d_a underflows"
            )
        # the ring's angle at the camera, and its partner's at the a source
        ring_angle = rho1 / cfg.f0
        partner_angle = lambda_a_nm * 1e-9 / cfg.lambda_b * ring_angle
        if max(ring_angle, partner_angle) >= PARAXIAL_LIMIT:
            raise UsageError(
                f"first-ring radius {rho1 * 1e3:g} mm is not paraxial: ring angle "
                f"{ring_angle:.3g} rad, partner angle {partner_angle:.3g} rad "
                f"(limit {PARAXIAL_LIMIT} rad)"
            )
        lines.append(f"lambda_eq_nm = {lambda_eq * 1e9:.6f}")
        lines.append(f"lambda_a_nm = {lambda_a_nm:.6f}")
    return "\n".join(lines) + "\n"


def run_eqwavelength(cfg: ExperimentConfig, data_path) -> str:
    """Regress first-ring radii over source separations to lambda_eq.

    ``data_path`` is a CSV with header ``d_a_mm,rho1_mm`` and one row
    per separation, read with ``fileio.read_rows``: every value must be
    finite, and no line may be blank. Returns a text report of the
    fitted equivalent wavelength, its standard error, and the inferred
    undetected wavelength.
    """
    first_radii = [(d * 1e-3, rho * 1e-3) for d, rho in read_rows(data_path, "d_a_mm,rho1_mm")]
    estimate = estimate_equivalent_wavelength(first_radii, cfg)
    return (
        f"n_separations = {len(first_radii)}\n"
        f"lambda_eq_nm = {estimate.lambda_eq * 1e9:.6f}\n"
        f"lambda_eq_stderr_nm = {estimate.stderr * 1e9:.6f}\n"
        f"lambda_a_nm = {infer_lambda_a(estimate.lambda_eq, cfg.lambda_b) * 1e9:.6f}\n"
    )


def run_oracle_check(cfg: ExperimentConfig, grid_points: int, out) -> None:
    """Compare the brute-force mode-sum against the closed forms.

    Samples 16 radii across the envelope and reads three things off one
    fringe phasor per radius on each route: the visibility (|S| / A on
    the grid), the phi_0 = 0 rate (A + Re S) and the complex fringe
    F = S / A, whose phase is the fringe's position in the scan phase;
    the closed form gives its (A, F, V) from one ``_closed_form`` call.
    The modulus and the rate alone cannot tell F from its conjugate; the
    fringe discrepancy max |F_grid - F_closed| can. ``grid_points`` must
    be even and in [128, 65536], whatever the model, or UsageError is
    raised. A closed form that overflows on the config raises ValueError
    before anything is written. Otherwise the JSON report is written even
    on failure; ToleranceExceeded is raised afterwards so the
    discrepancies stay inspectable.
    """
    if grid_points < 128 or grid_points % 2:
        raise UsageError(f"--grid-points must be an even number >= 128, got {grid_points}")
    if grid_points > 65536:
        raise UsageError(f"--grid-points must be at most 65536, got {grid_points}")
    _load_arrays()
    rho = np.linspace(0.0, 0.5 * cfg.f0 * cfg.sigma_b, 16)
    with np.errstate(over="ignore", invalid="ignore"):
        mean, fringe, visibility = analytics._closed_form(rho, 0.0, cfg, cfg.correlation_model)
        rate = mean * (1.0 + fringe.real)
    if not all(np.isfinite(x).all() for x in (rate, fringe, visibility)):
        raise ValueError(
            "the closed form overflows on this config: its rate, fringe or visibility is not finite"
        )
    # the b grid's columns are exactly these radii
    grid_state = state.assemble_state(cfg, rho, grid_points)
    vis_grid, rate_grid, fringe_grid = oracle.visibility_scan(grid_state)

    vis_tol, rate_tol, fringe_tol = _ORACLE_TOLS[cfg.correlation_model]
    vis_err = float(np.max(np.abs(vis_grid - visibility)))
    # Rates are compared peak-normalized; a pointwise relative error is
    # undefined at the dark-fringe zeros of the maximal model.
    rate_err = float(np.max(np.abs(rate_grid / rate_grid.max() - rate / rate.max())))
    fringe_err = float(np.max(np.abs(fringe_grid - fringe)))
    passed = vis_err <= vis_tol and rate_err <= rate_tol and fringe_err <= fringe_tol
    report = {
        "model": cfg.correlation_model.value,
        "grid_points": int(grid_points),
        "radii_m": [float(r) for r in rho],
        "max_abs_visibility_discrepancy": vis_err,
        "visibility_tolerance": vis_tol,
        "max_peak_relative_rate_discrepancy": rate_err,
        "rate_tolerance": rate_tol,
        "max_abs_fringe_discrepancy": fringe_err,
        "fringe_tolerance": fringe_tol,
        "passed": passed,
    }
    Path(out).write_text(json.dumps(report, indent=2, allow_nan=False) + "\n", encoding="ascii")
    if not passed:
        raise ToleranceExceeded(
            f"visibility discrepancy {vis_err:.3e} (tol {vis_tol:.1e}), "
            f"rate discrepancy {rate_err:.3e} (tol {rate_tol:.1e}), "
            f"fringe discrepancy {fringe_err:.3e} (tol {fringe_tol:.1e}); report at {out}"
        )


class _Parser(argparse.ArgumentParser):
    """argparse that signals usage problems via UsageError (exit 1, not 2)."""

    def error(self, message):
        raise UsageError(message)


def _finite_float(text: str) -> float:
    try:
        value = parse_number(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _float_list(text: str) -> list[float]:
    return [_finite_float(tok) for tok in text.split(",")]


def _int(text: str) -> int:
    try:
        return parse_number(text, int)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Each ``parse_args`` call fills a fresh namespace from the parser's
    fixed defaults, so one parser serves every ``main`` call.
    """
    parser = _Parser(prog="twinfringes", description=__doc__.splitlines()[0])
    common = _Parser(add_help=False)
    common.add_argument("--config", required=True, help="key=value config file")
    common.add_argument("--out", help="base path for output files")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common], help="render fringe image + profile")
    p.add_argument("--screen-mm", type=_finite_float, default=3.0, help="screen edge length (mm)")
    p.add_argument("--resolution", type=_int, default=600, help="image size in pixels (64-8192)")
    p.add_argument("--phi0", type=_finite_float, default=0.0, help="scan phase (rad)")

    p = sub.add_parser("visibility", parents=[common], help="scan V over sigma or radius")
    p.add_argument(
        "--sigma-list",
        type=_float_list,
        help="comma-separated sigma_theta values; always tabulates the gaussian_partial model",
    )
    p.add_argument("--rho-mm-list", type=_float_list, help="comma-separated radii (mm)")

    p = sub.add_parser("invert", parents=[common], help="correlation width from visibility")
    p.add_argument("--v0", type=_finite_float, required=True, help="measured central visibility")
    p.add_argument("--rho1-mm", type=_finite_float, help="first bright-ring radius (mm)")

    p = sub.add_parser("eqwavelength", parents=[common], help="lambda_eq from ring-radius data")
    p.add_argument("--data", required=True, help="CSV of d_a_mm,rho1_mm rows")

    p = sub.add_parser("oracle", parents=[common], help="grid vs closed-form consistency check")
    p.add_argument("--grid-points", type=_int, default=512, help=(
        "a-side modes (even, 128-65536); the gaussian_partial gate (2e-3) was set at 512"))
    return parser


# Data-file suffixes of each command under the --out base. The text
# commands print their report to stdout, and write no file, without --out.
_SUFFIXES = {
    "simulate": (".pgm", ".csv"),
    "visibility": (".csv",),
    "invert": (".txt",),
    "eqwavelength": (".txt",),
    "oracle": (".json",),
}
_TEXT_COMMANDS = ("invert", "eqwavelength")


def _dispatch(args) -> None:
    """Run one command and record it.

    The only place that names a command's output files and writes its
    run manifest; a command that raises leaves no manifest.
    """
    cfg = parse_config(args.config)
    started = time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())
    t0 = time.perf_counter()
    base = Path(args.out) if args.out else None
    if base is None and args.command not in _TEXT_COMMANDS:
        raise UsageError(f"{args.command} requires --out")
    # Each suffix goes after the whole base name, dots included:
    # runs/s0.0005_vrho writes runs/s0.0005_vrho.csv.
    suffixes = _SUFFIXES[args.command] if base else ()
    outputs = [base.with_name(base.name + suffix) for suffix in suffixes]
    report = None
    if args.command == "simulate":
        run_simulate(cfg, args.screen_mm, args.resolution, args.phi0, *outputs)
    elif args.command == "visibility":
        rho_list = [r * 1e-3 for r in args.rho_mm_list] if args.rho_mm_list else None
        run_visibility_scan(cfg, *outputs, sigma_list=args.sigma_list, rho_list=rho_list)
    elif args.command == "invert":
        rho1 = args.rho1_mm * 1e-3 if args.rho1_mm is not None else None
        report = run_invert(cfg, args.v0, rho1)
    elif args.command == "eqwavelength":
        report = run_eqwavelength(cfg, args.data)
    else:
        run_oracle_check(cfg, args.grid_points, *outputs)
    if report is not None:
        if base is None:
            sys.stdout.write(report)
            return
        outputs[0].write_text(report, encoding="ascii")
    manifest = {
        "command": args.command,
        "config": config_to_dict(cfg),
        "outputs": [str(path) for path in outputs],
        "version": __version__,
        "duration_s": time.perf_counter() - t0,
        "started_at": started,
    }
    write_manifest(manifest, base.with_name(base.name + ".manifest.json"))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _dispatch(args)
    except ToleranceExceeded as exc:
        print(f"twinfringes: tolerance failure: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except ValueError as exc:  # UsageError, ParseError, ConfigError, estimator errors
        print(f"twinfringes: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"twinfringes: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
