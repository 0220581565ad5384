"""Per-request output checks, run outside the timed interval and the spans.

Each check reads what the CLI wrote and compares it against the
package's closed forms or an independent computation. A check returns
None when the output is right and a one-line reason when it is not.
Text outputs carry a fixed number of digits, so a reference value is
rounded to the same digits before it is compared; the tolerance then
applies to what the file can represent.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from twinfringes import (
    central_visibility,
    counting_rate_maxcorr,
    counting_rate_partial_quadrature,
    counting_rate_uncorrelated,
    parse_config,
    read_pgm,
    read_profile_csv,
    visibility_closed_form,
)

RATE_TOL = 1e-9  # peak-relative normalised rate
VIS_TOL = 1e-12  # visibility and v0, after rounding to the file's digits
HWHM_TOL = 1e-9  # |V(hwhm) - v0/2|
CROSS_CHECK_TOL = 1e-9  # closed-form vs bisection width inverse
LAMBDA_REL_TOL = 1e-9  # lambda_eq, relative
NM_DIGITS_TOL = 5e-7  # half a unit in the sixth decimal of a printed nm value
N_RATE_SAMPLES = 8


def _csv12(x: float) -> float:
    """x rounded to the 12 significant digits the CSV writers keep."""
    return float(f"{x:.11e}")


def _config(req):
    return parse_config(req.argv[req.argv.index("--config") + 1])


def _report(path) -> dict[str, str]:
    pairs = (line.split(" = ", 1) for line in path.read_text(encoding="ascii").splitlines())
    return {key: value for key, value in pairs}


def check_render(req) -> str | None:
    p = req.params
    res = p["resolution"]
    samples, rate_max = read_pgm(req.out.with_suffix(".pgm"))
    if samples.shape != (res, res):
        return f"pgm shape {samples.shape}, expected {(res, res)}"
    if not (math.isfinite(rate_max) and rate_max > 0.0) or int(samples.max()) != 65535:
        return "pgm frame maximum is not at full scale"
    prof = read_profile_csv(req.out.with_suffix(".csv"))
    if prof.rho.shape != (res,):
        return f"profile has {prof.rho.size} rows, expected {res}"
    rho = np.linspace(0.0, 0.5 * p["screen_mm"] * 1e-3, res)
    if np.max(np.abs(prof.rho - rho)) > 1e-11 * rho[-1]:
        return "profile radii differ from the requested grid"

    cfg = _config(req)
    model, phi0 = p["model"], p["phi0"]
    if model == "gaussian_partial":
        def rate(r): return counting_rate_partial_quadrature(r, phi0, cfg)
        def vis(r): return min(max(visibility_closed_form(r, cfg), 0.0), 1.0)
    elif model == "maximal":
        def rate(r): return counting_rate_maxcorr(r, phi0, cfg)
        def vis(r): return 1.0
    else:
        def rate(r): return counting_rate_uncorrelated(r, cfg)
        def vis(r): return 0.0

    peak = int(np.argmax(prof.rate))
    peak_rate = rate(float(rho[peak]))
    for i in sorted({peak, *np.linspace(0, res - 1, N_RATE_SAMPLES).astype(int).tolist()}):
        r = float(rho[i])
        err = abs(prof.rate[i] - rate(r) / peak_rate)
        if err > RATE_TOL:
            return f"normalised rate off by {err:.3e} at rho={r:.6e}"
        err = abs(prof.visibility[i] - _csv12(vis(r)))
        if err > VIS_TOL:
            return f"visibility off by {err:.3e} at rho={r:.6e}"
    return None


def check_oracle(req) -> str | None:
    report = json.loads(req.out.with_suffix(".json").read_text(encoding="ascii"))
    if report.get("passed") is not True:
        return "oracle report did not pass"
    if report["model"] != req.params["model"] or report["grid_points"] != req.params["grid"]:
        return "oracle report describes another request"
    return None


def check_invert(req) -> str | None:
    p = req.params
    cfg = _config(req)
    rep = _report(req.out.with_suffix(".txt"))
    sigma = float(rep["sigma_theta_rad"])
    if float(rep["cross_check_rel"]) > CROSS_CHECK_TOL:
        return f"cross_check_rel {rep['cross_check_rel']} above {CROSS_CHECK_TOL}"
    v0 = central_visibility(dataclasses.replace(cfg, sigma_theta=sigma))
    if abs(v0 - p["v0"]) > VIS_TOL:
        return f"central visibility at the returned width is {v0!r}, expected {p['v0']!r}"
    rho1 = p["rho1_mm"] * 1e-3
    expected_nm = rho1 * rho1 * cfg.n_a * cfg.d_a / (2.0 * cfg.f0 * cfg.f0) * 1e9
    got_nm = float(rep["lambda_eq_nm"])
    if abs(got_nm - expected_nm) > LAMBDA_REL_TOL * expected_nm + NM_DIGITS_TOL:
        return f"lambda_eq_nm {got_nm!r} differs from the ring law {expected_nm!r}"
    return None


def _csv_rows(path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text(encoding="ascii").splitlines()[1:]]


def check_vis_sigma(req) -> str | None:
    cfg = _config(req)
    rows = _csv_rows(req.out.with_suffix(".csv"))
    sigmas = req.params["sigmas"]
    if len(rows) != len(sigmas):
        return f"{len(rows)} rows for {len(sigmas)} widths"
    for (s_txt, v0_txt, hwhm_txt), sigma in zip(rows, sigmas):
        scfg = dataclasses.replace(cfg, sigma_theta=sigma)
        v0 = central_visibility(scfg)
        if float(s_txt) != _csv12(sigma) or abs(float(v0_txt) - _csv12(v0)) > VIS_TOL:
            return f"v0 row for sigma={sigma!r} does not match central_visibility"
        if not hwhm_txt:
            return f"no half-width reported for sigma={sigma!r}"
        err = abs(visibility_closed_form(float(hwhm_txt), scfg) - 0.5 * v0)
        if err > HWHM_TOL:
            return f"|V(hwhm) - v0/2| = {err:.3e} for sigma={sigma!r}"
    return None


def check_vis_rho(req) -> str | None:
    cfg = _config(req)
    rows = _csv_rows(req.out.with_suffix(".csv"))
    radii = req.params["rho_mm"]
    if len(rows) != len(radii):
        return f"{len(rows)} rows for {len(radii)} radii"
    for (_, v_txt), r_mm in zip(rows, radii):
        err = abs(float(v_txt) - _csv12(visibility_closed_form(r_mm * 1e-3, cfg)))
        if err > VIS_TOL:
            return f"visibility off by {err:.3e} at rho={r_mm!r} mm"
    return None


def check_eqwl(req) -> str | None:
    cfg = _config(req)
    rep = _report(req.out.with_suffix(".txt"))
    rows = req.params["rows"]
    if int(rep["n_separations"]) != len(rows):
        return f"n_separations {rep['n_separations']} for {len(rows)} rows"
    x = np.array([[1.0 / (d * 1e-3)] for d, _ in rows])
    y = np.array([(r * 1e-3) ** 2 for _, r in rows])
    slope = float(np.linalg.lstsq(x, y, rcond=None)[0][0])
    expected_nm = slope * cfg.n_a / (2.0 * cfg.f0 * cfg.f0) * 1e9
    got_nm = float(rep["lambda_eq_nm"])
    if abs(got_nm - expected_nm) > LAMBDA_REL_TOL * expected_nm + NM_DIGITS_TOL:
        return f"lambda_eq_nm {got_nm!r} differs from the least-squares fit {expected_nm!r}"
    return None


_CHECKS = {
    "invert": check_invert,
    "vis_sigma": check_vis_sigma,
    "vis_rho": check_vis_rho,
    "eqwl": check_eqwl,
}


def check(req) -> str | None:
    """Reason the request's output is wrong, or None when it is right."""
    if req.kind.startswith("render_"):
        return check_render(req)
    if req.kind.startswith("oracle_"):
        return check_oracle(req)
    return _CHECKS[req.kind](req)
