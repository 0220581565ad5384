"""Mode grids, amplitude tables and the two-source superposition."""

import dataclasses
import math

import numpy as np
import pytest

from twinfringes import (
    CorrelationModel,
    GridMismatch,
    assemble_state,
    build_amplitudes,
    camera_grid,
    conjugate_grid,
    dephasing_grid,
    line_grid,
    shell_line_grid,
)
from twinfringes.state import _checked_angles

from conftest import make_config

RHO = np.linspace(0.0, 1.5e-3, 24)


@pytest.mark.parametrize(
    "angles",
    [
        [[0.001]],                   # not 1D
        [],                          # empty
        [0.002, 0.001, 0.002],       # repeated angle
        [-0.001, float("nan")],      # not a number
        [0.001, 0.2],                # beyond paraxial window
        [-0.1, 0.001],               # beyond paraxial window, negative side
    ],
)
@pytest.mark.parametrize("role", ["grid_a", "grid_b"])
def test_mode_grid_rejects_bad_inputs(angles, role, uncorrelated_cfg):
    # build_amplitudes checks both grids, whichever photon a grid is for
    good = np.array([0.001, -0.001])
    grids = {"grid_a": good, "grid_b": good, role: np.asarray(angles)}
    with pytest.raises(ValueError, match="^angles must"):
        build_amplitudes(grids["grid_a"], grids["grid_b"], uncorrelated_cfg)


def test_mode_grid_flattening_is_theta_major():
    # a line grid lists each |theta| with both signs before the next one
    grid = line_grid(4e-3, n_modes=4)
    assert grid.shape == (4,)
    assert np.allclose(grid, [1e-3, -1e-3, 3e-3, -3e-3], rtol=1e-15)
    assert np.array_equal(grid[1::2], -grid[0::2])


def test_camera_grid_maps_radius_to_angle(partial_cfg):
    grid = camera_grid(RHO, partial_cfg)
    assert grid.dtype == np.float64
    assert np.allclose(grid, RHO / partial_cfg.f0, rtol=1e-14)


def test_camera_grid_rejects_negative_radius(partial_cfg):
    # a camera radius is a magnitude; the grid builder adds the signs itself
    with pytest.raises(ValueError, match="non-negative"):
        camera_grid([1e-3, -1e-3], partial_cfg)


def test_conjugate_grid_cancels_transverse_momentum(partial_cfg):
    grid_b = camera_grid(RHO[1:], partial_cfg)
    grid_a = conjugate_grid(grid_b, partial_cfg)
    # pairwise momentum cancellation: k_a theta_a = -k_b theta_b
    assert np.allclose(
        grid_a / partial_cfg.lambda_a,
        -grid_b / partial_cfg.lambda_b,
        rtol=1e-13,
    )
    assert np.all(grid_a < 0.0)


def test_line_grid_midpoints():
    grid = line_grid(1e-3, n_modes=8)
    assert grid.shape == (8,)
    midpoints = (np.arange(4) + 0.5) * 0.25e-3
    assert np.allclose(grid[0::2], midpoints, rtol=1e-14)
    assert np.array_equal(grid[1::2], -grid[0::2])


def test_line_grid_rejects_odd_or_tiny():
    with pytest.raises(ValueError):
        line_grid(1e-3, n_modes=7)
    with pytest.raises(ValueError):
        line_grid(1e-3, n_modes=2)


def test_shell_line_grid_covers_every_column(partial_cfg):
    rho_max = 1.5e-3
    grid = shell_line_grid(partial_cfg, rho_max, n_modes=64)
    k_a = 2.0 * math.pi / partial_cfg.lambda_a
    k_b = 2.0 * math.pi / partial_cfg.lambda_b
    k0p = 2.0 * math.pi / partial_cfg.lambda_p
    center = (k_b * rho_max / partial_cfg.f0) / k_a
    width = 6.0 * partial_cfg.sigma_theta * k0p / k_a
    assert np.max(grid) >= center + 0.9 * width
    assert np.min(grid) == -np.max(grid)


def test_shell_line_grid_needs_partial_parameters():
    cfg = make_config(CorrelationModel.MAXIMAL)
    with pytest.raises(ValueError):
        shell_line_grid(cfg, 1e-3, 64)


@pytest.mark.parametrize("n_modes", [4, 512, 1024])
def test_shell_line_grid_refuses_exactly_where_the_mode_grid_would(n_modes):
    # widths within 100 ulp of the edge: shell_line_grid names the width
    # wherever build_amplitudes would reject line_grid's angles, and nowhere else
    cfg, rho_max = make_config(), 1.5e-3
    k_a, k_b, k0p = (2.0 * math.pi / lam for lam in (cfg.lambda_a, cfg.lambda_b, cfg.lambda_p))
    half = n_modes // 2
    edge = (0.1 * half / (half - 0.5) * k_a - k_b * rho_max / cfg.f0) / (6.0 * k0p)
    sigma = edge
    for _ in range(100):
        sigma = np.nextafter(sigma, 0.0)
    outcomes = set()
    for _ in range(200):
        sigma = float(np.nextafter(sigma, 1.0))
        t_max = (6.0 * sigma * k0p + k_b * rho_max / cfg.f0) / k_a
        try:
            _checked_angles(line_grid(t_max, n_modes))
            rejected = False
        except ValueError:
            rejected = True
        wide = dataclasses.replace(cfg, sigma_theta=sigma)
        if rejected:
            with pytest.raises(ValueError, match=f"sigma_theta = {sigma!r} and rho_max = 1.5 mm"):
                shell_line_grid(wide, rho_max, n_modes)
        else:
            assert shell_line_grid(wide, rho_max, n_modes).shape == (n_modes,)
        outcomes.add(rejected)
    assert outcomes == {False, True}


def test_shell_line_grid_at_the_axis_names_only_the_width():
    # at rho_max = 0 the width alone sets the shell grid's reach
    cfg = make_config(sigma_theta=5.8e-3)
    message = (
        "the shell grid reaches 0.101 rad, past the paraxial limit 0.1 rad: "
        "sigma_theta = 0.0058 is too large for the partial-model oracle"
    )
    with pytest.raises(ValueError) as excinfo:
        assemble_state(cfg, [0.0], 512)
    assert str(excinfo.value) == message
    with pytest.raises(ValueError, match="sigma_theta = 0.0058 and rho_max = 1 mm are too large"):
        assemble_state(cfg, [0.0, 1e-3], 512)


def test_dephasing_grid_phases_cancel():
    n = 256
    roots = 2.0 * math.pi * (np.arange(n) + 0.5) / n
    # the reference path and the longest one, where the path phase is 3.4e5 rad
    for overrides in ({}, {"n_a": 1.7, "d_a": 50e-3}):
        cfg = make_config(CorrelationModel.UNCORRELATED, **overrides)
        phases = assemble_state(cfg, RHO, n).phase_a
        # the state's phases are rotated N-th roots of unity
        assert np.allclose(phases, roots, rtol=1e-14, atol=0.0)
        assert abs(np.sum(np.exp(1j * phases))) < 1e-11


def test_dephasing_grid_needs_separation():
    cfg = make_config(CorrelationModel.UNCORRELATED, d_a=0.0)
    with pytest.raises(ValueError, match="d_a_mm > 0"):
        dephasing_grid(cfg, 128)


def _partial_state(cfg, rho=RHO, n_modes=128):
    grid_b = camera_grid(rho, cfg)
    grid_a = shell_line_grid(cfg, float(np.max(rho)), n_modes)
    return build_amplitudes(grid_a, grid_b, cfg), grid_a, grid_b


def test_tables_are_normalized(partial_cfg, maximal_cfg, uncorrelated_cfg):
    for cfg in (partial_cfg, maximal_cfg, uncorrelated_cfg):
        state = assemble_state(cfg, RHO, n_modes=64)
        assert state.amplitudes.dtype == np.float64
        total = np.sum(state.amplitudes**2)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_maximal_table_is_one_to_one(maximal_cfg):
    grid_b = camera_grid(RHO, maximal_cfg)
    grid_a = conjugate_grid(grid_b, maximal_cfg)
    state = build_amplitudes(grid_a, grid_b, maximal_cfg)
    occupancy = np.count_nonzero(state.amplitudes**2, axis=0)
    assert np.array_equal(occupancy, np.ones(grid_b.size, dtype=int))
    # mode j of the conjugate grid is the partner of column j
    assert np.count_nonzero(np.diag(state.amplitudes)) == grid_b.size


def test_maximal_table_rejects_foreign_grid(maximal_cfg):
    # the conjugate grid fixes each partner by position, so the same
    # modes reordered, one angle one ulp off, or an extra mode fail too
    grid_b = camera_grid(RHO[1:], maximal_cfg)
    angles = conjugate_grid(grid_b, maximal_cfg)
    nudged = angles.copy()
    nudged[3] = np.nextafter(nudged[3], 0.0)
    for stranger in (line_grid(1e-4, n_modes=8), angles[::-1], nudged,
                     np.append(angles, 1e-3)):
        with pytest.raises(GridMismatch):
            build_amplitudes(stranger, grid_b, maximal_cfg)


def test_uncorrelated_table_is_a_product(uncorrelated_cfg):
    grid_b = camera_grid(RHO, uncorrelated_cfg)
    grid_a = dephasing_grid(uncorrelated_cfg, 32)
    state = build_amplitudes(grid_a, grid_b, uncorrelated_cfg)
    joint = state.amplitudes**2
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    assert np.allclose(joint, np.outer(pa, pb), atol=1e-15)
    # uniform a marginal by construction
    assert np.allclose(pa, 1.0 / grid_a.size, rtol=1e-12)


def test_partial_conditional_follows_ring_gaussian(partial_cfg):
    state, grid_a, grid_b = _partial_state(partial_cfg)
    k0p = 2.0 * math.pi / partial_cfg.lambda_p
    sigma = partial_cfg.sigma_theta
    j = grid_b.size - 1
    k_a = 2.0 * math.pi / partial_cfg.lambda_a
    k_b = 2.0 * math.pi / partial_cfg.lambda_b
    x_shift = k_a * grid_a + k_b * grid_b[j]
    theta_prime = x_shift / k0p
    expect = np.abs(theta_prime) * np.exp(-2.0 * theta_prime**2 / sigma**2)
    expect /= expect.sum()
    joint = state.amplitudes[:, j] ** 2
    assert np.allclose(joint / joint.sum(), expect, atol=1e-13)


def test_partial_model_requires_shell_parameters(partial_cfg):
    grid_b = camera_grid(RHO, partial_cfg)
    grid_a = shell_line_grid(partial_cfg, 1.5e-3, 32)
    cfg = dataclasses.replace(partial_cfg, sigma_theta=None)  # skips validate_config
    with pytest.raises(ValueError, match="sigma_theta"):
        build_amplitudes(grid_a, grid_b, cfg)


def test_empty_support_is_an_error(partial_cfg):
    grid_b = camera_grid(RHO, partial_cfg)
    # a-line ~90 shell widths out: exp(-2 theta'^2 / sigma^2) underflows to
    # exactly zero for every node, leaving no probability mass at all
    grid_a = np.array([0.08, 0.09])
    with pytest.raises(ValueError, match="underflowed"):
        build_amplitudes(grid_a, grid_b, partial_cfg)


def test_superpose_attaches_phases_and_amplitudes(partial_cfg):
    sup, grid_a, _ = _partial_state(partial_cfg)
    assert sup.config is partial_cfg
    assert sup.phase_a.shape == grid_a.shape
    # measured from the on-axis phase 2 pi n_a d_a / lambda_a, which cancels
    on_axis = 2.0 * math.pi * partial_cfg.n_a * partial_cfg.d_a / partial_cfg.lambda_a
    assert np.allclose(sup.phase_a, 0.5 * on_axis * grid_a**2, rtol=1e-15, atol=0.0)


def test_superpose_carries_source_phases(partial_cfg):
    cfg = make_config(phi1=0.3, phi2=1.1, phi_b=0.5)
    sup, _, _ = _partial_state(cfg)
    balanced, _, _ = _partial_state(partial_cfg)
    # the static phase phi_b + phi2 - phi1 shifts every a mode alike
    assert np.allclose(sup.phase_a, balanced.phase_a - (0.5 + 1.1 - 0.3), rtol=0.0, atol=1e-13)


def test_assemble_state_selects_model_grid(partial_cfg, maximal_cfg, uncorrelated_cfg):
    conjugate = conjugate_grid(camera_grid(RHO, maximal_cfg), maximal_cfg)
    assert np.all(conjugate <= 0.0)
    dephasing = dephasing_grid(uncorrelated_cfg, 32)
    assert dephasing.shape == (32,) and np.all(dephasing > 0.0)
    shell = shell_line_grid(partial_cfg, float(np.max(RHO)), 32)
    assert shell.shape == (32,) and np.array_equal(shell[1::2], -shell[0::2])
    for cfg, grid_a in ((maximal_cfg, conjugate), (uncorrelated_cfg, dephasing),
                        (partial_cfg, shell)):
        sup = assemble_state(cfg, RHO, n_modes=32)
        expect = build_amplitudes(grid_a, camera_grid(RHO, cfg), cfg)
        assert sup.amplitudes.shape == (grid_a.size, RHO.size)
        assert np.array_equal(sup.amplitudes, expect.amplitudes)
        assert np.array_equal(sup.phase_a, expect.phase_a)
        assert sup.config is cfg
