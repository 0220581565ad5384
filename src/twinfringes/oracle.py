"""Brute-force camera counting rates by direct summation over the state.

Rates here are computed mode by mode from the amplitude table with no
closed-form shortcuts, which makes this module the independent reference
for everything in :mod:`twinfringes.analytics`. All outputs share one
arbitrary positive scale; comparisons downstream are ratio-based.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .state import SuperposedState


class UnequalAmplitudes(ValueError):
    """Oracle check requested for sources that do not emit equally."""


class ZeroRate(ArithmeticError):
    """Visibility undefined: the rate vanished at every scan phase."""


def counting_rate_reduced(state: SuperposedState, k_b: int, phi_0: float) -> float:
    """Counting rate at one b mode, with both source amplitudes kept general.

    sum_a |C|^2 { |a1|^2 + |a2|^2 + 2 |a1||a2| cos[dphi_a - phi_0] }
    where dphi_a is the a phase less the state's ``phase_offset``, so
    phi_0 = 0 sits on the on-axis bright fringe. For balanced sources
    this is sum_a |C|^2 {1 + cos[dphi_a - phi_0]}. Accumulated with
    compensated summation.
    """
    a1 = abs(state.alpha1)
    a2 = abs(state.alpha2)
    weights = np.abs(state.base.amplitudes[:, k_b]) ** 2
    arg = state.phase_a - state.phase_offset - phi_0
    return math.fsum(weights * ((a1 * a1 + a2 * a2) + 2.0 * a1 * a2 * np.cos(arg)))


def sweep_visibility(rate_fn: Callable[[float], float]) -> float:
    """Exact fringe visibility of a rate that is one sinusoid in phi_0.

    Every rate here has the form A + Re(S e^{-i phi_0}), whose visibility
    (max - min) / (max + min) is |S| / A. Sampling at phi_0 = 0, pi/2,
    pi, 3 pi/2 gives S = [(r0 - r2) + i (r1 - r3)] / 2 and A = mean(r),
    hence V = 2 hypot(r0 - r2, r1 - r3) / (r0 + r1 + r2 + r3), clamped
    into [0, 1]. The second harmonic r0 + r2 - r1 - r3 must vanish;
    ValueError flags a ``rate_fn`` that is not a single sinusoid.
    """
    r0, r1, r2, r3 = (rate_fn(k * 0.5 * math.pi) for k in range(4))
    total = math.fsum((r0, r1, r2, r3))
    if total == 0.0:
        raise ZeroRate("rate is zero at every scan phase")
    harmonic = abs(r0 + r2 - r1 - r3)
    if harmonic > 1e-9 * abs(total):
        raise ValueError(
            f"rate is not a single sinusoid in phi_0 (second harmonic {harmonic!r} "
            f"against a summed rate of {total!r})"
        )
    visibility = 2.0 * math.hypot(r0 - r2, r1 - r3) / total
    return min(max(visibility, 0.0), 1.0)


def visibility_scan(state: SuperposedState, rho: float) -> float:
    """Brute-force visibility at camera radius rho from the grid rate.

    rho must coincide (within half the local grid pitch) with one of the
    camera radii represented in the state's b grid.
    """
    radii = state.base.grid_b.mode_thetas() * state.config.f0
    k_b = int(np.argmin(np.abs(radii - rho)))
    unique = np.unique(radii)
    pitch = float(np.min(np.diff(unique))) if unique.size > 1 else math.inf
    if abs(radii[k_b] - rho) > max(0.5 * pitch, 1e-12):
        raise ValueError(
            f"rho = {rho!r} m is not represented on the camera grid "
            f"(nearest column at {radii[k_b]!r} m)"
        )
    return sweep_visibility(lambda p: counting_rate_reduced(state, k_b, p))
