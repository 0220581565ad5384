"""Brute-force camera counting rates by direct summation over the state.

Rates here are computed mode by mode from the real amplitude table and
the a-path phase table of a :class:`~twinfringes.state.SuperposedState`,
with no closed-form shortcuts, which makes this module the independent
reference for everything in :mod:`twinfringes.analytics`. All outputs
share one arbitrary positive scale; comparisons downstream are
ratio-based.

Each function takes one camera column (or radius) or an array of them
and answers in kind: a float for a scalar, one value per entry for an
array. A scalar goes through the same array path, and every column's
rate is its own exact ``math.fsum``, so a column's value does not
depend on which other columns are asked for with it.
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


def counting_rate_reduced(state: SuperposedState, k_b, phi_0: float):
    """Counting rate at b mode ``k_b`` (an int or an index array).

    sum_a C^2 { |a1|^2 + |a2|^2 + 2 |a1||a2| cos[dphi_a - phi_0] }
    with the source magnitudes |a1|, |a2| read from the state's config,
    where dphi_a is the a phase less the state's ``phase_offset``, so
    phi_0 = 0 sits on the on-axis bright fringe. For balanced sources
    this is sum_a C^2 {1 + cos[dphi_a - phi_0]}. The fringe factor and
    C^2 of the requested columns are formed once; each column's rate
    is the exact ``math.fsum`` of its elementwise products. Returns a
    float for an int ``k_b``, else one rate per column.
    """
    a1 = state.config.alpha1_mag
    a2 = state.config.alpha2_mag
    weights = state.amplitudes.T[np.atleast_1d(k_b)] ** 2
    arg = state.phase_a - state.phase_offset - phi_0
    terms = weights * ((a1 * a1 + a2 * a2) + 2.0 * a1 * a2 * np.cos(arg))
    rates = [math.fsum(row.tolist()) for row in terms]
    return rates[0] if np.ndim(k_b) == 0 else np.array(rates)


def sweep_visibility(rate_fn: Callable[[float], object]):
    """Exact fringe visibility of a rate that is one sinusoid in phi_0.

    Every rate here has the form A + Re(S e^{-i phi_0}), whose visibility
    (max - min) / (max + min) is |S| / A. Sampling at phi_0 = 0, pi/2,
    pi, 3 pi/2 gives S = [(r0 - r2) + i (r1 - r3)] / 2 and A = mean(r),
    hence V = 2 hypot(r0 - r2, r1 - r3) / (r0 + r1 + r2 + r3), clamped
    into [0, 1]. The second harmonic r0 + r2 - r1 - r3 must vanish;
    ValueError flags a ``rate_fn`` that is not a single sinusoid.

    ``rate_fn`` returns a float or a 1-D array of rates (one per column);
    the formula is applied column by column with ``math.fsum`` and
    ``math.hypot``, and the result is a float or one visibility per
    column accordingly.
    """
    samples = [rate_fn(k * 0.5 * math.pi) for k in range(4)]
    visibilities = []
    for r0, r1, r2, r3 in zip(*(np.atleast_1d(r).tolist() for r in samples)):
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
        visibilities.append(min(max(visibility, 0.0), 1.0))
    return visibilities[0] if np.ndim(samples[0]) == 0 else np.array(visibilities)


def visibility_scan(state: SuperposedState, rho):
    """Brute-force (visibility, rate) at camera radius rho (a scalar or an array).

    Every radius must coincide (within half the local grid pitch) with
    one of the camera radii represented in the state's b grid; one
    off-grid radius raises ValueError. All radii are mapped to columns
    at once and go through one ``sweep_visibility``. The rate is the
    sweep's phi_0 = 0 sample, ``counting_rate_reduced`` at each radius's
    column. Returns two floats for a scalar rho, else one visibility and
    one rate per radius.
    """
    radii = state.grid_b.angles * state.config.f0
    wanted = np.atleast_1d(np.asarray(rho, dtype=float))
    k_b = np.argmin(np.abs(radii - wanted[:, np.newaxis]), axis=1)
    unique = np.unique(radii)
    pitch = float(np.min(np.diff(unique))) if unique.size > 1 else math.inf
    off_grid = np.abs(radii[k_b] - wanted) > max(0.5 * pitch, 1e-12)
    if off_grid.any():
        j = int(np.argmax(off_grid))
        raise ValueError(
            f"rho = {float(wanted[j])!r} m is not represented on the camera grid "
            f"(nearest column at {float(radii[k_b[j]])!r} m)"
        )
    samples = []

    def rate_at(phi_0: float):
        samples.append(counting_rate_reduced(state, k_b, phi_0))
        return samples[-1]

    visibility = sweep_visibility(rate_at)
    rate = samples[0]
    if np.ndim(rho) == 0:
        visibility, rate = float(visibility[0]), float(rate[0])
    return visibility, rate
