"""Brute-force camera counting rates by direct summation over the state.

Rates here are computed mode by mode from the real amplitude table and
the relative a-phase table of a
:class:`~twinfringes.state.SuperposedState`, with no closed-form
shortcuts, which makes this module the independent reference for
everything in :mod:`twinfringes.analytics`. All outputs share one
arbitrary positive scale; comparisons downstream are ratio-based.

The state's b grid is the set of camera columns: every function answers
with one value per column. A column's rate is one fringe term
A + Re(S e^{-i phi_0}), and each part of its phasor (A, S) is a sum over
the column identical to its ``math.fsum``. The sums of all columns run
as array passes of error-free extraction (Rump, Ogita and Oishi,
"Accurate floating-point summation part I", SIAM J. Sci. Comput. 31
(2008) 189); only their few exact partial sums go through ``math.fsum``.
"""

from __future__ import annotations

import math

import numpy as np

from .state import SuperposedState


class ZeroRate(ValueError):
    """Visibility undefined: the rate vanished at every scan phase."""


def _row_sums(rows: np.ndarray) -> np.ndarray:
    """``math.fsum`` of every row of a 2-D float array, bit for bit.

    Error-free extraction: with n entries a row, 2^M >= n + 2 and, per
    row, sigma = 2^(e + M) where the row's remaining max |x| < 2^e, both
    q = (sigma + x) - sigma and x - q are exact, and so is the sum of the
    q in any order. Each pass adds that sum to the row's exact partial
    sums and leaves the remainder x - q at most 2^(e + M - 53), so e
    falls by at least 52 - M bits a pass; once e <= -1022 - M, sigma's
    ulp is 2^-1074, q = x and the remainder is 0. A row is settled once
    fsum(partials - B) == fsum(partials + B), with B = 2 n max|x - q|
    bounding the remainder's sum: correct rounding is monotone, so that
    value is the row's ``math.fsum``. The phasor's rows settle in 2
    passes. As e starts at most 1023 - M, any row in the domain settles
    within ceil(2045 / (52 - M)) + 1 passes, when its remainder reaches
    0: 51, 54 and 60 at n = 1024, 8190 and 65536, and rows of +-2^e
    pairs across the domain plus 2^-1074 take all of them. A row still
    unsettled after that raises RuntimeError.

    Domain: finite entries below 2^(1023 - M) in magnitude (at least
    2^1010 for rows of up to 8190 entries), so that sigma cannot
    overflow; anything else raises ValueError.
    """
    # The remainders x and the extracted parts q share one block: as two
    # blocks of 393 kB each (at 1024 modes) they page-faulted back in on
    # every call.
    x, q = np.empty((2,) + np.shape(rows))
    x[...] = rows
    n = x.shape[1]
    m = (n + 1).bit_length()
    scale = float(1 << m)  # 2^M >= n + 2
    bound = np.maximum(x.max(axis=1), -x.min(axis=1))
    if not bound.max() < math.ldexp(1.0, 1023) / scale:
        raise ValueError(f"row sums need finite entries below 2**1023 / {scale:g}")
    partials = [[] for _ in bound]
    sums = [0.0] * len(partials)
    pending = range(len(partials))
    for _ in range(math.ceil(2045 / (52 - m)) + 1):
        sigma = np.ldexp(scale, np.frexp(bound)[1])[:, None]
        np.add(x, sigma, out=q)
        q -= sigma
        x -= q
        extracted = q.sum(axis=1).tolist()
        bound = np.maximum(x.max(axis=1), -x.min(axis=1))
        slack = (2.0 * n * bound).tolist()
        unsettled = []
        for i in pending:
            row = partials[i]
            row.append(extracted[i])
            sums[i] = math.fsum(row + [slack[i]])
            if math.fsum(row + [-slack[i]]) != sums[i]:
                unsettled.append(i)
        pending = unsettled
        if not pending:
            return np.array(sums)
    raise RuntimeError(f"row sums of {n} entries did not settle within the pass bound")


def _phasor(state: SuperposedState) -> tuple[np.ndarray, np.ndarray]:
    """Fringe phasor (A, S) of every b column of the state.

    A = (|a1|^2 + |a2|^2) sum_a C^2 and S = 2 |a1||a2| sum_a C^2 e^{i phase_a},
    with the source magnitudes read from the state's config and phase_a
    the state's relative a-phase table. The C^2, C^2 cos and C^2 sin
    terms of every column are the rows of one table, and each row's sum
    is identical to its ``math.fsum``: ``_row_sums`` takes all of them
    in the same array passes, in every model. Every term is at most 1 in
    magnitude, far inside its domain, and the sums settle in 2 passes.
    """
    a1, a2 = state.config.alpha1_mag, state.config.alpha2_mag
    rows = np.empty((3,) + state.amplitudes.T.shape)
    weights = np.square(state.amplitudes.T, out=rows[0])
    np.multiply(weights, np.cos(state.phase_a).T, out=rows[1])
    np.multiply(weights, np.sin(state.phase_a).T, out=rows[2])
    w, c, s = _row_sums(rows.reshape(-1, rows.shape[2])).reshape(3, -1)
    return (a1 * a1 + a2 * a2) * w, 2.0 * a1 * a2 * (c + 1j * s)


def counting_rate_reduced(state: SuperposedState, phi_0: float) -> np.ndarray:
    """Counting rate A + Re(S e^{-i phi_0}) of every b column at scan phase phi_0.

    That is sum_a C^2 { |a1|^2 + |a2|^2 + 2 |a1||a2| cos[phase_a - phi_0] },
    so phi_0 = 0 is the on-axis bright fringe of in-phase sources.
    """
    a, s = _phasor(state)
    return a + (s.real * math.cos(phi_0) + s.imag * math.sin(phi_0))


def sweep_visibility(rate_fn):
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
    column accordingly. It is the reference for rates that give no phasor.
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


def visibility_scan(state: SuperposedState):
    """Brute-force (visibility, rate, fringe) of every b column of the state.

    From one phasor per column: |S| / A clamped into [0, 1], the
    phi_0 = 0 rate A + Re S, and the complex fringe S / A, whose phase is
    the fringe's position in the scan phase.
    """
    a, s = _phasor(state)
    if np.any(a == 0.0):
        raise ZeroRate("rate is zero at every scan phase")
    return np.clip(np.abs(s) / a, 0.0, 1.0), a + s.real, s / a
