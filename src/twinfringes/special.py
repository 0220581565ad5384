"""Complex error functions, the order -2 parabolic cylinder function,
and adaptive radial quadrature.

Everything here is a stateless pure function; all of them are safe to
call concurrently. The complex substrate is the Faddeeva function
``w(z) = exp(-z^2) erfc(-iz)``; erfc and D_{-2} are thin closed-form
layers on top of it, so they share one accuracy budget. No scipy
module is loaded at import: ``scipy.special.wofz`` is bound on the
first Faddeeva evaluation, and scipy.integrate on the first call of
the quadrature, the independent reference route. Importing the package
and running the maximal and uncorrelated models therefore need no
scipy at all.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

_SQRT_PI_OVER_2 = math.sqrt(math.pi / 2.0)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Subdivision cap for the adaptive quadrature; exceeding it (or failing
# the requested tolerance) raises ToleranceNotReached.
_QUAD_LIMIT = 200


def _wofz(z):
    """scipy.special.wofz, bound on first use.

    The first call imports the ufunc and rebinds this module-level name
    to it, so every later lookup of ``_wofz`` reaches the ufunc directly
    with no per-call import. Concurrent first calls bind the same ufunc.
    """
    global _wofz
    from scipy.special import wofz as _wofz

    return _wofz(z)


class ToleranceNotReached(RuntimeError):
    """Adaptive quadrature could not certify the requested tolerance."""

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


def faddeeva(z: complex) -> complex:
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz).

    Relative accuracy is 1e-12 or better for |z| <= 10, inherited from
    the underlying implementation (scipy wraps the MIT Faddeeva package,
    which switches between a Taylor series and continued-fraction
    expansions depending on the region).

    Raises
    ------
    OverflowError
        When the exact value exceeds the representable range, which
        happens deep in the lower half-plane.
    """
    out = complex(_wofz(complex(z)))
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise OverflowError(f"faddeeva overflow at z = {z!r}")
    return out


def erfc_complex(z: complex) -> complex:
    """Complementary error function continued to complex arguments.

    Computed as ``exp(-z^2) w(iz)`` in the right half-plane and by the
    reflection ``erfc(z) = 2 - erfc(-z)`` in the left half-plane, which
    keeps the exp factor decaying. Relative accuracy 1e-10 for |z| <= 8.
    """
    z = complex(z)
    if z.real < 0.0:
        return 2.0 - erfc_complex(-z)
    return cmath.exp(-z * z) * faddeeva(1j * z)


def parabolic_cylinder_Dm2(z: complex) -> complex:
    """Parabolic cylinder function D_{-2}(z).

    Uses the closed form in the complementary error function,

        D_{-2}(z) = exp(-z^2/4) - z exp(z^2/4) sqrt(pi/2) erfc(z/sqrt(2)),

    evaluated in the factored shape
    ``exp(-z^2/4) * (1 - z sqrt(pi/2) w(iz/sqrt(2)))`` so that only one
    exponential appears and the growing factor never materializes.
    Relative accuracy 1e-10 for |z| <= 8.
    """
    z = complex(z)
    bracket = 1.0 - z * _SQRT_PI_OVER_2 * faddeeva(1j * z * _INV_SQRT2)
    out = cmath.exp(-0.25 * z * z) * bracket
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise OverflowError(f"parabolic_cylinder_Dm2 overflow at z = {z!r}")
    return out


def dm2_pair_scaled(z):
    """Br(z) = e^{z^2/4} [D_{-2}(z) + D_{-2}(-z)], for a scalar or an array.

    Evaluated through the erfc form of D_{-2} as

        Br(z) = 2 - z sqrt(pi/2) [w(iz/sqrt 2) - w(-iz/sqrt 2)],

    so the counter-growing exponentials of the two D_{-2} terms never
    meet. Even in z; Br(0) = 2. Non-finite input gives non-finite
    output rather than an exception.
    """
    zeta = 1j * z * _INV_SQRT2
    return 2.0 - z * _SQRT_PI_OVER_2 * (_wofz(zeta) - _wofz(-zeta))


def integrate_radial(
    f: Callable[[float], float],
    lower: float,
    upper: float,
    abs_tol: float,
    *,
    with_error: bool = False,
) -> float | tuple[float, float]:
    """Adaptive quadrature of ``f`` over [lower, upper].

    Deterministic for fixed inputs. The result is certified to carry an
    estimated absolute error of at most ``abs_tol``; if the estimator
    cannot get there within the refinement budget, ToleranceNotReached
    is raised instead of silently returning a worse value.

    Parameters
    ----------
    f : callable
        Real integrand, finite on the interval.
    lower, upper : float
        Integration limits, lower < upper.
    abs_tol : float
        Absolute error target.
    with_error : bool, keyword only
        When true, return ``(value, error_estimate)`` instead of the
        bare value. Used by refinement-behavior tests.
    """
    if not lower < upper:
        raise ValueError(f"empty integration interval [{lower}, {upper}]")
    if abs_tol <= 0.0:
        raise ValueError("abs_tol must be positive")
    from scipy import integrate

    out = integrate.quad(f, lower, upper, epsabs=abs_tol, epsrel=0.0, limit=_QUAD_LIMIT, full_output=1)
    value, estimate = out[0], out[1]
    if len(out) > 3:  # QUADPACK appended a warning message
        raise ToleranceNotReached(
            f"quadrature did not converge on [{lower}, {upper}]: {out[3]}", estimate
        )
    if estimate > abs_tol:
        raise ToleranceNotReached(
            f"quadrature error estimate {estimate:.3e} exceeds abs_tol {abs_tol:.3e}", estimate
        )
    if with_error:
        return value, estimate
    return value
