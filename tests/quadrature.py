"""Adaptive Gauss-Legendre quadrature of the Hermite-pair bin integrals.

    bin_overlap(m, n, a, b) = integral_a^b psi_m(x) psi_n(x) dx

to an absolute tolerance of 1e-12.  It is the independent reference the
tests hold ``fockcore.bin_overlaps`` (the closed form) against, so it
imports nothing from ``homodyne_shadows``: psi_m psi_n comes from its own
normalized recurrence.  Infinite edges are truncated at a point far beyond
the classically allowed region.
"""

import math

import numpy as np

# Absolute tolerance for all bin integrals.
DEFAULT_TOL = 1e-12

# Fixed 24-node Gauss-Legendre rule used for each adaptive panel.  24 nodes
# integrate polynomials up to degree 47 exactly, so a single panel already
# nails low-order Hermite products over moderate intervals.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)

# Hard cap on bisection depth; at tolerance 1e-12 convergence happens within
# a handful of levels, so hitting this indicates a genuinely bad integrand.
_MAX_DEPTH = 48


def numeric_support(m, n):
    """Truncation point substituting for infinite integration limits.

    The Hermite function psi_n has essentially all its mass inside the
    classically allowed region |x| < sqrt(2n+1); ten extra units of
    quadrature put the integrand magnitude far below 1e-12 resolution
    for every order up to 64.
    """
    return math.sqrt(2.0 * max(m, n) + 1.0) + 10.0


def _pair_values(m, n, x):
    """psi_m(x) * psi_n(x) for an array x, from one upward recurrence."""
    hi = max(m, n)
    psi_prev = math.pi ** (-0.25) * np.exp(-0.5 * x * x)
    psi = x * math.sqrt(2.0) * psi_prev if hi >= 1 else psi_prev
    kept = {}
    if m == 0 or n == 0:
        kept[0] = psi_prev
    if hi >= 1 and (m == 1 or n == 1):
        kept[1] = psi
    for j in range(1, hi):
        psi, psi_prev = (
            x * math.sqrt(2.0 / (j + 1)) * psi - math.sqrt(j / (j + 1)) * psi_prev,
            psi,
        )
        if j + 1 == m or j + 1 == n:
            kept[j + 1] = psi
    return kept[m] * kept[n]


def _panel(m, n, a, b):
    """24-node Gauss-Legendre estimate of the pair integral over [a, b]."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * _GL_NODES
    return half * float(np.dot(_GL_WEIGHTS, _pair_values(m, n, x)))


def _adaptive(m, n, a, b, tol, depth):
    """Recursive panel bisection: accept when whole vs. split agree within tol."""
    whole = _panel(m, n, a, b)
    mid = 0.5 * (a + b)
    left = _panel(m, n, a, mid)
    right = _panel(m, n, mid, b)
    refined = left + right
    err = abs(whole - refined)
    if err <= tol:
        return refined
    if depth >= _MAX_DEPTH:
        raise RuntimeError(
            "bin integral (%d,%d) over [%g, %g] did not converge: "
            "achieved error %.3e > tolerance %.3e" % (m, n, a, b, err, tol)
        )
    return _adaptive(m, n, a, mid, 0.5 * tol, depth + 1) + _adaptive(
        m, n, mid, b, 0.5 * tol, depth + 1
    )


def bin_overlap(m, n, a, b, tol=DEFAULT_TOL):
    """Integral of psi_m psi_n over [a, b], symmetric in (m, n).

    ``a`` and ``b`` may be infinite and must satisfy a <= b; ``tol`` is the
    absolute tolerance.  Raises ``RuntimeError``, naming the achieved error,
    when the bisection cannot reach ``tol``.
    """
    if m < 0 or n < 0:
        raise ValueError("Fock indices must be non-negative, got (%r, %r)" % (m, n))
    a = float(a)
    b = float(b)
    if a > b:
        raise ValueError("bin edges must satisfy a <= b, got a=%g > b=%g" % (a, b))
    if a == b:
        return 0.0
    if m > n:
        m, n = n, m  # the integrand is symmetric; integrate one ordering
    lo = max(a, -numeric_support(m, n))
    hi = min(b, numeric_support(m, n))
    if hi <= lo:
        # The requested interval lies entirely beyond the numeric support;
        # the integrand is zero to working precision there.
        return 0.0
    return _adaptive(m, n, lo, hi, float(tol), 0)
