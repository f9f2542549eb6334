"""Special-function kernel for the truncated Fock space.

Provides physicists' Hermite polynomials, the harmonic-oscillator
(Fock-state) wavefunctions psi_n, and the normalized Gaussian-Hermite
bin integrals

    G[m, n] = integral_a^b psi_m(x) psi_n(x) dx,

which are the real building blocks of every discretized-homodyne POVM
matrix element.

``bin_overlaps`` is the library path.  It evaluates all bins of a grid in
closed form from the cumulative integrals F(x) = integral_{-inf}^x psi_m psi_n:
off-diagonal entries from the Wronskian of the oscillator equation, diagonal
entries from a ladder recurrence seeded by the error function, so one
evaluation of psi_0 .. psi_{n_max+1} at the bin edges gives every overlap.

``bin_overlap`` computes a single integral by adaptive Gauss-Legendre
quadrature with an absolute tolerance of 1e-12; infinite edges are truncated
at a point far beyond the classically allowed region.  It is independent of
the closed form and serves as the reference the tests compare it against.
"""

import math

import numpy as np

from .errors import QuadratureConvergenceError

__all__ = [
    "hermite_eval",
    "wavefunction",
    "bin_overlap",
    "bin_overlaps",
    "numeric_support",
    "DEFAULT_TOL",
]

# Absolute tolerance for all bin integrals.
DEFAULT_TOL = 1e-12

# Fixed 24-node Gauss-Legendre rule used for each adaptive panel.  24 nodes
# integrate polynomials up to degree 47 exactly, so a single panel already
# nails low-order Hermite products over moderate intervals.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)

# Hard cap on bisection depth; at tolerance 1e-12 convergence happens within
# a handful of levels, so hitting this indicates a genuinely bad integrand.
_MAX_DEPTH = 48


def hermite_eval(n, x):
    """Physicists' Hermite polynomial H_n(x) by the three-term recurrence.

    Uses H_{j+1}(x) = 2x H_j(x) - 2j H_{j-1}(x) starting from H_0 = 1,
    H_1 = 2x.  Accepts scalar or array ``x``.  Intended for n <= 64; the
    raw recurrence overflows for much larger orders.
    """
    if n < 0:
        raise ValueError("Hermite order must be non-negative, got %r" % (n,))
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if n == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = 2.0 * x
    for j in range(1, n):
        h, h_prev = 2.0 * x * h - 2.0 * j * h_prev, h
    return h if h.ndim else float(h)


def wavefunction(n, x):
    """Harmonic-oscillator eigenfunction psi_n(x) = (2^n n! sqrt(pi))^{-1/2} H_n(x) e^{-x^2/2}.

    Evaluated with the normalized recurrence

        psi_{j+1} = x sqrt(2/(j+1)) psi_j - sqrt(j/(j+1)) psi_{j-1},

    which keeps intermediate magnitudes O(1) and stays accurate for all
    supported orders (n <= 64), unlike forming 2^n n! explicitly.
    Accepts scalar or array ``x``.
    """
    if n < 0:
        raise ValueError("Fock index must be non-negative, got %r" % (n,))
    psi = _wavefunctions(n, np.asarray(x, dtype=float))[n]
    return psi if psi.ndim else float(psi)


def _wavefunctions(n_max, x):
    """psi_0 .. psi_{n_max} at the points x, stacked along a new first axis."""
    psi = np.empty((n_max + 1,) + x.shape)
    psi[0] = math.pi ** (-0.25) * np.exp(-0.5 * x * x)
    if n_max >= 1:
        psi[1] = x * math.sqrt(2.0) * psi[0]
    for j in range(1, n_max):
        psi[j + 1] = (
            x * math.sqrt(2.0 / (j + 1)) * psi[j] - math.sqrt(j / (j + 1)) * psi[j - 1]
        )
    return psi


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
        raise QuadratureConvergenceError(
            "bin integral (%d,%d) over [%g, %g] did not converge: "
            "achieved error %.3e > tolerance %.3e" % (m, n, a, b, err, tol),
            achieved_error=err,
        )
    return _adaptive(m, n, a, mid, 0.5 * tol, depth + 1) + _adaptive(
        m, n, mid, b, 0.5 * tol, depth + 1
    )


def _bin_overlap_truncated(m, n, a, b, tol):
    lo = max(a, -numeric_support(m, n))
    hi = min(b, numeric_support(m, n))
    if hi <= lo:
        # The requested interval lies entirely beyond the numeric support;
        # the integrand is zero to working precision there.
        return 0.0
    return _adaptive(m, n, lo, hi, tol, 0)


def bin_overlap(m, n, a, b, tol=DEFAULT_TOL):
    """Normalized Hermite-pair integral of psi_m psi_n over the bin [a, b].

    Parameters
    ----------
    m, n : int
        Fock indices (non-negative, <= 64).
    a, b : float
        Bin edges; ``-inf``/``+inf`` are allowed and are truncated at the
        numeric support of the integrand.  Requires a <= b.
    tol : float
        Absolute integration tolerance (default 1e-12).

    Returns
    -------
    float
        The integral, symmetric in (m, n).

    Raises
    ------
    QuadratureConvergenceError
        If the adaptive scheme cannot reach ``tol``; the error carries the
        achieved estimate.
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
    return _bin_overlap_truncated(m, n, a, b, float(tol))


def _cumulative_overlaps(n_max, x):
    """F[j, m, n] = integral_{-inf}^{x_j} psi_m psi_n for finite edges x_j.

    With psi_n' = sqrt(2n) psi_{n-1} - x psi_n (the ladder relation with
    psi_{n+1} eliminated) the Wronskian identity
    (psi_m psi_n' - psi_m' psi_n)' = 2(m - n) psi_m psi_n gives every
    off-diagonal entry.  The diagonal follows from integrating
    (psi_n psi_{n-1})' = sqrt(n/2)(psi_{n-1}^2 - psi_n^2)
    - sqrt((n+1)/2) psi_{n+1} psi_{n-1} + sqrt((n-1)/2) psi_n psi_{n-2},
    seeded by F_00 = (1 + erf x)/2; the recurrence needs the off-diagonal
    entries one order above n_max, hence psi up to n_max + 1.
    """
    top = n_max + 2
    psi = _wavefunctions(n_max + 1, x)
    lowered = np.zeros_like(psi)  # sqrt(2n) psi_{n-1}
    lowered[1:] = np.sqrt(2.0 * np.arange(1, top))[:, None] * psi[:-1]
    # W[j, m, n] = psi_m sqrt(2n) psi_{n-1} - sqrt(2m) psi_{m-1} psi_n, exactly antisymmetric.
    A = psi.T[:, :, None] * lowered.T[:, None, :]
    W = A - A.transpose(0, 2, 1)
    idx = np.arange(top)
    gap = 2.0 * (idx[:, None] - idx[None, :])
    np.fill_diagonal(gap, 1.0)
    F = W / gap
    F[:, 0, 0] = 0.5 * (1.0 + np.array([math.erf(v) for v in x]))
    for n in range(1, n_max + 1):
        ladder = psi[n] * psi[n - 1] + math.sqrt((n + 1) / 2.0) * F[:, n + 1, n - 1]
        if n >= 2:
            ladder -= math.sqrt((n - 1) / 2.0) * F[:, n, n - 2]
        F[:, n, n] = F[:, n - 1, n - 1] - ladder / math.sqrt(n / 2.0)
    d = n_max + 1
    return F[:, :d, :d]


def bin_overlaps(n_max, edges):
    """All bin overlaps G[i, m, n] = integral_{x_i}^{x_{i+1}} psi_m psi_n in closed form.

    Parameters
    ----------
    n_max : int
        Fock cutoff (0 <= n_max <= 64); the blocks are (n_max+1) x (n_max+1).
    edges : array_like
        M+1 non-decreasing bin edges; the first may be ``-inf`` and the last
        ``+inf`` (the cumulative integrals there are 0 and the identity).

    Returns
    -------
    ndarray
        Real array of shape (M, n_max+1, n_max+1), each block exactly
        symmetric, computed as differences of the cumulative integrals at
        consecutive edges.
    """
    n_max = int(n_max)
    if not 0 <= n_max <= 64:
        raise ValueError("n_max must lie in the supported envelope 0..64, got %d" % n_max)
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("need at least two bin edges, got shape %r" % (edges.shape,))
    if np.any(np.isnan(edges)) or np.any(np.diff(edges) < 0):
        raise ValueError("bin edges must be non-decreasing")
    d = n_max + 1
    F = np.empty((edges.size, d, d))
    finite = np.isfinite(edges)
    F[finite] = _cumulative_overlaps(n_max, edges[finite])
    F[edges == -np.inf] = 0.0
    F[edges == np.inf] = np.eye(d)
    return F[1:] - F[:-1]
