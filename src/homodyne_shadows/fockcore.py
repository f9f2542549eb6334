"""Special-function kernel for the truncated Fock space.

Provides the harmonic-oscillator (Fock-state) wavefunctions psi_n and the
normalized Gaussian-Hermite bin integrals

    G[m, n] = integral_a^b psi_m(x) psi_n(x) dx,

which are the real building blocks of every discretized-homodyne POVM
matrix element.

``bin_overlaps`` evaluates all bins of a grid in closed form from the
cumulative integrals F(x) = integral_{-inf}^x psi_m psi_n: off-diagonal
entries from the Wronskian of the oscillator equation, diagonal entries
from the two-term ladder identity (psi_n psi_{n-1})' =
sqrt(2n)(psi_{n-1}^2 - psi_n^2) seeded by the error function, so one
evaluation of psi_0 .. psi_{n_max} at the bin edges gives every overlap.
``bin_overlap`` reads one entry of it.  The tests check the closed form
against an independent adaptive quadrature kept beside them.
"""

import math

import numpy as np

from .errors import _whole

__all__ = [
    "wavefunction",
    "bin_overlap",
    "bin_overlaps",
]


def wavefunction(n, x):
    """Harmonic-oscillator eigenfunction psi_n(x) = (2^n n! sqrt(pi))^{-1/2} H_n(x) e^{-x^2/2}.

    Evaluated with the normalized recurrence

        psi_{j+1} = x sqrt(2/(j+1)) psi_j - sqrt(j/(j+1)) psi_{j-1},

    which keeps intermediate magnitudes O(1), unlike forming 2^n n!
    explicitly.  ``test_envelope_matches_quadrature_about_the_turning_point``
    in tests/test_fockcore.py is its evidence for n <= 64.  Accepts scalar
    or array ``x``.
    """
    n = _whole(n, "Fock index n")
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


def bin_overlap(m, n, a, b):
    """Normalized Hermite-pair integral of psi_m psi_n over the bin [a, b].

    One entry of :func:`bin_overlaps`, exact to roundoff.  It serves callers
    that want a single integral, such as a per-call timing probe; a grid of
    bins is cheaper through ``bin_overlaps`` directly.

    Parameters
    ----------
    m, n : int
        Fock indices (0 <= m, n <= 64).
    a, b : float
        Bin edges with a <= b; ``-inf``/``+inf`` are allowed.

    Returns
    -------
    float
        The integral, symmetric in (m, n).

    Raises
    ------
    ValueError
        For an index that is not a whole number in 0..64, and for NaN or
        reversed edges.
    """
    m, n = _whole(m, "Fock index m", 0, 64), _whole(n, "Fock index n", 0, 64)
    return float(bin_overlaps(max(m, n), [a, b])[0, m, n])


def _cumulative_overlaps(n_max, x):
    """F[j, m, n] = integral_{-inf}^{x_j} psi_m psi_n for finite edges x_j.

    The ladder relations psi_n' = sqrt(2n) psi_{n-1} - x psi_n and
    psi_{n-1}' = x psi_{n-1} - sqrt(2n) psi_n give the Wronskian identity
    (psi_m psi_n' - psi_m' psi_n)' = 2(m - n) psi_m psi_n for every
    off-diagonal entry, and (psi_n psi_{n-1})' = sqrt(2n)(psi_{n-1}^2 - psi_n^2)
    for the diagonal: F_nn = F_{n-1,n-1} - psi_n psi_{n-1} / sqrt(2n), seeded
    by F_00 = (1 + erf x)/2.  Both need psi up to n_max only.
    """
    d = n_max + 1
    psi = _wavefunctions(n_max, x)
    lowered = np.zeros_like(psi)  # sqrt(2n) psi_{n-1}
    lowered[1:] = np.sqrt(2.0 * np.arange(1, d))[:, None] * psi[:-1]
    # W[j, m, n] = psi_m sqrt(2n) psi_{n-1} - sqrt(2m) psi_{m-1} psi_n, exactly
    # antisymmetric, built in place (numpy copies the overlapping operand once).
    F = psi.T[:, :, None] * lowered.T[:, None, :]
    F -= F.transpose(0, 2, 1)
    idx = np.arange(d)
    gap = 2.0 * (idx[:, None] - idx[None, :])
    np.fill_diagonal(gap, 1.0)
    F /= gap
    F[:, 0, 0] = 0.5 * (1.0 + np.array([math.erf(v) for v in x]))
    for n in range(1, d):
        F[:, n, n] = F[:, n - 1, n - 1] - psi[n] * psi[n - 1] / math.sqrt(2.0 * n)
    return F


def bin_overlaps(n_max, edges):
    """Every bin overlap G[i, m, n] = integral_{x_i}^{x_{i+1}} psi_m psi_n in closed form.

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
        consecutive edges.  Beyond it a call holds one stack of those
        integrals, (M+1, n_max+1, n_max+1), and while the stack is built a
        copy of it.
    """
    n_max = _whole(n_max, "n_max", 0, 64)
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("need at least two bin edges, got shape %r" % (edges.shape,))
    if np.any(np.isnan(edges)) or np.any(np.diff(edges) < 0):
        raise ValueError("bin edges must be non-decreasing")
    # Infinite edges are evaluated at 0, then overwritten with their limits.
    F = _cumulative_overlaps(n_max, np.where(np.isfinite(edges), edges, 0.0))
    F[edges == -np.inf] = 0.0
    F[edges == np.inf] = np.eye(n_max + 1)
    return F[1:] - F[:-1]
