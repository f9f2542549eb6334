"""Discretized-homodyne POVM over a truncated Fock space.

A measurement setting is a uniform grid of ``N`` local-oscillator phases
theta_k = 2*pi*k/N together with ``M`` quadrature bins.  The POVM element
for outcome "bin i at phase k" has Fock matrix elements

    Pi_{i,k}[m, n] = (1/N) * exp(1j*(m - n)*theta_k) * G_i[m, n],

where G_i[m, n] is the Gaussian-Hermite overlap of the bin (``fockcore``).
The 1/N factor is the probability of selecting phase k, so that summing an
element over bins gives identity/N per phase and the full set resolves the
identity on the truncated space (exactly so in extend-tails mode).

Because the phases form a uniform grid, a discrete Fourier transform over k
block-diagonalizes every quantity built from the elements: entries (m, n)
only couple to entries (m', n') with m - n = m' - n' (mod N).  This module
stores G, the real bin overlaps, exactly symmetric, and splits the weighted
measurement matrix into small real blocks (``_phase_blocks``).  Class N - r
holds the transposes of class r's entries, so by the symmetry of G the two
classes share one block; each POVM takes one thin SVD per mirror pair
r <-> N - r (``PovmSet._svd``), which certifies completeness here and gives
the frame, inverse and snapshots of ``shadow``.  A POVM that
:func:`design_bins` certified is built and decomposed once: a later build
from the same parameters adopts its G and SVD.  Every sum over outcomes
goes through one pairing of a matrix with all outcomes, read by diagonal
(``_pairing``), or its adjoint (``_adjoint``); the adjoint and an element
built on request read one Toeplitz view of the offset phases (``_toeplitz``).
It also designs bin edges that achieve completeness and saves a POVM as a
versioned JSON file of its defining parameters (cutoff, phase count, bin
edges and tail mode), from which ``build_povm`` rebuilds it.
"""

import functools
import json
import math
import warnings

import numpy as np

from . import fockcore
from .errors import BinDesignError, CacheKeyMismatchError, _whole

__all__ = [
    "TAIL_EXTEND",
    "TAIL_STRICT",
    "PhaseGrid",
    "BinningScheme",
    "PovmSet",
    "build_povm",
    "is_informationally_complete",
    "ICReport",
    "sufficient_condition",
    "necessary_condition",
    "default_half_width",
    "design_bins",
    "normalization_residual",
    "save_povm",
    "load_parameters",
    "povm_cache_key",
]

TAIL_EXTEND = "extend-tails"
TAIL_STRICT = "strict-finite"
_TAIL_MODES = (TAIL_EXTEND, TAIL_STRICT)

DEFAULT_RANK_RTOL = 1e-10
CACHE_VERSION = 2

# The PovmSet that design_bins last certified, whose G and SVD a PovmSet of
# the same parameters adopts.  One slot: it holds the last design only.
_designed = None

# Fractional offset applied to the right end of equal-spaced bin intervals.
# An exactly mirror-symmetric grid makes whole families of POVM columns
# linearly dependent (the parity x -> -x maps the bin set onto itself), which
# caps the measurement-matrix rank below (n_max+1)^2 whenever M < 2*n_max+1.
# Stretching the interval to [-L, L + offset*(2L/M)] breaks the symmetry
# deterministically while keeping the bins equal-spaced and covering [-L, L].
EDGE_OFFSET_FRACTION = (math.sqrt(5.0) - 1.0) / 2.0


class PhaseGrid:
    """Uniform local-oscillator phase grid theta_k = 2*pi*k/N, k = 0..N-1."""

    def __init__(self, N):
        self.N = _whole(N, "phase count N", 1)

    def theta(self, k):
        """Phase angle of grid point k (radians)."""
        return 2.0 * math.pi * _whole(k, "phase index k", 0, self.N - 1) / self.N

    @property
    def thetas(self):
        """All phases as an array of length N."""
        return 2.0 * math.pi * np.arange(self.N) / self.N

    def __repr__(self):
        return "PhaseGrid(N=%d)" % self.N

    def __eq__(self, other):
        return isinstance(other, PhaseGrid) and other.N == self.N


class BinningScheme:
    """Quadrature bins: edges x_1 < ... < x_{M+1} and a tail policy.

    Parameters
    ----------
    edges : array_like
        M+1 strictly increasing finite bin edges.  Bin i spans the
        right-open interval [x_i, x_{i+1}).
    tail_mode : str
        ``"extend-tails"`` (default): for integration purposes the first bin
        absorbs (-inf, x_2) and the last [x_M, +inf), so the POVM resolves
        identity/N per phase exactly.  ``"strict-finite"``: bins are taken
        literally, leaving Gaussian tail mass unmeasured.

    The estimator weights w_i of the frame are the nominal (finite) bin
    widths, whatever the tail mode.  Other positive weights would pick
    another dual frame, just as unbiased, but on these designs they barely
    move the shadow norm, so the edges alone fix the estimator.
    """

    def __init__(self, edges, tail_mode=TAIL_EXTEND):
        edges = np.asarray(edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("need at least two bin edges, got shape %r" % (edges.shape,))
        if not np.all(np.isfinite(edges)):
            raise ValueError("bin edges must be finite; tail handling is set by tail_mode")
        if not np.all(np.diff(edges) > 0):
            raise ValueError("bin edges must be strictly increasing")
        if tail_mode not in _TAIL_MODES:
            raise ValueError("tail_mode must be one of %r, got %r" % (_TAIL_MODES, tail_mode))
        self.edges = edges.copy()
        self.edges.setflags(write=False)
        self.tail_mode = tail_mode

    @property
    def M(self):
        """Number of bins."""
        return self.edges.size - 1

    @property
    def widths(self):
        """Nominal finite bin widths x_{i+1} - x_i, the estimator weights."""
        return np.diff(self.edges)

    def integration_edges(self):
        """Edges actually used for the overlap integrals.

        In extend-tails mode the outer edges are pushed to +-infinity so the
        edge bins absorb the Gaussian tails.
        """
        eff = np.array(self.edges, dtype=float)
        if self.tail_mode == TAIL_EXTEND:
            eff[0] = -np.inf
            eff[-1] = np.inf
        return eff

    @classmethod
    def equal_spaced(cls, M, half_width, tail_mode=TAIL_EXTEND):
        """Equal-spaced bins covering [-L, L] with a deterministic stretch.

        The M+1 edges run from -L to L + c*(2L/M) with c irrational
        (c = (sqrt(5)-1)/2), i.e. the grid is shifted off exact mirror
        symmetry by a fixed fraction of one bin width.  Exactly centered
        grids suffer a parity-induced rank degeneracy that blocks
        informational completeness at small M; the stretched grid keeps
        equal spacing and full coverage of [-L, L] while avoiding it.
        """
        M = _whole(M, "bin count M", 1)
        L = float(half_width)
        if not 0 < L < math.inf:
            raise ValueError("half_width must be finite and positive, got %g" % L)
        hi = L + EDGE_OFFSET_FRACTION * (2.0 * L / M)
        edges = np.linspace(-L, hi, M + 1)
        return cls(edges, tail_mode=tail_mode)

    def __repr__(self):
        return "BinningScheme(M=%d, range=[%g, %g], tail_mode=%r)" % (
            self.M,
            self.edges[0],
            self.edges[-1],
            self.tail_mode,
        )

    def __eq__(self, other):
        return (
            isinstance(other, BinningScheme)
            and other.tail_mode == self.tail_mode
            and np.array_equal(other.edges, self.edges)
        )


class PovmSet:
    """All M*N POVM elements for one (grid, binning, n_max) configuration.

    The POVM is held as the read-only real overlap array ``G`` of shape
    (M, n_max+1, n_max+1), the closed form of :func:`fockcore.bin_overlaps`
    over the binning's integration edges; the complex matrix of outcome
    (i, k) is G_i exp(1j*(m-n)*theta_k)/N, built on request by
    ``element(i, k)``.  Every G_i is exactly symmetric, so every element is
    Hermitian.  When the cutoff, phase count, edges and tail mode are those
    of the POVM that :func:`design_bins` last certified, the new object
    shares that POVM's read-only G and SVD instead of computing them.
    """

    def __init__(self, grid, binning, n_max):
        self.grid = grid
        self.binning = binning
        self.n_max = _whole(n_max, "n_max", 0, fockcore._N_MAX)
        designed = _designed
        if designed is not None and self._difference(designed) is None:
            self.G, self._svd = designed.G, designed._svd
            return
        self.G = fockcore.bin_overlaps(n_max, binning.integration_edges())
        self.G.setflags(write=False)

    @functools.cached_property
    def _svd(self):
        """Read-only thin SVD (vec_index, U, s, Wt) of each ``_phase_blocks`` block.

        Computed on first use; the IC check, frame, inverse and snapshots read it.
        """
        pairs = []
        for idx, B in _phase_blocks(self):
            U, s, Wt = np.linalg.svd(B, full_matrices=False)
            for a in (U, s, Wt):
                a.setflags(write=False)
            pairs.append((idx, U, s, Wt))
        return tuple(pairs)

    @property
    def dim(self):
        """Truncated Fock-space dimension n_max + 1."""
        return self.n_max + 1

    @property
    def n_outcomes(self):
        """Total outcome count M*N."""
        return self.binning.M * self.grid.N

    def element(self, i, k):
        """The complex d x d matrix of outcome (bin i, phase k)."""
        return _outcome_matrix(self.G, self.grid, i, k)

    @property
    def cache_key(self):
        """Content hash of the cutoff, phase count, edges and tail mode.

        These fix G and the weights, so equal keys mean equal POVMs (``__eq__``).
        """
        return povm_cache_key(
            self.n_max, self.grid.N, self.binning.edges, self.binning.tail_mode
        )

    def _difference(self, other):
        """The first defining part in which POVM ``other`` differs from this one, or None."""
        b, c = self.binning, other.binning
        for part, x, y in (
            ("cutoffs", self.n_max, other.n_max),
            ("phase grids", self.grid.N, other.grid.N),
            ("bin edges", b.edges, c.edges),
            ("tail modes", b.tail_mode, c.tail_mode),
        ):
            if not np.array_equal(x, y):
                return part
        return None

    def __eq__(self, other):
        """The same POVM: the same cutoff, phase grid and binning (edges, tail mode)."""
        if not isinstance(other, PovmSet):
            return NotImplemented
        return self._difference(other) is None

    __hash__ = None

    def _require(self, other, what):
        """Raise ``ValueError`` unless ``other == self``; ``what`` names what ``other`` built."""
        part = self._difference(other)
        if part is not None:
            raise ValueError(
                "%s comes from another POVM than %r: their %s differ (cutoff, phase grid "
                "and binning (edges, tail mode) must all match)"
                % (what, self, part)
            )

    def __repr__(self):
        return "PovmSet(n_max=%d, N=%d, M=%d, tail_mode=%r)" % (
            self.n_max,
            self.grid.N,
            self.binning.M,
            self.binning.tail_mode,
        )


def build_povm(grid, binning, n_max):
    """Construct the POVM set for a phase grid and binning at cutoff n_max.

    Element (i, k) has matrix entries
    (1/N) * exp(1j*(m-n)*theta_k) * G_i[m, n] with the closed-form overlaps
    G_i of :func:`fockcore.bin_overlaps`; in extend-tails mode the first/last
    bins integrate from -inf/to +inf while the estimator weights keep their
    nominal finite values.
    """
    return PovmSet(grid, binning, n_max)


@functools.lru_cache(maxsize=32)
def _phase_classes(d, N):
    """Read-only vec positions of each mirror pair of classes r <-> N - r, r = 0..N//2.

    Only the classes that hold an entry are listed, r = 0..min(N//2, d-1):
    the smallest |m - n| in a class r <= N/2 is r.

    Row 0 lists class r's column-stacked positions m + n*d in row-major
    (m, n) order; when N - r != r, row 1 lists the mirror class's positions
    n + m*d of the transposed entries in the same order.
    """
    m, n = np.indices((d, d))
    cls = (m - n) % N
    pairs = []
    # Not np.unique(cls), which loads numpy.ma (+1.2 MB RSS) on first call.
    for r in range(min(N // 2, d - 1) + 1):
        sel = cls == r
        rows = [m[sel] + n[sel] * d, n[sel] + m[sel] * d]
        idx = np.array(rows[: 2 if 0 < 2 * r < N else 1])
        idx.setflags(write=False)
        pairs.append(idx)
    return tuple(pairs)


def _phase_blocks(povm):
    """Yield (vec_index, B) for each mirror pair of classes r = (m - n) mod N.

    The measurement matrix E has column k*M + i = vec(Pi_{i,k}); it is never
    formed.  A DFT over the phase index k makes it block-diagonal: column
    (i, k) restricted to class r is exp(1j*r*theta_k)/N times the real
    vector G_i[class r], so class r contributes the real block
    B[(m, n), i] = G_i[m, n] / sqrt(N w_i) of shape (|class r|, M), with the
    same singular values as its part of E diag(w)^(-1/2).  The frame splits
    the same way into the blocks B @ B.T.  Every G_i is exactly symmetric
    (:func:`fockcore.bin_overlaps` builds it so), so class N - r, listed as
    the transposes (n, m) of class r's entries, has the very same block: one
    B serves both classes, and ``vec_index`` (from ``_phase_classes``) has
    one row per class.  Each block is gathered from G and scaled on its own,
    so beyond G a caller holds only the blocks it keeps.
    """
    d, N = povm.dim, povm.grid.N
    # Row-major position m + n*d of G_i holds G_i[n, m], which is G_i[m, n].
    flat = povm.G.reshape(-1, d * d)
    scale = np.sqrt(N * povm.binning.widths)[:, None]
    for idx in _phase_classes(d, N):
        yield idx, (flat[:, idx[0]] / scale).T


@functools.lru_cache(maxsize=32)
def _diagonals(d):
    """Slices of the row-major positions m*d + n on each diagonal offset m - n = 1-d..d-1."""
    out = []
    for delta in range(1 - d, d):
        start = delta * d if delta >= 0 else -delta
        out.append(slice(start, start + (d + 1) * (d - abs(delta) - 1) + 1, d + 1))
    return tuple(out)


@functools.lru_cache(maxsize=32)
def _offset_phases(N, d):
    """Read-only exp(1j*delta*theta_k) as a (2d-1, N) array, row delta + d - 1.

    Rows of negative delta are the conjugates of those of -delta, so every
    element and snapshot is exactly Hermitian.
    """
    delta = np.arange(1 - d, d)
    phase = np.exp(1j * np.abs(delta)[:, None] * PhaseGrid(N).thetas[None, :])
    out = np.where(delta[:, None] >= 0, phase, phase.conj())
    out.setflags(write=False)
    return out


def _toeplitz(c):
    """The d x d sliding-window view V[..., m, n] = c[..., m - n + d - 1] of rows c[..., 2d-1]."""
    d = (c.shape[-1] + 1) // 2
    return np.lib.stride_tricks.sliding_window_view(c[..., ::-1], d, axis=-1)[..., ::-1, :]


def _outcome_matrix(F, grid, i, k):
    """F_i exp(1j*(m-n)*theta_k)/N via :func:`_toeplitz`: element (F = G) or snapshot (F = S)."""
    i, k = _whole(i, "bin index i", 0, F.shape[0] - 1), _whole(k, "phase index k", 0, grid.N - 1)
    return F[i] * _toeplitz(_offset_phases(grid.N, F.shape[1])[:, k]) / grid.N


def _pairing(A, F, grid):
    """Re Tr(A F_i exp(1j*(m-n)*theta_k))/N for every outcome (i, k), as a real (M, N) array.

    ``A`` is a d x d array; ``F`` is a real (M, d, d) array, the POVM's G
    or the snapshot factors S.  For each diagonal offset delta = m - n one
    product of F's delta-th diagonals (a strided view) with the real and
    imaginary parts of A^T's gives sum_{m-n=delta} A[n, m] F_i[m, n] for
    every bin; then one phase table gives every k: O(M d^2 + M d N).
    Beyond the (M, N) output it holds only (M, 2d-1) complex offset sums.
    """
    M, d = F.shape[:2]
    if A.shape != (d, d):
        raise ValueError("operator of shape %r does not match POVM dimension %d" % (A.shape, d))
    a = np.ascontiguousarray(A.T, dtype=complex).reshape(d * d).view(float).reshape(d * d, 2)
    sums = np.empty((M, 2 * d - 1), dtype=complex)
    parts = sums.view(float).reshape(M, 2 * d - 1, 2)
    flat = F.reshape(M, d * d)
    for j, diag in enumerate(_diagonals(d)):
        np.matmul(flat[:, diag], a[diag], out=parts[:, j])
    return (sums @ _offset_phases(grid.N, d)).real / grid.N


def _adjoint(W, F, grid):
    """sum_{i,k} W[i, k] F_i exp(1j*(m-n)*theta_k)/N, the adjoint of ``_pairing``.

    The phase sum over k is taken once per bin and diagonal offset, giving
    c[i, delta]; its :func:`_toeplitz` view is V[i, m, n] = c[i, m - n],
    and each of its real and imaginary parts meets F in one sum over bins.
    Beyond the d x d output it holds only the (M, 2d-1) complex phase sums.
    """
    V = _toeplitz(W @ _offset_phases(grid.N, F.shape[1]).T)
    out = np.einsum("imn,imn->mn", F, V.real) + 1j * np.einsum("imn,imn->mn", F, V.imag)
    out /= grid.N
    return out


def _singular_values(povm, pairs):
    """Singular values of E diag(w)^(-1/2), descending, from (vec_index, s) per mirror pair.

    A pair's values count once for each of its classes.  Padded with zeros
    to min(d^2, N*M), the length of the whole matrix's own spectrum.
    """
    s = np.sort(np.concatenate([s for idx, s in pairs for _ in idx]))[::-1]
    return np.concatenate([s, np.zeros(min(povm.dim**2, povm.n_outcomes) - s.size)])


def _rank(povm, s, rtol):
    """Count of descending singular values s of E above rtol * s_max * max(d^2, N*M).

    The POVM is informationally complete iff this rank is (n_max+1)^2.
    """
    if not (math.isfinite(rtol) and rtol > 0):
        raise ValueError("rtol must be finite and positive, got %g" % rtol)
    return int(np.count_nonzero(s > rtol * s[0] * max(povm.dim**2, povm.n_outcomes)))


class ICReport:
    """Completeness verdict of ``povm``, which is also its weighted frame operator C.

    ``complete`` (the truth value) says whether ``rank``, counted at the
    check's rtol, reaches ``required`` = (n_max+1)^2; ``singular_values``
    are those of E diag(w)^(-1/2), descending.  ``pairs`` is the POVM's
    read-only (vec_index, U, s, Wt) per mirror pair, one row of vec_index
    per class, each with the block (U s^2) U^T of C; ``eigenvalues`` is C's
    ascending spectrum, s^2 per class and a zero for each row a class has
    beyond M.  ``lambda_min`` = s_min^2 and the condition number read 0 and
    infinity below rank (n_max+1)^2 at ``DEFAULT_RANK_RTOL``, where the
    smallest s are roundoff.
    """

    def __init__(self, povm, rtol=DEFAULT_RANK_RTOL):
        self.povm = povm
        self.pairs = povm._svd
        s = _singular_values(povm, ((idx, s) for idx, _, s, _ in self.pairs))
        self.singular_values = s
        self.required = povm.dim**2
        self.rank = _rank(povm, s, rtol)
        self.complete = self.rank == self.required
        self.eigenvalues = np.concatenate([np.zeros(self.required - s.size), s[::-1] ** 2])
        if _rank(povm, s, DEFAULT_RANK_RTOL) < self.required:
            self.lambda_min, self.condition_number = 0.0, math.inf
        else:
            self.lambda_min = float(s[-1]) ** 2
            self.condition_number = float(s[0]) ** 2 / self.lambda_min

    def __bool__(self):
        return self.complete

    def __repr__(self):
        return "ICReport(complete=%r, rank=%d/%d, lambda_min=%.3e)" % (
            self.complete,
            self.rank,
            self.required,
            self.lambda_min,
        )


def is_informationally_complete(povm, rtol=DEFAULT_RANK_RTOL):
    """Certify completeness by the measurement-matrix rank.

    Returns an :class:`ICReport` (truthy iff complete) carrying the rank,
    the required dimension (n_max+1)^2, the singular values s of
    E diag(w)^(-1/2) (positive weights keep E's rank) and the frame
    operator they give.  All come from the POVM's one SVD per mirror pair
    (``PovmSet._svd``).
    """
    return ICReport(povm, rtol)


def _counts(N, M, n_max):
    """The phase count, bin count and cutoff as ints, each checked by ``errors._whole``."""
    return _whole(N, "phase count N", 1), _whole(M, "bin count M", 1), _whole(n_max, "n_max")


def sufficient_condition(N, M, n_max):
    """The paper's sufficient counts for completeness: N >= 2*n_max+1 and M >= n_max+1.

    The predicate only compares the phase and bin counts with these
    thresholds; it certifies no binning.  In particular equal-spaced bins
    are not enough near M = n_max+1 (see :func:`design_bins` for the
    working range M >= ceil(1.5*(n_max+1)) and the failures below it);
    :func:`is_informationally_complete` certifies a concrete POVM.  Nor
    are the counts necessary: odd N with n_max < N <= 2*n_max can be
    complete too (:func:`necessary_condition`), at N = n_max+1 in
    extend-tails mode only from M = n_max+2 on.
    """
    N, M, n_max = _counts(N, M, n_max)
    return N >= 2 * n_max + 1 and M >= n_max + 1


def necessary_condition(N, n_max):
    """Phase-count test that completeness cannot bypass.

    A binned-phase POVM can only be informationally complete when
    N >= 2*n_max + 1, or n_max < N <= 2*n_max with N odd.  ``False`` means
    provably incomplete for every binning (explicit indistinguishable state
    pairs exist; see ``sim.indistinguishability_experiment``).

    ``True`` does not bound M.  At N = n_max+1 (odd) each phase class
    r != 0 holds n_max+1 entries, but extend-tails bins tile the whole
    line, so the columns of its block sum to an overlap integral of two
    orthogonal Hermite functions, zero, and the block has rank <= M-1.
    There M = n_max+1 bins cannot be complete: ``design_bins(4, 5, 5)``
    peaks at rank 21 of 25 and (2, 3, 3) at 7 of 9, while (4, 5, 6),
    (2, 3, 4) and strict-finite (4, 5, 5) (condition number 7.9e11)
    certify.
    """
    N, n_max = _whole(N, "phase count N", 1), _whole(n_max, "n_max")
    if N >= 2 * n_max + 1:
        return True
    return n_max < N <= 2 * n_max and N % 2 == 1


def default_half_width(n_max):
    """Default initial half-width: covers the classically allowed region.

    The highest retained Fock state has turning points at sqrt(2*n_max+1);
    one extra unit of quadrature comfortably covers its evanescent tail.
    """
    return math.sqrt(2.0 * _whole(n_max, "n_max") + 1.0) + 1.0


def design_bins(n_max, N, M, L0=None, dL=0.5, max_iter=100, tail_mode=TAIL_EXTEND):
    """Search for equal-spaced bins that make the POVM informationally complete.

    Starting from half-width L0 (default :func:`default_half_width`), build
    the equal-spaced scheme over [-L, L] (with the deterministic stretch of
    :meth:`BinningScheme.equal_spaced`), read its measurement-matrix rank
    from :func:`is_informationally_complete`, and grow L by dL until rank
    (n_max+1)^2 is reached or ``max_iter`` growth steps are exhausted.

    Returns the first complete :class:`BinningScheme`; a build from it, or
    from its saved file, adopts the certified POVM's G and SVD.  Raises
    :class:`~homodyne_shadows.errors.BinDesignError` carrying the best rank
    achieved and the final half-width when the search fails — which it
    provably must when ``necessary_condition(N, n_max)`` is false.

    Working range: with N = 2*n_max+1, take M >= ceil(1.5*(n_max+1)).
    There, for n_max up to 64, the search succeeds and the frame's
    condition number stays below about 1.3e4.  Near the minimal bin count
    M = n_max+1, ``sufficient_condition`` holds but equal-spaced bins are
    not enough: the search raises ``BinDesignError`` at (n_max, N, M) =
    (12,25,13), (20,41,21), (32,65,33), (48,97,49) and (64,129,65); the
    design found at (8,17,9) has lambda_min = 5.7e-13, so strict inversion
    raises ``StrictModeSingularError``; and (7,15,8) has a frame condition
    number of 9.4e9, yet inverts unbiased to about 1e-12, because the
    snapshots apply the blocks' SVD and never square it.
    At N = n_max+1 in extend-tails mode, M = n_max+1 bins cannot be
    complete (:func:`necessary_condition` says why), so the search spends
    all its steps and raises: best rank 21 of 25 at (4, 5, 5).
    """
    global _designed
    N, M, n_max = _counts(N, M, n_max)
    max_iter = _whole(max_iter, "max_iter")
    if L0 is None:
        L0 = default_half_width(n_max)
    L0 = float(L0)
    dL = float(dL)
    if not (0 < L0 < math.inf and 0 < dL < math.inf):
        raise ValueError("L0 and dL must be finite and positive, got L0=%g, dL=%g" % (L0, dL))
    if not sufficient_condition(N, M, n_max):
        warnings.warn(
            "N=%d, M=%d below the sufficiency threshold (N >= %d, M >= %d) for "
            "n_max=%d; searching anyway" % (N, M, 2 * n_max + 1, n_max + 1, n_max),
            stacklevel=2,
        )
    grid = PhaseGrid(N)
    required = (n_max + 1) ** 2
    best_rank = -1
    for t in range(max_iter + 1):
        L = L0 + t * dL
        scheme = BinningScheme.equal_spaced(M, L, tail_mode=tail_mode)
        p = build_povm(grid, scheme, n_max)
        rank = is_informationally_complete(p).rank
        best_rank = max(best_rank, rank)
        if rank == required:
            _designed = p
            return scheme
    raise BinDesignError(
        "no informationally complete binning found for n_max=%d, N=%d, M=%d "
        "within %d growth steps (best rank %d of %d at final half-width %g)"
        % (n_max, N, M, max_iter, best_rank, required, L),
        best_rank=best_rank,
        final_half_width=L,
    )


def normalization_residual(povm):
    """Per-phase Frobenius residual of the bin sum against identity/N.

    Returns an array of length N with entries
    || sum_i Pi_{i,k} - identity/N ||_F.  Extend-tails schemes should sit at
    roundoff; strict-finite schemes report their unmeasured tail mass.  The
    phase factors have unit modulus and are 1 on the diagonal, so every
    phase has the residual || sum_i G_i - identity ||_F / N.
    """
    N = povm.grid.N
    residual = np.linalg.norm(povm.G.sum(axis=0) - np.eye(povm.dim)) / N
    return np.full(N, residual)


def povm_cache_key(n_max, N, edges, tail_mode):
    """Deterministic content hash of the POVM-defining parameters."""
    import hashlib  # here, not at the top: +3.5 MB RSS in every run that hashes nothing

    payload = json.dumps(
        {
            "n_max": int(n_max),
            "N": int(N),
            "edges": [float(e) for e in np.asarray(edges, dtype=float)],
            "tail_mode": str(tail_mode),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def save_povm(povm, path, **extra):
    """Write the POVM's parameter file, which :func:`load_parameters` reads back bit for bit.

    The JSON object holds ``version``, ``n_max``, ``N``, ``M``,
    ``tail_mode``, ``edges`` and ``cache_key``, then the ``extra`` fields
    (``design-bins`` adds its rank report).  ``path`` is a file name or an
    open text stream.
    """
    doc = {
        "version": CACHE_VERSION,
        "n_max": povm.n_max,
        "N": povm.grid.N,
        "M": povm.binning.M,
        "tail_mode": povm.binning.tail_mode,
        "edges": [float(e) for e in povm.binning.edges],
        "cache_key": povm.cache_key,
    }
    doc.update(extra)
    text = json.dumps(doc, indent=2) + "\n"
    if hasattr(path, "write"):
        path.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _integer(doc, field):
    """``doc[field]`` if it is a JSON integer (not a float or a boolean)."""
    value = doc[field]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("%s must be an integer, got %r" % (field, value))
    return value


def load_parameters(path):
    """The ``(n_max, N, binning)`` of a scheme or cache file, after checking its fields.

    Both are the file :func:`save_povm` writes; versions 1 and 2 load
    alike.  ``n_max`` and ``N`` must be integers and ``tail_mode`` a valid
    mode.  ``M``, ``cache_key`` and ``weights`` may be missing (version-1
    scheme files lack the key, version-1 cache files ``M``, new files the
    weights), but each one present must agree with the edges: ``M`` =
    len(edges) - 1, the recomputed key, and weights bit-equal to the
    widths.  Anything else raises
    :class:`~homodyne_shadows.errors.CacheKeyMismatchError`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    version = doc.get("version") if isinstance(doc, dict) else None
    if version not in (1, CACHE_VERSION):
        raise CacheKeyMismatchError("unsupported file version %r in %s" % (version, path))
    try:
        n_max, N = _integer(doc, "n_max"), _integer(doc, "N")
        binning = BinningScheme(doc["edges"], tail_mode=doc["tail_mode"])
        if "M" in doc and _integer(doc, "M") != binning.M:
            raise ValueError("M is %d, but the edges give %d bins" % (doc["M"], binning.M))
        key = povm_cache_key(n_max, N, binning.edges, binning.tail_mode)
        if doc.get("cache_key", key) != key:
            raise ValueError("stored cache_key %s, recomputed %s" % (doc["cache_key"], key))
        if "weights" in doc and not np.array_equal(
            np.array(doc["weights"], dtype=float), binning.widths
        ):
            raise ValueError("the weights are not the bin widths")
    except (KeyError, TypeError, ValueError) as exc:
        raise CacheKeyMismatchError("bad parameter file %s: %s" % (path, exc)) from exc
    return n_max, N, binning
