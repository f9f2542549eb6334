"""Frame inversion and classical-shadow estimation.

The measurement frame of a POVM set is the positive self-adjoint map

    C(rho) = sum_{i,k} Tr(rho Pi_{i,k}) Pi_{i,k} / w_i,

a (n_max+1)^2 x (n_max+1)^2 matrix acting on column-stacked vectorizations.
On the uniform phase grid it is real and block-diagonal in the classes
r = (m - n) mod N of the vec index, with block B B^T for the weighted block
B of ``povm._phase_blocks``; class N - r shares class r's block.  No block
is formed: the POVM's thin SVD B = U diag(s) Wt, one per mirror pair
(``PovmSet._svd``), gives the eigenvalues s^2, and the inverse is applied as
U diag(1/s) Wt, so no condition number is squared.  Inverting the frame
(exactly when informationally complete, via Moore-Penrose pseudoinverse
otherwise) turns each outcome (i, k) into a snapshot matrix
rho_hat_{i,k} = C^{-1}(Pi_{i,k}/w_i) whose average over measurement records
is an unbiased estimator of the state.
The snapshots factor like the elements, rho_hat_{i,k} = S_i[m, n]
exp(1j*(m-n)*theta_k)/N with real S_i, and are stored as S alone; sums over
outcomes use the pairing and adjoint of ``povm``.
The module also provides the exact single-shot variance of an observable
estimate, the state-independent shadow norm that bounds it, the closed-form
parameter-count bound, and the Bernstein shot-count calculator.
"""

import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import StrictModeSingularError, _whole
from .povm import ICReport, _adjoint, _counts, _outcome_matrix, _pairing
from .povm import is_informationally_complete
from .records import _outcome_counts, checked_records
from .states import _matrix, expectation

__all__ = [
    "InverseFrame",
    "SnapshotTable",
    "EstimateReport",
    "frame_operator",
    "invert_frame",
    "snapshots",
    "snapshot_values",
    "outcome_probabilities",
    "estimate_observable",
    "exact_average_snapshot",
    "exact_variance",
    "shadow_norm",
    "variance_bound",
    "bernstein_samples",
    "reconstruct_state",
    "MODE_STRICT",
    "MODE_PSEUDO",
    "DEFAULT_THRESHOLD",
]

MODE_STRICT = "strict"
MODE_PSEUDO = "pseudo"
DEFAULT_THRESHOLD = 1e-12
DEFAULT_BATCHES = 10


class InverseFrame(NamedTuple):
    """Strict inverse or Moore-Penrose pseudoinverse of a frame operator.

    Held as the mode, threshold and frame: a class block's inverse is
    (U_k / s_k^2) U_k^T over the k with s_k^2 > threshold (all in strict
    mode), which :func:`snapshots` applies without forming it.
    """

    mode: str
    threshold: float
    frame: ICReport


class SnapshotTable:
    """Snapshot matrices rho_hat_{i,k} = S_i exp(1j*(m-n)*theta_k)/N, indexed like the POVM.

    ``S`` is the real (M, d, d) array of snapshot factors and ``povm`` the
    POVM whose inverse frame made them; ``snapshot(i, k)`` builds one
    matrix on request.
    """

    def __init__(self, S, povm, mode, threshold):
        self.S = S.view()
        self.S.setflags(write=False)
        self.povm = povm
        self.mode = mode
        self.threshold = float(threshold)

    @property
    def grid(self):
        return self.povm.grid

    @property
    def M(self):
        return self.S.shape[0]

    @property
    def N(self):
        return self.grid.N

    @property
    def dim(self):
        return self.S.shape[1]

    @property
    def n_max(self):
        return self.dim - 1

    def snapshot(self, i, k):
        """Snapshot matrix assigned to outcome (bin i, phase k)."""
        return _outcome_matrix(self.S, self.grid, i, k)

    def __repr__(self):
        return "SnapshotTable(M=%d, N=%d, dim=%d, mode=%r)" % (
            self.M,
            self.N,
            self.dim,
            self.mode,
        )


class EstimateReport:
    """Result of an observable estimation over a record stream.

    ``inversion`` and ``threshold`` name how the frame behind the snapshots
    was inverted (the :class:`SnapshotTable`'s mode and eigenvalue
    threshold, keyword-only); :func:`estimate_observable` fills them in.
    ``seed`` and ``povm_cache_key`` start as ``None``; ``hshadow estimate``
    sets them.
    """

    def __init__(
        self, mean, stderr, shots, variant, observable_label="X", *, inversion=None, threshold=None
    ):
        self.shots = _whole(shots, "shot count", 1)
        if stderr < 0:
            raise ValueError("standard error must be >= 0, got %g" % stderr)
        self.mean = float(mean)
        self.stderr = float(stderr)
        self.variant = variant
        self.observable_label = observable_label
        self.seed = None
        self.povm_cache_key = None
        self.inversion = inversion
        self.threshold = threshold

    def to_json(self):
        """JSON-ready dict."""
        return {
            "observable_label": self.observable_label,
            "mean": self.mean,
            "stderr": self.stderr,
            "T": self.shots,
            "variant": self.variant,
            "seed": self.seed,
            "povm_cache_key": self.povm_cache_key,
            "inversion": self.inversion,
            "threshold": self.threshold,
        }

    def __repr__(self):
        return "EstimateReport(mean=%.6g, stderr=%.3g, T=%d, variant=%r)" % (
            self.mean,
            self.stderr,
            self.shots,
            self.variant,
        )


def frame_operator(povm):
    """The weighted frame operator and its eigendecomposition: the POVM's IC report.

    The matrix is sum_{i,k} vec(Pi_{i,k}) vec(Pi_{i,k})^dagger / w_i.  The
    sum over the uniform phase grid leaves one real block
    sum_i G_i[r] G_i[r]^T / (N w_i) = B B^T per phase class r, with the
    weighted block B of ``povm._phase_blocks``.  The POVM's thin SVD
    B = U diag(s) Wt, one per mirror pair r <-> N - r, gives each block's
    eigenvalues s^2 and eigenvectors U without forming it.  The weights
    w_i are the bin widths.
    """
    return is_informationally_complete(povm)


def invert_frame(frame, mode=MODE_STRICT, threshold=DEFAULT_THRESHOLD):
    """Invert a frame operator strictly or by Moore-Penrose pseudoinverse.

    Strict mode demands lambda_min > threshold and inverts every eigenvalue;
    pseudo mode demands lambda_max > threshold, inverts only eigenvalues
    above the threshold and zeroes the rest, projecting onto the frame's
    range.  The threshold must be finite and >= 0; :func:`snapshots`
    applies the inverse.
    """
    if mode not in (MODE_STRICT, MODE_PSEUDO):
        raise ValueError("mode must be 'strict' or 'pseudo', got %r" % (mode,))
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError("threshold must be finite and >= 0, got %r" % (threshold,))
    if mode == MODE_STRICT and frame.lambda_min <= threshold:
        raise StrictModeSingularError(
            "frame operator is singular at the working threshold "
            "(lambda_min = %.3e <= %.3e); use pseudo mode to project onto "
            "the measurable subspace" % (frame.lambda_min, threshold),
            lambda_min=frame.lambda_min,
        )
    if mode == MODE_PSEUDO and frame.eigenvalues[-1] <= threshold:
        raise ValueError(
            "pseudo inverse keeps no frame direction: threshold %.3e >= lambda_max = %.3e, "
            "so every snapshot would be zero" % (threshold, frame.eigenvalues[-1])
        )
    return InverseFrame(mode, float(threshold), frame)


def snapshots(povm, inv):
    """Apply the inverse frame to every weighted POVM element.

    Returns the table of snapshot matrices C^{-1}(Pi_{i,k}/w_i).  On phase
    class r the weighted element is exp(1j*r*theta_k)/N times the real
    vector G_i[class r]/w_i = B[:, i] sqrt(N/w_i), which the inverse maps to
    U diag(1/s) Wt[:, i] sqrt(N/w_i) (dropping the s^2 <= threshold): real
    matrices S_i once per bin, with rho_hat_{i,k} = S_i exp(1j*(m-n)*theta_k)/N.
    A mirror pair's columns are computed once and written to both classes,
    so S_i[m, n] = S_i[n, m] there bit for bit.  A class that is its own
    mirror (r = 0, and r = N/2 for even N) holds both (m, n) and (n, m):
    only its entries are averaged with their transposes, to scrub
    roundoff.  So every S_i is exactly symmetric and every snapshot exactly
    Hermitian.  Beyond the S it returns, a call holds one class's columns
    at a time.  The inverse frame must come from this POVM
    (``PovmSet.__eq__``): any other inverse would silently bias every
    snapshot, so it raises ``ValueError``.
    """
    povm._require(inv.frame.povm, "inverse frame")
    d = povm.dim
    M = povm.binning.M
    scale = np.sqrt(povm.grid.N / povm.binning.widths)
    S = np.empty((M, d * d))  # column-stacked vec(S_i) per row
    for idx, U, s, Wt in inv.frame.pairs:
        keep = s**2 > inv.threshold
        S[:, idx] = ((U[:, keep] / s[keep]) @ (Wt[keep] * scale)).T[:, None, :]
        if len(idx) == 1:  # class 0 or N/2: its own mirror, holding (m, n) and (n, m)
            p = idx[0]
            S[:, p] = 0.5 * (S[:, p] + S[:, p % d * d + p // d])
    # Row-major reshape of vec(S_i) gives S_i^T, which is S_i.
    return SnapshotTable(S.reshape(M, d, d), povm, inv.mode, inv.threshold)


def snapshot_values(table, X):
    """Per-outcome estimator values Tr(X rho_hat_{i,k}) as a real (M, N) array."""
    return _pairing(_matrix(X), table.S, table.grid)


def outcome_probabilities(rho, povm):
    """Exact outcome probabilities Tr(rho Pi_{i,k}) as a real (M, N) array."""
    return _pairing(_matrix(rho), povm.G, povm.grid)


def _parse_variant(variant):
    """``(kind, batches)`` of a variant string; ValueError naming the accepted forms."""
    if variant == "plain-mean":
        return "plain-mean", None
    if variant == "median-of-means":
        return "median-of-means", DEFAULT_BATCHES
    if isinstance(variant, str) and variant.startswith("median-of-means:"):
        try:
            b = int(variant.split(":", 1)[1])
        except ValueError:
            b = 0
        if b >= 1:
            return "median-of-means", b
    raise ValueError(
        "variant must be 'plain-mean', 'median-of-means' or 'median-of-means:B' "
        "with an integer batch count B >= 1, got %r" % (variant,)
    )


def _batching(variant, T):
    """``(bounds, label)`` of a variant over T shots: batch b is shots bounds[b]..bounds[b+1]-1.

    ``"median-of-means:B"`` uses the min(B, T) batches of ``np.array_split``
    (B = ``DEFAULT_BATCHES`` for a bare ``"median-of-means"``), and the label
    names that effective count.  An empty stream raises ``ValueError``.
    """
    kind, B = _parse_variant(variant)
    if T == 0:
        raise ValueError("record stream is empty")
    if kind == "plain-mean":
        return [0, T], "plain-mean"
    B = min(B, T)
    q, r = divmod(T, B)
    return [b * q + min(b, r) for b in range(B + 1)], "median-of-means:%d" % B


def _median(values):
    """``np.median`` of a non-empty 1-D sequence of floats, bit for bit.

    These are ``np.median``'s own steps: the same partition, then the mean
    of the middle value or of the middle two (so a zero median is +0.0),
    and NaN if the partition's last value is NaN.
    """
    # Not np.median, which loads numpy.ma (+1.2 MB RSS) on first call.
    a = np.asarray(values, dtype=float)
    h, odd = divmod(a.size, 2)
    part = np.partition(a, [h, -1] if odd else [h - 1, h, -1])
    return float(part[-1] if np.isnan(part[-1]) else np.mean(part[h - 1 + odd:h + 1]))


def _aggregate(values, variant="plain-mean"):
    """Fold per-shot values into ``(mean, stderr, variant label)``, using ``values`` as scratch.

    The mean is the median of the means of the contiguous batches of
    :func:`_batching` (Huang, Kueng & Preskill 2020): the plain mean for
    one batch.  ``stderr`` is the plain-mean standard error
    std(values, ddof=1)/sqrt(T) in both variants, and 0 for a single shot.
    The standard deviation takes ``np.std``'s own steps, in place, so
    ``values`` is overwritten and no temporary of its size is made.
    """
    T = values.size
    bounds, label = _batching(variant, T)
    mean = _median([np.mean(chunk) for chunk in np.split(values, bounds[1:-1])])
    stderr = 0.0
    if T > 1:
        values -= np.add.reduce(values, keepdims=True) / T
        values *= values
        stderr = float(np.sqrt(np.add.reduce(values) / (T - 1)) / math.sqrt(T))
    return mean, stderr, label


def estimate_observable(records, table, X, variant="plain-mean"):
    """Fold a single-mode record stream into an observable estimate.

    Each record contributes the per-shot value Tr(X rho_hat_{i,k}) of its
    outcome, aggregated as :func:`_aggregate` describes: plain averaging, or
    median-of-means over B contiguous batches for ``"median-of-means:B"``.
    Only the outcome counts enter, so no per-shot value is built: a batch's
    mean is sum(C*v)/n for its count table C, and the whole stream's counts
    give the plain mean m and stderr = sqrt(sum(C*(v - m)**2)/(T - 1)/T).
    These equal the per-shot formulas up to summation-order roundoff.

    ``records`` is a :class:`~homodyne_shadows.records.Records`; any other type
    raises ``TypeError``.  Records with an outcome outside the table, or a
    mode other than the stream's first, raise
    :class:`~homodyne_shadows.errors.MalformedRecordError` with the record's
    position in the stream.
    """
    T = len(checked_records(records))
    bounds, variant_str = _batching(variant, T)
    v = snapshot_values(table, X).ravel()
    counts = np.zeros(v.size, dtype=np.int64)
    means = []
    for c, n in zip(_outcome_counts(records, table.M, table.N, bounds), np.diff(bounds)):
        counts += c
        means.append(c @ v / n)
    plain = counts @ v / T
    stderr = math.sqrt(counts @ (v - plain) ** 2 / (T - 1) / T) if T > 1 else 0.0
    return EstimateReport(
        _median(means),
        stderr,
        T,
        variant_str,
        observable_label=getattr(X, "label", "X"),
        inversion=table.mode,
        threshold=table.threshold,
    )


def exact_average_snapshot(probabilities, table):
    """Infinite-data average sum_{i,k} P(i,k) rho_hat_{i,k}.

    With strict-mode snapshots and P(i,k) = Tr(rho Pi_{i,k}) this reproduces
    rho itself — the unbiasedness identity.
    """
    P = np.asarray(probabilities)
    if P.shape != (table.M, table.N):
        raise ValueError(
            "probability table of shape %r does not match the %d x %d outcome grid"
            % (P.shape, table.M, table.N)
        )
    return _adjoint(P, table.S, table.grid)


def exact_variance(rho, X, table, povm):
    """Exact single-shot variance of the estimator of Tr(rho X).

    Evaluates sum_{i,k} P(i,k) Tr(X rho_hat_{i,k})^2 - Tr(rho X)^2 by brute
    force over all M*N outcomes.  A pseudo-mode table is accepted with a
    warning: its estimator is generally biased, so the value is the exact
    second-moment spread around the *true* expectation, not around the
    estimator's own limit.  ``povm`` must be the table's POVM.
    """
    povm._require(table.povm, "snapshot table")
    if table.mode != MODE_STRICT:
        warnings.warn(
            "exact_variance on a pseudo-mode snapshot table: the estimator "
            "may be biased and the reported spread is taken around Tr(rho X)",
            stacklevel=2,
        )
    P = outcome_probabilities(rho, povm)
    vals = snapshot_values(table, X)
    mean = expectation(rho, X)
    return float(np.sum(P * vals**2) - mean**2)


def shadow_norm(X, table, povm):
    """State-independent variance bound lambda_max of sum |Tr(X rho_hat)|^2 Pi.

    For every density matrix rho, exact_variance(rho, X) <= shadow_norm(X):
    the variance's first term is the expectation of the operator built here,
    which its top eigenvalue bounds uniformly over states.  ``povm`` must
    be the table's POVM: with another one, the value bounds nothing.
    """
    povm._require(table.povm, "snapshot table")
    vals = snapshot_values(table, X)
    # Exactly Hermitian: real weights and a symmetric G make _adjoint's sum so.
    return float(np.linalg.eigvalsh(_adjoint(vals**2, povm.G, povm.grid))[-1])


def variance_bound(N, M, n_max, X):
    """Closed-form worst-case bound N * (n_max+1) * M^2 * ||X||_inf^2.

    ``X`` is an observable or its operator norm ||X||_inf, which must be
    finite and >= 0.
    """
    N, M, n_max = _counts(N, M, n_max)
    norm = X.operator_norm if hasattr(X, "operator_norm") else float(X)
    if not 0 <= norm < math.inf:
        raise ValueError("operator norm must be finite and >= 0, got %g" % norm)
    return float(N * (n_max + 1) * M**2 * norm**2)


def bernstein_samples(shadow_norm_value, eps, delta):
    """Smallest shot count T guaranteeing |X_hat - E[X_hat]| <= eps w.p. 1-delta.

    Solves 2*exp(-T*eps^2/2 / (v + 2*eps/3)) <= delta for the Bernstein
    variance proxy v (the shadow norm):
    T = ceil(2*(v + 2*eps/3)*ln(2/delta)/eps^2).  A T beyond the float
    range raises ``ValueError``.
    """
    if not 0 < eps < math.inf:
        raise ValueError("accuracy eps must be finite and positive, got %g" % eps)
    if not 0.0 < delta < 1.0:
        raise ValueError("failure probability delta must lie in (0, 1), got %g" % delta)
    if not 0 <= shadow_norm_value < math.inf:
        raise ValueError("shadow norm must be finite and >= 0, got %g" % shadow_norm_value)
    # eps**2 and 2/delta (subnormal delta) can leave the float range while T
    # does not.  Here a step overflows only if T does: a division by eps >= 1
    # cannot, and every later factor is > 1 when eps < 1.
    T = (shadow_norm_value / eps + 2.0 / 3.0) / eps * (2.0 * (math.log(2.0) - math.log(delta)))
    if T == math.inf:
        raise ValueError(
            "shot count for shadow norm %g, eps %g and delta %g exceeds the float range"
            % (shadow_norm_value, eps, delta)
        )
    return max(1, math.ceil(T))


def reconstruct_state(records, table):
    """Average the snapshots of a record stream into a state estimate.

    ``records`` is validated like :func:`estimate_observable`'s.  The
    average is not projected onto density matrices: with strict-mode
    snapshots it is the unbiased estimator.
    """
    total = len(checked_records(records))
    if total == 0:
        raise ValueError("record stream is empty")
    counts = next(_outcome_counts(records, table.M, table.N, (0, total)))
    return exact_average_snapshot(counts.reshape(table.M, table.N) / total, table)
