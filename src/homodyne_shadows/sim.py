"""Measurement simulation and record handling.

Outcome probabilities are computed exactly from the trace pairing
P(i,k) = Tr(rho Pi_{i,k}); sampling then draws directly from this discrete
distribution by inverse CDF, with per-shot randomness derived from
(seed, shot index) through a counter-based 64-bit mixer so that record
streams are reproducible bit-for-bit and independent of execution order.

The module also houses the indistinguishability experiment that exhibits
state pairs with identical statistics when the phase count is too small,
tensor-product multi-mode distributions and local-observable estimation,
and CSV ingestion of externally produced (or raw quadrature) records.

Records are columnar: a :class:`Records` holds four equal-length arrays
``t``, ``mode``, ``k``, ``i`` whose every entry is an index (its
constructor checks that).  Every producer returns each column in the
narrowest of uint8, uint16 and uint32 that holds it (int64 beyond), and
every consumer takes a Records and checks it against its outcome grid with
the rules of :func:`checked_records`, ``_BLOCK`` rows at a time, doing its
index arithmetic in ``intp``.
"""

import contextlib
import csv
import functools
import numbers
import os
from typing import NamedTuple

import numpy as np

from . import shadow as shadow_mod
from .errors import (
    InvariantViolationError,
    MalformedRecordError,
    UnsupportedConfigurationError,
)
from .povm import BinningScheme, PhaseGrid, PovmSet, build_povm, default_half_width
from .shadow import EstimateReport, outcome_probabilities, snapshot_values
from .states import _matrix, superposition_pair, trace_distance

__all__ = [
    "Records",
    "checked_records",
    "OutcomeDistribution",
    "outcome_distribution",
    "sample",
    "IndistinguishabilityReport",
    "indistinguishability_experiment",
    "MultiModeConfig",
    "MultiOutcomeDistribution",
    "joint_distribution",
    "sample_multi",
    "estimate_local",
    "multi_shadow_norm",
    "ingest_records",
    "bin_raw",
    "write_records",
    "RECORD_HEADER",
    "RAW_HEADER",
]

RECORD_HEADER = ("t", "mode", "k", "i")
RAW_HEADER = ("t", "mode", "k", "x")

_NEGATIVE_CLAMP = -1e-12


# Rows drawn, counted or written at a time: a block's columns and temporaries
# stay in a core's cache, and no temporary grows with the stream.
_BLOCK = 1 << 15


# Column dtypes that hold only indices.  A Records keeps these and int64 as
# given; not uint64, which numpy 1.24 compares with int64 through float64.
_NARROW = (np.dtype(np.uint8), np.dtype(np.uint16), np.dtype(np.uint32))


def _index_dtype(top):
    """The narrowest record column dtype that holds 0..top: uint8, uint16, uint32 or int64."""
    return np.min_scalar_type(top) if top < 2**32 else np.dtype(np.int64)


def _narrowed(c):
    """A copy of an index column in the narrowest record column dtype that holds it."""
    return c.astype(_index_dtype(int(c.max()) if c.size else 0))


def _not_index(c):
    """Mask of the rows of a column that are not whole numbers in 0..2**63-1."""
    if c.dtype.kind == "i":
        return c < 0
    if c.dtype.kind == "u":
        return c >= np.uint64(2**63)
    if c.dtype.kind in "bf":
        x = c.astype(np.float64)
        return ~((x >= 0) & (x < 2.0**63)) | (x != np.trunc(x))
    if c.dtype.kind == "O":
        return np.array([not _is_index(v) for v in c], dtype=bool)
    return np.ones(c.shape, dtype=bool)


def _is_index(v):
    """Whether a Python or numpy scalar is a whole number in 0..2**63-1."""
    return isinstance(v, numbers.Real) and 0 <= v < 2**63 and float(v).is_integer()


class Records:
    """Columnar measurement records: equal-length index arrays t, mode, k, i.

    Row j is shot ``t[j]`` of mode ``mode[j]`` landing in phase ``k[j]`` and
    bin ``i[j]``.  The constructor is where outside data becomes records,
    and every field must be an index: a whole number in 0..2**63-1.  A
    uint8, uint16, uint32 or int64 column is kept as given, without a copy;
    any other becomes int64.  Complex, string and other non-real columns
    hold no index.  The first row with a field that is not an index raises
    :class:`~homodyne_shadows.errors.MalformedRecordError` with its ordinal.
    ``len`` and truthiness count rows, ``records[a:b]`` gives a Records that
    shares memory with this one, and ``==`` compares the rows of two
    Records and returns a bool.  The producers give each column the
    narrowest of uint8, uint16 and uint32 that holds it, so cast a column to
    ``intp`` before arithmetic that may leave its dtype: ``i * N + k``
    wraps in uint8.  Columns may be views, some of them read-only: the
    ``mode`` of :func:`sample`, and of a single-mode file that
    :func:`ingest_records` decodes, is one value broadcast to every row
    (stride 0).  Copy a column before writing into it.
    """

    __slots__ = ("t", "mode", "k", "i")

    def __init__(self, t, mode, k, i):
        cols = [np.asarray(c) for c in (t, mode, k, i)]
        T = cols[0].shape
        if len(T) != 1 or any(c.shape != T for c in cols):
            raise ValueError(
                "record columns must be 1-D of equal length, got shapes %r"
                % ([c.shape for c in cols],)
            )
        bad = False
        for c in cols:
            # A narrow column holds only indices, and an int column gets a row
            # mask only when its minimum is negative: a mask over every row of
            # a valid column would raise ingest's peak.
            if c.dtype not in _NARROW and (c.dtype.kind != "i" or (c.size and c.min() < 0)):
                bad = bad | _not_index(c)
        if np.any(bad):
            j = int(np.argmax(bad))
            fields = tuple(c[j:j + 1].tolist()[0] for c in cols)
            raise MalformedRecordError(
                "record %d (t=%r, mode=%r, k=%r, i=%r) has a field that is not an "
                "index, a whole number in 0..2**63-1" % ((j,) + fields),
                ordinal=j,
            )
        self.t, self.mode, self.k, self.i = (
            c if c.dtype in _NARROW else np.asarray(c, dtype=np.int64) for c in cols
        )

    def columns(self):
        """The four columns in ``RECORD_HEADER`` order."""
        return self.t, self.mode, self.k, self.i

    def __len__(self):
        return self.t.size

    def __getitem__(self, rows):
        if not isinstance(rows, slice):
            raise TypeError("Records take slices, not %s" % type(rows).__name__)
        return Records(*(c[rows] for c in self.columns()))

    def __eq__(self, other):
        if not isinstance(other, Records):
            return NotImplemented
        return len(self) == len(other) and all(
            np.array_equal(a, b) for a, b in zip(self.columns(), other.columns())
        )

    __hash__ = None

    def __repr__(self):
        return "Records(T=%d)" % len(self)


def _shot_order(t, mode):
    """Stable permutation sorting rows by (t, mode); None if already strictly sorted."""
    for lo in range(0, t.size - 1, _BLOCK):  # the steps from rows a to rows b = a + 1
        a, b = slice(lo, min(lo + _BLOCK, t.size - 1)), slice(lo + 1, lo + 1 + _BLOCK)
        if not ((t[b] > t[a]) | ((t[b] == t[a]) & (mode[b] > mode[a]))).all():
            return np.lexsort((mode, t))
    return None


def checked_records(records, M=None, N=None):
    """Check a :class:`Records` against an outcome grid with vectorized passes.

    Any other ``records`` raises ``TypeError``; without ``M`` and ``N``
    that is the whole check, as every field of a Records is an index.
    With ``M`` and ``N`` given as ints the stream is single-mode: each
    outcome must lie on the M x N grid and every record must carry the
    mode of the first.  With per-mode sequences ``M[j]``, ``N[j]`` the
    stream is multi-mode: each mode must lie in 0..len(M)-1, each outcome
    on its mode's grid, and no (t, mode) pair may repeat.  The first
    offending record raises
    :class:`~homodyne_shadows.errors.MalformedRecordError` with its ordinal
    (for a repeat, the ordinal of the second occurrence).
    """
    return _checked(records, M, N)[0]


def _checked(records, M, N):
    """:func:`checked_records`, also returning the ``_shot_order`` of a multi-mode stream."""
    if not isinstance(records, Records):
        raise TypeError("expected Records, got %s" % type(records).__name__)
    if M is None or not records:
        return records, None
    if np.ndim(M) == 0:  # the fold states the single-mode rules; drop its counts
        next(_outcome_counts(records, M, N, (0, len(records))))
        return records, None
    t, mode, k, i = records.columns()
    S = len(M)
    grids = np.asarray([M, N])
    uniform = (grids == grids[:, :1]).all()
    order = _shot_order(t, mode)
    repeat = np.zeros(t.size, dtype=bool)
    if order is not None:  # the later row of each (t, mode) pair adjacent in order
        later, earlier = order[1:], order[:-1]
        repeat[later[(t[later] == t[earlier]) & (mode[later] == mode[earlier])]] = True
    for start in range(0, t.size, _BLOCK):
        rows = slice(start, start + _BLOCK)
        t_b, mode_b, k_b, i_b, repeat_b = (c[rows] for c in (t, mode, k, i, repeat))
        # Each row's (M, N): one pair when every mode has the same grid, else a
        # gather in which a mode outside 0..S-1 reads the grid of mode S - 1.
        Mj, Nj = grids[:, 0] if uniform else np.take(grids, mode_b, axis=1, mode="clip")
        _raise_first_flagged([
            (mode_b >= S, lambda j: "references mode %d outside 0..%d" % (mode_b[j], S - 1)),
            ((i_b >= Mj) | (k_b >= Nj), lambda j: "references outcome (i=%d, k=%d) outside "
             "mode %d's %d x %d grid" % (i_b[j], k_b[j], mode_b[j], M[mode_b[j]], N[mode_b[j]])),
            (repeat_b, lambda j: "repeats mode %d of shot %d" % (mode_b[j], t_b[j])),
        ], start)
    return records, order


def _raise_first_flagged(rules, start=0):
    """Raise at the first row flagged by a rule, a (mask of rows from ``start``, message) pair.

    The message is that of the first rule, in list order, that flags the row.
    """
    j = min((int(np.argmax(mask)) for mask, _ in rules if mask.any()), default=None)
    if j is not None:
        describe = next(message for mask, message in rules if mask[j])
        raise MalformedRecordError("record %d %s" % (start + j, describe(j)), ordinal=start + j)


def _outcome_counts(records, M, N, bounds):
    """Yield the int64 table C[i*N + k] of outcome counts of each batch of a single-mode stream.

    Batch b is rows bounds[b]..bounds[b+1]-1 of a non-empty stream.  The
    columns are read ``_BLOCK`` rows at a time, so no temporary grows with
    the stream, and each block is checked against the single-mode rules of
    :func:`checked_records` (outcome on the M x N grid, mode of the first
    record) before it is counted.
    """
    _, mode, k, i = records.columns()
    first = mode[0]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        counts = np.zeros(M * N, dtype=np.int64)
        for start in range(lo, hi, _BLOCK):
            rows = slice(start, min(start + _BLOCK, hi))
            i_b, k_b, mode_b = i[rows], k[rows], mode[rows]
            _raise_first_flagged([
                ((i_b >= M) | (k_b >= N), lambda j: "references outcome (i=%d, k=%d) outside "
                 "the %d x %d outcome grid" % (i_b[j], k_b[j], M, N)),
                (mode_b != first, lambda j: "has mode %d but the stream began with mode %d; "
                 "a single-mode estimate takes one mode at a time" % (mode_b[j], first)),
            ], start)
            flat = np.multiply(i_b, N, dtype=np.intp)  # narrow columns would wrap
            flat += k_b
            counts += np.bincount(flat, minlength=M * N)
            del flat  # else it lives on beside the next block's index
        yield counts


class OutcomeDistribution:
    """Exact outcome probabilities with a cumulative table for sampling.

    ``probabilities[i, k]`` is P(i, k); the flat cumulative table runs over
    outcomes in column order (index k*M + i).  ``deficit`` is the
    probability mass missing from 1 (nonzero in strict-finite mode, where
    the Gaussian tails are unmeasured).
    """

    def __init__(self, probabilities, deficit):
        self.probabilities = probabilities
        self.probabilities.setflags(write=False)
        flat = probabilities.ravel(order="F")
        self.cumulative = np.cumsum(flat)
        self.deficit = float(deficit)

    @property
    def M(self):
        return self.probabilities.shape[0]

    @property
    def N(self):
        return self.probabilities.shape[1]

    @property
    def total(self):
        return float(self.cumulative[-1]) if self.cumulative.size else 0.0

    def __repr__(self):
        return "OutcomeDistribution(M=%d, N=%d, deficit=%.3e)" % (
            self.M,
            self.N,
            self.deficit,
        )


def _checked_probabilities(P, povms):
    """Clamp and check exact probabilities as :func:`outcome_distribution` does.

    The sum must be 1 only when every one of ``povms`` is extend-tails.
    Returns ``(P, total)``.
    """
    lowest = float(P.min())
    if lowest < _NEGATIVE_CLAMP:
        raise InvariantViolationError(
            "outcome probability %.3e is negative beyond roundoff" % lowest,
            check="probability-positivity",
        )
    P = np.maximum(P, 0.0)
    total = float(P.sum())
    if total > 1.0 + 1e-10:
        raise InvariantViolationError(
            "outcome probabilities sum to %.12f > 1" % total, check="probability-sum"
        )
    extend_tails = all(p.binning.tail_mode == "extend-tails" for p in povms)
    if extend_tails and abs(total - 1.0) > 1e-10:
        raise InvariantViolationError(
            "extend-tails probabilities sum to %.12f, expected 1 within 1e-10" % total,
            check="probability-sum",
        )
    return P, total


def outcome_distribution(rho, povm):
    """Exact P(i, k) = Tr(rho Pi_{i,k}) for every outcome.

    Tiny negative values in [-1e-12, 0) are clamped to zero (trace-pairing
    roundoff); anything more negative indicates a construction bug and
    raises.  In extend-tails mode the probabilities must sum to 1 within
    1e-10; in strict-finite mode the shortfall is recorded as the deficit.
    """
    P, total = _checked_probabilities(outcome_probabilities(rho, povm), [povm])
    return OutcomeDistribution(P, deficit=1.0 - total)


# Counter-based uniform generator (splitmix64 output function): shot t of
# stream `seed` is mixed independently of every other shot, so parallel or
# out-of-order generation yields identical streams.
_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mix64(z):
    """The splitmix64 output function, applied in place to a uint64 array."""
    tmp = np.empty_like(z)
    for shift, mult in ((30, _SM_MIX1), (27, _SM_MIX2), (31, None)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        z ^= tmp
        if mult is not None:
            z *= mult
    return z


def _bits(seed, start, stop):
    """Mixed 64-bit words of shots start+1..stop of stream ``seed``.

    A shot's uniform in [0, 1) is its word's top 53 bits times 2**-53.
    """
    z = np.arange(start + 1, stop + 1, dtype=np.uint64)
    z *= _SM_GAMMA
    z += np.uint64(int(seed) & _MASK64)
    return _mix64(z)


def _derive_seed(seed, salt):
    """Independent 64-bit substream seed for (seed, salt)."""
    salt = (int(salt) + 0x5851F42D) & _MASK64
    z = np.array([(int(seed) ^ salt * int(_SM_GAMMA)) & _MASK64], dtype=np.uint64)
    return int(_mix64(z)[0])


def _uniform(z):
    """Uniforms in [0, 1) of mixed words: their top 53 bits times 2**-53."""
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _guide(cumulative, T):
    """Guide table for T draws from a cumulative table; None if T is below its size.

    It splits [0, 1) into B = 2**b >= 16K equal buckets (K outcomes).  At
    most K - 1 buckets hold a CDF step, so on average at most one draw in 16
    lands in one and needs a search.  As rounding of ``u * total`` is
    monotone, the draw of a uniform u lies between the draws at its
    bucket's ends.  Entry j is that draw when the two agree, and -1 when
    bucket j holds a CDF step.
    """
    B = 1 << (16 * cumulative.size - 1).bit_length()
    if T < B:
        return None
    ends = np.searchsorted(cumulative, np.arange(B + 1) / B * cumulative[-1], side="right")
    return np.where(ends[:-1] == ends[1:], ends[:-1], -1)


def _draw_flat(cumulative, z, guide):
    """Inverse-CDF lookup of flat outcome indices for mixed 64-bit words z.

    Equals ``np.searchsorted(cumulative, u * total, side="right")`` with
    ``total = cumulative[-1]`` for the uniforms u of z (:func:`_uniform`).
    With a :func:`_guide` table, u's bucket floor(u*B) is the top b bits of
    z, and only draws whose bucket holds a CDF step become floats and are
    searched.
    """
    if guide is None:
        return np.searchsorted(cumulative, _uniform(z) * cumulative[-1], side="right")
    bucket = z >> np.uint64(65 - guide.size.bit_length())
    out = np.take(guide, bucket.view(np.int64))
    step = np.flatnonzero(out < 0)
    out[step] = np.searchsorted(cumulative, _uniform(z[step]) * cumulative[-1], side="right")
    return out


def _draws(cumulative, seed, T):
    """Flat outcome indices of shots 1..T of stream ``seed``, as ``(rows, o)`` blocks.

    The shots go ``_BLOCK`` at a time through every step, and the caller
    writes each block's outcomes before the next is drawn.
    """
    guide = _guide(cumulative, T)
    for start in range(0, T, _BLOCK):
        stop = min(start + _BLOCK, T)
        yield slice(start, stop), _draw_flat(cumulative, _bits(seed, start, stop), guide)


def _outcome_tables(M, N):
    """Phase and bin of each flat outcome index o = k*M + i, in the narrowest column dtypes."""
    k, i = np.divmod(np.arange(M * N), M)
    return k.astype(_index_dtype(N - 1)), i.astype(_index_dtype(M - 1))


def sample(dist, T, seed, mode=0):
    """Draw T i.i.d. records from an outcome distribution.

    Deterministic for fixed (dist, T, seed): shot t consumes the t-th value
    of the counter-based stream, independent of batching or worker count.
    """
    if T < 1:
        raise ValueError("shot count T must be >= 1, got %r" % (T,))
    if dist.total <= 0.0:
        raise ValueError("cannot sample from an all-zero outcome distribution")
    k_of, i_of = _outcome_tables(dist.M, dist.N)
    k = np.empty(T, dtype=k_of.dtype)
    i = np.empty(T, dtype=i_of.dtype)
    for rows, o in _draws(dist.cumulative, seed, T):
        k[rows], i[rows] = k_of[o], i_of[o]
    t = np.arange(T, dtype=_index_dtype(T - 1))
    return Records(t, np.broadcast_to(np.asarray(mode), T), k, i)


class IndistinguishabilityReport(NamedTuple):
    """Outcome of a state-pair distinguishability probe."""

    gap: float
    trace_distance: float
    level: int
    n_max: int
    N: int
    M: int


def indistinguishability_experiment(n_max, N, M, binning=None, fock_level=None):
    """Probe whether the POVM separates the canonical conjugate state pair.

    Builds the pair (|0> + 1j|level>)/sqrt(2) versus its complex-conjugate
    partner and reports the largest outcome-probability difference together
    with the pair's trace distance.  The level is N when N <= n_max, and
    N/2 when n_max < N <= 2*n_max with N even — the two regimes in which the
    pair provably yields identical statistics for every binning, so the gap
    sits at roundoff while the trace distance is large.  Outside those
    regimes pass ``fock_level`` explicitly to run the same construction as a
    control (an informationally complete POVM then shows a finite gap).
    """
    if fock_level is not None:
        level = int(fock_level)
    elif N <= n_max:
        level = N
    elif n_max < N <= 2 * n_max and N % 2 == 0:
        level = N // 2
    else:
        raise ValueError(
            "N=%d at n_max=%d is outside the provably indistinguishable regimes "
            "(N <= n_max, or even N <= 2*n_max); pass fock_level to run the "
            "construction as a control" % (N, n_max)
        )
    rho_a, rho_b = superposition_pair(1.0, 1j, level, n_max)
    if binning is None:
        binning = BinningScheme.equal_spaced(M, default_half_width(n_max))
    if binning.M != M:
        raise ValueError("binning has M=%d bins but M=%d was requested" % (binning.M, M))
    povm = build_povm(PhaseGrid(N), binning, n_max)
    Pa = outcome_distribution(rho_a, povm).probabilities
    Pb = outcome_distribution(rho_b, povm).probabilities
    gap = float(np.max(np.abs(Pa - Pb)))
    dist = trace_distance(rho_a, rho_b)
    return IndistinguishabilityReport(gap, dist, level, n_max, N, M)


class MultiModeConfig:
    """Mode-by-mode measurement configuration for tensor-product POVMs.

    Each mode gets its own cutoff, phase grid, and binning (passed as
    ``(n_max, PhaseGrid, BinningScheme)`` triples, or as prebuilt
    :class:`~homodyne_shadows.povm.PovmSet` objects).
    """

    def __init__(self, modes):
        povms = []
        for spec in modes:
            if isinstance(spec, PovmSet):
                povms.append(spec)
            else:
                n_max, grid, binning = spec
                povms.append(build_povm(grid, binning, n_max))
        if not povms:
            raise ValueError("at least one mode is required")
        self.povms = povms

    @property
    def S(self):
        """Number of modes."""
        return len(self.povms)

    def __repr__(self):
        return "MultiModeConfig(S=%d, dims=%r)" % (
            self.S,
            [p.dim for p in self.povms],
        )


class MultiOutcomeDistribution:
    """Joint outcome distribution over all modes.

    Product states are kept factorized (one single-mode distribution per
    mode, any S); dense joint states store the full probability tensor with
    one axis per mode, flat per-mode outcome index o_j = k_j * M_j + i_j.
    """

    def __init__(self, config, factors=None, joint=None):
        if (factors is None) == (joint is None):
            raise ValueError("exactly one of factors/joint must be given")
        self.config = config
        self.factors = factors
        self.joint = joint

    @property
    def S(self):
        return self.config.S


def joint_distribution(rho_multi, config):
    """Joint outcome distribution of a multi-mode state.

    ``rho_multi`` may be a sequence of per-mode density matrices (product
    state; factorized fast path for any S) or a single dense joint density
    matrix over the tensor-product space with mode 0 the slowest index
    (supported for S <= 3).  Both are checked like :func:`outcome_distribution`;
    a joint sum must be 1 when every mode is extend-tails.
    """
    if isinstance(rho_multi, (list, tuple)):
        if len(rho_multi) != config.S:
            raise ValueError(
                "got %d mode states for %d modes" % (len(rho_multi), config.S)
            )
        factors = [outcome_distribution(r, p) for r, p in zip(rho_multi, config.povms)]
        return MultiOutcomeDistribution(config, factors=factors)
    if config.S > 3:
        raise UnsupportedConfigurationError(
            "dense joint states are supported for at most 3 modes; "
            "factorize product states instead (got S=%d)" % config.S
        )
    R = _matrix(rho_multi)
    dims = [p.dim for p in config.povms]
    D = int(np.prod(dims))
    if R.shape != (D, D):
        raise ValueError(
            "joint state of shape %r does not match total dimension %d" % (R.shape, D)
        )
    # Pair mode j's row and column axes with its element stack; the axes left
    # are (m_j.., n_j.., o_0..o_{j-1}) with flat outcome index o = k*M + i.
    P = R.reshape(dims * 2)
    for j, p in enumerate(config.povms):
        stack = [p.element(i, k) for k in range(p.grid.N) for i in range(p.binning.M)]
        P = np.tensordot(P, np.array(stack), axes=([0, config.S - j], [2, 1]))
    P, _ = _checked_probabilities(np.real(P), config.povms)
    return MultiOutcomeDistribution(config, joint=P)


def sample_multi(dist, T, seed):
    """Draw T joint shots; each shot emits one record per mode.

    Product states are sampled mode-by-mode from independent substreams
    derived from (seed, mode); dense joint states are sampled on the flat
    joint index.  Deterministic either way.
    """
    if T < 1:
        raise ValueError("shot count T must be >= 1, got %r" % (T,))
    # Shot-major, mode-minor rows: row t*S + j is mode j of shot t.
    S = dist.config.S
    tables = [_outcome_tables(p.binning.M, p.grid.N) for p in dist.config.povms]
    k = np.empty((T, S), dtype=np.result_type(*(k_of for k_of, _ in tables)))
    i = np.empty((T, S), dtype=np.result_type(*(i_of for _, i_of in tables)))
    if dist.factors is not None:
        for j, f in enumerate(dist.factors):
            if f.total <= 0.0:
                raise ValueError("mode %d has an all-zero outcome distribution" % j)
            k_of, i_of = tables[j]
            for rows, o in _draws(f.cumulative, _derive_seed(seed, j), T):
                k[rows, j], i[rows, j] = k_of[o], i_of[o]
    else:
        joint = dist.joint
        cum = np.cumsum(joint.ravel(order="F"))
        if cum.size == 0 or cum[-1] <= 0.0:
            raise ValueError("cannot sample from an all-zero outcome distribution")
        for rows, o in _draws(cum, seed, T):
            per_mode = np.unravel_index(o, joint.shape, order="F")
            for j, ((k_of, i_of), o_j) in enumerate(zip(tables, per_mode)):
                k[rows, j], i[rows, j] = k_of[o_j], i_of[o_j]
    t = np.repeat(np.arange(T, dtype=_index_dtype(T - 1)), S)
    mode = np.tile(np.arange(S, dtype=_index_dtype(S - 1)), T)
    return Records(t, mode, k.ravel(), i.ravel())


def _measured_modes(config, observables, tables):
    """Sorted observable modes; ValueError for one outside 0..S-1 or, given tables, without one."""
    V = sorted(observables)
    for j in V:
        if not 0 <= j < config.S:
            raise ValueError("observable mode %d outside 0..%d" % (j, config.S - 1))
        if tables is not None and j not in tables:
            raise ValueError("no snapshot table supplied for mode %d" % j)
    return V


def estimate_local(records, config, tables, observables, variant="plain-mean"):
    """Estimate a tensor-product local observable from multi-mode records.

    ``observables`` maps mode index -> Observable for the non-trivially
    measured modes V; every other mode carries the identity.  The per-shot
    value is the product over V of the per-mode snapshot values, so V = {}
    makes every shot contribute exactly 1.  ``tables`` maps mode index ->
    strict-mode SnapshotTable of that mode's POVM (only modes in V are
    required); a table of another POVM raises ``ValueError``.  The report's
    ``inversion`` is ``"strict"`` and its ``threshold`` the tables' common
    eigenvalue threshold, or a {mode: threshold} map when they differ; both
    are ``None`` for V = {}.
    """
    V = _measured_modes(config, observables, tables)
    Ms = [p.binning.M for p in config.povms]
    Ns = [p.grid.N for p in config.povms]
    # Per-mode value tables, padded to max(M) x max(N) and stacked so that
    # row (mode, k, i) reads entry (mode*Mp + i)*Np + k; 1.0 off V.
    Mp, Np = max(Ms), max(Ns)
    lookup = np.ones((config.S, Mp, Np))
    for j in V:
        table = tables[j]
        if table.mode != shadow_mod.MODE_STRICT:
            raise ValueError(
                "mode %d snapshot table is %r; local estimation requires "
                "strict-mode tables" % (j, table.mode)
            )
        config.povms[j]._require(table.povm, "mode %d snapshot table" % j)
        lookup[j, :Ms[j], :Ns[j]] = snapshot_values(table, observables[j])
    rec, order = _checked(records, Ms, Ns)
    # Rows in (t, mode) order, the stream's own when sorted: a shot's rows in ascending mode.
    t, mode, k, i = rec.columns() if order is None else (c[order] for c in rec.columns())
    # Blocks of about _BLOCK rows (at least S: a shot's most) cut where a shot
    # starts; the empty first part leaves an empty stream to _aggregate's error.
    parts, lo, size = [np.empty(0)], 0, max(_BLOCK, config.S)
    while lo < t.size:
        end = lo + size
        hi = t.size if end >= t.size else lo + int(np.searchsorted(t[lo:end], t[end]))
        t_b, mode_b, k_b, i_b = t[lo:hi], mode[lo:hi], k[lo:hi], i[lo:hi]
        starts = np.flatnonzero(np.concatenate(([True], t_b[1:] != t_b[:-1])))
        # (t, mode) pairs are unique, so a shot has every mode iff there are S
        # rows per shot, and every mode of V iff it has len(V) rows in V.
        if V and starts.size * config.S != t_b.size:
            gaps = np.flatnonzero(np.add.reduceat(np.isin(mode_b, V), starts) < len(V))
            if gaps.size:
                a, b = np.append(starts, t_b.size)[gaps[0]:gaps[0] + 2]
                t_gap = int(t_b[a])
                j = next(j for j in V if j not in mode_b[a:b])
                raise MalformedRecordError("shot %d has no record for mode %d" % (t_gap, j),
                                           ordinal=t_gap)
        # A shot's value is the product of its rows' values in ascending mode
        # order; the 1.0 factors off V are exact, so this is the sorted-V product.
        index = np.multiply(mode_b, Mp, dtype=np.intp)  # (mode*Mp + i)*Np + k, unwrapped
        index += i_b
        index *= Np
        index += k_b
        parts.append(np.multiply.reduceat(np.take(lookup, index), starts))
        lo = hi
    values = np.concatenate(parts)
    del parts  # else the blocks live on beside the temporary of np.std
    mean, stderr, variant_str = shadow_mod._aggregate(values, variant)
    label = " * ".join(
        getattr(observables[j], "label", "X") for j in V
    ) if V else "identity"
    thresholds = {j: tables[j].threshold for j in V}
    common = set(thresholds.values())
    threshold = thresholds if len(common) > 1 else next(iter(common), None)
    return EstimateReport(
        mean, stderr, values.size, variant_str, observable_label=label,
        inversion=shadow_mod.MODE_STRICT if V else None, threshold=threshold,
    )


def multi_shadow_norm(config, observables, tables=None):
    """Product over measured modes of the single-mode shadow norms.

    Builds strict-mode snapshot tables from the configuration when none are
    supplied.  The product bounds the variance of the tensor-product
    estimator just as the single-mode norm does in one mode.
    """
    out = 1.0
    for j in _measured_modes(config, observables, tables):
        povm = config.povms[j]
        if tables is not None:
            table = tables[j]
        else:
            inv = shadow_mod.invert_frame(shadow_mod.frame_operator(povm))
            table = shadow_mod.snapshots(povm, inv)
        out *= shadow_mod.shadow_norm(observables[j], table, povm)
    return float(out)


def _encode_rows(cols):
    """ASCII bytes of ``"%d,%d,%d,%d\\n"`` per row of index columns (int64 >= 0).

    Each row fills one line of a uint8 matrix: every field is right-aligned
    in a fixed width (the digit count of its column's maximum), the
    separators sit in fixed columns, and unused leading places stay 0.
    Dropping the zeros leaves the formatted text.
    """
    widths = [len(str(int(c.max()))) for c in cols]
    mat = np.zeros((cols[0].size, sum(widths) + len(cols)), dtype=np.uint8)
    end = 0
    for c, width in zip(cols, widths):
        end += width
        v = c.astype(np.uint32 if width <= 9 else np.uint64)
        ten = v.dtype.type(10)
        for place in range(end - 1, end - width - 1, -1):
            q = v // ten
            digit = (v - q * ten).astype(np.uint8) + np.uint8(48)
            mat[:, place] = digit if place == end - 1 else digit * (v != 0)
            v = q
        mat[:, end] = ord(",")
        end += 1
    mat[:, -1] = ord("\n")
    return mat[mat != 0].tobytes()


def write_records(path, records):
    """Write records as CSV with header ``t,mode,k,i`` (LF line endings).

    The bytes are those of ``"%d,%d,%d,%d\\n"`` per row.  Rows are encoded
    ``_BLOCK`` at a time as a numpy byte matrix (see :func:`_encode_rows`),
    so memory stays bounded and no row becomes a Python integer.
    """
    rec = checked_records(records)
    cols = rec.columns()
    with open(path, "wb") as fh:
        fh.write((",".join(RECORD_HEADER) + "\n").encode("ascii"))
        for start in range(0, len(rec), _BLOCK):
            fh.write(_encode_rows([c[start:start + _BLOCK] for c in cols]))


_INT64_RANGE = range(-(2**63), 2**63)


def _index_problem(field, bound=None):
    """Why ``field`` is not an index in 0..bound-1 (any int64 >= 0 without bound)."""
    text = field.strip()
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()) or int(text) not in _INT64_RANGE:
        return "%r is not a 64-bit decimal integer" % field
    if int(text) < 0:
        return "%r is negative" % field
    if bound is not None and int(text) >= bound:
        return "%r is outside 0..%d" % (field, bound - 1)
    return None


def _quadrature_problem(field):
    """Why ``field`` is not a finite decimal number."""
    try:
        if "_" in field or not np.isfinite(float(field)):
            return "%r is not a finite number" % field
    except ValueError:
        return "%r is not a decimal number" % field
    return None


def _undecoded_problem(row):
    """Why a row read with errors="surrogateescape" is not UTF-8 text; None if it is."""
    text = ",".join(row)
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:  # surrogateescape reads byte b as U+DC00 + b
        return "byte 0x%02x is not UTF-8 text" % (ord(text[exc.start]) - 0xDC00)
    return None


def _row_problem(row, header, checks):
    if problem := _undecoded_problem(row):
        return problem
    if len(row) != len(checks):
        return "expected %d fields, got %d" % (len(checks), len(row))
    for name, check, field in zip(header, checks, row):
        problem = check(field)
        if problem:
            return "%s %s" % (name, problem)
    return None


def _raise_first_bad_row(path, header, checks, cause=None):
    """Raise MalformedRecordError at the first data row a field check rejects.

    Only called once a vectorized pass has found a bad row, so this
    per-line rescan runs on error paths alone; it names the row's 1-based
    file line, counting empty lines, which numpy's reader does not.  A
    byte that is not UTF-8 makes its row bad.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or lineno == 1:
                continue
            problem = _row_problem(row, header, checks)
            if problem:
                raise MalformedRecordError(
                    "line %d: %s" % (lineno, problem), ordinal=lineno
                ) from cause
    raise MalformedRecordError("%s: %s" % (path, cause), ordinal=0) from cause


def _load_table(path, header, dtype, checks):
    """Data rows of a headed four-column CSV, parsed by numpy's C reader.

    Line 1 must hold ``header`` unless it is empty; empty lines are skipped
    and fields may carry surrounding spaces, but a line of spaces is a row
    of one field.  Rows numpy cannot parse, a byte that is not UTF-8 among
    them, raise through :func:`_raise_first_bad_row` with ``checks``.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        row = next(csv.reader([fh.readline()]), [])
        if row and tuple(c.strip() for c in row) != header:
            raise MalformedRecordError("line 1: %s" % (
                _undecoded_problem(row)
                or "expected header %s, got %r" % (",".join(header), ",".join(row))
            ), ordinal=1)
        # numpy warns on input without data, so stop at an all-empty remainder.
        if not any(line.strip("\n") for line in fh):
            return np.empty(0, dtype=dtype)
    # numpy reads a file name in blocks but a handle line by line.  It would
    # also decompress a name ending in .bz2, .gz, .lzma or .xz, so such a
    # (plain-text) file goes through a handle.
    name = os.fsdecode(path)
    by_name = os.path.splitext(name)[1] not in (".bz2", ".gz", ".lzma", ".xz")
    try:
        with contextlib.nullcontext(name) if by_name else open(name, encoding="utf-8") as src:
            return np.loadtxt(
                src, dtype=dtype, delimiter=",", comments=None, quotechar='"', ndmin=1,
                skiprows=1, encoding="utf-8",
            )
    except ValueError as exc:
        _raise_first_bad_row(path, header, checks, exc)


_RECORD_DTYPE = np.dtype([(name, np.int64) for name in RECORD_HEADER])
_RAW_DTYPE = np.dtype([(name, np.int64) for name in RAW_HEADER[:3]] + [("x", np.float64)])


def _decoded_fields(buf):
    """(4, n) int64 fields of the n canonical lines in uint8 ``buf``, or None for other bytes.

    ',' (44) and '\\n' (10) are the only bytes below '0' (48) there, so one
    ``flatnonzero`` finds every field's end; fields are summed a place at a time.
    """
    ends = np.flatnonzero(buf < 48)
    if ends.size % 4 or buf.max() > 57 or not (buf[ends].reshape(-1, 4) == [44, 44, 44, 10]).all():
        return None
    widths = np.diff(ends, prepend=-1)
    widths -= 1
    if widths.min() < 1 or widths.max() > 18:
        return None
    # Row c of each: column c's fields, contiguous for the place loop.
    ends = ends.reshape(-1, 4).T.copy()
    widths = widths.reshape(-1, 4).T.copy()
    fields = np.zeros(ends.shape, dtype=np.int64)
    for out, end, width in zip(fields, ends, widths):
        W = int(width.max())
        for place in range(W):
            end -= 1
            byte = buf.take(end)
            if place >= width.min():
                byte[width <= place] = 48  # a short field is padded with '0'
            out += np.multiply(byte, 10**place, dtype=np.int64)
        out -= 48 * (10**W - 1) // 9  # the '0' byte at each of the W places
    return fields


def _decoded_records(path):
    """:class:`Records` of a file in :func:`write_records`' exact format, else None.

    That is the header line, then lines of four fields of 1-18 ASCII digits
    split by ',' and ended by '\\n'.  Pieces of ``8 * _BLOCK`` bytes are
    decoded in turn, each field narrowed to the dtype of its piece's maximum,
    and each column is joined once at the end.  The mode is stored once
    unless it changes.
    """
    header = (",".join(RECORD_HEADER) + "\n").encode("ascii")
    columns, first, changed, tail = [[], [], [], []], None, False, b""
    with open(path, "rb") as fh:
        if fh.read(len(header)) != header:
            return None
        for piece in iter(functools.partial(fh.read, 8 * _BLOCK), b""):
            data = tail + piece
            cut = data.rfind(b"\n") + 1
            fields = _decoded_fields(np.frombuffer(data, np.uint8, cut)) if cut else None
            if fields is None:
                return None
            tail = data[cut:]
            t, modes, k, i = map(_narrowed, fields)
            first = modes[:1] if first is None else first
            if (modes == first).all():  # a view of the first mode, until one differs
                modes = np.broadcast_to(first, modes.size)
            else:
                changed = True
            for column, field in zip(columns, (t, modes, k, i)):
                column.append(field)
    if tail:
        return None
    if first is None:  # the header alone
        return Records(*[np.empty(0, dtype=np.uint8)] * 4)
    if not changed:
        columns[1] = [first]  # broadcast to every row below
    for j, pieces in enumerate(columns):  # each column's pieces go once it is joined
        columns[j] = np.concatenate(pieces)
    t, mode, k, i = columns
    return Records(t, mode if changed else np.broadcast_to(mode, t.size), k, i)


def ingest_records(path):
    """Read a record CSV back into :class:`Records`.

    A file in :func:`write_records`' exact format is decoded in blocks
    (:func:`_decoded_records`) into narrow columns; any other goes to
    ``np.loadtxt``, whose path gives every error and whose columns are int64
    fields of its parsed rows.  Empty files yield an empty stream; empty
    lines are skipped (a line of spaces is not empty) and fields may carry
    surrounding spaces.  Malformed rows, negative indices and bytes that are
    not UTF-8 raise with their 1-based line number.
    """
    if (decoded := _decoded_records(path)) is not None:
        return decoded
    checks = [_index_problem] * 4
    data = _load_table(path, RECORD_HEADER, _RECORD_DTYPE, checks)
    try:  # views of the parsed array: copies would double the call's peak memory
        return Records(*(data[name] for name in RECORD_HEADER))
    except MalformedRecordError as exc:  # a negative field
        _raise_first_bad_row(path, RECORD_HEADER, checks, exc)


def bin_raw(path, grid, binning):
    """Bin raw quadrature rows ``t,mode,k,x`` into measurement records.

    Bins are right-open ([x_i, x_{i+1})), so a value exactly on an interior
    edge belongs to the bin on its right.  Out-of-range values follow the
    binning's tail policy: extend-tails clamps them into the adjacent edge
    bin, strict-finite drops them.  Returns ``(records, dropped_fraction)``;
    the columns are narrow copies, so the parsed rows are freed.
    """
    checks = [_index_problem, _index_problem, lambda f: _index_problem(f, grid.N),
              _quadrature_problem]
    data = _load_table(path, RAW_HEADER, _RAW_DTYPE, checks)
    t, mode, k, x = (data[name] for name in data.dtype.names)  # views, as in ingest_records
    if x.size and (min(t.min(), mode.min(), k.min()) < 0 or k.max() >= grid.N
                   or not np.isfinite([x.min(), x.max()]).all()):  # NaN and inf reach min or max
        _raise_first_bad_row(path, RAW_HEADER, checks)
    M, edges = binning.M, binning.edges
    above = np.empty(x.size, dtype=_index_dtype(M + 1))  # one past the bin: 0 .. M + 1
    for start in range(0, x.size, _BLOCK):  # searchsorted copies a strided x: a block at a time
        above[start:start + _BLOCK] = np.searchsorted(edges, x[start:start + _BLOCK], "right")
    if binning.tail_mode == "extend-tails":
        np.clip(above, 1, M, out=above)
    outside = (above == 0) | (above > M)
    fraction = np.count_nonzero(outside) / x.size if x.size else 0.0
    rows = ~outside if fraction else slice(None)
    t, mode, k, i = (_narrowed(c[rows]) for c in (t, mode, k, above))
    i -= 1
    return Records(t, mode, k, i), fraction
