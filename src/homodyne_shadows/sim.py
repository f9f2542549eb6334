"""Measurement simulation and multi-mode estimation.

Outcome probabilities are computed exactly from the trace pairing
P(i,k) = Tr(rho Pi_{i,k}); sampling then draws directly from this discrete
distribution by inverse CDF, with per-shot randomness derived from
(seed, shot index) through a counter-based 64-bit mixer so that record
streams are reproducible bit-for-bit and independent of execution order.

The module also houses the indistinguishability experiment that exhibits
state pairs with identical statistics when the phase count is too small,
and tensor-product multi-mode distributions and local-observable estimation.
"""

from typing import NamedTuple

import numpy as np

from . import shadow as shadow_mod
from .errors import InvariantViolationError, MalformedRecordError, UnsupportedConfigurationError
from .errors import _whole
from .povm import TAIL_EXTEND, BinningScheme, PhaseGrid, PovmSet, build_povm, default_half_width
from .povm import _counts, necessary_condition
# write_records and ingest_records stay reachable as sim.*, the names the CLI calls them by.
from .records import _BLOCK, Records, _checked, _index_dtype, ingest_records, write_records
from .shadow import EstimateReport, outcome_probabilities, snapshot_values
from .states import _state, superposition_pair, trace_distance

__all__ = [
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
]

_NEGATIVE_CLAMP = -1e-12


class OutcomeDistribution:
    """Exact outcome probabilities of one mode.

    ``probabilities[i, k]`` is P(i, k).  ``deficit`` is the probability
    mass missing from 1 (nonzero in strict-finite mode, where the Gaussian
    tails are unmeasured).
    """

    def __init__(self, probabilities, deficit):
        self.probabilities = probabilities.view()
        self.probabilities.setflags(write=False)
        self.deficit = float(deficit)

    @property
    def M(self):
        return self.probabilities.shape[0]

    @property
    def N(self):
        return self.probabilities.shape[1]

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
    extend_tails = all(p.binning.tail_mode == TAIL_EXTEND for p in povms)
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
    A plain array ``rho`` must pass :class:`~homodyne_shadows.states.DensityMatrix`'s rules.
    """
    P, total = _checked_probabilities(outcome_probabilities(_state(rho), povm), [povm])
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
    z += np.uint64(seed)
    return _mix64(z)


def _derive_seed(seed, salt):
    """Independent 64-bit substream seed for (seed, salt)."""
    z = np.array([(seed ^ (salt + 0x5851F42D) * int(_SM_GAMMA)) & _MASK64], dtype=np.uint64)
    return int(_mix64(z)[0])


def _uniform(z):
    """Uniforms in [0, 1) of mixed words: their top 53 bits times 2**-53."""
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _cumulative(P, what="an"):
    """Running sums of P over the flat outcomes o = k*M + i: the table that draws search.

    ``P`` is an (M, N) table or a joint one with an axis per mode.  An
    all-zero table raises ``ValueError``; ``what`` names it in the message.
    """
    cumulative = np.cumsum(P.ravel(order="F"))
    if cumulative.size == 0 or cumulative[-1] <= 0.0:
        raise ValueError("cannot sample from %s all-zero outcome distribution" % what)
    return cumulative


def _guide(cumulative, T):
    """Guide table for T draws from a cumulative table of K outcomes.

    It splits [0, 1) into B = 2**b >= min(16K, T) equal buckets, so its
    build, B + 1 sorted searches, costs under two per draw.  B is at least
    2, so the shift to a word's top b bits stays below 64.  At most K buckets
    hold a CDF step, from T >= 16K on at most one in 16.  A draw that lands
    in one needs a search.  As rounding of ``u * total`` is monotone, the
    draw of a uniform u lies between the draws at its bucket's ends.  Entry
    j is that draw when the two agree, and -1 when bucket j holds a CDF step.
    """
    B = 1 << max(min(16 * cumulative.size, T) - 1, 1).bit_length()
    ends = np.searchsorted(cumulative, np.arange(B + 1) / B * cumulative[-1], side="right")
    return np.where(ends[:-1] == ends[1:], ends[:-1], -1)


def _draw_flat(cumulative, z, guide):
    """Inverse-CDF lookup of flat outcome indices for mixed 64-bit words z.

    Equals ``np.searchsorted(cumulative, u * total, side="right")`` with
    ``total = cumulative[-1]`` for the uniforms u of z (:func:`_uniform`).
    The bucket floor(u*B) of u in the :func:`_guide` table is the top b
    bits of z, and only draws whose bucket holds a CDF step become floats
    and are searched.
    """
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


def sample(dist, T, seed):
    """Draw T i.i.d. records of mode 0 from an outcome distribution.

    Deterministic for fixed (dist, T, seed): shot t consumes the t-th value
    of the counter-based stream, independent of batching or worker count.
    The seed is a whole number in 0..2**64-1.
    """
    T = _whole(T, "shot count T", 1)
    seed = _whole(seed, "seed", 0, _MASK64)
    k_of, i_of = _outcome_tables(dist.M, dist.N)
    k = np.empty(T, dtype=k_of.dtype)
    i = np.empty(T, dtype=i_of.dtype)
    for rows, o in _draws(_cumulative(dist.probabilities), seed, T):
        k[rows], i[rows] = k_of[o], i_of[o]
    t = np.arange(T, dtype=_index_dtype(T - 1))
    return Records(t, np.broadcast_to(0, T), k, i)


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
    with the pair's trace distance.  Where :func:`~homodyne_shadows.povm.necessary_condition`
    fails, the level is N when N <= n_max and N/2 otherwise: there the
    pair provably yields identical statistics for every binning, so the gap
    sits at roundoff while the trace distance is large.  Outside those
    regimes pass ``fock_level`` explicitly to run the same construction as a
    control (an informationally complete POVM then shows a finite gap).
    """
    N, M, n_max = _counts(N, M, n_max)
    if fock_level is not None:
        level = _whole(fock_level, "fock_level", 1)
    elif not necessary_condition(N, n_max):
        level = N if N <= n_max else N // 2
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
    R = _state(rho_multi).matrix
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
    joint index.  Deterministic either way.  The seed is checked as in :func:`sample`.
    """
    T = _whole(T, "shot count T", 1)
    seed = _whole(seed, "seed", 0, _MASK64)
    # Shot-major, mode-minor rows: row t*S + j is mode j of shot t.
    S = dist.config.S
    tables = [_outcome_tables(p.binning.M, p.grid.N) for p in dist.config.povms]
    k = np.empty((T, S), dtype=np.result_type(*(k_of for k_of, _ in tables)))
    i = np.empty((T, S), dtype=np.result_type(*(i_of for _, i_of in tables)))
    if dist.factors is not None:
        for j, f in enumerate(dist.factors):
            cumulative = _cumulative(f.probabilities, "mode %d's" % j)
            k_of, i_of = tables[j]
            for rows, o in _draws(cumulative, _derive_seed(seed, j), T):
                k[rows, j], i[rows, j] = k_of[o], i_of[o]
    else:
        joint = dist.joint
        for rows, o in _draws(_cumulative(joint), seed, T):
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
    rec, order, shots = _checked(records, Ms, Ns)
    # Rows in (t, mode) order, the stream's own when sorted: a shot's rows in ascending mode.
    t, mode, k, i = rec.columns() if order is None else (c[order] for c in rec.columns())
    values = np.empty(shots)
    # Blocks of about _BLOCK rows (at least S: a shot's most) cut where a shot starts.
    lo, shot, size = 0, 0, max(_BLOCK, config.S)
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
        np.multiply.reduceat(np.take(lookup, index), starts, out=values[shot:shot + starts.size])
        lo, shot = hi, shot + starts.size
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
