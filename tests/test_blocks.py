"""The phase-class block path against a dense reference.

The reference keeps the dense formulas: the measurement matrix E with
column k*M + i = vec(Pi_{i,k}) built from ``element(i, k)``, the SVD of
E diag(w)^(-1/2) and its rank, the frame (E/w) E^dagger with ``eigh``, the
snapshots C^{-1}(E/w) devectorized one column at a time, and every sum over
outcomes as an explicit trace or weighted sum of these dense matrices.  The
library computes all of these from one thin SVD U diag(s) Wt of a small
real block per phase class (m - n) mod N, and from one pairing over
diagonal offsets m - n; the tests rebuild the frame blocks (U s^2) U^T and
the inverse blocks from it (``conftest.frame_blocks``, ``pinv_blocks``).
Class N - r holds the transposes of class r's entries, so the library
computes one block per mirror pair r <-> N - r; the mirror tests below
check each class against the blocks built from that class's own rows.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homodyne_shadows import povm as pv
from homodyne_shadows import shadow as sh
from homodyne_shadows import sim
from homodyne_shadows.povm import (
    BinningScheme,
    PhaseGrid,
    build_povm,
    design_bins,
    is_informationally_complete,
)
from homodyne_shadows.states import Observable

from conftest import frame_blocks, pinv_block, pinv_blocks, random_density, random_hermitian


# name -> (scheme factory, N, n_max, expected rank)
CONFIGS = {
    "extend": (lambda: design_bins(3, 7, 5), 7, 3, 16),
    "strict": (
        lambda: BinningScheme.equal_spaced(8, 2.2, tail_mode=pv.TAIL_STRICT), 7, 3, 16
    ),
    # N = 7 < 2*n_max + 1: offsets 4 and -3 (and -4 and 3) share a class.
    "aliased": (lambda: design_bins(4, 7, 9), 7, 4, 25),
    # Even N <= 2*n_max: provably incomplete, inverted in pseudo mode.
    "aliased-incomplete": (lambda: BinningScheme.equal_spaced(8, 3.5), 6, 3, None),
    # Mirror-symmetric bins: one parity null direction, pseudo mode.
    "degenerate": (
        lambda: BinningScheme([-4.0, 0.0, 4.0], tail_mode=pv.TAIL_STRICT), 3, 1, 3
    ),
    # Unequal edges, so the estimator weights (the widths 1.1, 1.5, 2.5) differ.
    "weighted": (lambda: BinningScheme([-2.0, -0.9, 0.6, 3.1]), 5, 2, 9),
    # Class r = 0 has 4 rows but M = 2: zero-padded spectrum, pseudo mode.
    "tall": (lambda: BinningScheme.equal_spaced(2, 2.5), 7, 3, 8),
}


def vectorize(A):
    """Column-stacking vectorization of a square matrix, the frame's vec convention."""
    return np.asarray(A).reshape(-1, order="F")


def devectorize(v, d):
    """The d x d matrix whose column stacking is ``v``: the inverse of :func:`vectorize`."""
    return np.asarray(v).reshape((d, d), order="F")


class DenseReference:
    def __init__(self, povm, rtol=pv.DEFAULT_RANK_RTOL):
        d, M, N = povm.dim, povm.binning.M, povm.grid.N
        self.d, self.M, self.N = d, M, N
        self.E = np.stack(
            [vectorize(povm.element(i, k)) for k in range(N) for i in range(M)],
            axis=1,
        )
        self.w = np.tile(povm.binning.widths, N)
        self.s = np.linalg.svd(self.E / np.sqrt(self.w), compute_uv=False)
        self.rank = int(np.count_nonzero(self.s > rtol * self.s[0] * max(self.E.shape)))
        C = (self.E / self.w) @ self.E.conj().T
        self.C = 0.5 * (C + C.conj().T)
        self.lam, self.V = np.linalg.eigh(self.C)

    def snapshots(self, mode, threshold):
        lam = self.lam
        if mode == sh.MODE_STRICT:
            inv_lam = 1.0 / lam
        else:
            inv_lam = np.where(lam > threshold, 1.0 / np.where(lam > threshold, lam, 1.0), 0.0)
        Cinv = (self.V * inv_lam) @ self.V.conj().T
        cols = Cinv @ (self.E / self.w)
        snaps = np.empty((self.M, self.N, self.d, self.d), dtype=complex)
        for k in range(self.N):
            for i in range(self.M):
                A = devectorize(cols[:, k * self.M + i], self.d)
                snaps[i, k] = 0.5 * (A + A.conj().T)
        return snaps


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def case(request):
    factory, N, n_max, rank = CONFIGS[request.param]
    with warnings.catch_warnings():
        # The aliased designs sit below the sufficiency threshold on purpose.
        warnings.simplefilter("ignore", UserWarning)
        p = build_povm(PhaseGrid(N), factory(), n_max)
    return p, DenseReference(p), rank


def test_rank_and_spectrum_match_dense(case):
    p, ref, rank = case
    report = is_informationally_complete(p)
    assert report.rank == ref.rank
    if rank is not None:
        assert report.rank == rank
    assert report.singular_values.shape == ref.s.shape
    assert np.max(np.abs(report.singular_values - ref.s)) <= 1e-12 * ref.s[0]


def test_ic_report_matches_dense(case):
    p, ref, _ = case
    report = is_informationally_complete(p)
    assert report.rank == ref.rank
    assert report.complete == (ref.rank == p.dim**2)
    assert report.lambda_min == pytest.approx(ref.lam[0], abs=1e-14)
    if report.complete:
        assert report.lambda_min == report.singular_values[-1] ** 2
    else:
        # Below full rank the smallest singular values are roundoff: the frame is singular.
        assert report.lambda_min == 0.0 == sh.frame_operator(p).lambda_min
        assert report.condition_number == math.inf
    if ref.lam[0] > sh.DEFAULT_THRESHOLD:
        assert report.condition_number == pytest.approx(ref.lam[-1] / ref.lam[0], rel=1e-8)


def test_frame_matches_dense(case):
    p, ref, _ = case
    frame = sh.frame_operator(p)
    assert np.max(np.abs(frame.eigenvalues - ref.lam)) <= 1e-14
    off_blocks = np.ones(ref.C.shape, dtype=bool)
    for idx, C, lam, U in frame_blocks(frame):
        assert np.max(np.abs(C - ref.C[np.ix_(idx, idx)])) <= 1e-15
        off_blocks[np.ix_(idx, idx)] = False
        assert np.max(np.abs(U.T @ U - np.eye(lam.size))) <= 1e-12
        assert np.max(np.abs(ref.C[np.ix_(idx, idx)] @ U - U * lam)) <= 1e-14
    assert np.max(np.abs(ref.C[off_blocks]), initial=0.0) <= 1e-15


def test_snapshots_match_dense(case):
    p, ref, _ = case
    complete = is_informationally_complete(p).complete
    mode = sh.MODE_STRICT if complete else sh.MODE_PSEUDO
    inv = sh.invert_frame(sh.frame_operator(p), mode=mode)
    table = sh.snapshots(p, inv)
    expected = ref.snapshots(mode, inv.threshold)
    scale = max(1.0, float(np.max(np.abs(expected))))
    dense = np.array([[table.snapshot(i, k) for k in range(ref.N)] for i in range(ref.M)])
    assert np.max(np.abs(dense - expected)) <= 1e-9 * scale

    # Every sum over outcomes against its dense formula on the reference
    # elements and snapshots: a wrong diagonal offset or phase folding would
    # show in the aliased classes.
    rng = np.random.default_rng(7)
    rho = random_density(p.n_max, rng)
    X = Observable(random_hermitian(p.dim, rng))
    elements = ref.E.T.reshape(ref.N, ref.M, ref.d, ref.d).transpose(1, 0, 3, 2)
    P = np.real(np.einsum("mn,iknm->ik", rho.matrix, elements))
    assert np.max(np.abs(sh.outcome_probabilities(rho, p) - P)) <= 1e-14
    vals = np.real(np.einsum("mn,iknm->ik", X.matrix, expected))
    v_scale = scale * np.abs(X.matrix).sum()
    assert np.max(np.abs(sh.snapshot_values(table, X) - vals)) <= 1e-9 * v_scale
    avg = np.einsum("ik,ikmn->mn", P, expected)
    assert np.max(np.abs(sh.exact_average_snapshot(P, table) - avg)) <= 1e-9 * scale
    if complete:  # strict snapshots are unbiased, whatever the bin widths
        assert np.max(np.abs(avg - rho.matrix)) <= 1e-8
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # pseudo-mode tables warn
        variance = sh.exact_variance(rho, X, table, p)
    truth = np.real(np.trace(rho.matrix @ X.matrix))
    assert abs(variance - (np.sum(P * vals**2) - truth**2)) <= 1e-9 * v_scale**2
    second = np.einsum("ik,ikmn->mn", vals**2, elements)
    norm = np.linalg.eigvalsh(0.5 * (second + second.conj().T))[-1]
    assert abs(sh.shadow_norm(X, table, p) - norm) <= 1e-9 * v_scale**2
    records = sim.sample(sim.outcome_distribution(rho, p), 500, seed=3)
    counts = np.zeros((ref.M, ref.N))
    np.add.at(counts, (records.i, records.k), 1.0)
    state = np.einsum("ik,ikmn->mn", counts / len(records), expected)
    assert np.max(np.abs(sh.reconstruct_state(records, table) - state)) <= 1e-9 * scale


def test_pseudo_threshold_inside_spectrum_matches_dense(case):
    # A threshold in the widest gap of the positive spectrum drops real
    # directions, so dropping by s rather than by s^2 would show.
    p, ref, _ = case
    lam = ref.lam[ref.lam > sh.DEFAULT_THRESHOLD]
    j = int(np.argmax(lam[1:] / lam[:-1]))
    threshold = math.sqrt(lam[j] * lam[j + 1])
    table = sh.snapshots(p, sh.invert_frame(sh.frame_operator(p), sh.MODE_PSEUDO, threshold))
    expected = ref.snapshots(sh.MODE_PSEUDO, threshold)
    scale = max(1.0, float(np.max(np.abs(expected))))
    dense = np.array([[table.snapshot(i, k) for k in range(ref.N)] for i in range(ref.M)])
    assert np.max(np.abs(dense - expected)) <= 1e-9 * scale


def test_inverse_matrix_matches_dense(case):
    p, ref, _ = case
    frame = sh.frame_operator(p)
    inv = sh.invert_frame(frame, mode=sh.MODE_PSEUDO)
    keep = ref.lam > inv.threshold
    inv_lam = np.where(keep, 1.0 / np.where(keep, ref.lam, 1.0), 0.0)
    Cinv = (ref.V * inv_lam) @ ref.V.conj().T
    tol = 1e-9 * max(1.0, np.max(np.abs(Cinv)))
    off_blocks = np.ones(Cinv.shape, dtype=bool)
    for idx, Cinv_r in pinv_blocks(inv):
        assert np.max(np.abs(Cinv_r - Cinv[np.ix_(idx, idx)])) <= tol
        off_blocks[np.ix_(idx, idx)] = False
    assert np.max(np.abs(Cinv[off_blocks]), initial=0.0) <= tol


# Non-aliased grids at benchmark size, next to the CONFIGS cases.
MIRROR_SIZES = {"20-41-100": (20, 41, 100), "30-61-40": (30, 61, 40)}


@pytest.fixture(scope="module", params=sorted(CONFIGS) + sorted(MIRROR_SIZES))
def mirror_case(request):
    if request.param in MIRROR_SIZES:
        n_max, N, M = MIRROR_SIZES[request.param]
        return build_povm(PhaseGrid(N), design_bins(n_max, N, M), n_max)
    factory, N, n_max, _ = CONFIGS[request.param]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return build_povm(PhaseGrid(N), factory(), n_max)


# d <= 9 and N <= 2d + 2 hold aliased grids (N < 2d - 1), complete ones and the
# self-mirror class N/2 of even N.
@pytest.mark.parametrize("d", range(1, 10))
def test_phase_classes_match_unique_enumeration(d):
    m, n = np.indices((d, d))
    for N in range(1, 2 * d + 3):
        cls = (m - n) % N
        expected = []
        for r in np.unique(cls):
            if 2 * r > N:
                break
            sel = cls == r
            rows = [m[sel] + n[sel] * d, n[sel] + m[sel] * d]
            expected.append(np.array(rows[: 2 if 0 < 2 * r < N else 1]))
        got = pv._phase_classes(d, N)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and np.array_equal(a, b)
            assert not a.flags.writeable


def _own_blocks(p, r):
    """vec index, weighted block B and its thin SVD (U, s, Wt) of class r from its own rows."""
    d, N = p.dim, p.grid.N
    m, n = np.indices((d, d))
    sel = (m - n) % N == r
    B = p.G[:, m[sel], n[sel]].T / np.sqrt(N * p.binning.widths)
    return (m + n * d)[sel], B, np.linalg.svd(B, full_matrices=False)


def test_mirror_blocks_match_own_rows(mirror_case):
    p = mirror_case
    d, N = p.dim, p.grid.N
    aliased = N < 2 * d - 1
    frame = sh.frame_operator(p)
    threshold = sh.DEFAULT_THRESHOLD
    classes = [int(r) for r in np.unique(np.subtract.outer(np.arange(d), np.arange(d)) % N)]
    seen = []
    for (idx, B), (fidx, U, s, Wt) in zip(pv._phase_blocks(p), frame.pairs):
        assert idx is fidx
        assert not (U.flags.writeable or s.flags.writeable or Wt.flags.writeable)
        for row in idx:
            r = int((row[0] % d - row[0] // d) % N)  # row[0] = m + n*d
            seen.append(r)
            own_idx, own_B, own_svd = _own_blocks(p, r)
            # The order in which the library lists this class's rows.
            order = np.argsort(row)[np.argsort(np.argsort(own_idx))]
            assert np.array_equal(row[order], own_idx)
            assert np.array_equal(B[order], own_B)
            if not aliased:
                assert np.array_equal(order, np.arange(row.size))
                for a, b in zip((U, s, Wt), own_svd):
                    assert np.array_equal(a, b)
                continue
            own_U, own_s, _ = own_svd
            C = (U * s**2) @ U.T
            own_C = (own_U * own_s**2) @ own_U.T
            assert np.max(np.abs(C[np.ix_(order, order)] - own_C)) <= 1e-15
            own_inv = pinv_block(own_U, own_s, threshold)
            tol = 1e-9 * max(1.0, np.max(np.abs(own_inv)))
            Cinv = pinv_block(U, s, threshold)
            assert np.max(np.abs(Cinv[np.ix_(order, order)] - own_inv)) <= tol
    assert sorted(seen) == classes


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(1, 12),
    N=st.integers(1, 30),
    M=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
# Aliased with N even and odd, then non-aliased with N even and odd.
@example(d=12, N=6, M=3, seed=1)
@example(d=12, N=7, M=3, seed=2)
@example(d=12, N=24, M=3, seed=3)
@example(d=12, N=23, M=3, seed=4)
@example(d=1, N=1, M=1, seed=5)
def test_pairing_matches_per_offset_trace(d, N, M, seed):
    rng = np.random.default_rng(seed)
    F = rng.normal(size=(M, d, d))
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    terms = F * A.T
    diag = np.stack([np.trace(terms, -delta, 1, 2) for delta in range(1 - d, d)], axis=1)
    delta = np.arange(1 - d, d)
    phases = np.exp(1j * delta[:, None] * PhaseGrid(N).thetas[None, :])
    expected = (diag @ phases).real / N
    scale = np.max(np.abs(terms).sum(axis=(1, 2))) / N
    assert np.max(np.abs(pv._pairing(A, F, PhaseGrid(N)) - expected)) <= 1e-14 * scale


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(1, 12),
    N=st.integers(1, 30),
    M=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=12, N=6, M=3, seed=1)
@example(d=12, N=23, M=3, seed=4)
@example(d=1, N=1, M=1, seed=5)
def test_adjoint_is_the_adjoint_of_pairing(d, N, M, seed):
    # sum W * pairing(A, F) = Re Tr(A adjoint(W, F)) for any real F, symmetric
    # or not, so the two kernels agree on every diagonal offset and phase.
    rng = np.random.default_rng(seed)
    F = rng.normal(size=(M, d, d))
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    W = rng.normal(size=(M, N))
    grid = PhaseGrid(N)
    lhs = np.sum(W * pv._pairing(A, F, grid))
    rhs = np.trace(A @ pv._adjoint(W, F, grid)).real
    scale = np.sum(np.abs(W).sum(axis=1) * np.abs(F * A.T).sum(axis=(1, 2))) / N
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_snapshots_reject_other_phase_grid():
    a = build_povm(PhaseGrid(5), BinningScheme.equal_spaced(3, 2.0), 2)
    b = build_povm(PhaseGrid(7), BinningScheme.equal_spaced(3, 2.0), 2)
    inv = sh.invert_frame(sh.frame_operator(a), mode=sh.MODE_PSEUDO)
    with pytest.raises(ValueError):
        sh.snapshots(b, inv)


@pytest.mark.parametrize(
    "other",
    [
        lambda s: BinningScheme.equal_spaced(5, 4.0),
        lambda s: BinningScheme(s.edges, tail_mode=pv.TAIL_STRICT),
    ],
    ids=["edges", "tail-mode"],
)
def test_snapshots_reject_other_binning(other):
    # Both POVMs are complete with the same n_max and phase grid, so only the
    # binning tells the inverse frame of one from that of the other; applied
    # to the wrong POVM it gives snapshots that no longer average to rho.
    scheme = design_bins(3, 7, 5)
    a = build_povm(PhaseGrid(7), scheme, 3)
    b = build_povm(PhaseGrid(7), other(scheme), 3)
    assert is_informationally_complete(b).complete
    inv = sh.invert_frame(sh.frame_operator(a))
    with pytest.raises(ValueError, match="binning"):
        sh.snapshots(b, inv)
    same = build_povm(PhaseGrid(7), BinningScheme(scheme.edges, scheme.tail_mode), 3)
    rho = random_density(3, np.random.default_rng(11))
    avg = sh.exact_average_snapshot(sh.outcome_probabilities(rho, same), sh.snapshots(same, inv))
    assert np.max(np.abs(avg - rho.matrix)) <= 1e-8
