"""Tests for frame inversion, snapshots, and estimator statistics."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homodyne_shadows import povm as pv
from homodyne_shadows import shadow as sh
from homodyne_shadows import sim
from homodyne_shadows.errors import (
    InvariantViolationError,
    MalformedRecordError,
    StrictModeSingularError,
)
from homodyne_shadows.povm import (
    TAIL_EXTEND,
    TAIL_STRICT,
    BinningScheme,
    PhaseGrid,
    build_povm,
    default_half_width,
    design_bins,
)
from homodyne_shadows.shadow import (
    EstimateReport,
    bernstein_samples,
    estimate_observable,
    exact_average_snapshot,
    exact_variance,
    frame_operator,
    invert_frame,
    outcome_probabilities,
    reconstruct_state,
    shadow_norm,
    snapshot_values,
    snapshots,
    variance_bound,
)
from homodyne_shadows.states import Observable, coherent, expectation, fock, number_operator

from conftest import frame_blocks, pinv_blocks, random_density, random_hermitian, records_of
from test_blocks import devectorize, vectorize


@pytest.fixture(scope="module")
def small_povm():
    scheme = design_bins(2, 5, 3)
    return build_povm(PhaseGrid(5), scheme, 2)


@pytest.fixture(scope="module")
def small_table(small_povm):
    return snapshots(small_povm, invert_frame(frame_operator(small_povm)))


@pytest.fixture(scope="module")
def degenerate_povm():
    # Mirror-symmetric bins leave a parity null direction (rank 3 of 4).
    b = BinningScheme([-4.0, 0.0, 4.0], tail_mode="strict-finite")
    return build_povm(PhaseGrid(3), b, 1)


class TestFrameOperator:
    def test_scalar_space(self):
        b = BinningScheme([-1.0, 0.0, 2.0], tail_mode="strict-finite")
        p = build_povm(PhaseGrid(2), b, 0)
        frame = frame_operator(p)
        expected = sum(
            abs(p.element(i, k)[0, 0]) ** 2 / b.widths[i]
            for i in range(2)
            for k in range(2)
        )
        assert frame.required == 1
        assert next(frame_blocks(frame))[1][0, 0] == pytest.approx(expected, rel=1e-12)

    def test_self_adjoint_and_psd(self, small_povm):
        frame = frame_operator(small_povm)
        for _, C, lam, _ in frame_blocks(frame):
            assert np.array_equal(C, C.T)
            assert np.all(lam >= 0)
        assert frame.lambda_min > 0
        lambda_max = frame.singular_values[0] ** 2
        assert lambda_max >= frame.lambda_min
        assert frame.condition_number == pytest.approx(lambda_max / frame.lambda_min)

    def test_degenerate_frame_has_null_direction(self, degenerate_povm):
        frame = frame_operator(degenerate_povm)
        assert frame.lambda_min < 1e-14
        assert frame.condition_number == np.inf or frame.condition_number > 1e12


class TestInvertFrame:
    def test_strict_inverse_is_exact(self, small_povm):
        frame = frame_operator(small_povm)
        inv = invert_frame(frame)
        for (idx, C, _, _), (_, Cinv) in zip(frame_blocks(frame), pinv_blocks(inv)):
            assert np.max(np.abs(Cinv @ C - np.eye(idx.size))) <= 1e-8

    def test_strict_mode_rejects_singular_frame(self, degenerate_povm):
        frame = frame_operator(degenerate_povm)
        with pytest.raises(StrictModeSingularError) as excinfo:
            invert_frame(frame)
        assert "pseudo" in str(excinfo.value)
        assert excinfo.value.lambda_min == frame.lambda_min

    @pytest.mark.parametrize("threshold", [0.0, 1e-40, 1e-12])
    def test_strict_mode_rejects_rank_deficient_povm(self, threshold):
        # (n_max, N, M) = (4, 6, 9) has rank 21 of 25.  Its smallest frame
        # eigenvalues are roundoff near 1e-34; strict inversion at threshold 0
        # once inverted them into snapshots of size 1e17.
        p = build_povm(PhaseGrid(6), BinningScheme.equal_spaced(9, default_half_width(4)), 4)
        frame = frame_operator(p)
        assert frame.lambda_min == 0.0
        assert frame.condition_number == np.inf
        with pytest.raises(StrictModeSingularError):
            invert_frame(frame, threshold=threshold)

    def test_pseudo_inverse_satisfies_penrose_identity(self, degenerate_povm):
        frame = frame_operator(degenerate_povm)
        inv = invert_frame(frame, mode=sh.MODE_PSEUDO)
        for (_, C, _, _), (_, Cinv) in zip(frame_blocks(frame), pinv_blocks(inv)):
            assert np.max(np.abs(C @ Cinv @ C - C)) <= 1e-9
            assert np.max(np.abs(Cinv @ C @ Cinv - Cinv)) <= 1e-9

    @pytest.mark.parametrize("mode", [sh.MODE_STRICT, sh.MODE_PSEUDO])
    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf, -1.0])
    def test_threshold_must_be_finite_and_nonnegative(self, degenerate_povm, mode, threshold):
        with pytest.raises(ValueError, match="finite and >= 0"):
            invert_frame(frame_operator(degenerate_povm), mode=mode, threshold=threshold)

    def test_invalid_mode(self, small_povm):
        with pytest.raises(ValueError):
            invert_frame(frame_operator(small_povm), mode="exact")

    # A pseudo threshold at or above lambda_max kept no direction: every
    # snapshot was zero, and so was every estimate.
    def test_pseudo_threshold_must_keep_a_direction(self, small_povm):
        frame = frame_operator(small_povm)
        lambda_max = float(frame.eigenvalues[-1])
        for threshold in (lambda_max, 1e300):
            with pytest.raises(ValueError, match="keeps no frame direction: threshold .* >= "
                               "lambda_max = %.3e" % lambda_max):
                invert_frame(frame, mode=sh.MODE_PSEUDO, threshold=threshold)
        below = np.nextafter(lambda_max, 0.0)
        table = snapshots(small_povm, invert_frame(frame, mode=sh.MODE_PSEUDO, threshold=below))
        assert np.count_nonzero(table.S) > 0


class TestSnapshots:
    def test_snapshots_are_hermitian(self, small_table):
        t = small_table
        for i in range(t.M):
            for k in range(t.N):
                A = t.snapshot(i, k)
                assert np.array_equal(A, A.conj().T)

    def test_unbiasedness_on_random_states(self, small_povm, small_table):
        rng = np.random.default_rng(41)
        for _ in range(5):
            rho = random_density(2, rng)
            P = outcome_probabilities(rho, small_povm)
            avg = exact_average_snapshot(P, small_table)
            assert np.max(np.abs(avg - rho.matrix)) <= 1e-8

    def test_exact_average_refuses_a_table_of_another_shape(self, small_povm, small_table):
        P = outcome_probabilities(fock(0, 2), small_povm)
        with pytest.raises(ValueError, match=r"shape \(5, 3\) does not match the 3 x 5 outcome"):
            exact_average_snapshot(P.T, small_table)

    def test_unbiasedness_on_ill_conditioned_design(self):
        # design_bins(7, 15, 8) has a frame condition number of 9.4e9.  The
        # snapshots apply the blocks' SVD and never square it, so the
        # inversion stays unbiased to roundoff.
        p = build_povm(PhaseGrid(15), design_bins(7, 15, 8), 7)
        frame = frame_operator(p)
        assert frame.condition_number > 1e9
        table = snapshots(p, invert_frame(frame))
        rng = np.random.default_rng(43)
        for _ in range(3):
            rho = random_density(7, rng)
            avg = exact_average_snapshot(outcome_probabilities(rho, p), table)
            assert np.max(np.abs(avg - rho.matrix)) <= 1e-10

    def test_element_trace_weighted_sum_is_identity(self, small_povm, small_table):
        # Unbiasedness applied to the maximally mixed state: weighting each
        # snapshot by its element's trace resolves the identity.
        total = sum(
            np.trace(small_povm.element(i, k)).real * small_table.snapshot(i, k)
            for i in range(small_table.M)
            for k in range(small_table.N)
        )
        assert np.max(np.abs(total - np.eye(3))) <= 1e-8

    def test_table_leaves_the_callers_array_writable(self, small_table):
        S = small_table.S.copy()
        table = sh.SnapshotTable(S, small_table.povm, small_table.mode, small_table.threshold)
        S[0, 0, 0] = 1.0
        assert not table.S.flags.writeable

    def test_dimension_mismatch_rejected(self, small_povm):
        frame = frame_operator(small_povm)
        inv = invert_frame(frame)
        b = BinningScheme.equal_spaced(2, 2.0)
        other = build_povm(PhaseGrid(3), b, 4)
        with pytest.raises(ValueError):
            snapshots(other, inv)

    def test_pairings_take_plain_arrays(self, small_povm, small_table):
        rho = random_density(2, np.random.default_rng(47))
        X = number_operator(2)
        for A in (rho.matrix, rho.matrix.tolist()):
            assert np.array_equal(outcome_probabilities(A, small_povm),
                                  outcome_probabilities(rho, small_povm))
        for A in (X.matrix, X.matrix.tolist()):
            assert np.array_equal(snapshot_values(small_table, A), snapshot_values(small_table, X))
        with pytest.raises(ValueError, match="^operator of shape \\(2, 2\\) does not match "
                                             "POVM dimension 3$"):
            snapshot_values(small_table, np.eye(2))

    def test_plain_operators_must_be_hermitian(self):
        # X = |0><1| is not Hermitian, and Tr(rho X) = 0.375j for rho below.
        # Read as a plain array, X once gave the estimate -0.0050 +- 0.0059,
        # Re Tr(rho X) with noise, and the shadow norm 8.65; Observable and
        # expectation refused it.  Now every pairing applies Observable's rule.
        povm = build_povm(PhaseGrid(7), design_bins(3, 7, 5), 3)
        table = snapshots(povm, invert_frame(frame_operator(povm)))
        with pytest.warns(UserWarning, match="loses probability"):
            rho = coherent(1j, 3)
        X = np.zeros((4, 4))
        X[0, 1] = 1.0
        records = sim.sample(sim.outcome_distribution(rho, povm), 2 * 10**5, 7)
        for call in (lambda: estimate_observable(records, table, X),
                     lambda: shadow_norm(X, table, povm),
                     lambda: exact_variance(rho, X, table, povm),
                     lambda: snapshot_values(table, X.tolist()),
                     lambda: outcome_probabilities(X, povm),
                     lambda: sim.outcome_distribution(X, povm),
                     lambda: exact_variance(X, number_operator(3), table, povm),
                     lambda: sim.joint_distribution(X, sim.MultiModeConfig([povm])),
                     lambda: expectation(rho, X)):
            with pytest.raises(InvariantViolationError,
                               match="^operator is not Hermitian within 1e-12$") as excinfo:
                call()
            assert excinfo.value.check == "hermitian"


class TestTableOfAnotherPovm:
    """A table read with another POVM than its own raises instead of returning a wrong number."""

    @pytest.fixture(scope="class")
    def setup(self):
        # The same (n_max, N, M) = (3, 7, 5); only the half-width differs.
        p1, p2 = (
            build_povm(PhaseGrid(7), BinningScheme.equal_spaced(5, L), 3) for L in (3.0, 4.5)
        )
        return p1, p2, snapshots(p1, invert_frame(frame_operator(p1))), number_operator(3)

    def test_shadow_norm(self, setup):
        # The (3.0) table read with the (4.5) POVM once gave 5.23, not 17.2.
        p1, p2, t1, X = setup
        with pytest.raises(ValueError, match="^snapshot table .* their bin edges differ"):
            shadow_norm(X, t1, p2)
        assert shadow_norm(X, t1, p1) > 0

    def test_exact_variance(self, setup):
        # Once 0.606, not 4.84, at coherent alpha = 1.
        p1, p2, t1, X = setup
        rho = random_density(3, np.random.default_rng(3))
        with pytest.raises(ValueError, match="^snapshot table .* their bin edges differ"):
            exact_variance(rho, X, t1, p2)
        assert exact_variance(rho, X, t1, p1) <= shadow_norm(X, t1, p1)


class TestPseudoMode:
    def test_pseudo_average_is_range_projection(self, degenerate_povm):
        frame = frame_operator(degenerate_povm)
        inv = invert_frame(frame, mode=sh.MODE_PSEUDO)
        table = snapshots(degenerate_povm, inv)
        proj = np.zeros((frame.required, frame.required))
        for idx, _, lam, U in frame_blocks(frame):
            keep = lam > inv.threshold
            proj[np.ix_(idx, idx)] = U[:, keep] @ U[:, keep].T
        rng = np.random.default_rng(9)
        rho = random_density(1, rng)
        P = outcome_probabilities(rho, degenerate_povm)
        avg = exact_average_snapshot(P, table)
        expected = devectorize(proj @ vectorize(rho.matrix), 2)
        assert np.max(np.abs(avg - expected)) <= 1e-9

    def test_null_direction_is_invisible(self, degenerate_povm):
        # Perturbing a state along the frame's null direction changes
        # neither the outcome distribution nor the pseudo reconstruction.
        frame = frame_operator(degenerate_povm)
        # The thin SVD lists s descending, so a block's last U column is its
        # weakest direction.
        idx, _, lam, U = min(frame_blocks(frame), key=lambda b: b[2][-1])
        null_vec = np.zeros(frame.required)
        null_vec[idx] = U[:, -1]
        assert frame.eigenvalues[0] < 1e-14
        A = devectorize(null_vec, 2)
        A = 0.5 * (A + A.conj().T)
        assert np.max(np.abs(A)) > 1e-3  # genuinely Hermitian null direction
        rho = fock(0, 1).matrix
        perturbed = rho + 0.05 * A
        P0 = outcome_probabilities(rho, degenerate_povm)
        P1 = outcome_probabilities(perturbed, degenerate_povm)
        assert np.max(np.abs(P0 - P1)) <= 1e-10
        table = snapshots(
            degenerate_povm, invert_frame(frame, mode=sh.MODE_PSEUDO)
        )
        avg0 = exact_average_snapshot(P0, table)
        avg1 = exact_average_snapshot(P1, table)
        assert np.max(np.abs(avg0 - avg1)) <= 1e-9


_signed_magnitudes = st.builds(lambda sign, m: sign * m, st.sampled_from([-1.0, 1.0]),
                               st.floats(1e-6, 1e6))


class TestMedian:
    """``shadow._median`` against ``np.median``, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 64), data=st.data())
    def test_equals_np_median(self, n, data):
        # Values drawn from a pool of at most n, so smaller pools give ties.
        pool = data.draw(st.lists(_signed_magnitudes, min_size=1, max_size=n))
        values = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        expected = float(np.median(values)).hex()
        assert sh._median(values).hex() == expected
        assert sh._median([np.float64(v) for v in values]).hex() == expected

    @pytest.mark.parametrize("values", [
        [0.0, -0.0, 1.0], [-0.0, 0.0, -1.0], [-0.0, -0.0], [0.0, -0.0],
        [1.0, np.nan, 2.0], [np.nan], [3.0, 1.0, np.inf, -np.inf],
    ])
    def test_signed_zero_nan_and_inf(self, values):
        assert sh._median(values).hex() == float(np.median(values)).hex()


class TestEstimateObservable:
    def test_report_refuses_negative_stderr(self):
        with pytest.raises(ValueError, match="standard error must be >= 0, got -0.1"):
            EstimateReport(1.0, -0.1, 3, "plain-mean")

    def test_report_takes_inversion_by_keyword_only(self):
        # The old positional (…, label, seed, povm_cache_key) call must not
        # land seed and key in inversion and threshold.
        with pytest.raises(TypeError):
            EstimateReport(1.0, 0.1, 3, "plain-mean", "X", 7, "key")
        report = EstimateReport(1.0, 0.1, 3, "plain-mean", "X", inversion="strict", threshold=0.0)
        assert (report.inversion, report.threshold, report.seed) == ("strict", 0.0, None)

    def test_plain_mean_matches_hand_average(self, small_table):
        n_op = number_operator(2)
        vals = snapshot_values(small_table, n_op)
        records = records_of([
            (0, 0, 1, 0),
            (1, 0, 4, 2),
            (2, 0, 0, 1),
        ])
        report = estimate_observable(records, small_table, n_op)
        expected = (vals[0, 1] + vals[2, 4] + vals[1, 0]) / 3.0
        assert report.mean == pytest.approx(expected, rel=1e-12)
        assert report.shots == 3
        assert report.variant == "plain-mean"

    def test_median_of_means(self, small_table):
        n_op = number_operator(2)
        vals = snapshot_values(small_table, n_op)
        records = records_of([(t, 0, t % 5, t % 3) for t in range(12)])
        report = estimate_observable(
            records, small_table, n_op, variant="median-of-means:3"
        )
        per_shot = np.array([vals[t % 3, t % 5] for t in range(12)])
        batch_means = [b.mean() for b in np.array_split(per_shot, 3)]
        assert report.mean == pytest.approx(np.median(batch_means), rel=1e-12)
        assert report.variant == "median-of-means:3"

    def test_variant_validation(self, small_table):
        n_op = number_operator(2)
        records = records_of([(0, 0, 0, 0)])
        with pytest.raises(ValueError):
            estimate_observable(records, small_table, n_op, variant="mode")
        with pytest.raises(ValueError):
            estimate_observable(
                records, small_table, n_op, variant="median-of-means:0"
            )

    def test_out_of_range_record_carries_ordinal(self, small_table):
        n_op = number_operator(2)
        records = records_of([
            (0, 0, 0, 0),
            (1, 0, 99, 0),
        ])
        with pytest.raises(MalformedRecordError) as excinfo:
            estimate_observable(records, small_table, n_op)
        assert excinfo.value.ordinal == 1

    def test_empty_stream_rejected(self, small_table):
        with pytest.raises(ValueError):
            estimate_observable(records_of([]), small_table, number_operator(2))

    def test_report_serialization_keys(self, small_table):
        records = records_of([(0, 0, 0, 0)])
        report = estimate_observable(records, small_table, number_operator(2))
        doc = report.to_json()
        assert set(doc) == {
            "observable_label",
            "mean",
            "stderr",
            "T",
            "variant",
            "seed",
            "povm_cache_key",
            "inversion",
            "threshold",
        }
        assert doc["T"] == 1
        assert (doc["seed"], doc["povm_cache_key"]) == (None, None)  # hshadow estimate sets them
        assert doc["inversion"] == small_table.mode
        assert doc["threshold"] == small_table.threshold

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 300),
        st.one_of(
            st.just("plain-mean"),
            st.just("median-of-means"),
            st.integers(1, 40).map("median-of-means:{}".format),
        ),
        st.integers(0, 2**32 - 1),
    )
    @example(103, "median-of-means:10", 0)  # B does not divide T
    @example(7, "median-of-means:20", 1)  # B > T: one shot per batch
    @example(1, "median-of-means", 2)  # a single shot
    def test_count_fold_equals_per_shot_formulas(self, small_table, T, variant, seed):
        rng = np.random.default_rng(seed)
        X = Observable(random_hermitian(small_table.dim, rng))
        records = records_of(np.column_stack([
            np.arange(T), np.zeros(T, dtype=int),
            rng.integers(0, small_table.N, T), rng.integers(0, small_table.M, T),
        ]))
        rep = estimate_observable(records, small_table, X, variant=variant)
        values = snapshot_values(small_table, X)[records.i, records.k]
        batches = int(variant.partition(":")[2] or sh.DEFAULT_BATCHES)
        B = 1 if variant == "plain-mean" else min(T, batches)
        mean = np.median([np.mean(batch) for batch in np.array_split(values, B)])
        stderr = np.std(values, ddof=1) / np.sqrt(T) if T > 1 else 0.0
        # Sums of equal values are exact only up to roundoff of their size,
        # so a mean or stderr near 0 is compared on the scale of the values.
        scale = 1e-12 * np.max(np.abs(values))
        assert rep.mean == pytest.approx(mean, rel=1e-12, abs=scale)
        assert rep.stderr == pytest.approx(stderr, rel=1e-12, abs=scale)
        assert rep.shots == T


class TestExactVariance:
    def test_matches_explicit_sum(self, small_povm, small_table):
        rng = np.random.default_rng(13)
        rho = random_density(2, rng)
        n_op = number_operator(2)
        v = exact_variance(rho, n_op, small_table, small_povm)
        acc = 0.0
        for i in range(small_table.M):
            for k in range(small_table.N):
                p = float(np.real(np.trace(rho.matrix @ small_povm.element(i, k))))
                val = float(
                    np.real(np.trace(n_op.matrix @ small_table.snapshot(i, k)))
                )
                acc += p * val**2
        acc -= expectation(rho, n_op) ** 2
        assert v == pytest.approx(acc, rel=1e-10)

    def test_quadratic_scaling(self, small_povm, small_table):
        rho = fock(1, 2)
        n_op = number_operator(2)
        tripled = Observable(3.0 * n_op.matrix, label="3n")
        v1 = exact_variance(rho, n_op, small_table, small_povm)
        v3 = exact_variance(rho, tripled, small_table, small_povm)
        assert v3 == pytest.approx(9.0 * v1, rel=1e-10)

    @pytest.mark.parametrize("make, check", [
        # Once a variance of -0.516: Hermitian, unit trace, eigenvalue -0.5.
        (lambda rho: np.diag([1.5, -0.5, 0.0, 0.0]), "positive"),
        # Once 6.49, against 4.13 for the state itself.
        (lambda rho: 2.0 * rho.matrix, "unit-trace"),
    ], ids=["negative", "trace-2"])
    def test_plain_array_must_be_a_state(self, make, check):
        p = build_povm(PhaseGrid(7), design_bins(3, 7, 5), 3)
        table = snapshots(p, invert_frame(frame_operator(p)))
        with pytest.warns(UserWarning, match="truncation"):
            rho = coherent(1.0, 3)
        X = number_operator(3)
        assert exact_variance(rho, X, table, p) == pytest.approx(4.125, abs=1e-3)
        with pytest.raises(InvariantViolationError) as excinfo:
            exact_variance(make(rho), X, table, p)
        assert excinfo.value.check == check

    def test_pseudo_table_warns(self, degenerate_povm):
        frame = frame_operator(degenerate_povm)
        table = snapshots(degenerate_povm, invert_frame(frame, mode=sh.MODE_PSEUDO))
        with pytest.warns(UserWarning, match="biased"):
            exact_variance(fock(0, 1), number_operator(1), table, degenerate_povm)


class TestShadowNorm:
    # shadow_norm takes the top eigenvalue of _adjoint(v**2, G) as it comes:
    # for a real W and an exactly symmetric F the sum must be Hermitian bit for bit.
    @pytest.mark.filterwarnings("ignore::UserWarning")  # aliased and incomplete grids
    # binning None means design_bins(n_max, N, M); otherwise (edges, tail_mode).
    @pytest.mark.parametrize("n_max, N, M, binning, mode", [
        (4, 7, 9, None, sh.MODE_STRICT),
        (3, 6, 8, (np.linspace(-3.5, 3.5, 9), TAIL_EXTEND), sh.MODE_PSEUDO),
        (3, 7, 8, (np.linspace(-2.2, 2.2, 9), TAIL_STRICT), sh.MODE_STRICT),
        (10, 21, 16, None, sh.MODE_STRICT),
    ], ids=["aliased-4-7-9", "pseudo-3-6-8", "strict-finite-3-7-8", "designed-10-21-16"])
    def test_adjoint_of_real_weights_is_exactly_hermitian(self, n_max, N, M, binning, mode):
        binning = design_bins(n_max, N, M) if binning is None else BinningScheme(*binning)
        p = build_povm(PhaseGrid(N), binning, n_max)
        table = snapshots(p, invert_frame(frame_operator(p), mode=mode))
        rng = np.random.default_rng(59)
        weights = [rng.standard_normal((M, N)),
                   snapshot_values(table, random_hermitian(n_max + 1, rng)) ** 2]
        for F in (p.G, table.S):
            assert np.array_equal(F, F.transpose(0, 2, 1))
            for W in weights:
                A = pv._adjoint(W, F, p.grid)
                assert np.array_equal(A, A.conj().T)

    def test_dominates_exact_variance(self, small_povm, small_table):
        rng = np.random.default_rng(29)
        n_op = number_operator(2)
        bound = shadow_norm(n_op, small_table, small_povm)
        for _ in range(5):
            rho = random_density(2, rng)
            v = exact_variance(rho, n_op, small_table, small_povm)
            assert v <= bound + 1e-9

    def test_quadratic_homogeneity(self, small_povm, small_table):
        n_op = number_operator(2)
        doubled = Observable(2.0 * n_op.matrix, label="2n")
        s1 = shadow_norm(n_op, small_table, small_povm)
        s2 = shadow_norm(doubled, small_table, small_povm)
        assert s2 == pytest.approx(4.0 * s1, rel=1e-10)

    def test_below_closed_form_bound(self, small_povm, small_table):
        n_op = number_operator(2)
        s = shadow_norm(n_op, small_table, small_povm)
        assert s <= variance_bound(5, 3, 2, n_op)


class TestVarianceBound:
    def test_frozen_value(self):
        obs = Observable(np.eye(6), label="1")
        assert variance_bound(11, 6, 5, obs) == pytest.approx(2376.0)

    def test_zero_observable(self):
        obs = Observable(np.zeros((3, 3)), label="0")
        assert variance_bound(7, 4, 2, obs) == 0.0

    def test_quadratic_in_bin_count(self):
        obs = Observable(np.eye(2), label="1")
        assert variance_bound(3, 8, 1, obs) == 4.0 * variance_bound(3, 4, 1, obs)

    def test_invalid_arguments(self):
        obs = Observable(np.eye(2), label="1")
        with pytest.raises(ValueError):
            variance_bound(0, 4, 1, obs)

    # A NaN norm gave a NaN bound, and a negative one the bound of its absolute value.
    @pytest.mark.parametrize("norm", [math.nan, math.inf, -1.0])
    def test_unusable_norm_is_refused(self, norm):
        with pytest.raises(ValueError, match="^operator norm must be finite and >= 0, got "):
            variance_bound(7, 5, 3, norm)


class TestBernsteinSamples:
    def test_reference_point(self):
        assert bernstein_samples(1.0, 0.1, 0.05) == 787

    def test_zero_variance_proxy(self):
        # Only the range term 2*eps/3 survives.
        assert bernstein_samples(0.0, 0.5, 0.1) == 8

    def test_monotone_in_variance(self):
        ts = [bernstein_samples(v, 0.1, 0.05) for v in np.linspace(0.0, 5.0, 20)]
        assert all(a <= b for a, b in zip(ts, ts[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            bernstein_samples(1.0, 0.0, 0.05)
        with pytest.raises(ValueError):
            bernstein_samples(1.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            bernstein_samples(-1.0, 0.1, 0.05)

    # These raised "cannot convert float NaN to integer" or OverflowError.
    @pytest.mark.parametrize("args, what", [
        ((1.0, math.nan, 0.05), "accuracy eps"),
        ((1.0, math.inf, 0.05), "accuracy eps"),
        ((math.nan, 0.1, 0.05), "shadow norm"),
        ((math.inf, 0.1, 0.05), "shadow norm"),
    ], ids=["eps-nan", "eps-inf", "norm-nan", "norm-inf"])
    def test_non_finite_input_is_named(self, args, what):
        with pytest.raises(ValueError, match="^%s must be finite" % what):
            bernstein_samples(*args)

    # These raised ZeroDivisionError (eps**2 underflowed) or OverflowError.
    @pytest.mark.parametrize("args", [(1.0, 1e-200, 0.05), (1e308, 1e-3, 0.05)],
                             ids=["eps-tiny", "norm-huge"])
    def test_count_beyond_the_float_range_is_named(self, args):
        with pytest.raises(ValueError, match="^shot count for shadow norm .* exceeds the float"):
            bernstein_samples(*args)

    def test_extreme_finite_input_gives_the_count(self):
        # These raised OverflowError, from 2/1e-320 or eps**2, though T is finite.
        T = bernstein_samples(1.0, 0.1, 1e-320)
        expected = 2 * (1.0 + 0.2 / 3) * (math.log(2.0) - math.log(1e-320)) / 0.01
        assert T == math.ceil(expected) == 157338
        assert bernstein_samples(1.0, 1e200, 0.05) == 1
        assert bernstein_samples(1e308, 1e300, 0.05) == 1


class TestReconstructState:
    def test_single_record_returns_its_snapshot(self, small_table):
        records = records_of([(0, 0, 2, 1)])
        est = reconstruct_state(records, small_table)
        assert np.allclose(est, small_table.snapshot(1, 2))

    def test_average_weights_by_counts(self, small_table):
        records = records_of([
            (0, 0, 0, 0),
            (1, 0, 0, 0),
            (2, 0, 1, 2),
        ])
        est = reconstruct_state(records, small_table)
        expected = (
            2.0 * small_table.snapshot(0, 0) + small_table.snapshot(2, 1)
        ) / 3.0
        assert np.allclose(est, expected)

    def test_empty_stream_rejected(self, small_table):
        with pytest.raises(ValueError, match="^record stream is empty$"):
            reconstruct_state(records_of([]), small_table)


class TestGuaranteesAtScale:
    @settings(max_examples=10, deadline=None)
    @given(
        n_max=st.integers(0, 64),
        extra_N=st.integers(0, 6),
        tail_mode=st.sampled_from([TAIL_EXTEND, TAIL_STRICT]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_unbiased_normalized_and_bounded(self, n_max, extra_N, tail_mode, seed, data):
        # Random complete designs up to the n_max = 64 envelope, with
        # N >= 2 n_max + 1, and random mixed states and observables.  M starts
        # at about 1.5 (n_max + 1): nearer n_max + 1 the design search can
        # fail and the frame condition number reaches 1e9 or more.
        N = 2 * n_max + 1 + extra_N
        M = data.draw(st.integers(n_max + 1 + (n_max + 1) // 2, 2 * n_max + 2), label="M")
        scheme = design_bins(n_max, N, M, tail_mode=tail_mode)
        p = build_povm(PhaseGrid(N), scheme, n_max)
        table = snapshots(p, invert_frame(frame_operator(p)))
        rng = np.random.default_rng(seed)
        rho = random_density(n_max, rng)
        X = Observable(random_hermitian(n_max + 1, rng))
        P = outcome_probabilities(rho, p)
        assert np.max(np.abs(exact_average_snapshot(P, table) - rho.matrix)) <= 1e-8
        if tail_mode == TAIL_EXTEND:
            assert abs(P.sum() - 1.0) <= 1e-10
        variance = exact_variance(rho, X, table, p)
        assert variance <= shadow_norm(X, table, p) * (1.0 + 1e-12)


class TestKernelMemory:
    """Traced peak of one call, after a warm-up call, in units of the POVM's G.

    Every sum over outcomes works per diagonal offset on the (M, d, d)
    arrays G and S, so it holds no (M, d, d) stack, only arrays of the
    output's size.  ``snapshots`` returns one G-sized S and holds one
    class's columns besides; ``build_povm`` returns G and holds one stack
    of cumulative integrals, G-sized, and briefly a copy of it.
    """

    @pytest.fixture(scope="class", params=[(20, 41, 100), (30, 61, 40)],
                    ids=["20-41-100", "30-61-40"])
    def chain(self, request):
        n_max, N, M = request.param
        grid, scheme = PhaseGrid(N), design_bins(n_max, N, M)
        p = build_povm(grid, scheme, n_max)
        inv = invert_frame(frame_operator(p))
        table = snapshots(p, inv)
        rng = np.random.default_rng(n_max)
        rho = random_density(n_max, rng)
        X = Observable(random_hermitian(n_max + 1, rng))
        P = outcome_probabilities(rho, p)
        records = sim.sample(sim.outcome_distribution(rho, p), 2000, seed=1)
        calls = {
            "outcome_probabilities": lambda: outcome_probabilities(rho, p),
            "snapshot_values": lambda: snapshot_values(table, X),
            "shadow_norm": lambda: shadow_norm(X, table, p),
            "exact_variance": lambda: exact_variance(rho, X, table, p),
            "exact_average_snapshot": lambda: exact_average_snapshot(P, table),
            "reconstruct_state": lambda: reconstruct_state(records, table),
            "snapshots": lambda: snapshots(p, inv),
            "build_povm": lambda: build_povm(grid, scheme, n_max),
        }
        return p.G.nbytes, calls

    @staticmethod
    def peak(call):
        call()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("name, bound", [
        ("outcome_probabilities", 2.0),
        ("snapshot_values", 2.0),
        ("shadow_norm", 2.0),
        ("exact_variance", 2.0),
        ("exact_average_snapshot", 2.0),
        ("reconstruct_state", 2.0),
        ("snapshots", 1.5),
        ("build_povm", 4.0),
    ])
    def test_peak_in_units_of_G(self, chain, name, bound):
        G_bytes, calls = chain
        assert self.peak(calls[name]) <= bound * G_bytes
