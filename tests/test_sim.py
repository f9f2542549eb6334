"""Tests for measurement simulation, multi-mode estimation, and record I/O."""

import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import special

from homodyne_shadows import sim
from homodyne_shadows.errors import (
    InvariantViolationError,
    MalformedRecordError,
    UnsupportedConfigurationError,
)
from homodyne_shadows.povm import (
    TAIL_STRICT,
    BinningScheme,
    PhaseGrid,
    build_povm,
    design_bins,
)
from homodyne_shadows.shadow import (
    MODE_PSEUDO,
    estimate_observable,
    frame_operator,
    invert_frame,
    outcome_probabilities,
    shadow_norm,
    snapshot_values,
    snapshots,
)
from homodyne_shadows.records import bin_raw, ingest_records, write_records
from homodyne_shadows.sim import (
    MultiModeConfig,
    MultiOutcomeDistribution,
    OutcomeDistribution,
    estimate_local,
    indistinguishability_experiment,
    joint_distribution,
    multi_shadow_norm,
    outcome_distribution,
    sample,
    sample_multi,
)
from homodyne_shadows.states import DensityMatrix, coherent, expectation, fock, number_operator

from conftest import dense_joint, records_of


@pytest.fixture(scope="module")
def tiny_povm():
    scheme = design_bins(1, 3, 2)
    return build_povm(PhaseGrid(3), scheme, 1)


@pytest.fixture(scope="module")
def tiny_table(tiny_povm):
    return snapshots(tiny_povm, invert_frame(frame_operator(tiny_povm)))


@pytest.fixture(scope="module")
def plus_state():
    # (|0> + |1>)/sqrt(2): coherences populate every phase non-trivially.
    return DensityMatrix(np.full((2, 2), 0.5, dtype=complex))


@pytest.fixture(scope="module")
def two_mode_config():
    b = BinningScheme.equal_spaced(3, 2.5)
    g = PhaseGrid(3)
    return MultiModeConfig([(1, g, b), (1, g, b)])


@pytest.fixture(scope="module")
def pair_config():
    b = BinningScheme.equal_spaced(3, 2.5)
    g = PhaseGrid(2)
    return MultiModeConfig([(1, g, b), (1, g, b)])


@pytest.fixture(scope="module")
def far_tail_povm():
    """Strict-finite bins on [40, 42]: at n_max = 1 every outcome has probability exactly 0."""
    return build_povm(PhaseGrid(3), BinningScheme([40.0, 41.0, 42.0], tail_mode=TAIL_STRICT), 1)


@pytest.fixture(scope="module")
def local_setup():
    scheme = design_bins(1, 3, 2)
    g = PhaseGrid(3)
    cfg = MultiModeConfig([(1, g, scheme), (1, g, scheme)])
    povm = cfg.povms[0]
    table = snapshots(povm, invert_frame(frame_operator(povm)))
    return cfg, table


class TestOutcomeDistribution:
    def test_vacuum_closed_form(self):
        # For the vacuum the bin probability is the standard Gaussian mass,
        # identical at every phase.
        edges = np.array([-1.2, -0.3, 0.4, 2.0])
        p = build_povm(PhaseGrid(4), BinningScheme(edges, tail_mode="strict-finite"), 2)
        dist = outcome_distribution(fock(0, 2), p)
        ref = 0.5 * (special.erf(edges[1:]) - special.erf(edges[:-1])) / 4.0
        for k in range(4):
            assert np.allclose(dist.probabilities[:, k], ref, atol=1e-12)
        assert dist.deficit > 0.0

    def test_phase_invariance_for_diagonal_states(self, tiny_povm):
        mixed = DensityMatrix(np.diag([0.6, 0.4]).astype(complex))
        dist = outcome_distribution(mixed, tiny_povm)
        cols = dist.probabilities
        for k in range(1, cols.shape[1]):
            assert np.max(np.abs(cols[:, k] - cols[:, 0])) <= 1e-12

    def test_extend_tails_sums_to_one(self, tiny_povm, plus_state):
        dist = outcome_distribution(plus_state, tiny_povm)
        assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-10)
        assert dist.deficit == pytest.approx(0.0, abs=1e-10)

    def test_dimension_mismatch(self, tiny_povm):
        with pytest.raises(ValueError):
            outcome_distribution(fock(0, 4), tiny_povm)

    def test_genuinely_negative_probability_rejected(self, tiny_povm):
        # Hermitian with unit trace but an eigenvalue -1, not a state: the
        # state rule refuses it before the upper bin, where |1> has over
        # twice the weight of |0>, would get -3.9e-2.
        with pytest.raises(InvariantViolationError) as excinfo:
            outcome_distribution(np.diag([2.0, -1.0]), tiny_povm)
        assert excinfo.value.check == "positive"

    def test_half_a_state_is_no_state(self):
        # Strict-finite (3,7): half of coherent(1, 3) once read a deficit of
        # 0.516, where the state's own tail mass is 0.0314.
        p = build_povm(PhaseGrid(7), BinningScheme.equal_spaced(8, 2.2, TAIL_STRICT), 3)
        with pytest.warns(UserWarning, match="truncation"):
            rho = coherent(1.0, 3)
        assert outcome_distribution(rho, p).deficit == pytest.approx(0.0314, abs=1e-4)
        with pytest.raises(InvariantViolationError) as excinfo:
            outcome_distribution(0.5 * rho.matrix, p)
        assert excinfo.value.check == "unit-trace"

    def test_checked_probabilities_refuses_what_no_state_gives(self, tiny_povm):
        # The state rule keeps these tables from any state; the checks stay.
        P = outcome_probabilities(fock(0, 1), tiny_povm)
        # The undersized extend-tails table is the joint test's case below.
        cases = [(-P, "probability-positivity", "negative beyond"),
                 (2.0 * P, "probability-sum", "> 1")]
        for table, check, text in cases:
            with pytest.raises(InvariantViolationError, match=text) as excinfo:
                sim._checked_probabilities(table, [tiny_povm])
            assert excinfo.value.check == check

    def test_leaves_the_callers_array_writable(self):
        P = np.zeros((2, 2))
        P[0, 0] = 1.0
        dist = OutcomeDistribution(P, 0.0)
        P[1, 1] = 0.5
        assert not dist.probabilities.flags.writeable


class TestSample:
    def test_fixed_seed_is_deterministic(self, tiny_povm):
        dist = outcome_distribution(fock(1, 1), tiny_povm)
        a = sample(dist, 500, seed=77)
        b = sample(dist, 500, seed=77)
        assert a == b
        c = sample(dist, 500, seed=78)
        assert a != c

    def test_record_structure(self, tiny_povm):
        dist = outcome_distribution(fock(0, 1), tiny_povm)
        recs = sample(dist, 10, seed=5)
        assert recs.t.tolist() == list(range(10))
        assert np.all(recs.mode == 0)
        assert np.all((0 <= recs.i) & (recs.i < dist.M) & (0 <= recs.k) & (recs.k < dist.N))

    def test_point_mass(self):
        P = np.zeros((3, 2))
        P[2, 1] = 1.0
        dist = OutcomeDistribution(P, deficit=0.0)
        recs = sample(dist, 50, seed=1)
        assert np.all((recs.i == 2) & (recs.k == 1))

    def test_frequencies_match_probabilities(self, tiny_povm, plus_state):
        dist = outcome_distribution(plus_state, tiny_povm)
        T = 200_000
        recs = sample(dist, T, seed=123)
        counts = np.zeros((dist.M, dist.N))
        np.add.at(counts, (recs.i, recs.k), 1)
        freq = counts / T
        sigma = np.sqrt(dist.probabilities * (1 - dist.probabilities) / T)
        assert np.all(np.abs(freq - dist.probabilities) <= 4 * sigma + 1e-12)

    def test_all_zero_distribution_rejected(self, far_tail_povm):
        dist = outcome_distribution(fock(0, 1), far_tail_povm)
        assert not dist.probabilities.any() and dist.deficit == 1.0
        with pytest.raises(ValueError, match="cannot sample from an all-zero outcome distribution"):
            sample(dist, 10, seed=0)

    def test_shot_count_validation(self, tiny_povm):
        dist = outcome_distribution(fock(0, 1), tiny_povm)
        with pytest.raises(ValueError):
            sample(dist, 0, seed=0)

    # Seeds were once cut to int(seed) mod 2**64, so 1.5, "1" and 2**64 + 1
    # drew seed 1's stream, -1 that of 2**64 - 1 and 2**64 that of 0.
    @pytest.mark.parametrize("seed, text", [
        (1.5, "seed must be a whole number, got 1.5"),
        ("1", "seed must be a whole number, got '1'"),
        (-1, "seed must lie in 0..18446744073709551615, got -1"),
        (2**64, "seed must lie in 0..18446744073709551615, got 18446744073709551616"),
        (2**64 + 1, "seed must lie in 0..18446744073709551615, got 18446744073709551617"),
    ])
    def test_seed_is_a_whole_number_in_64_bits(self, tiny_povm, pair_config, seed, text):
        dist = outcome_distribution(fock(0, 1), tiny_povm)
        product = joint_distribution([fock(0, 1), fock(1, 1)], pair_config)
        dense = joint_distribution(np.kron(fock(0, 1).matrix, fock(1, 1).matrix), pair_config)
        for draw in (lambda: sample(dist, 10, seed), lambda: sample_multi(product, 10, seed),
                     lambda: sample_multi(dense, 10, seed)):
            with pytest.raises(ValueError, match="^%s$" % re.escape(text)):
                draw()

    def test_seeds_at_the_ends_of_the_range(self, plus_state, tiny_povm):
        dist = outcome_distribution(plus_state, tiny_povm)
        assert sample(dist, 100, 3.0) == sample(dist, 100, 3)
        assert sample(dist, 100, 0) != sample(dist, 100, 2**64 - 1)

    @pytest.mark.filterwarnings("ignore:.*loses probability:UserWarning")
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="sample renormalizes strict-finite probabilities by "
                       "their total over the finite bins, but strict snapshots are unbiased "
                       "only for the unconditioned P(i, k)")
    def test_strict_finite_estimate_is_unbiased(self):
        # The estimate reads 0.9878 +- 0.0053, 9.5 stderr above the truth 0.9375
        # and near the renormalized limit 0.9375 / (1 - deficit) = 0.9840.
        binning = BinningScheme(np.linspace(-2.2, 2.2, 9), tail_mode=TAIL_STRICT)
        povm = build_povm(PhaseGrid(7), binning, 3)
        table = snapshots(povm, invert_frame(frame_operator(povm)))
        rho, X = coherent(1.0, 3), number_operator(3)
        records = sample(outcome_distribution(rho, povm), 4 * 10**5, seed=7)
        est = estimate_observable(records, table, X)
        assert abs(est.mean - expectation(rho, X)) <= 5 * est.stderr


_weight = st.one_of(
    st.just(0.0),
    st.sampled_from([1e-300, 1e-16, 1e-12, 1e-9]),
    st.floats(1e-6, 1.0),
)


class TestDrawFlat:
    """The guide-table draw equals the plain inverse-CDF search it replaces."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(_weight, min_size=1, max_size=64),
        st.sampled_from([1.0, 1e-3, 1e-9, 1e-200]),
        st.integers(0, 2**64 - 1),
    )
    @example([1.0], 1.0, 0)  # a single outcome
    @example([0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0, 0.0], 1.0, 1)  # runs of zeros
    @example([0.5] + [1e-12] * 60 + [0.5], 1.0, 2)  # tiny outcomes share one bucket
    @example([0.3, 0.0, 0.2], 1e-9, 3)  # strict-finite total far below 1
    def test_equals_searchsorted(self, weights, scale, seed):
        cum = np.cumsum(np.array(weights) * scale)
        assume(cum[-1] > 0.0)
        # Words whose uniforms u = (z >> 11) * 2**-53 are every end of the
        # guide table's B buckets and its +-2**-53 neighbours, the extremes 0
        # and 1 - 2**-53, and stream draws.  The low 11 bits, which u
        # ignores, are set at random.
        guide = sim._guide(cum, 2**62)  # the table for any T >= B draws
        B = guide.size
        ends = np.arange(B, dtype=np.uint64) * np.uint64(2**53 // B)  # u = j/B
        top = np.concatenate([
            ends,
            ends[1:] - np.uint64(1),
            ends + np.uint64(1),
            np.array([0, 2**53 - 1], dtype=np.uint64),
        ])
        low = np.random.default_rng(seed).integers(0, 2**11, top.size, dtype=np.uint64)
        z = np.concatenate([(top << np.uint64(11)) | low, sim._bits(seed, 0, 8 * cum.size)])
        u = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
        assert np.array_equal(
            sim._draw_flat(cum, z, guide), np.searchsorted(cum, u * cum[-1], side="right")
        )

    # K = M*N outcomes; a stream of T shots draws through a table of 2 <= B <= 16K buckets.
    _SIZES = pytest.mark.parametrize("M, N", [(1, 1), (2, 1), (8, 7), (50, 11), (100, 41)])

    @staticmethod
    def _dist(M, N):
        P = np.random.default_rng(M * N).random((M, N))
        return OutcomeDistribution(P / P.sum(), deficit=0.0)

    @_SIZES
    def test_sample_equals_a_plain_search(self, M, N):
        dist = self._dist(M, N)
        K = M * N
        cum = np.cumsum(dist.probabilities.ravel(order="F"))
        least, B = max(2 * K, 1024), 1 << (16 * K - 1).bit_length()
        for T in sorted({1, K - 1, K, K + 1, least - 1, least, 10**4, B - 1, B + 1} - {0}):
            assert 2 <= sim._guide(cum, T).size <= B
            u = sim._uniform(sim._bits(7, 0, T))
            o = np.searchsorted(cum, u * cum[-1], side="right")
            records = sample(dist, T, 7)
            assert np.array_equal(records.k, o // M) and np.array_equal(records.i, o % M)

    @_SIZES
    def test_streams_on_either_side_of_the_guide_share_a_prefix(self, M, N):
        dist = self._dist(M, N)
        K = M * N
        least = max(2 * K, 1024)
        longer = [sample(dist, T, 7) for T in (K, least, 10**4, 16 * K + 1)]
        for T in sorted({1, K - 1, least - 1} - {0}):
            short = sample(dist, T, 7)
            for stream in longer:
                if len(stream) > T:
                    assert short == stream[:T]


class TestIndistinguishability:
    def test_low_phase_regime_hides_the_pair(self):
        rep = indistinguishability_experiment(3, 3, 3)
        assert rep.level == 3
        assert rep.gap <= 1e-12
        assert rep.trace_distance >= 0.1

    def test_even_phase_regime_hides_the_pair(self):
        rep = indistinguishability_experiment(3, 6, 4)
        assert rep.level == 3
        assert rep.gap <= 1e-12

    def test_complete_povm_control_separates_the_pair(self):
        rep = indistinguishability_experiment(2, 5, 3, fock_level=2)
        assert rep.gap > 1e-6
        assert rep.trace_distance >= 0.1

    def test_outside_regimes_requires_explicit_level(self):
        with pytest.raises(ValueError, match="fock_level"):
            indistinguishability_experiment(5, 11, 6)

    def test_binning_bin_count_must_match(self):
        b = BinningScheme.equal_spaced(4, 3.0)
        with pytest.raises(ValueError):
            indistinguishability_experiment(3, 3, 3, binning=b)

    @pytest.mark.parametrize(
        "n_max, N", [(n, N) for n in range(1, 6) for N in range(1, 2 * n + 3)]
    )
    def test_regime_table(self, n_max, N):
        # Level N below N = n_max+1, N/2 for even N up to 2*n_max, else no level.
        if N <= n_max or (N % 2 == 0 and N <= 2 * n_max):
            rep = indistinguishability_experiment(n_max, N, n_max + 1)
            assert rep.level == (N if N <= n_max else N // 2)
            assert rep.gap <= 1e-12
            assert rep.trace_distance >= 0.1
        else:
            with pytest.raises(ValueError, match="^N=%d at n_max=%d is outside the provably "
                               "indistinguishable regimes" % (N, n_max)):
                indistinguishability_experiment(n_max, N, n_max + 1)


class TestJointDistribution:
    def test_config_needs_a_mode(self):
        with pytest.raises(ValueError, match="at least one mode is required"):
            MultiModeConfig([])

    @pytest.mark.parametrize("both", [True, False], ids=["both", "neither"])
    def test_exactly_one_of_factors_and_joint(self, two_mode_config, both):
        parts = {"factors": [], "joint": np.ones((9, 9)) / 81} if both else {}
        with pytest.raises(ValueError, match="exactly one of factors/joint must be given"):
            MultiOutcomeDistribution(two_mode_config, **parts)

    def test_product_state_factorizes(self, two_mode_config):
        cfg = two_mode_config
        rhos = [fock(0, 1), fock(1, 1)]
        dist = joint_distribution(rhos, cfg)
        singles = [
            outcome_distribution(r, p).probabilities.ravel(order="F")
            for r, p in zip(rhos, cfg.povms)
        ]
        dense = dense_joint(dist)
        assert np.max(np.abs(dense - np.outer(singles[0], singles[1]))) <= 1e-12

    def test_dense_product_state_agrees_with_factorized(self, two_mode_config):
        cfg = two_mode_config
        rhos = [fock(0, 1), fock(1, 1)]
        R = np.kron(rhos[0].matrix, rhos[1].matrix)
        dense = dense_joint(joint_distribution(R, cfg))
        fact = dense_joint(joint_distribution(rhos, cfg))
        assert np.max(np.abs(dense - fact)) <= 1e-12

    def test_entangled_marginal_matches_partial_trace(self, two_mode_config):
        cfg = two_mode_config
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1.0 / np.sqrt(2.0)  # (|00> + |11>)/sqrt(2)
        R = np.outer(psi, psi.conj())
        joint = dense_joint(joint_distribution(R, cfg))
        marginal = joint.sum(axis=1)
        reduced = 0.5 * np.eye(2)  # partial trace over the second mode
        p = cfg.povms[0]
        expected = np.array([
            np.trace(reduced @ p.element(i, k)).real
            for k in range(p.grid.N)
            for i in range(p.binning.M)
        ])
        assert np.max(np.abs(marginal - expected)) <= 1e-12

    def test_dense_state_is_checked_like_single_mode(self, two_mode_config):
        # A joint matrix of trace 2 is no state: it must raise like
        # outcome_distribution(2*rho) and the product path do, instead of
        # reaching the sampler, which divides by the total.
        R = np.kron(fock(1, 1).matrix, fock(0, 1).matrix)
        for rho in (2.0 * R, [2.0 * fock(1, 1).matrix, fock(0, 1).matrix], 0.5 * R):
            with pytest.raises(InvariantViolationError) as excinfo:
                joint_distribution(rho, two_mode_config)
            assert excinfo.value.check == "unit-trace"
        # Extend-tails modes must resolve the identity; a strict-finite mode
        # leaves tail mass unmeasured, so its joint sums to less than 1.
        half = 0.5 * dense_joint(joint_distribution(R, two_mode_config))
        with pytest.raises(InvariantViolationError, match="expected 1"):
            sim._checked_probabilities(half, two_mode_config.povms)
        strict = BinningScheme.equal_spaced(3, 2.5, tail_mode="strict-finite")
        mixed = MultiModeConfig([two_mode_config.povms[0], (1, PhaseGrid(3), strict)])
        assert 0.9 < dense_joint(joint_distribution(R, mixed)).sum() < 1.0 - 1e-6

    def test_mode_count_mismatch(self, two_mode_config):
        with pytest.raises(ValueError):
            joint_distribution([fock(0, 1)], two_mode_config)

    def test_joint_shape_mismatch(self, two_mode_config):
        with pytest.raises(ValueError):
            joint_distribution(np.eye(3) / 3.0, two_mode_config)

    def test_four_mode_dense_unsupported_but_product_works(self):
        b = BinningScheme.equal_spaced(2, 2.0)
        g = PhaseGrid(2)
        cfg = MultiModeConfig([(0, g, b)] * 4)
        with pytest.raises(UnsupportedConfigurationError):
            joint_distribution(np.eye(1), cfg)
        dist = joint_distribution([fock(0, 0)] * 4, cfg)
        recs = sample_multi(dist, 3, seed=9)
        assert len(recs) == 12


class TestSampleMulti:
    def test_all_zero_mode_rejected(self, tiny_povm, far_tail_povm):
        config = MultiModeConfig([tiny_povm, far_tail_povm])
        dist = joint_distribution([fock(0, 1), fock(0, 1)], config)
        with pytest.raises(ValueError, match="from mode 1's all-zero outcome distribution"):
            sample_multi(dist, 10, seed=0)

    def test_all_zero_joint_rejected(self, tiny_povm, far_tail_povm):
        config = MultiModeConfig([tiny_povm, far_tail_povm])
        dist = joint_distribution(np.kron(fock(0, 1).matrix, fock(1, 1).matrix), config)
        assert not dist.joint.any()
        with pytest.raises(ValueError, match="cannot sample from an all-zero outcome distribution"):
            sample_multi(dist, 10, seed=0)

    def test_one_record_per_mode_per_shot(self, pair_config):
        dist = joint_distribution([fock(0, 1), fock(1, 1)], pair_config)
        recs = sample_multi(dist, 7, seed=2)
        assert len(recs) == 14
        assert list(zip(recs.t.tolist(), recs.mode.tolist())) == [
            (t, j) for t in range(7) for j in range(2)
        ]

    def test_product_path_is_deterministic(self, pair_config):
        dist = joint_distribution([fock(0, 1), fock(1, 1)], pair_config)
        assert sample_multi(dist, 100, seed=4) == sample_multi(dist, 100, seed=4)

    def test_dense_path_is_deterministic(self, pair_config):
        R = np.kron(fock(0, 1).matrix, fock(1, 1).matrix)
        dist = joint_distribution(R, pair_config)
        assert sample_multi(dist, 100, seed=4) == sample_multi(dist, 100, seed=4)

    def test_dense_frequencies_match_joint_probabilities(self, pair_config):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
        dist = joint_distribution(np.outer(psi, psi.conj()), pair_config)
        joint = dense_joint(dist)
        T = 100_000
        recs = sample_multi(dist, T, seed=31)
        counts = np.zeros_like(joint)
        by_shot = {}
        for t, mode, k, i in zip(*(c.tolist() for c in recs.columns())):
            by_shot.setdefault(t, {})[mode] = k * 3 + i
        for outc in by_shot.values():
            counts[outc[0], outc[1]] += 1
        freq = counts / T
        sigma = np.sqrt(joint * (1 - joint) / T)
        assert np.all(np.abs(freq - joint) <= 4 * sigma + 1e-12)


class TestEstimateLocal:
    def test_empty_observable_set_gives_unit_mean(self, local_setup):
        cfg, table = local_setup
        recs = records_of([
            (0, 0, 0, 0),
            (0, 1, 1, 1),
            (1, 0, 2, 0),
            (1, 1, 0, 1),
        ])
        rep = estimate_local(recs, cfg, {}, {})
        assert rep.mean == 1.0
        assert rep.stderr == 0.0
        assert rep.shots == 2
        assert rep.observable_label == "identity"

    def test_product_mean_matches_hand_average(self, local_setup):
        cfg, table = local_setup
        n_op = number_operator(1)
        vals = snapshot_values(table, n_op)
        recs = records_of([
            (0, 0, 1, 0),
            (0, 1, 2, 1),
            (1, 0, 0, 1),
            (1, 1, 1, 0),
        ])
        rep = estimate_local(recs, cfg, {0: table, 1: table}, {0: n_op, 1: n_op})
        expected = (vals[0, 1] * vals[1, 2] + vals[1, 0] * vals[0, 1]) / 2.0
        assert rep.mean == pytest.approx(expected, rel=1e-12)
        assert rep.observable_label == "n * n"

    def test_monte_carlo_converges_to_product_expectation(self, local_setup):
        cfg, table = local_setup
        n_op = number_operator(1)
        rhos = [fock(1, 1), fock(1, 1)]
        dist = joint_distribution(rhos, cfg)
        recs = sample_multi(dist, 40_000, seed=11)
        rep = estimate_local(recs, cfg, {0: table, 1: table}, {0: n_op, 1: n_op})
        assert abs(rep.mean - 1.0) <= 5 * rep.stderr

    def test_missing_table_rejected(self, local_setup):
        cfg, table = local_setup
        recs = records_of([(0, 0, 0, 0), (0, 1, 0, 0)])
        with pytest.raises(ValueError, match="mode 1"):
            estimate_local(recs, cfg, {0: table}, {0: number_operator(1), 1: number_operator(1)})

    def test_pseudo_table_rejected(self, local_setup):
        cfg, _ = local_setup
        povm = cfg.povms[0]
        pseudo = snapshots(
            povm, invert_frame(frame_operator(povm), mode=MODE_PSEUDO)
        )
        recs = records_of([(0, 0, 0, 0)])
        with pytest.raises(ValueError, match="strict"):
            estimate_local(recs, cfg, {0: pseudo}, {0: number_operator(1)})

    def test_shot_missing_a_mode_carries_ordinal(self, local_setup):
        cfg, table = local_setup
        n_op = number_operator(1)
        recs = records_of([
            (0, 0, 0, 0),
            (0, 1, 0, 0),
            (1, 0, 0, 0),  # mode 1 missing for shot 1
        ])
        with pytest.raises(MalformedRecordError) as excinfo:
            estimate_local(recs, cfg, {0: table, 1: table}, {0: n_op, 1: n_op})
        assert excinfo.value.ordinal == 1

    def test_out_of_range_mode_in_record(self, local_setup):
        cfg, table = local_setup
        recs = records_of([(0, 5, 0, 0)])
        with pytest.raises(MalformedRecordError):
            estimate_local(recs, cfg, {0: table}, {0: number_operator(1)})

    def test_report_names_strict_inversion_and_threshold(self, local_setup):
        cfg, table = local_setup
        povm = cfg.povms[0]
        n_op = number_operator(1)
        recs = records_of([(0, 0, 1, 0), (0, 1, 2, 1), (1, 0, 0, 1), (1, 1, 1, 0)])
        doc = estimate_local(recs, cfg, {0: table, 1: table}, {0: n_op, 1: n_op}).to_json()
        assert doc["inversion"] == "strict"
        assert doc["threshold"] == table.threshold
        looser = snapshots(povm, invert_frame(frame_operator(povm), threshold=1e-9))
        doc = estimate_local(recs, cfg, {0: table, 1: looser}, {0: n_op, 1: n_op}).to_json()
        assert doc["inversion"] == "strict"
        assert doc["threshold"] == {0: table.threshold, 1: 1e-9}
        doc = estimate_local(recs, cfg, {}, {}).to_json()
        assert doc["inversion"] is None and doc["threshold"] is None


def _local_reference(records, value_tables):
    """Per-shot loop: shots in ascending t, each 1.0 times its values over sorted V."""
    shots = {}
    for t, mode, k, i in zip(*(c.tolist() for c in records.columns())):
        shots.setdefault(t, {})[mode] = (k, i)
    values = []
    for t in sorted(shots):
        v = 1.0
        for j in sorted(value_tables):
            k, i = shots[t][j]
            v *= value_tables[j][i, k]
        values.append(v)
    values = np.array(values)
    return np.mean(values), np.std(values, ddof=1) / np.sqrt(values.size)


class TestEstimateLocalEdgeCases:
    """The segmented shot product against a per-shot loop, bit for bit."""

    @pytest.fixture(scope="class")
    def mixed_setup(self):
        # Three modes on two different grids, (M, N) = (2, 3) and (4, 5).
        povms = [build_povm(PhaseGrid(N), design_bins(n, N, M), n)
                 for n, N, M in [(1, 3, 2), (2, 5, 4), (1, 3, 2)]]
        cfg = MultiModeConfig(povms)
        tables = {j: snapshots(p, invert_frame(frame_operator(p))) for j, p in enumerate(povms)}
        observables = {j: number_operator(p.n_max) for j, p in enumerate(povms)}
        dist = joint_distribution([fock(1, 1), fock(2, 2), fock(0, 1)], cfg)
        return cfg, tables, observables, sample_multi(dist, 3000, seed=21)

    def _check(self, recs, cfg, tables, observables, V):
        rep = estimate_local(recs, cfg, tables, {j: observables[j] for j in V})
        value_tables = {j: snapshot_values(tables[j], observables[j]) for j in V}
        assert (rep.mean, rep.stderr) == _local_reference(recs, value_tables)

    def test_shuffled_rows(self, mixed_setup):
        cfg, tables, observables, recs = mixed_setup
        perm = np.random.default_rng(5).permutation(len(recs))
        shuffled = sim.Records(*(c[perm] for c in recs.columns()))
        self._check(shuffled, cfg, tables, observables, [0, 1, 2])

    def test_unmeasured_mode_in_the_middle(self, mixed_setup):
        cfg, tables, observables, recs = mixed_setup
        self._check(recs, cfg, tables, observables, [0, 2])
        # Shots may lack the unmeasured mode 1.
        keep = (recs.mode != 1) | (recs.t % 3 != 0)
        partial = sim.Records(*(c[keep] for c in recs.columns()))
        self._check(partial, cfg, tables, observables, [0, 2])

    def test_no_measured_mode(self, mixed_setup):
        cfg, tables, observables, recs = mixed_setup
        rep = estimate_local(recs, cfg, tables, {})
        assert (rep.mean, rep.stderr, rep.shots) == (1.0, 0.0, 3000)

    def test_shot_missing_a_measured_mode(self, mixed_setup):
        cfg, tables, observables, recs = mixed_setup
        drop = np.flatnonzero((recs.t >= 17) & (recs.mode == 2))[[0, 5]]
        keep = np.ones(len(recs), dtype=bool)
        keep[drop] = False
        partial = sim.Records(*(c[keep] for c in recs.columns()))
        with pytest.raises(MalformedRecordError, match="^shot 17 has no record for mode 2$") as excinfo:
            estimate_local(partial, cfg, tables, {0: observables[0], 2: observables[2]})
        assert excinfo.value.ordinal == 17

    def test_table_of_another_grid_rejected(self, mixed_setup):
        cfg, tables, observables, recs = mixed_setup
        with pytest.raises(ValueError, match="^mode 0 snapshot table comes from another POVM"):
            estimate_local(recs, cfg, {0: tables[1]}, {0: number_operator(2)})

    def test_table_of_another_povm_on_the_same_grid_rejected(self):
        # Both POVMs have (n_max, N, M) = (3, 7, 5); only the half-width
        # differs.  The (3.0) table on (4.5) records of coherent alpha = 1
        # once read <n> = 0.135 against the true 0.9375.
        p1, p2 = (
            build_povm(PhaseGrid(7), BinningScheme.equal_spaced(5, L), 3) for L in (3.0, 4.5)
        )
        t1, t2 = (snapshots(p, invert_frame(frame_operator(p))) for p in (p1, p2))
        cfg = MultiModeConfig([p2])
        recs = sample_multi(joint_distribution([fock(1, 3)], cfg), 2000, seed=5)
        X = {0: number_operator(3)}
        with pytest.raises(ValueError, match="^mode 0 snapshot table .* their bin edges differ"):
            estimate_local(recs, cfg, {0: t1}, X)
        with pytest.raises(ValueError, match="^snapshot table .* their bin edges differ"):
            multi_shadow_norm(cfg, X, tables={0: t1})
        assert estimate_local(recs, cfg, {0: t2}, X).shots == 2000

    def test_empty_stream(self, mixed_setup):
        cfg, tables, observables, recs = mixed_setup
        for V in ([], [0, 2]):
            with pytest.raises(ValueError, match="^record stream is empty$"):
                estimate_local(recs[:0], cfg, tables, {j: observables[j] for j in V})


class TestMultiShadowNorm:
    def test_product_of_single_mode_norms(self):
        scheme = design_bins(1, 3, 2)
        g = PhaseGrid(3)
        cfg = MultiModeConfig([(1, g, scheme), (1, g, scheme)])
        povm = cfg.povms[0]
        table = snapshots(povm, invert_frame(frame_operator(povm)))
        n_op = number_operator(1)
        single = shadow_norm(n_op, table, povm)
        internal = multi_shadow_norm(cfg, {0: n_op, 1: n_op})
        explicit = multi_shadow_norm(cfg, {0: n_op, 1: n_op}, tables={0: table, 1: table})
        assert internal == pytest.approx(single**2, rel=1e-12)
        assert explicit == internal


class TestMeasuredModes:
    """estimate_local and multi_shadow_norm share one check of the observables' modes."""

    @pytest.fixture(scope="class")
    def setup(self):
        p1, p2 = (
            build_povm(PhaseGrid(7), BinningScheme.equal_spaced(5, L), 3) for L in (3.0, 4.5)
        )
        t1, t2 = (snapshots(p, invert_frame(frame_operator(p))) for p in (p1, p2))
        cfg = MultiModeConfig([p2, p2])
        recs = sample_multi(joint_distribution([fock(1, 3)] * 2, cfg), 50, seed=5)
        return cfg, t1, t2, recs

    @pytest.mark.parametrize("observed, tables, text", [
        ([0, 2], [0, 1], "observable mode 2 outside 0..1"),
        ([-1], [0, 1], "observable mode -1 outside 0..1"),
        ([0, 1], [0], "no snapshot table supplied for mode 1"),
    ], ids=["mode-above-range", "negative-mode", "missing-table"])
    def test_texts(self, setup, observed, tables, text):
        cfg, _, t2, recs = setup
        X = {j: number_operator(3) for j in observed}
        given = {j: t2 for j in tables}
        for call in (lambda: estimate_local(recs, cfg, given, X),
                     lambda: multi_shadow_norm(cfg, X, tables=given)):
            with pytest.raises(ValueError) as excinfo:
                call()
            assert str(excinfo.value) == text

    def test_out_of_range_mode_without_tables(self, setup):
        cfg = setup[0]
        with pytest.raises(ValueError, match="^observable mode 2 outside 0..1$"):
            multi_shadow_norm(cfg, {0: number_operator(3), 2: number_operator(3)})

    def test_every_mode_is_checked_before_any_norm(self, setup):
        # Mode 0's table comes from another POVM, and mode 2 does not exist:
        # the mode check runs first, as in estimate_local.
        cfg, t1, t2, recs = setup
        X = {0: number_operator(3), 2: number_operator(3)}
        for call in (lambda: estimate_local(recs, cfg, {0: t1, 2: t2}, X),
                     lambda: multi_shadow_norm(cfg, X, tables={0: t1, 2: t2})):
            with pytest.raises(ValueError, match="^observable mode 2 outside 0..1$"):
                call()


class TestRecordIO:
    def test_round_trip(self, tmp_path):
        recs = records_of([(0, 0, 2, 1), (1, 1, 0, 3)])
        path = tmp_path / "records.csv"
        write_records(path, recs)
        assert ingest_records(path) == recs

    def test_header_only_file_is_empty_stream(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records(path, records_of([]))
        assert path.read_text() == "t,mode,k,i\n"
        assert ingest_records(path) == records_of([])

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,mode,k,i\n0,0,0,0\n")
        with pytest.raises(MalformedRecordError) as excinfo:
            ingest_records(path)
        assert excinfo.value.ordinal == 1

    def test_malformed_rows_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,mode,k,i\n0,0,0,0\n1,0,0\n")
        with pytest.raises(MalformedRecordError) as excinfo:
            ingest_records(path)
        assert excinfo.value.ordinal == 3

        path.write_text("t,mode,k,i\n0,0,zero,0\n")
        with pytest.raises(MalformedRecordError) as excinfo:
            ingest_records(path)
        assert excinfo.value.ordinal == 2

        path.write_text("t,mode,k,i\n0,0,-1,0\n")
        with pytest.raises(MalformedRecordError):
            ingest_records(path)


class TestBinRaw:
    def _write_raw(self, path, rows):
        lines = ["t,mode,k,x"] + ["%d,%d,%d,%s" % row for row in rows]
        path.write_text("\n".join(lines) + "\n")

    def test_interior_edge_goes_right(self, tmp_path):
        b = BinningScheme([-1.0, 0.0, 1.0], tail_mode="strict-finite")
        path = tmp_path / "raw.csv"
        self._write_raw(path, [(0, 0, 0, "0.0"), (1, 0, 0, "-0.5")])
        recs, dropped = bin_raw(path, PhaseGrid(2), b)
        assert recs.i[0] == 1  # exactly on the interior edge
        assert recs.i[1] == 0
        assert dropped == 0.0

    def test_strict_mode_drops_out_of_range(self, tmp_path):
        b = BinningScheme([-1.0, 0.0, 1.0], tail_mode="strict-finite")
        path = tmp_path / "raw.csv"
        self._write_raw(
            path,
            [(0, 0, 0, "-5.0"), (1, 0, 1, "0.5"), (2, 0, 0, "1.0"), (3, 0, 1, "7.0")],
        )
        recs, dropped = bin_raw(path, PhaseGrid(2), b)
        assert len(recs) == 1
        assert recs == records_of([(1, 0, 1, 1)])
        assert dropped == pytest.approx(0.75)

    def test_extend_mode_clamps_into_edge_bins(self, tmp_path):
        b = BinningScheme([-1.0, 0.0, 1.0], tail_mode="extend-tails")
        path = tmp_path / "raw.csv"
        self._write_raw(path, [(0, 0, 0, "-5.0"), (1, 0, 0, "5.0"), (2, 0, 1, "1.0")])
        recs, dropped = bin_raw(path, PhaseGrid(2), b)
        assert dropped == 0.0
        assert recs.i.tolist() == [0, 1, 1]

    def test_phase_index_and_value_validation(self, tmp_path):
        b = BinningScheme([-1.0, 1.0])
        path = tmp_path / "raw.csv"
        self._write_raw(path, [(0, 0, 9, "0.0")])
        with pytest.raises(MalformedRecordError):
            bin_raw(path, PhaseGrid(2), b)
        path.write_text("t,mode,k,x\n0,0,0,nan\n")
        with pytest.raises(MalformedRecordError):
            bin_raw(path, PhaseGrid(2), b)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("t,mode,k,i\n")
        with pytest.raises(MalformedRecordError):
            bin_raw(path, PhaseGrid(2), BinningScheme([-1.0, 1.0]))
