"""Tests for POVM construction, completeness certification, and bin design."""

import functools
import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy import special

from homodyne_shadows import fockcore
from homodyne_shadows import povm as pv
from homodyne_shadows.errors import BinDesignError, CacheKeyMismatchError
from homodyne_shadows.records import Records
from homodyne_shadows.shadow import (
    EstimateReport,
    frame_operator,
    invert_frame,
    shadow_norm,
    snapshots,
    variance_bound,
)
from homodyne_shadows.sim import (
    MultiModeConfig,
    indistinguishability_experiment,
    joint_distribution,
    outcome_distribution,
    sample,
    sample_multi,
)
from homodyne_shadows.states import fock, number_operator
from homodyne_shadows.povm import (
    BinningScheme,
    PhaseGrid,
    build_povm,
    design_bins,
    is_informationally_complete,
    necessary_condition,
    normalization_residual,
    save_povm,
    sufficient_condition,
)

from conftest import random_density, random_hermitian, rebuild_povm
from test_blocks import vectorize


class TestPhaseGrid:
    def test_thetas(self):
        g = PhaseGrid(4)
        assert np.allclose(g.thetas, [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
        assert g.theta(1) == pytest.approx(math.pi / 2)

    def test_invalid(self):
        with pytest.raises(ValueError):
            PhaseGrid(0)
        with pytest.raises(ValueError):
            PhaseGrid(3).theta(3)


@functools.cache
def _small():
    """An IC (n_max=1, N=3, M=3) POVM, its snapshot table and one- and two-mode distributions."""
    p = build_povm(PhaseGrid(3), design_bins(1, 3, 3), 1)
    table = snapshots(p, invert_frame(frame_operator(p)))
    dist = outcome_distribution(fock(1, 1), p)
    multi = joint_distribution([fock(1, 1), fock(0, 1)], MultiModeConfig([p, p]))
    return p, table, dist, multi


# Every count and index that a public entry takes goes through one rule,
# errors._whole, before any other work.  int() used to truncate some of these
# (PhaseGrid(2.5) had N = 2, a cutoff of 3.7 built a 4 x 4 POVM), others were
# used as given (variance_bound(7.5, 5, 3, 1.0) gave 750.0) or checked only
# after design_bins warned about them.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("build, what", [
    (lambda: PhaseGrid(2.5), "phase count N"),
    (lambda: BinningScheme.equal_spaced(4.5, 3.0), "bin count M"),
    (lambda: build_povm(PhaseGrid(7), BinningScheme.equal_spaced(5, 3.0), 3.7), "n_max"),
    (lambda: pv.fockcore.bin_overlaps(np.float64(3.7), [0.0, 1.0]), "n_max"),
    (lambda: design_bins(1, 3, 2, max_iter=3.7), "max_iter"),
    (lambda: design_bins(3.7, 7, 5), "n_max"),
    (lambda: design_bins(3, 7.5, 5), "phase count N"),
    (lambda: design_bins(3, 7, 5.5), "bin count M"),
    (lambda: design_bins(3.7, 7, 5, L0=math.nan), "n_max"),
    (lambda: fockcore.wavefunction(2.5, 0.3), "Fock index n"),
    (lambda: fockcore.bin_overlap(1.5, 0, 0.0, 1.0), "Fock index m"),
    (lambda: fockcore.bin_overlap(0, 1.5, 0.0, 1.0), "Fock index n"),
    (lambda: pv.default_half_width(3.5), "n_max"),
    (lambda: sufficient_condition(7.5, 5, 3), "phase count N"),
    (lambda: sufficient_condition(7, 5.5, 3), "bin count M"),
    (lambda: sufficient_condition(7, 5, 3.5), "n_max"),
    (lambda: necessary_condition(7.5, 3), "phase count N"),
    (lambda: necessary_condition(7, 3.5), "n_max"),
    (lambda: variance_bound(7.5, 5, 3, 1.0), "phase count N"),
    (lambda: variance_bound(7, 5.5, 3, 1.0), "bin count M"),
    (lambda: variance_bound(7, 5, 3.5, 1.0), "n_max"),
    (lambda: EstimateReport(1.0, 0.1, 2.5, "plain-mean"), "shot count"),
    (lambda: sample(_small()[2], 2.5, 1), "shot count T"),
    (lambda: sample_multi(_small()[3], 2.5, 1), "shot count T"),
    (lambda: indistinguishability_experiment(3.5, 6, 4), "n_max"),
    (lambda: indistinguishability_experiment(3, 6.5, 4), "phase count N"),
    (lambda: indistinguishability_experiment(3, 6, 4.5), "bin count M"),
    (lambda: indistinguishability_experiment(2, 5, 3, fock_level=2.5), "fock_level"),
    (lambda: PhaseGrid(7).theta(1.5), "phase index k"),
    (lambda: _small()[0].element(0.5, 0), "bin index i"),
    (lambda: _small()[0].element(0, 0.5), "phase index k"),
    (lambda: _small()[1].snapshot(0.5, 0), "bin index i"),
    (lambda: _small()[1].snapshot(0, 0.5), "phase index k"),
], ids=[
    "PhaseGrid", "equal_spaced", "build_povm", "bin_overlaps", "design_bins",
    "design_bins-n_max", "design_bins-N", "design_bins-M", "design_bins-before-L0",
    "wavefunction", "bin_overlap-m", "bin_overlap-n", "default_half_width",
    "sufficient-N", "sufficient-M", "sufficient-n_max", "necessary-N", "necessary-n_max",
    "variance_bound-N", "variance_bound-M", "variance_bound-n_max", "EstimateReport",
    "sample", "sample_multi", "indistinguishability-n_max", "indistinguishability-N",
    "indistinguishability-M", "indistinguishability-fock_level", "theta",
    "element-i", "element-k", "snapshot-i", "snapshot-k",
])
def test_fractional_count_is_refused(build, what):
    with pytest.raises(ValueError, match="^%s must be a whole number" % what):
        build()


def _exact(x):
    """A key equal for two results only when they are bit-identical and of the same types."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, Records):
        return tuple(_exact(c) for c in x.columns())
    if isinstance(x, BinningScheme):
        return _exact(x.edges), x.tail_mode
    if isinstance(x, EstimateReport):
        return repr(x.to_json())
    return type(x), repr(x)


# The twin of the table above: an integral float gives the int's result.
# Before, the first six raised TypeError or IndexError, and the report kept
# the float counts.
@pytest.mark.parametrize("call", [
    lambda c: fockcore.wavefunction(c(2), np.linspace(-2.0, 2.0, 5)),
    lambda c: fockcore.bin_overlap(c(1), c(0), 0.0, 1.0),
    lambda c: sample(_small()[2], c(3), 1),
    lambda c: sample_multi(_small()[3], c(2), 1),
    lambda c: _small()[0].element(c(1), c(2)),
    lambda c: _small()[1].snapshot(c(1), c(2)),
    lambda c: indistinguishability_experiment(c(3), c(6), c(4)),
    lambda c: indistinguishability_experiment(c(2), c(5), c(3), fock_level=c(2)),
    lambda c: fockcore.bin_overlaps(c(3), [0.0, 1.0]),
    lambda c: design_bins(c(3), c(7), c(5), max_iter=c(3)),
    lambda c: pv.default_half_width(c(3)),
    lambda c: sufficient_condition(c(7), c(5), c(3)),
    lambda c: necessary_condition(c(7), c(3)),
    lambda c: variance_bound(c(7), c(5), c(3), 1.0),
    lambda c: EstimateReport(1.0, 0.1, c(3), "plain-mean"),
    lambda c: PhaseGrid(7).theta(c(2)),
], ids=[
    "wavefunction", "bin_overlap", "sample", "sample_multi", "element", "snapshot",
    "indistinguishability", "indistinguishability-fock_level", "bin_overlaps", "design_bins",
    "default_half_width", "sufficient", "necessary", "variance_bound", "EstimateReport", "theta",
])
def test_integral_float_count_gives_the_int_result(call):
    assert _exact(call(float)) == _exact(call(int))


# A whole number out of range names the index, not the cutoff it would set.
@pytest.mark.parametrize("call, message", [
    (lambda: fockcore.bin_overlap(0, 65, 0.0, 1.0), "Fock index n must lie in 0..64, got 65"),
    (lambda: fockcore.bin_overlap(-1, 0, 0.0, 1.0), "Fock index m must lie in 0..64, got -1"),
    (lambda: fockcore.bin_overlaps(65, [0.0, 1.0]), "n_max must lie in 0..64, got 65"),
    (lambda: fockcore.wavefunction(-1, 0.0), "Fock index n must be >= 0, got -1"),
    (lambda: PhaseGrid(7).theta(7), "phase index k must lie in 0..6, got 7"),
    (lambda: _small()[0].element(3, 0), "bin index i must lie in 0..2, got 3"),
    (lambda: _small()[1].snapshot(0, -1), "phase index k must lie in 0..2, got -1"),
], ids=["bin_overlap-n", "bin_overlap-m", "bin_overlaps", "wavefunction", "theta", "element",
        "snapshot"])
def test_index_out_of_range_is_named(call, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        call()


def test_integral_counts_of_any_type_are_accepted():
    p = build_povm(PhaseGrid(7.0), BinningScheme.equal_spaced(np.int64(5), 3.0), np.float64(3.0))
    assert (p.grid.N, p.binning.M, p.n_max) == (7, 5, 3)
    assert np.array_equal(p.G, build_povm(PhaseGrid(7), BinningScheme.equal_spaced(5, 3.0), 3).G)


class TestBinningScheme:
    def test_widths_are_edge_differences(self):
        b = BinningScheme([-2.0, -0.5, 1.0, 4.0])
        assert np.array_equal(b.widths, [1.5, 1.5, 3.0])
        assert b.M == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            BinningScheme([0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            BinningScheme([0.0, np.inf])
        with pytest.raises(ValueError):
            BinningScheme([0.0, 1.0], tail_mode="clip")

    def test_one_edge_is_refused(self):
        with pytest.raises(ValueError, match=r"need at least two bin edges, got shape \(1,\)"):
            BinningScheme([0.5])

    def test_equal_spaced_covers_requested_range(self):
        b = BinningScheme.equal_spaced(4, 2.0)
        assert b.edges[0] == -2.0
        assert b.edges[-1] > 2.0  # deterministic stretch past +L
        assert np.allclose(np.diff(b.edges), np.diff(b.edges)[0])

    def test_integration_edges_extend_tails(self):
        b = BinningScheme.equal_spaced(3, 1.0, tail_mode=pv.TAIL_EXTEND)
        eff = b.integration_edges()
        assert eff[0] == -np.inf and eff[-1] == np.inf
        strict = BinningScheme.equal_spaced(3, 1.0, tail_mode=pv.TAIL_STRICT)
        assert np.all(np.isfinite(strict.integration_edges()))


class TestBuildPovm:
    def test_vacuum_entry_matches_error_function(self):
        # The (0,0) entry of element (i,k) is the Gaussian mass of bin i
        # divided by the number of phases, independent of k.
        edges = np.array([-1.5, -0.2, 0.9, 2.4])
        p = build_povm(PhaseGrid(3), BinningScheme(edges, tail_mode=pv.TAIL_STRICT), 2)
        for i in range(3):
            expected = 0.5 * (special.erf(edges[i + 1]) - special.erf(edges[i])) / 3.0
            for k in range(3):
                assert p.element(i, k)[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_phase_factor(self):
        # At N=4, k=1 (theta = pi/2) the (0,1) entry carries e^{-i pi/2} = -i.
        b = BinningScheme([-2.0, 0.5, 2.0], tail_mode=pv.TAIL_STRICT)
        p = build_povm(PhaseGrid(4), b, 1)
        real_part = build_povm(PhaseGrid(1), b, 1).element(0, 0)[0, 1].real
        assert p.element(0, 1)[0, 1] == pytest.approx(
            -1j * real_part / 4.0 * 1.0, abs=1e-12
        )

    def test_extend_tails_completeness_per_phase(self):
        b = BinningScheme([-1.0, 0.3, 0.8], tail_mode=pv.TAIL_EXTEND)
        p = build_povm(PhaseGrid(5), b, 3)
        assert normalization_residual(p).max() <= 1e-10

    def test_elements_satisfy_operator_bounds(self):
        # Pi_{i,k} = D_k G_i D_k^dagger / N with a unitary D_k, so every phase
        # of bin i has the spectrum of G_i/N, which must lie in [0, 1/N].
        p = build_povm(PhaseGrid(3), BinningScheme.equal_spaced(3, 2.0), 2)
        for G in p.G:
            lam = np.linalg.eigvalsh(G) / p.grid.N
            assert lam[0] >= -1e-10 and lam[-1] <= 1.0 / p.grid.N + 1e-10

    def test_cutoff_envelope(self):
        with pytest.raises(ValueError):
            build_povm(PhaseGrid(2), BinningScheme.equal_spaced(2, 1.0), 65)


class TestPovmIdentity:
    """``PovmSet.__eq__``: the same cutoff, phase grid and binning (edges, tail mode)."""

    @pytest.fixture(scope="class")
    def povm(self):
        return build_povm(PhaseGrid(7), design_bins(3, 7, 5), 3)

    def test_rebuild_from_same_parameters_is_equal(self, povm):
        b = povm.binning
        again = build_povm(PhaseGrid(7), BinningScheme(b.edges, b.tail_mode), 3)
        assert again is not povm and again == povm
        assert again.cache_key == povm.cache_key
        assert povm != "povm"

    # The four parameters that the cache key hashes; they fix G and the weights.
    @pytest.mark.parametrize("part", ["cutoffs", "phase grids", "bin edges", "tail modes"])
    def test_pairs_that_differ_in_one_part(self, povm, part):
        grid, b, n_max = povm.grid, povm.binning, povm.n_max
        if part == "cutoffs":
            n_max = 2
        elif part == "phase grids":
            grid = PhaseGrid(9)
        elif part == "bin edges":
            b = BinningScheme(1.01 * b.edges, b.tail_mode)
        else:
            b = BinningScheme(b.edges, pv.TAIL_STRICT)
        other = build_povm(grid, b, n_max)
        assert other != povm and povm != other
        assert other.cache_key != povm.cache_key
        inv = invert_frame(frame_operator(povm))
        with pytest.raises(ValueError, match="^inverse frame .* their %s differ" % part):
            snapshots(other, inv)
        table = snapshots(povm, inv)
        with pytest.raises(ValueError, match="^snapshot table .* their %s differ" % part):
            shadow_norm(number_operator(3), table, other)

    def test_frame_operator_is_the_ic_report(self, povm):
        frame = frame_operator(povm)
        assert isinstance(frame, pv.ICReport) and frame.povm is povm
        assert frame.pairs is povm._svd
        report = is_informationally_complete(povm)
        for name in ("singular_values", "eigenvalues"):
            assert np.array_equal(getattr(frame, name), getattr(report, name))
        s = report.singular_values
        assert np.array_equal(report.eigenvalues, np.sort(s**2))
        assert report.lambda_min == s[-1] ** 2
        assert report.condition_number == s[0] ** 2 / s[-1] ** 2


class TestMeasurementMatrix:
    def test_scalar_space_rank_one(self):
        edges = np.array([-1.0, 0.0, 1.0])
        p = build_povm(PhaseGrid(2), BinningScheme(edges, tail_mode=pv.TAIL_STRICT), 0)
        assert is_informationally_complete(p).rank == 1
        probs = 0.5 * (special.erf(edges[1:]) - special.erf(edges[:-1])) / 2.0
        E00 = [p.element(i, 0)[0, 0] for i in range(2)]
        assert np.allclose(np.real(E00), probs, atol=1e-12)

    def test_mirror_symmetric_edges_rank(self):
        # n_max=1, N=3, M=2 with edges (-4, 0, 4): the bins are mirror
        # images, which forces a parity degeneracy among the columns.  The
        # SVD oracle puts the fourth singular value at roundoff (~3e-17),
        # so the numerical rank is 3, one short of completeness.
        p = build_povm(
            PhaseGrid(3), BinningScheme([-4.0, 0.0, 4.0], tail_mode=pv.TAIL_STRICT), 1
        )
        report = is_informationally_complete(p)
        assert report.rank == 3
        assert report.singular_values[-1] < 1e-14

    def test_too_few_phases_never_complete(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            edges = np.sort(rng.uniform(-4.5, 4.5, size=8))
            edges += rng.uniform(0.1, 0.5)  # avoid accidental symmetry
            p = build_povm(PhaseGrid(5), BinningScheme(edges), 5)
            assert is_informationally_complete(p).rank < 36


class TestNumericalRank:
    def test_invalid_rtol(self):
        p = build_povm(PhaseGrid(3), BinningScheme.equal_spaced(2, 1.5), 1)
        for rtol in (0.0, -1e-10, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                is_informationally_complete(p, rtol=rtol)


class TestCompletenessPredicates:
    def test_report_truth_is_the_verdict(self):
        complete = build_povm(PhaseGrid(7), design_bins(3, 7, 5), 3)
        # N = 3 <= n_max: no binning is complete (necessary_condition).
        incomplete = build_povm(PhaseGrid(3), BinningScheme.equal_spaced(8, 4.0), 3)
        assert bool(is_informationally_complete(complete)) is True
        assert bool(is_informationally_complete(incomplete)) is False

    def test_mirror_symmetric_scheme_incomplete(self):
        p = build_povm(
            PhaseGrid(3), BinningScheme([-4.0, 0.0, 4.0], tail_mode=pv.TAIL_STRICT), 1
        )
        report = is_informationally_complete(p)
        assert not report.complete
        assert report.rank == 3 and report.required == 4

    def test_designed_scheme_complete(self):
        scheme = design_bins(1, 3, 2, L0=1.0, dL=0.5, max_iter=100)
        p = build_povm(PhaseGrid(3), scheme, 1)
        report = is_informationally_complete(p)
        assert report.complete
        assert report.lambda_min > 0

    def test_lambda_min_is_zero_below_dimension_outcomes(self):
        # One phase and three bins: 3 outcomes for a 4-dimensional operator
        # space, so all 3 singular values are positive but the frame is singular.
        p = build_povm(PhaseGrid(1), BinningScheme.equal_spaced(3, 2.0), 1)
        report = is_informationally_complete(p)
        assert report.rank == 3 and report.singular_values.size == 3
        assert report.singular_values[-1] > 0.1
        assert report.lambda_min == 0.0 == frame_operator(p).lambda_min
        assert report.condition_number == math.inf

    def test_sufficient_condition(self):
        assert sufficient_condition(11, 6, 5)
        assert sufficient_condition(3, 2, 1)
        assert not sufficient_condition(10, 6, 5)

    def test_necessary_condition(self):
        assert not necessary_condition(5, 5)
        assert not necessary_condition(8, 5)
        assert necessary_condition(7, 5)
        assert necessary_condition(11, 5)

    def test_failed_necessary_condition_blocks_completeness(self):
        # Whenever the phase-count test fails, no binning can be complete.
        rng = np.random.default_rng(17)
        for N in (2, 3, 6):
            assert not necessary_condition(N, 3)
            for _ in range(2):
                edges = np.sort(rng.uniform(-4.0, 4.0, size=6))
                p = build_povm(PhaseGrid(N), BinningScheme(edges), 3)
                assert not is_informationally_complete(p).complete


class TestDesignBins:
    def test_small_case_succeeds_at_initial_width(self):
        scheme = design_bins(1, 3, 2, L0=1.0, dL=0.5, max_iter=100)
        assert scheme.edges[0] == pytest.approx(-1.0)
        assert scheme.M == 2
        p = build_povm(PhaseGrid(3), scheme, 1)
        assert is_informationally_complete(p).rank == 4

    def test_full_scale_case(self):
        scheme = design_bins(5, 11, 6, L0=3.0, dL=0.5, max_iter=100)
        p = build_povm(PhaseGrid(11), scheme, 5)
        assert is_informationally_complete(p).rank == 36

    def test_exhaustion_carries_diagnostics(self):
        with pytest.warns(UserWarning):
            with pytest.raises(BinDesignError) as excinfo:
                design_bins(5, 4, 6, L0=3.0, dL=0.5, max_iter=10)
        err = excinfo.value
        assert 0 < err.best_rank < 36
        assert err.final_half_width == pytest.approx(8.0)

    def test_default_initial_width(self):
        assert pv.default_half_width(5) == pytest.approx(math.sqrt(11.0) + 1.0)
        scheme = design_bins(2, 5, 3)
        assert scheme.edges[0] == pytest.approx(-pv.default_half_width(2))

    @pytest.mark.parametrize("n_max", [4, 7, 8, 12, 20, 32, 48, 64])
    def test_documented_working_range(self, n_max):
        # M = ceil(1.5 (n_max+1)) at N = 2 n_max + 1: the design and the
        # strict inversion succeed, with a well-conditioned frame.
        N, M = 2 * n_max + 1, math.ceil(1.5 * (n_max + 1))
        frame = frame_operator(build_povm(PhaseGrid(N), design_bins(n_max, N, M), n_max))
        invert_frame(frame)
        assert frame.condition_number <= 2e4

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            design_bins(1, 3, 2, L0=-1.0)
        with pytest.raises(ValueError):
            design_bins(1, 3, 2, dL=0.0)

    # These used to blame "bin edges must be finite", edges the caller never gave.
    @pytest.mark.parametrize("build, text", [
        (lambda: design_bins(3, 7, 5, L0=math.nan), "got L0=nan, dL=0.5"),
        (lambda: design_bins(3, 7, 5, L0=math.inf), "got L0=inf, dL=0.5"),
        (lambda: design_bins(3, 7, 5, L0=2.0, dL=math.nan), "got L0=2, dL=nan"),
        (lambda: design_bins(3, 7, 5, L0=2.0, dL=math.inf), "got L0=2, dL=inf"),
    ], ids=["L0-nan", "L0-inf", "dL-nan", "dL-inf"])
    def test_non_finite_half_width_names_it(self, build, text):
        with pytest.raises(ValueError) as excinfo:
            build()
        assert str(excinfo.value) == "L0 and dL must be finite and positive, " + text

    @pytest.mark.parametrize("L", [math.inf, -math.inf, math.nan])
    def test_non_finite_equal_spaced_half_width_names_it(self, L):
        with pytest.raises(ValueError) as excinfo:
            BinningScheme.equal_spaced(5, L)
        assert str(excinfo.value) == "half_width must be finite and positive, got %g" % L

    def test_trace_sector_frame_bound(self):
        # For designed strict-finite schemes, the frame operator restricted
        # to the trace direction obeys <A, C(A)> >= Tr(A)^2 / (N * L_total):
        # the Cauchy-Schwarz step behind it only controls that sector, so
        # the full smallest eigenvalue can sit far below this level.
        rng = np.random.default_rng(23)
        for n_max, N, M in [(2, 5, 3), (3, 7, 5)]:
            scheme = design_bins(n_max, N, M, tail_mode=pv.TAIL_STRICT)
            p = build_povm(PhaseGrid(N), scheme, n_max)
            E = np.stack(
                [vectorize(p.element(i, k)) for k in range(N) for i in range(M)],
                axis=1,
            )
            w = np.tile(scheme.widths, N)
            C = (E / w) @ E.conj().T
            bound = 1.0 / (N * scheme.widths.sum())
            for _ in range(6):
                A = random_hermitian(n_max + 1, rng)
                a = vectorize(A)
                quad = float(np.real(a.conj() @ C @ a))
                tr2 = float(np.trace(A).real ** 2)
                assert quad >= tr2 * bound - 1e-9


class TestNormalizationResidual:
    def test_strict_residual_shrinks_with_range(self):
        res = []
        for L in (2.0, 4.0, 6.0):
            b = BinningScheme.equal_spaced(6, L, tail_mode=pv.TAIL_STRICT)
            p = build_povm(PhaseGrid(3), b, 2)
            res.append(normalization_residual(p).max())
        assert res[0] > res[1] > res[2]

    def test_scalar_strict_residual_closed_form(self):
        b = BinningScheme([-1.0, 1.0], tail_mode=pv.TAIL_STRICT)
        p = build_povm(PhaseGrid(2), b, 0)
        expected = (1.0 - special.erf(1.0)) / 2.0
        assert normalization_residual(p)[0] == pytest.approx(expected, abs=1e-12)


class TestPovmCache:
    def test_round_trip_is_bit_identical(self, tmp_path):
        scheme = design_bins(1, 3, 2, L0=1.0)
        p = build_povm(PhaseGrid(3), scheme, 1)
        path = tmp_path / "povm.json"
        save_povm(p, path)
        loaded = rebuild_povm(path)
        assert np.array_equal(loaded.G, p.G)
        assert loaded.cache_key == p.cache_key
        assert loaded.binning == p.binning

    def test_tampered_cache_rejected(self, tmp_path):
        scheme = BinningScheme.equal_spaced(2, 1.0)
        p = build_povm(PhaseGrid(3), scheme, 1)
        path = tmp_path / "povm.json"
        save_povm(p, path)
        doc = json.loads(path.read_text())
        doc["n_max"] = 2  # no longer matches the stored key
        path.write_text(json.dumps(doc))
        with pytest.raises(CacheKeyMismatchError):
            rebuild_povm(path)

    def test_unknown_version_and_malformed_file_rejected(self, tmp_path):
        p = build_povm(PhaseGrid(3), BinningScheme.equal_spaced(3, 1.5), 1)
        path = tmp_path / "povm.json"
        save_povm(p, path)
        doc = json.loads(path.read_text())
        for bad in ({**doc, "version": 3}, {k: v for k, v in doc.items() if k != "edges"}, [doc]):
            path.write_text(json.dumps(bad))
            with pytest.raises(CacheKeyMismatchError):
                rebuild_povm(path)

    def test_file_holds_parameters_only(self, tmp_path):
        # The file does not grow with the element count M*N*(n_max+1)^2.
        n_max, N, M = 20, 41, 100
        scheme = BinningScheme.equal_spaced(M, pv.default_half_width(n_max))
        p = build_povm(PhaseGrid(N), scheme, n_max)
        path = tmp_path / "povm.json"
        save_povm(p, path)
        assert path.stat().st_size < 16 * 1024
        doc = json.loads(path.read_text())
        assert set(doc) == {
            "version", "n_max", "N", "M", "tail_mode", "edges", "cache_key"
        }
        assert (doc["version"], doc["M"], doc["cache_key"]) == (2, M, p.cache_key)
        loaded = rebuild_povm(path)
        assert np.array_equal(loaded.G, p.G)
        assert loaded.binning == p.binning

    @pytest.mark.parametrize("version", [1, 2])
    def test_files_with_width_weights_load(self, version, tmp_path):
        # Files written before the weights field was dropped hold the widths:
        # design-bins wrote version 1 without a cache key, save_povm version 2.
        p = build_povm(PhaseGrid(7), BinningScheme([-2.0, -0.9, 0.6, 3.1, 3.5]), 3)
        path = tmp_path / "povm.json"
        save_povm(p, path, rank=16, required=16, half_width=2.0)
        doc = dict(json.loads(path.read_text()), version=version)
        doc["weights"] = [float(w) for w in p.binning.widths]
        if version == 1:
            del doc["cache_key"]
        path.write_text(json.dumps(doc))
        assert rebuild_povm(path) == p

    def test_roundoff_level_deviation_loads_rebuilt_povm(self, tmp_path):
        # A version-1 file also stored every element matrix.  Its elements
        # are never read: entries off by roundoff (as quadrature-built ones
        # were) still load, and the POVM rebuilt from the parameters returns.
        p = build_povm(PhaseGrid(3), BinningScheme.equal_spaced(3, 1.5), 1)
        elements = []
        for k in range(3):
            for i in range(3):
                A = p.element(i, k) + 3e-13
                rows = [[[float(z.real), float(z.imag)] for z in row] for row in A]
                elements.append({"i": i, "k": k, "matrix": rows})
        doc = {
            "version": 1,
            "n_max": 1,
            "N": 3,
            "tail_mode": p.binning.tail_mode,
            "edges": [float(e) for e in p.binning.edges],
            "weights": [float(w) for w in p.binning.widths],
            "cache_key": p.cache_key,
            "elements": elements,
        }
        path = tmp_path / "povm.json"
        path.write_text(json.dumps(doc))
        loaded = rebuild_povm(path)
        assert np.array_equal(loaded.G, p.G)
        assert loaded.binning == p.binning


class TestStructuredPath:
    def test_condition_number_matches_frame(self):
        from homodyne_shadows.shadow import frame_operator

        p = build_povm(PhaseGrid(7), design_bins(3, 7, 5), 3)
        report = is_informationally_complete(p)
        assert report.condition_number == pytest.approx(
            frame_operator(p).condition_number, rel=1e-10
        )

    def test_incomplete_condition_number_is_infinite_or_huge(self):
        p = build_povm(
            PhaseGrid(3), BinningScheme([-4.0, 0.0, 4.0], tail_mode=pv.TAIL_STRICT), 1
        )
        assert is_informationally_complete(p).condition_number > 1e12

    def test_overlaps_match_quadrature(self):
        from quadrature import bin_overlap

        scheme = BinningScheme.equal_spaced(4, 2.0)
        p = build_povm(PhaseGrid(3), scheme, 3)
        eff = scheme.integration_edges()
        for i in range(4):
            for m in range(4):
                for n in range(4):
                    ref = bin_overlap(m, n, eff[i], eff[i + 1])
                    assert abs(p.G[i, m, n] - ref) <= 1e-13

    def test_envelope_certifies_without_dense_elements(self):
        # n_max = 64 at N = 129, M = 130: one dense (M, N, d, d) element or
        # snapshot array would take 1.1 GB, so the whole chain from design
        # to estimate must run on the factored (M, d, d) arrays.
        from homodyne_shadows import shadow as sh
        from homodyne_shadows import sim
        from homodyne_shadows.states import expectation, number_operator

        rho = random_density(64, np.random.default_rng(64))
        X = number_operator(64)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            scheme = design_bins(64, 129, 130)
            p = build_povm(PhaseGrid(129), scheme, 64)
            report = is_informationally_complete(p)
            inv = sh.invert_frame(sh.frame_operator(p), mode=sh.MODE_STRICT)
            table = sh.snapshots(p, inv)
            dist = sim.outcome_distribution(rho, p)
            variance = sh.exact_variance(rho, X, table, p)
            norm = sh.shadow_norm(X, table, p)
            average = sh.exact_average_snapshot(dist.probabilities, table)
            est = sh.estimate_observable(sim.sample(dist, 10_000, seed=64), table, X)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.complete and report.rank == 65 * 65
        assert variance <= norm
        assert np.linalg.norm(average - rho.matrix) <= 1e-8
        assert abs(est.mean - expectation(rho, X)) <= 5.0 * math.sqrt(variance / 10_000)
        # About 15 MB; the dense arrays would need two 1.1 GB allocations.
        assert peak < 100e6
        # About 0.5 s on a 2-core machine; the bound leaves room for load.
        assert elapsed < 5.0
