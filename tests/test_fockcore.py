"""Tests for the Hermite/wavefunction/bin-integral kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special
from scipy.integrate import trapezoid

from homodyne_shadows import fockcore
from homodyne_shadows.fockcore import bin_overlaps, wavefunction

import quadrature


class TestWavefunction:
    def test_ground_state_at_origin(self):
        assert wavefunction(0, 0.0) == pytest.approx(math.pi ** -0.25, abs=1e-14)

    def test_odd_state_vanishes_at_origin(self):
        assert wavefunction(1, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_second_excited_at_one(self):
        # (2^2 2! sqrt(pi))^(-1/2) H_2(1) e^(-1/2), frozen from the direct
        # formula (cross-checked against scipy.special.eval_hermite).
        expected = (8.0 * math.sqrt(math.pi)) ** -0.5 * 2.0 * math.exp(-0.5)
        assert expected == pytest.approx(0.3221441825567377, abs=1e-15)
        assert wavefunction(2, 1.0) == pytest.approx(0.3221441825567377, abs=1e-13)

    def test_matches_explicit_normalization(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(-3.0, 3.0, size=8)
        for n in range(0, 11):
            norm = (2.0**n * math.factorial(n) * math.sqrt(math.pi)) ** -0.5
            ref = norm * special.eval_hermite(n, xs) * np.exp(-0.5 * xs**2)
            assert np.allclose(wavefunction(n, xs), ref, rtol=1e-10, atol=1e-12)

    def test_high_order_stays_finite(self):
        # The normalized recurrence must not overflow at the top of the
        # supported range.
        val = wavefunction(64, 1.3)
        assert np.isfinite(val) and abs(val) < 1.0


def _parity_relation_test():
    """psi_m psi_n has parity (-1)^(m+n), so mirroring the bin flips the sign.

    Each class gets its own copy: Hypothesis refuses to run one ``@given``
    function under two classes.
    """

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(0, 6),
        n=st.integers(0, 6),
        a=st.floats(-4.0, 3.9),
        width=st.floats(0.01, 2.0),
    )
    def test_parity_relation(self, m, n, a, width):
        b = a + width
        mirrored = self.overlap(m, n, -b, -a)
        direct = self.overlap(m, n, a, b)
        assert mirrored == pytest.approx((-1.0) ** (m + n) * direct, abs=1e-11)

    return test_parity_relation


class _BinOverlapProperties:
    """Properties every single-bin overlap must have, run against ``overlap``."""

    def test_full_line_normalization(self):
        assert self.overlap(0, 0, -np.inf, np.inf) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("L", [0.5, 1.0, 3.7])
    def test_odd_parity_integrand_vanishes(self, L):
        assert self.overlap(2, 3, -L, L) == pytest.approx(0.0, abs=1e-12)

    def test_half_line_cross_term(self):
        # integral_0^inf psi_0 psi_1 = 1/sqrt(2 pi), from the closed-form
        # antiderivative of the integrand (a pure Gaussian times x).
        assert self.overlap(0, 1, 0.0, np.inf) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), abs=1e-12
        )

    def test_orthonormality(self):
        for m in range(9):
            for n in range(m, 9):
                val = self.overlap(m, n, -np.inf, np.inf)
                assert val == pytest.approx(1.0 if m == n else 0.0, abs=1e-10)

    def test_additivity(self):
        pts = (-1.7, 0.3, 2.2)
        for m, n in [(0, 0), (1, 4), (3, 3)]:
            whole = self.overlap(m, n, pts[0], pts[2])
            split = (
                self.overlap(m, n, pts[0], pts[1]) + self.overlap(m, n, pts[1], pts[2])
            )
            assert whole == pytest.approx(split, abs=1e-11)

    def test_symmetry_in_indices(self):
        assert self.overlap(2, 5, -0.4, 1.1) == self.overlap(5, 2, -0.4, 1.1)

    def test_agrees_with_dense_trapezoid(self):
        # Independent oracle: fixed-step trapezoid at step 1e-4 over the bin.
        cases = [(0, 0, -1.0, 1.0), (2, 4, -2.5, 0.7), (5, 5, 0.0, 3.0)]
        for m, n, a, b in cases:
            xs = np.arange(a, b + 1e-4, 1e-4)
            ref = trapezoid(
                fockcore.wavefunction(m, xs) * fockcore.wavefunction(n, xs), xs
            )
            assert self.overlap(m, n, a, b) == pytest.approx(ref, abs=1e-8)

    def test_empty_interval_is_zero(self):
        assert self.overlap(3, 3, 1.2, 1.2) == 0.0

    def test_interval_beyond_support_is_zero(self):
        assert self.overlap(0, 0, 80.0, 90.0) == 0.0

    def test_reversed_edges_rejected(self):
        with pytest.raises(ValueError):
            self.overlap(0, 0, 1.0, -1.0)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            self.overlap(-1, 0, 0.0, 1.0)


class TestBinOverlap(_BinOverlapProperties):
    """The quadrature oracle."""

    overlap = staticmethod(quadrature.bin_overlap)
    test_parity_relation = _parity_relation_test()

    def test_nonconvergence_reports_achieved_error(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_DEPTH", 1)
        with pytest.raises(RuntimeError, match="achieved error"):
            quadrature.bin_overlap(6, 6, -3.0, 3.0, tol=1e-33)


class TestClosedFormBinOverlap(_BinOverlapProperties):
    """The library accessor, one entry of ``bin_overlaps``."""

    overlap = staticmethod(fockcore.bin_overlap)
    test_parity_relation = _parity_relation_test()

    def test_outside_envelope_rejected(self):
        with pytest.raises(ValueError):
            fockcore.bin_overlap(70, 0, 0.0, 1.0)
        with pytest.raises(ValueError):
            fockcore.bin_overlap(0, 0, math.nan, 1.0)


# Left edges for the closed-form comparison: the -inf tail, the central
# region, and far tails where every retained Hermite function has decayed.
_left_edges = st.one_of(
    st.just(-math.inf),
    st.floats(-6.0, 6.0),
    st.floats(-30.0, -8.0),
    st.floats(8.0, 30.0),
)
_widths = st.one_of(
    st.floats(1e-7, 1e-3),  # narrow bins
    st.floats(1e-3, 8.0),
    st.just(math.inf),  # +inf tail
)


class TestBinOverlaps:
    @settings(max_examples=60, deadline=None)
    @given(n_max=st.integers(0, 64), a=_left_edges, width=_widths, data=st.data())
    def test_matches_quadrature(self, n_max, a, width, data):
        if math.isinf(width):
            b = math.inf
        elif math.isinf(a):
            b = width - 4.0  # a finite right edge for the -inf tail bin
        else:
            b = a + width
        G = bin_overlaps(n_max, [a, b])
        assert G.shape == (1, n_max + 1, n_max + 1)
        index = st.integers(0, n_max)
        pairs = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=5))
        for m, n in pairs + [(n_max, n_max)]:
            assert abs(G[0, m, n] - quadrature.bin_overlap(m, n, a, b)) <= 1e-13

    def test_envelope_matches_quadrature_about_the_turning_point(self):
        # At n_max = 64 the top states turn at sqrt(2*64 + 1) = 11.36.  Bins
        # lie below it, straddle it and lie beyond it, out to the +inf tail.
        # Rows 0, 32, 63 and 64 of every bin keep the oracle under about 2 s.
        edges = [0.3, 1.7, 10.8, 11.9, 12.5, np.inf]
        G = bin_overlaps(64, edges)
        for i in range(len(edges) - 1):
            for m in (0, 32, 63, 64):
                for n in range(65):
                    ref = quadrature.bin_overlap(m, n, edges[i], edges[i + 1])
                    assert abs(G[i, m, n] - ref) <= 1e-13, (i, m, n)

    def test_grid_matches_quadrature_entrywise(self):
        edges = [-np.inf, -2.5, -0.4, -0.3995, 1.1, 4.0, np.inf]
        G = bin_overlaps(6, edges)
        for i in range(len(edges) - 1):
            for m in range(7):
                for n in range(7):
                    ref = quadrature.bin_overlap(m, n, edges[i], edges[i + 1])
                    assert abs(G[i, m, n] - ref) <= 1e-13

    # PovmSet relies on this: class N - r shares class r's block.
    @pytest.mark.parametrize("tails", ["finite", "extend-tails"])
    @pytest.mark.parametrize("n_max", [0, 1, 7, 20, 64])
    def test_blocks_are_exactly_symmetric(self, n_max, tails):
        edges = np.linspace(-7.0, 7.0, 9)
        if tails == "extend-tails":
            edges[[0, -1]] = -np.inf, np.inf
        G = bin_overlaps(n_max, edges)
        assert np.array_equal(G, G.transpose(0, 2, 1))

    def test_full_line_is_identity(self):
        for n_max in (0, 5, 64):
            G = bin_overlaps(n_max, [-np.inf, np.inf])
            assert np.array_equal(G[0], np.eye(n_max + 1))

    def test_ground_state_closed_form(self):
        edges = np.array([-1.3, 0.2, 2.0])
        G = bin_overlaps(0, edges)
        expected = 0.5 * (special.erf(edges[1:]) - special.erf(edges[:-1]))
        assert np.allclose(G[:, 0, 0], expected, rtol=0, atol=1e-15)

    def test_tail_bins_complete_the_identity(self):
        # Bins from -inf to +inf telescope to the identity: orthonormality.
        G = bin_overlaps(30, [-np.inf, -3.0, 0.5, 0.50001, 6.0, np.inf])
        assert np.max(np.abs(G.sum(axis=0) - np.eye(31))) <= 1e-14

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            bin_overlaps(65, [0.0, 1.0])
        with pytest.raises(ValueError):
            bin_overlaps(-1, [0.0, 1.0])
        with pytest.raises(ValueError):
            bin_overlaps(2, [1.0, 0.0])
        with pytest.raises(ValueError):
            bin_overlaps(2, [0.0])
