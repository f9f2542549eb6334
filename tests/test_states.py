"""Tests for state factories, observables, and matrix file I/O."""

import json
import math
import warnings

import numpy as np
import pytest

from homodyne_shadows import states
from homodyne_shadows.errors import InvariantViolationError
from homodyne_shadows.states import (
    DensityMatrix,
    Observable,
    cat,
    coherent,
    expectation,
    fock,
    from_file,
    number_operator,
    observable_from_file,
    superposition_pair,
    thermal,
    trace_distance,
)

from conftest import random_density


class TestDensityMatrix:
    def test_accepts_valid_state(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]))
        assert rho.n_max == 1
        assert rho.dim == 2

    def test_rejects_non_square(self):
        with pytest.raises(InvariantViolationError) as excinfo:
            DensityMatrix(np.ones((2, 3)) / 6.0)
        assert excinfo.value.check == "square"

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(InvariantViolationError) as excinfo:
            DensityMatrix(m)
        assert excinfo.value.check == "hermitian"

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvariantViolationError) as excinfo:
            DensityMatrix(np.diag([0.5, 0.6]))
        assert excinfo.value.check == "unit-trace"

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InvariantViolationError) as excinfo:
            DensityMatrix(np.diag([1.5, -0.5]))
        assert excinfo.value.check == "positive"


class TestCoherent:
    def test_vacuum_amplitude(self):
        rho = coherent(1.0, 20)
        # |<0|alpha>|^2 = e^{-|alpha|^2}, up to truncation renormalization
        assert rho.matrix[0, 0].real == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_zero_alpha_is_vacuum(self):
        rho = coherent(0.0, 4)
        assert np.allclose(rho.matrix, fock(0, 4).matrix)

    def test_deficit_decreases_with_cutoff(self):
        with pytest.warns(UserWarning):
            d_small = coherent(2.0, 8).truncation_deficit
        d_large = coherent(2.0, 24).truncation_deficit
        assert d_small > d_large > 0.0

    def test_warns_on_heavy_truncation(self):
        with pytest.warns(UserWarning):
            coherent(3.0, 3)

    def test_complex_amplitude_phases(self):
        rho = coherent(1j, 15)
        # off-diagonal <0|rho|1> proportional to conj(alpha)
        assert rho.matrix[0, 1] == pytest.approx(
            -1j * math.exp(-1.0), abs=1e-6
        )


class TestFock:
    def test_projector(self):
        rho = fock(2, 4)
        expected = np.zeros((5, 5))
        expected[2, 2] = 1.0
        assert np.array_equal(rho.matrix.real, expected)
        assert rho.truncation_deficit == 0.0

    def test_level_beyond_cutoff(self):
        with pytest.raises(ValueError):
            fock(5, 4)
        with pytest.raises(ValueError):
            fock(-1, 4)


class TestSuperpositionPair:
    def test_conjugate_pair_differs_only_in_coherence_sign(self):
        rho, rho_c = superposition_pair(1.0, 1j, 3, 5)
        assert rho.matrix[0, 3] == pytest.approx(-0.5j)
        assert rho_c.matrix[0, 3] == pytest.approx(0.5j)
        assert np.allclose(np.diag(rho.matrix), np.diag(rho_c.matrix))

    def test_real_beta_gives_identical_pair(self):
        rho, rho_c = superposition_pair(1.0, 1.0, 2, 4)
        assert np.allclose(rho.matrix, rho_c.matrix)

    def test_normalization_convention(self):
        with pytest.raises(ValueError):
            superposition_pair(1.0, 0.5j, 2, 4)
        with pytest.raises(ValueError):
            superposition_pair(1.0 + 0.1j, 1.0, 2, 4)


class TestThermal:
    def test_mean_occupation(self):
        rho = thermal(1.0, 20)
        n_op = number_operator(20)
        assert expectation(rho, n_op) == pytest.approx(1.0, abs=1e-3)

    def test_zero_temperature_is_vacuum(self):
        assert np.allclose(thermal(0.0, 5).matrix, fock(0, 5).matrix)

    def test_geometric_ratio(self):
        rho = thermal(2.0, 40)
        diag = np.diag(rho.matrix).real
        ratios = diag[1:6] / diag[:5]
        assert np.allclose(ratios, 2.0 / 3.0, atol=1e-12)


class TestCat:
    def test_even_cat_has_even_support(self):
        rho = cat(1.5, +1, 12)
        diag = np.diag(rho.matrix).real
        assert np.all(diag[1::2] < 1e-14)
        assert diag[0] > 0 and diag[2] > 0

    def test_odd_cat_has_odd_support(self):
        rho = cat(1.5, -1, 16)
        diag = np.diag(rho.matrix).real
        assert np.all(diag[0::2] < 1e-14)
        assert diag[1] > 0

    def test_odd_cat_at_origin_rejected(self):
        with pytest.raises(ValueError):
            cat(0.0, -1, 8)

    def test_parity_validation(self):
        with pytest.raises(ValueError):
            cat(1.0, 0, 8)

    def test_deficit_uses_exact_norm(self):
        rho = cat(1.0, +1, 40)
        assert rho.truncation_deficit == pytest.approx(0.0, abs=1e-12)


class TestObservable:
    def test_number_operator(self):
        n_op = number_operator(3)
        assert np.array_equal(np.diag(n_op.matrix).real, [0.0, 1.0, 2.0, 3.0])
        assert n_op.operator_norm == pytest.approx(3.0)
        assert n_op.label == "n"

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvariantViolationError):
            Observable(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_expectation_is_real(self):
        rng = np.random.default_rng(3)
        rho = random_density(4, rng)
        n_op = number_operator(4)
        val = expectation(rho, n_op)
        assert isinstance(val, float)
        assert 0.0 <= val <= 4.0


class TestTraceDistance:
    def test_orthogonal_pure_states(self):
        assert trace_distance(fock(0, 3), fock(1, 3)) == pytest.approx(1.0)

    def test_identical_states(self):
        rho = thermal(0.5, 12)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(11)
        a = random_density(3, rng)
        b = random_density(3, rng)
        d_ab = trace_distance(a, b)
        assert d_ab == pytest.approx(trace_distance(b, a))
        assert 0.0 <= d_ab <= 1.0


class TestFileRoundTrip:
    def test_state_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        rho = random_density(4, rng)
        path = tmp_path / "state.json"
        rho.to_file(path)
        loaded = from_file(path)
        assert np.array_equal(loaded.matrix, rho.matrix)
        assert loaded.n_max == rho.n_max

    def test_observable_round_trip(self, tmp_path):
        obs = number_operator(3)
        path = tmp_path / "obs.json"
        obs.to_file(path)
        loaded = observable_from_file(path)
        assert np.array_equal(loaded.matrix, obs.matrix)
        assert loaded.label == "n"

    def test_mildly_asymmetric_file_is_symmetrized(self, tmp_path):
        path = tmp_path / "obs.json"
        m = np.diag([0.0, 1.0]).astype(complex)
        m[0, 1] = 1e-10  # below the rejection threshold
        doc = {
            "n_max": 1,
            "label": "x",
            "matrix": [[[v.real, v.imag] for v in row] for row in m],
        }
        path.write_text(json.dumps(doc))
        loaded = observable_from_file(path)
        assert np.allclose(loaded.matrix, loaded.matrix.conj().T)

    def test_grossly_asymmetric_file_rejected(self, tmp_path):
        path = tmp_path / "obs.json"
        m = np.zeros((2, 2), dtype=complex)
        m[0, 1] = 1.0
        doc = {
            "n_max": 1,
            "matrix": [[[v.real, v.imag] for v in row] for row in m],
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(InvariantViolationError):
            observable_from_file(path)


class TestSharedRules:
    """The exact texts, check names and warning sites of the shared input rules."""

    @pytest.mark.parametrize("cls, what", [(DensityMatrix, "density matrix"),
                                           (Observable, "observable")])
    def test_non_square_text(self, cls, what):
        with pytest.raises(InvariantViolationError) as excinfo:
            cls(np.ones((2, 3)) / 6.0)
        assert str(excinfo.value) == "%s must be square, got shape (2, 3)" % what
        assert excinfo.value.check == "square"

    @pytest.mark.parametrize("cls, what", [(DensityMatrix, "density matrix"),
                                           (Observable, "observable")])
    def test_non_hermitian_text(self, cls, what):
        with pytest.raises(InvariantViolationError) as excinfo:
            cls(np.array([[0.5, 0.3], [0.0, 0.5]]))
        assert str(excinfo.value) == "%s is not Hermitian within 1e-12" % what
        assert excinfo.value.check == "hermitian"

    @pytest.mark.parametrize("cls", [DensityMatrix, Observable])
    def test_matrix_is_a_read_only_complex_copy(self, cls):
        m = np.diag([0.25, 0.75])
        A = cls(m).matrix
        m[0, 0] = 1.0
        assert A.dtype == complex and A[0, 0] == 0.25
        assert not A.flags.writeable

    @pytest.mark.parametrize("factory, args, text, deficit", [
        (coherent, (3.0, 3), "coherent(alpha=(3+0j), n_max=3) loses probability "
         "9.788e-01 to truncation", 1.0 - 172.0 * math.exp(-9.0)),
        (thermal, (0.5, 3), "thermal(nbar=0.5, n_max=3) loses probability "
         "1.235e-02 to truncation", 1.0 / 81.0),
        (cat, (1.0, -1, 3), "cat(alpha=(1+0j), parity=-1, n_max=3) loses probability "
         "7.262e-03 to truncation", 1.0 - 7.0 / (6.0 * math.sinh(1.0))),
    ], ids=["coherent", "thermal", "cat"])
    def test_truncation_warning(self, factory, args, text, deficit):
        with pytest.warns(UserWarning) as record:
            rho = factory(*args)
        assert [str(w.message) for w in record] == [text]
        # The warning points at the factory's caller: this file.
        assert record[0].filename == __file__
        assert rho.truncation_deficit == pytest.approx(deficit, rel=1e-12)

    @pytest.mark.parametrize("factory, args", [
        (coherent, (1.0, 20)), (thermal, (0.5, 40)), (cat, (1.0, -1, 20)),
    ])
    def test_no_warning_below_threshold(self, factory, args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert 0.0 <= factory(*args).truncation_deficit <= 1e-6

    def test_plain_arrays_match_objects(self):
        rng = np.random.default_rng(5)
        a, b = random_density(3, rng), random_density(3, rng)
        n_op = number_operator(3)
        assert expectation(a.matrix, n_op.matrix.tolist()) == expectation(a, n_op)
        assert trace_distance(a.matrix, b.matrix.tolist()) == trace_distance(a, b)
