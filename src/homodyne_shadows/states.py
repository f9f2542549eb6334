"""Truncated-Fock-space density matrices and observables.

All analytic states are truncated at the cutoff and renormalized to unit
trace, with the discarded probability mass recorded as the truncation
deficit.  Loaders validate Hermiticity/positivity and reject anything that
fails, naming the violated check.

Matrix file format (shared by states and observables): JSON
``{"n_max": d-1, "matrix": [[[re, im], ...], ...]}`` row-major, square of
size n_max+1.
"""

import json
import math
import numbers
import warnings

import numpy as np

from .errors import InvariantViolationError

__all__ = [
    "DensityMatrix",
    "Observable",
    "coherent",
    "fock",
    "superposition_pair",
    "thermal",
    "cat",
    "number_operator",
    "expectation",
    "trace_distance",
    "from_file",
    "observable_from_file",
]

_DEFICIT_WARN = 1e-6


def _hermitian(matrix, what):
    """A read-only complex copy of ``matrix``: square, finite and Hermitian within 1e-12."""
    A = np.array(matrix, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvariantViolationError(
            "%s must be square, got shape %r" % (what, A.shape), check="square"
        )
    bad = np.argwhere(~np.isfinite(A))
    if bad.size:
        raise InvariantViolationError(
            "%s has a non-finite entry at (%d, %d)" % ((what,) + tuple(bad[0])), check="finite"
        )
    if np.max(np.abs(A - A.conj().T)) > 1e-12:
        raise InvariantViolationError("%s is not Hermitian within 1e-12" % what, check="hermitian")
    A.setflags(write=False)
    return A


def _finite(value, what):
    """``value``, or ValueError naming ``what`` when it is NaN or infinite."""
    if not np.isfinite(value):
        raise ValueError("%s must be finite, got %s" % (what, value))
    return value


def _whole(value, what, low=0):
    """``value`` as an int, or ValueError naming ``what`` unless it is a whole number >= ``low``.

    Integral floats such as 3.0 pass; 3.7 is refused, not truncated.
    """
    if not (isinstance(value, numbers.Real) and float(value).is_integer()):
        raise ValueError("%s must be a whole number, got %r" % (what, value))
    if value < low:
        raise ValueError("%s must be >= %d, got %d" % (what, low, value))
    return int(value)


def _abs2(alpha):
    """|alpha|^2 as a float, inf where it overflows one."""
    try:
        return abs(alpha) ** 2
    except OverflowError:
        return math.inf


def _truncation_deficit(kept, full, what):
    """The mass 1 - kept/full lost to the cutoff, warning at the factory's caller above 1e-6.

    A state that keeps no mass below the cutoff raises ValueError.
    """
    if not kept > 0:
        raise ValueError("%s keeps no probability below the cutoff" % what)
    deficit = max(0.0, 1.0 - kept / full)
    if deficit > _DEFICIT_WARN:
        warnings.warn("%s loses probability %.3e to truncation" % (what, deficit), stacklevel=3)
    return deficit


def _matrix(A):
    """The matrix of a state or observable, or ``A`` itself as an array."""
    return A.matrix if hasattr(A, "matrix") else np.asarray(A)


class DensityMatrix:
    """Validated density matrix on the truncated Fock space.

    Parameters
    ----------
    matrix : array_like
        (n_max+1) x (n_max+1) complex matrix; must be Hermitian within
        1e-12, unit trace within 1e-10, and positive semidefinite within
        -1e-10 on the spectrum.
    truncation_deficit : float or None
        Probability mass lost to the cutoff, when known.
    """

    def __init__(self, matrix, truncation_deficit=None):
        A = _hermitian(matrix, "density matrix")
        if abs(np.trace(A).real - 1.0) > 1e-10 or abs(np.trace(A).imag) > 1e-10:
            raise InvariantViolationError(
                "density matrix trace %r is not 1 within 1e-10" % (np.trace(A),),
                check="unit-trace",
            )
        lo = float(np.linalg.eigvalsh(0.5 * (A + A.conj().T))[0])
        if lo < -1e-10:
            raise InvariantViolationError(
                "density matrix has eigenvalue %g < -1e-10" % lo, check="positive"
            )
        self.matrix = A
        self.truncation_deficit = (
            None if truncation_deficit is None else float(truncation_deficit)
        )

    @property
    def n_max(self):
        return self.matrix.shape[0] - 1

    @property
    def dim(self):
        return self.matrix.shape[0]

    def to_file(self, path):
        """Write the JSON matrix-file representation."""
        _write_matrix_file(path, self.matrix)

    def __repr__(self):
        return "DensityMatrix(n_max=%d, deficit=%r)" % (self.n_max, self.truncation_deficit)


class Observable:
    """Hermitian observable on the truncated Fock space with a label."""

    def __init__(self, matrix, label="X"):
        self.matrix = _hermitian(matrix, "observable")
        self.label = str(label)

    @property
    def n_max(self):
        return self.matrix.shape[0] - 1

    @property
    def operator_norm(self):
        """Largest singular value (== spectral radius for Hermitian input)."""
        return float(np.max(np.abs(np.linalg.eigvalsh(self.matrix))))

    def to_file(self, path):
        """Write the JSON matrix-file representation (label included)."""
        _write_matrix_file(path, self.matrix, label=self.label)

    def __repr__(self):
        return "Observable(label=%r, n_max=%d)" % (self.label, self.n_max)


def _pure(state_vector, deficit=None):
    v = np.asarray(state_vector, dtype=complex)
    return DensityMatrix(np.outer(v, v.conj()), truncation_deficit=deficit)


def coherent(alpha, n_max):
    """Coherent state |alpha>, truncated at n_max and renormalized.

    Amplitudes c_n = exp(-|alpha|^2/2) alpha^n / sqrt(n!); the squared norm
    lost beyond the cutoff is recorded as the truncation deficit, with a
    warning once it exceeds 1e-6.
    """
    n_max = _whole(n_max, "n_max")
    alpha = _finite(complex(alpha), "coherent amplitude alpha")
    n = np.arange(n_max + 1)
    log_fact = np.cumsum(np.log(np.maximum(n, 1)))
    base = np.exp(-0.5 * _abs2(alpha))  # 0 leaves no amplitude: the state keeps no probability
    amps = base * alpha**n * np.exp(-0.5 * log_fact) if base else np.zeros(n_max + 1)
    kept = float(np.sum(np.abs(amps) ** 2))
    deficit = _truncation_deficit(kept, 1.0, "coherent(alpha=%s, n_max=%d)" % (alpha, n_max))
    return _pure(amps / math.sqrt(kept), deficit=deficit)


def fock(n, n_max):
    """Photon-number eigenstate |n><n| at cutoff n_max."""
    n_max = _whole(n_max, "n_max")
    n = _whole(n, "photon number")
    if n > n_max:
        raise ValueError("photon number %d exceeds cutoff n_max=%d" % (n, n_max))
    v = np.zeros(n_max + 1, dtype=complex)
    v[n] = 1.0
    return _pure(v, deficit=0.0)


def superposition_pair(alpha, beta, n, n_max):
    """The conjugate state pair (alpha|0> + beta|n>)/sqrt(2) and its beta* partner.

    ``alpha`` is real, ``beta`` complex, and the components must satisfy
    alpha^2 + |beta|^2 = 2 so each member is normalized after the /sqrt(2).
    When the POVM's phase count divides the level gap appropriately, the two
    members produce identical outcome statistics despite being distinct
    states — the canonical completeness counterexample.
    """
    alpha_c = complex(alpha)
    if alpha_c.imag != 0.0:
        raise ValueError("the |0> amplitude must be real, got %r" % (alpha,))
    alpha = alpha_c.real
    beta = complex(beta)
    n_max = _whole(n_max, "n_max")
    n = _whole(n, "superposition level", 1)
    if n > n_max:
        raise ValueError("superposition level %d exceeds cutoff n_max=%d" % (n, n_max))
    norm = alpha**2 + abs(beta) ** 2
    if abs(norm - 2.0) > 1e-10:
        raise ValueError(
            "require alpha^2 + |beta|^2 = 2 (components are each divided by "
            "sqrt(2)); got %g" % norm
        )
    v = np.zeros(n_max + 1, dtype=complex)
    v[0] = alpha / math.sqrt(2.0)
    v[n] = beta / math.sqrt(2.0)
    w = v.copy()
    w[n] = beta.conjugate() / math.sqrt(2.0)
    return _pure(v, deficit=0.0), _pure(w, deficit=0.0)


def thermal(nbar, n_max):
    """Thermal state with mean photon number nbar, truncated and renormalized."""
    n_max = _whole(n_max, "n_max")
    nbar = _finite(float(nbar), "mean photon number nbar")
    if nbar < 0:
        raise ValueError("mean photon number must be >= 0, got %g" % nbar)
    if nbar == 0.0:
        return fock(0, n_max)
    n = np.arange(n_max + 1)
    p = (nbar / (1.0 + nbar)) ** n / (1.0 + nbar)
    kept = float(np.sum(p))
    deficit = _truncation_deficit(kept, 1.0, "thermal(nbar=%g, n_max=%d)" % (nbar, n_max))
    return DensityMatrix(np.diag(p / kept).astype(complex), truncation_deficit=deficit)


def cat(alpha, parity=1, n_max=10):
    """Even (parity=+1) or odd (parity=-1) cat state |alpha> + parity*|-alpha>.

    Truncated and renormalized; the deficit is measured against the exact
    infinite-dimensional norm 2*(1 + parity*exp(-2|alpha|^2)).
    """
    if parity not in (1, -1):
        raise ValueError("parity must be +1 or -1, got %r" % (parity,))
    n_max = _whole(n_max, "n_max")
    alpha = _finite(complex(alpha), "cat amplitude alpha")
    if alpha == 0 and parity == -1:
        raise ValueError("odd cat state is undefined at alpha = 0")
    n = np.arange(n_max + 1)
    log_fact = np.cumsum(np.log(np.maximum(n, 1)))
    base = np.exp(-0.5 * _abs2(alpha)) * np.exp(-0.5 * log_fact)
    amps = base * (alpha**n + parity * (-alpha) ** n) if base.any() else base
    full_norm = 2.0 * (1.0 + parity * math.exp(-2.0 * _abs2(alpha)))
    kept = float(np.sum(np.abs(amps) ** 2))
    what = "cat(alpha=%s, parity=%+d, n_max=%d)" % (alpha, parity, n_max)
    deficit = _truncation_deficit(kept, full_norm, what)
    return _pure(amps / math.sqrt(kept), deficit=deficit)


def number_operator(n_max):
    """The photon-number observable diag(0, 1, ..., n_max)."""
    n_max = _whole(n_max, "n_max")
    return Observable(np.diag(np.arange(n_max + 1, dtype=float)), label="n")


def expectation(rho, X):
    """Tr(rho X) as a real number (imaginary part must be roundoff)."""
    val = complex(np.trace(_matrix(rho) @ _matrix(X)))
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise ValueError("expectation value %r has a non-negligible imaginary part" % val)
    return float(val.real)


def trace_distance(rho1, rho2):
    """Trace distance (1/2)*||rho1 - rho2||_1 between two states."""
    diff = _matrix(rho1) - _matrix(rho2)
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T)))))


def _write_matrix_file(path, A, label=None):
    rows = [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(A)]
    doc = {"n_max": int(A.shape[0] - 1), "matrix": rows}
    if label is not None:
        doc["label"] = label
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _read_matrix_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        n_max = int(doc["n_max"])
        A = np.array(
            [[complex(re, im) for re, im in row] for row in doc["matrix"]], dtype=complex
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvariantViolationError(
            "cannot parse matrix file %s: %s" % (path, exc), check="parse"
        ) from exc
    d = n_max + 1
    if A.shape != (d, d):
        raise InvariantViolationError(
            "matrix in %s has shape %r, expected (%d, %d)" % (path, A.shape, d, d),
            check="square",
        )
    if np.max(np.abs(A - A.conj().T)) > 1e-8:
        raise InvariantViolationError(
            "matrix in %s is not Hermitian within 1e-8" % path, check="hermitian"
        )
    # Scrub sub-tolerance asymmetry so downstream invariants hold exactly.
    return 0.5 * (A + A.conj().T), doc.get("label")


def from_file(path):
    """Load and validate a density matrix from a JSON matrix file."""
    A, _ = _read_matrix_file(path)
    return DensityMatrix(A)


def observable_from_file(path):
    """Load and validate an observable from a JSON matrix file."""
    A, label = _read_matrix_file(path)
    return Observable(A, label=label if label is not None else "X")
