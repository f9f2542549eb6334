"""Shared fixtures and helpers for the test suite."""

import numpy as np
import pytest

from homodyne_shadows.povm import PhaseGrid, build_povm, load_parameters
from homodyne_shadows.records import Records
from homodyne_shadows.states import DensityMatrix


def records_of(rows):
    """A :class:`Records` stream of ``(t, mode, k, i)`` row tuples."""
    return Records(*np.array(rows).reshape(-1, 4).T)


def rebuild_povm(path):
    """The POVM that a scheme or cache file describes, rebuilt from its parameters."""
    n_max, N, binning = load_parameters(path)
    return build_povm(PhaseGrid(N), binning, n_max)


def dense_joint(dist):
    """The full joint probability tensor of a ``MultiOutcomeDistribution``.

    One axis per mode, over its flat outcome index o = k*M + i; product
    states are expanded from their factors.
    """
    if dist.joint is not None:
        return dist.joint
    out = np.array(1.0)
    for f in dist.factors:
        out = np.multiply.outer(out, f.probabilities.ravel(order="F"))
    return out


def random_density(n_max, rng):
    """Random full-rank density matrix (Ginibre construction)."""
    d = n_max + 1
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    A = G @ G.conj().T
    A = A / np.trace(A).real
    return DensityMatrix(0.5 * (A + A.conj().T))


def random_hermitian(d, rng):
    """Random Hermitian matrix with O(1) entries."""
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (G + G.conj().T)


def frame_blocks(frame):
    """(vec_index, C_r, eigenvalues_r, U_r) per phase class, rebuilt from ``frame.pairs``.

    C_r = (U s^2) U^T, symmetrized; the eigenvalues s^2 omit the zeros of a
    class with more rows than M.  A mirror pair yields one entry per class.
    """
    for idx, U, s, _ in frame.pairs:
        C = (U * s**2) @ U.T
        C = 0.5 * (C + C.T)
        for row in idx:
            yield row, C, s**2, U


def pinv_block(U, s, threshold):
    """(U_k / s_k^2) U_k^T over the k with s_k^2 > threshold, symmetrized."""
    keep = s**2 > threshold
    Cinv = (U[:, keep] / s[keep] ** 2) @ U[:, keep].T
    return 0.5 * (Cinv + Cinv.T)


def pinv_blocks(inv):
    """(vec_index, C_r^+) per phase class, rebuilt from ``inv.frame.pairs``."""
    for idx, U, s, _ in inv.frame.pairs:
        Cinv = pinv_block(U, s, inv.threshold)
        for row in idx:
            yield row, Cinv


_criterion_results = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    name = item.name
    if name.startswith("test_criterion_"):
        label = name[len("test_criterion_"):]
        _criterion_results[label] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _criterion_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    def sort_key(label):
        num = label.split("_", 1)[0]
        return int(num) if num.isdigit() else 99
    for label in sorted(_criterion_results, key=sort_key):
        outcome = _criterion_results[label]
        terminalreporter.write_line(
            "criterion %s: %s" % (label.replace("_", " "), outcome.upper())
        )
