"""Shared fixtures and helpers for the test suite."""

import numpy as np
import pytest

from homodyne_shadows.sim import Records
from homodyne_shadows.states import DensityMatrix


def records_of(rows):
    """A :class:`Records` stream of ``(t, mode, k, i)`` row tuples."""
    return Records(*np.array(rows).reshape(-1, 4).T)


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
