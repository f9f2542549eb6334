"""Acceptance suite: one test per shipped guarantee.

Each test exercises a documented end-to-end property of the package at its
stated tolerance; the terminal summary prints one PASSED/FAILED line per
criterion (see conftest).
"""

import json
import time

import numpy as np
import pytest

from homodyne_shadows import cli
from homodyne_shadows.povm import (
    BinningScheme,
    PhaseGrid,
    build_povm,
    design_bins,
    is_informationally_complete,
    normalization_residual,
)
from homodyne_shadows.shadow import (
    bernstein_samples,
    exact_average_snapshot,
    exact_variance,
    frame_operator,
    invert_frame,
    outcome_probabilities,
    shadow_norm,
    snapshot_values,
    snapshots,
    variance_bound,
)
from homodyne_shadows.sim import (
    MultiModeConfig,
    indistinguishability_experiment,
    joint_distribution,
    multi_shadow_norm,
    outcome_distribution,
    sample,
)
from homodyne_shadows.states import coherent, expectation, number_operator

from conftest import dense_joint, random_density


def _strict_table(povm):
    return snapshots(povm, invert_frame(frame_operator(povm)))


def test_criterion_1_unbiasedness():
    # Design scheme at (n_max=3, N=7, M=5); 20 random states; the exact
    # outcome-weighted snapshot average must reproduce each state to 1e-8
    # in Frobenius norm, all inside 5 seconds.
    start = time.perf_counter()
    scheme = design_bins(3, 7, 5)
    povm = build_povm(PhaseGrid(7), scheme, 3)
    table = _strict_table(povm)
    rng = np.random.default_rng(20240101)
    for _ in range(20):
        rho = random_density(3, rng)
        P = outcome_probabilities(rho, povm)
        avg = exact_average_snapshot(P, table)
        assert np.linalg.norm(avg - rho.matrix, "fro") <= 1e-8
    assert time.perf_counter() - start < 5.0


def test_criterion_2_design_grid():
    # The bin designer must reach full operator-space rank (n_max+1)^2 for
    # every cutoff 1..5 at the minimal phase count N = 2*n_max + 1 and
    # M = n_max + 1 bins, within its default iteration budget and 30 s.
    start = time.perf_counter()
    for n_max in range(1, 6):
        N = 2 * n_max + 1
        M = n_max + 1
        scheme = design_bins(n_max, N, M)
        povm = build_povm(PhaseGrid(N), scheme, n_max)
        report = is_informationally_complete(povm)
        assert report.complete
        assert report.rank == (n_max + 1) ** 2
    assert time.perf_counter() - start < 30.0


def test_criterion_3_indistinguishable_pairs():
    # With too few phases the conjugate superposition pair produces
    # bitwise-equal statistics despite trace distance >= 0.1; on an
    # informationally complete scheme the same construction shows a gap.
    for N in (3, 5, 8):
        rep = indistinguishability_experiment(5, N, 4)
        assert rep.gap <= 1e-12
        assert rep.trace_distance >= 0.1
    scheme = design_bins(5, 11, 6)
    povm = build_povm(PhaseGrid(11), scheme, 5)
    assert is_informationally_complete(povm).complete
    control = indistinguishability_experiment(5, 11, 6, binning=scheme, fock_level=5)
    assert control.gap >= 1e-6
    assert control.trace_distance >= 0.1


def test_criterion_4_variance_bounds():
    # Across the (n_max, N, M) grid with uniform-width schemes and X = n:
    # the shadow norm sits below the closed-form worst case, and the exact
    # single-shot variance sits below the shadow norm for random states.
    rng = np.random.default_rng(20240404)
    for n_max in range(1, 5):
        N = 2 * n_max + 1
        for M in {n_max + 1, 2 * n_max}:
            scheme = design_bins(n_max, N, M)
            povm = build_povm(PhaseGrid(N), scheme, n_max)
            table = _strict_table(povm)
            X = number_operator(n_max)
            sn = shadow_norm(X, table, povm)
            assert sn <= variance_bound(N, M, n_max, X)
            for _ in range(10):
                rho = random_density(n_max, rng)
                v = exact_variance(rho, X, table, povm)
                assert v <= sn + 1e-9


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_5_monte_carlo():
    # 1e5 seeded shots on a unit coherent state: the empirical mean of the
    # per-shot estimator lands within 5 standard errors of the exact
    # expectation and the sample variance within 10% of the exact variance.
    # (The state-preparation truncation warning at n_max=5 is expected.)
    start = time.perf_counter()
    scheme = BinningScheme.equal_spaced(50, 5.0)
    povm = build_povm(PhaseGrid(32), scheme, 5)
    table = _strict_table(povm)
    rho = coherent(1.0, 5)
    X = number_operator(5)
    dist = outcome_distribution(rho, povm)
    T = 100_000
    records = sample(dist, T, seed=20240501)
    vals_table = snapshot_values(table, X)
    vals = vals_table[records.i, records.k]
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(T))
    exact = expectation(rho, X)
    assert abs(mean - exact) <= 5 * stderr
    v_exact = exact_variance(rho, X, table, povm)
    v_emp = float(vals.var(ddof=1))
    assert abs(v_emp - v_exact) <= 0.10 * v_exact
    assert time.perf_counter() - start < 60.0


def _run_scan(tmp_path, name, argv):
    out = tmp_path / name
    code = cli.main(argv + ["--out", str(out)])
    assert code == cli.EXIT_OK
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    return {int(r[1]): float(r[2]) for r in rows}


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_6_variance_trends(tmp_path):
    # Three CLI sweeps of the exact single-shot variance: flat in the phase
    # count once past the completeness threshold, decreasing from coarse to
    # fine binning, and rising then settling onto a plateau in the cutoff.
    by_N = _run_scan(
        tmp_path,
        "phases.csv",
        ["variance-scan", "--sweep", "phases", "--range", "2:64:2",
         "--nmax", "5", "--bins", "50"],
    )
    ref = by_N[64]
    for N, var in by_N.items():
        if N >= 12:
            assert abs(var - ref) <= 0.05 * ref

    by_M = _run_scan(
        tmp_path,
        "bins.csv",
        ["variance-scan", "--sweep", "bins", "--values", "7,10,20,40,70,100",
         "--nmax", "5", "--phases", "32"],
    )
    assert by_M[100] < by_M[7]

    by_nmax = _run_scan(
        tmp_path,
        "nmax.csv",
        ["variance-scan", "--sweep", "nmax", "--range", "1:15",
         "--phases", "32", "--bins", "100"],
    )
    curve = [by_nmax[nm] for nm in sorted(by_nmax)]
    peak = max(curve)
    plateau = curve[-3:]
    assert peak > curve[0]          # rises from the smallest cutoff
    assert peak > 1.05 * max(plateau)  # then falls off the peak
    assert max(plateau) - min(plateau) <= 0.05 * min(plateau)


def test_criterion_7_povm_normalization():
    # Every extend-tails configuration resolves the identity per phase:
    # || sum_i Pi_{i,k} - I/N ||_F <= 1e-10 at every k.
    configs = [
        (3, 7, design_bins(3, 7, 5)),
        (2, 5, design_bins(2, 5, 3)),
        (1, 3, design_bins(1, 3, 2)),
        (5, 32, BinningScheme.equal_spaced(50, 5.0)),
        (5, 8, BinningScheme.equal_spaced(4, 4.3)),
        (4, 9, BinningScheme.equal_spaced(13, 4.0)),
    ]
    for n_max, N, scheme in configs:
        povm = build_povm(PhaseGrid(N), scheme, n_max)
        assert normalization_residual(povm).max() <= 1e-10


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_8_multimode_products():
    # Two-mode product of unit coherent states: the exact outcome-weighted
    # estimate of n(x)n factorizes into the product of single-mode exact
    # values, and the joint shadow norm is the square of the single norm.
    scheme = design_bins(2, 5, 3)
    g = PhaseGrid(5)
    cfg = MultiModeConfig([(2, g, scheme), (2, g, scheme)])
    povm = cfg.povms[0]
    table = _strict_table(povm)
    X = number_operator(2)
    rho = coherent(1.0, 2)

    vals = snapshot_values(table, X)
    dist = joint_distribution([rho, rho], cfg)
    joint = dense_joint(dist)
    flat_vals = vals.ravel(order="F")
    weighted = float(np.einsum("a,b,ab->", flat_vals, flat_vals, joint))
    single = expectation(rho, X)
    assert abs(weighted - single**2) <= 1e-8

    sn_single = shadow_norm(X, table, povm)
    sn_multi = multi_shadow_norm(cfg, {0: X, 1: X}, tables={0: table, 1: table})
    assert abs(sn_multi - sn_single**2) <= 1e-9


def test_criterion_9_bernstein_calculator():
    # Frozen reference point plus monotonicity in the variance proxy over a
    # randomized grid.
    assert bernstein_samples(1.0, 0.1, 0.05) == 787
    rng = np.random.default_rng(20240909)
    grid = np.sort(rng.uniform(0.0, 50.0, size=100))
    counts = [bernstein_samples(v, 0.1, 0.05) for v in grid]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_criterion_10_determinism(tmp_path):
    # Identical simulate invocations must produce byte-identical files.
    argv = [
        "simulate",
        "--nmax", "3", "--phases", "7", "--bins", "5",
        "--state", "fock:2",
        "--T", "2000", "--seed", "424242",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli.main(argv + ["--out", str(a)]) == cli.EXIT_OK
    assert cli.main(argv + ["--out", str(b)]) == cli.EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 2001
