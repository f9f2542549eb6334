"""The benchmark workloads: inputs drawn from the seed, timed calls, output checks.

certify  bin design, IC certificate and frame inversion at two large POVMs.
shots    10^6-shot record streams through small POVMs built once in set-up.
cli      the ``hshadow`` subprocess chain, one fresh process per step.

Each workload has ``setup`` (everything before the first timed call),
``run_pass`` (one closed-loop pass; returns the workload's own end-to-end
samples) and ``probe`` (per-layer measurements made only in traced runs).
Every repetition draws fresh inputs from the seed: a jittered bin range
gives ``fockcore``'s process-wide overlap cache new keys, so repeated
passes measure cold builds rather than cache hits.
"""

import json
import os
import sys
import warnings

import numpy as np

from harness import PassAborted, self_rss_mb
from homodyne_shadows import fockcore, povm, shadow, sim, states

# Sizes of the measured benchmark, and the tiny ones the self-test uses to
# check that every metric is emitted.
SIZES = {
    "full": {
        "certify": [(20, 41, 100), (30, 61, 40)],
        "certify_T": 10_000,
        "shots_povm": (5, 11, 50),
        "shots_T": 1_000_000,
        "prefix_T": 10_000,
        "strict": (3, 7, 8, 2.2),
        "multi_T": 500_000,
        "cli": (10, 21, 40),
        "cli_T": 200_000,
        "probe_bins": 4,
        "startup_runs": 3,
    },
    "tiny": {
        "certify": [(3, 7, 5)],
        "certify_T": 1_000,
        "shots_povm": (3, 7, 5),
        "shots_T": 1_000,
        "prefix_T": 100,
        "strict": (3, 7, 8, 2.2),
        "multi_T": 500,
        "cli": (3, 7, 5),
        "cli_T": 1_000,
        "probe_bins": 1,
        "startup_runs": 1,
    },
}

L0_JITTER = 0.25
DESIGN_STEP = 0.5  # design_bins' default half-width growth step
SIGMAS = 5.0
UNBIASED_ATOL = 1e-8
RECONSTRUCT_RTOL = 1e-9
STRICT_BIAS = (
    "known defect: strict-finite sampling renormalizes the outcome distribution "
    "while the snapshots assume unconditioned probabilities, so estimates are "
    "biased by 1/(1 - deficit)"
)

# Same entry point as the installed ``hshadow`` console script.
HSHADOW = "import sys; from homodyne_shadows.cli import main; sys.exit(main())"
HERE = os.path.dirname(os.path.abspath(__file__))

warnings.filterwarnings("ignore", message=r".*loses probability .* to truncation")


# -- inputs ---------------------------------------------------------------------


def _jittered_l0(rng, n_max):
    return povm.default_half_width(n_max) + rng.uniform(0.0, L0_JITTER)


def _design_tries(edges, L0):
    """Half-widths design_bins tried, recovered from the returned edges."""
    return int(round((-edges[0] - L0) / DESIGN_STEP)) + 1


def _coherent_amplitude(rng):
    return complex(rng.uniform(0.8, 1.2) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))


def _random_mixed_state(rng, d):
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    R = G @ G.conj().T
    return R / np.trace(R).real


def _seed(rng):
    return int(rng.integers(0, 2**31))


# -- checks -----------------------------------------------------------------------


def _check_ic(s, report, d):
    s.check(
        "povm.is_informationally_complete",
        "complete with rank d^2",
        report.complete and report.rank == d * d,
        "verdict %r, rank %d of %d" % (report.complete, report.rank, d * d),
    )


def _check_unbiased(s, rng, P, table):
    rho = _random_mixed_state(rng, P.dim)
    avg = shadow.exact_average_snapshot(shadow.outcome_probabilities(rho, P), table)
    err = float(np.linalg.norm(avg - rho))
    s.check(
        "shadow.snapshots",
        "sum P rho_hat = rho",
        err <= UNBIASED_ATOL,
        "||sum P rho_hat - rho|| = %.3e" % err,
    )


def _check_variance(s, var, norm):
    s.check(
        "shadow.exact_variance",
        "variance <= shadow norm",
        var <= norm * (1.0 + 1e-12),
        "variance %.6g, shadow norm %.6g" % (var, norm),
    )


def _check_sigmas(s, op, mean, stderr, truth, known_defect=None, defect_value=None):
    """Estimate within 5 stderr of the truth.

    A miss is put down to ``known_defect`` only if the estimate lies within
    5 stderr of ``defect_value``, the value that defect predicts; any other
    miss is an unexpected failure.
    """
    z = (mean - truth) / stderr if stderr > 0 else float("inf")
    detail = "estimate %.6g +- %.3g, truth %.6g (%.1f sigma)" % (mean, stderr, truth, z)
    known = None
    if known_defect is not None and stderr > 0:
        z_defect = (mean - defect_value) / stderr
        detail += "; %.1f sigma from %.6g, the value the known defect predicts" % (
            z_defect, defect_value)
        if abs(z_defect) <= SIGMAS:
            known = known_defect
    s.check(op, "within %g stderr of Tr(rho X)" % SIGMAS, abs(z) <= SIGMAS, detail,
            known_defect=known)


def _record_stream(s, P, table, rho, X, T, seed, path):
    """outcome_distribution -> sample -> write -> ingest -> estimate, checked."""
    dist = s.call("sim.outcome_distribution", sim.outcome_distribution, rho, P)
    records = s.call("sim.sample", sim.sample, dist, T, seed)
    s.call("sim.write_records", sim.write_records, path, records)
    s.count("sim.records_csv_bytes", os.path.getsize(path))
    back = s.call("sim.ingest_records", sim.ingest_records, path)
    s.check(
        "sim.ingest_records",
        "write/ingest round trip identical",
        back == records,
        "ingested stream differs from the written one",
    )
    est = s.call("shadow.estimate_observable", shadow.estimate_observable, back, table, X)
    _check_sigmas(s, "shadow.estimate_observable", est.mean, est.stderr,
                  states.expectation(rho, X))
    return dist, records, back, est


def _certified_table(s, rng, n_max, N, M):
    """design_bins -> build_povm -> IC -> frame -> inverse -> snapshots, checked."""
    L0 = _jittered_l0(rng, n_max)
    scheme = s.call("povm.design_bins", povm.design_bins, n_max, N, M, L0=L0)
    s.count("povm.design_bins_tries", _design_tries(scheme.edges, L0))
    P = s.call("povm.build_povm", povm.build_povm, povm.PhaseGrid(N), scheme, n_max)
    return P, _frame_table(s, rng, P)


def _frame_table(s, rng, P):
    ic = s.call(
        "povm.is_informationally_complete", povm.is_informationally_complete, P
    )
    _check_ic(s, ic, P.dim)
    frame = s.call("shadow.frame_operator", shadow.frame_operator, P)
    inv = s.call("shadow.invert_frame", shadow.invert_frame, frame)
    table = s.call("shadow.snapshots", shadow.snapshots, P, inv)
    _check_unbiased(s, rng, P, table)
    return table


def _bin_overlap_probe(s, rng, n_max, M, bins):
    """Every m <= n overlap of a middle bin of a freshly jittered grid."""
    for _ in range(bins):
        edges = povm.BinningScheme.equal_spaced(M, _jittered_l0(rng, n_max)).edges
        a, b = edges[M // 2], edges[M // 2 + 1]
        d = n_max + 1
        G = np.empty((d, d))
        for m in range(d):
            for n in range(m, d):
                G[m, n] = G[n, m] = s.call(
                    "fockcore.bin_overlap", fockcore.bin_overlap, m, n, a, b
                )
        lam = np.linalg.eigvalsh(G)
        s.check(
            "fockcore.bin_overlap",
            "bin block is a positive contraction",
            lam[0] >= -1e-10 and lam[-1] <= 1.0 + 1e-10,
            "eigenvalues in [%.3e, %.3e]" % (lam[0], lam[-1]),
        )


# -- workloads --------------------------------------------------------------------


class Workload:
    """Shared state: sizes, the seeded input generator and a scratch directory."""

    def __init__(self, sizes, rng, workdir, root):
        self.sizes = sizes
        self.rng = rng
        self.workdir = workdir
        self.root = root

    def path(self, name):
        return os.path.join(self.workdir, name)

    def startup_probe(self, s):
        """Bare ``hshadow`` (usage error, exit 64): process start and import."""
        for _ in range(self.sizes["startup_runs"]):
            s.run_child(
                "cli.startup", [sys.executable, "-c", HSHADOW], child_env(self.root),
                self.workdir, expect_code=64,
            )

    def peak_rss_mb(self):
        """Peak RSS of this process so far."""
        return self_rss_mb()


class Certify(Workload):
    """One pass certifies every configuration and checks its snapshot table."""

    def setup(self, s):
        self.configs = list(self.sizes["certify"])

    def run_pass(self, s):
        start = s.op_seconds
        for n_max, N, M in self.configs:
            P, table = _certified_table(s, self.rng, n_max, N, M)
            X = states.number_operator(n_max)
            rho = states.coherent(_coherent_amplitude(self.rng), n_max)
            norm = s.call("shadow.shadow_norm", shadow.shadow_norm, X, table, P)
            var = s.call("shadow.exact_variance", shadow.exact_variance, rho, X, table, P)
            _check_variance(s, var, norm)
            _record_stream(
                s, P, table, rho, X, self.sizes["certify_T"], _seed(self.rng),
                self.path("certify.csv"),
            )
        return {"table_s": s.op_seconds - start}

    def probe(self, s):
        n_max, _, M = self.configs[0]
        _bin_overlap_probe(s, self.rng, n_max, M, self.sizes["probe_bins"])
        self.startup_probe(s)


class Shots(Workload):
    """Record streams through POVMs and snapshot tables built in set-up."""

    def setup(self, s):
        n_max, N, M = self.sizes["shots_povm"]
        self.P, self.table = _certified_table(s, self.rng, n_max, N, M)
        self.X = states.number_operator(n_max)
        self.norm = s.call("shadow.shadow_norm", shadow.shadow_norm, self.X, self.table, self.P)
        n_s, N_s, M_s, L_s = self.sizes["strict"]
        strict = povm.BinningScheme.equal_spaced(M_s, L_s, tail_mode=povm.TAIL_STRICT)
        self.P_strict = s.call(
            "povm.build_povm", povm.build_povm, povm.PhaseGrid(N_s), strict, n_s
        )
        self.table_strict = _frame_table(s, self.rng, self.P_strict)
        self.X_strict = states.number_operator(n_s)
        self.rho_strict = states.coherent(1.0, n_s)
        self.config = sim.MultiModeConfig([self.P, self.P])

    def run_pass(self, s):
        sz = self.sizes
        T = sz["shots_T"]
        rho = states.coherent(_coherent_amplitude(self.rng), self.P.n_max)
        var = s.call(
            "shadow.exact_variance", shadow.exact_variance, rho, self.X, self.table, self.P
        )
        _check_variance(s, var, self.norm)

        start = s.op_seconds
        seed = _seed(self.rng)
        dist, records, back, est = _record_stream(
            s, self.P, self.table, rho, self.X, T, seed, self.path("shots.csv")
        )
        mom = s.call(
            "shadow.estimate_observable[median-of-means]",
            shadow.estimate_observable, back, self.table, self.X, variant="median-of-means",
        )
        _check_sigmas(s, "shadow.estimate_observable[median-of-means]", mom.mean, mom.stderr,
                      states.expectation(rho, self.X))
        R = s.call("shadow.reconstruct_state", shadow.reconstruct_state, back, self.table)
        traced = float(np.real(np.trace(self.X.matrix @ R)))
        s.check(
            "shadow.reconstruct_state",
            "Tr(X rho_hat) equals the plain estimate",
            abs(traced - est.mean) <= RECONSTRUCT_RTOL * max(1.0, abs(est.mean)),
            "Tr(X rho_hat) %.15g vs estimate %.15g" % (traced, est.mean),
        )
        single_s = s.op_seconds - start
        del back

        prefix = s.call("sim.sample", sim.sample, dist, sz["prefix_T"], seed)
        s.check(
            "sim.sample",
            "short stream is a prefix of the long one",
            prefix == records[: sz["prefix_T"]],
            "sample(T=%d) differs from the first records of sample(T=%d)"
            % (sz["prefix_T"], T),
        )
        del records, prefix

        dist_s = s.call(
            "sim.outcome_distribution", sim.outcome_distribution, self.rho_strict, self.P_strict
        )
        rec_s = s.call("sim.sample", sim.sample, dist_s, T, _seed(self.rng))
        est_s = s.call(
            "shadow.estimate_observable", shadow.estimate_observable,
            rec_s, self.table_strict, self.X_strict,
        )
        truth_s = states.expectation(self.rho_strict, self.X_strict)
        _check_sigmas(
            s, "shadow.estimate_observable", est_s.mean, est_s.stderr, truth_s,
            known_defect=STRICT_BIAS, defect_value=truth_s / (1.0 - dist_s.deficit),
        )
        del rec_s

        start = s.op_seconds
        rhos = [states.coherent(_coherent_amplitude(self.rng), self.P.n_max) for _ in range(2)]
        joint = s.call("sim.joint_distribution", sim.joint_distribution, rhos, self.config)
        rec_m = s.call("sim.sample_multi", sim.sample_multi, joint, sz["multi_T"], _seed(self.rng))
        est_m = s.call(
            "sim.estimate_local", sim.estimate_local, rec_m, self.config,
            {0: self.table, 1: self.table}, {0: self.X, 1: self.X},
        )
        truth = states.expectation(rhos[0], self.X) * states.expectation(rhos[1], self.X)
        _check_sigmas(s, "sim.estimate_local", est_m.mean, est_m.stderr, truth)
        multi_s = s.op_seconds - start
        return {"shots_per_s": T / single_s, "multimode_shots_per_s": sz["multi_T"] / multi_s}

    def probe(self, s):
        n_max, _, M = self.sizes["shots_povm"]
        _bin_overlap_probe(s, self.rng, n_max, M, self.sizes["probe_bins"])
        self.startup_probe(s)


class Cli(Workload):
    """design-bins -> check-ic -> simulate (writes cache) -> estimate x2."""

    def setup(self, s):
        self.n_max, self.N, self.M = self.sizes["cli"]
        self.env = child_env(self.root)

    def _step(self, s, name, args, expect_code=0):
        if s.trace:
            spans = self.path("child-spans.jsonl")
            argv = [sys.executable, os.path.join(HERE, "hshadow_traced.py"), spans] + args
        else:
            argv = [sys.executable, "-c", HSHADOW] + args
        code, out, _, rss, span = s.run_child(name, argv, self.env, self.workdir, expect_code)
        if s.trace and os.path.exists(spans):
            s.adopt_child_spans(spans, span)
            os.remove(spans)
        self._rss = max(self._rss, rss)
        if code != expect_code:
            raise PassAborted(name)
        return out

    def _report(self, s, op, out):
        try:
            return json.loads(out)
        except ValueError as exc:
            s.check(op, "prints a JSON report", False, "%s: %r" % (exc, out[-200:]))
            raise PassAborted(op) from exc

    def run_pass(self, s):
        for name in ("scheme.json", "cache.json", "records.csv"):
            if os.path.exists(self.path(name)):
                os.remove(self.path(name))
        self._rss = 0.0
        n_max, N, M, T = self.n_max, self.N, self.M, self.sizes["cli_T"]
        L0 = _jittered_l0(self.rng, n_max)
        alpha = _coherent_amplitude(self.rng)
        grid = ["--nmax", str(n_max), "--phases", str(N), "--bins", str(M)]
        start = s.op_seconds

        self._step(s, "cli.design_bins", ["design-bins"] + grid + ["--l0", repr(L0), "--out", "scheme.json"])
        with open(self.path("scheme.json"), encoding="utf-8") as fh:
            s.count("povm.design_bins_tries", _design_tries(json.load(fh)["edges"], L0))

        out = self._step(s, "cli.check_ic", ["check-ic", "--scheme", "scheme.json", "--json"])
        report = self._report(s, "cli.check_ic", out)
        s.check(
            "cli.check_ic",
            "complete with rank d^2",
            report["complete"] and report["rank"] == report["required"] == (n_max + 1) ** 2,
            "check-ic reported %r" % (report,),
        )

        self._step(s, "cli.simulate", [
            "simulate", "--scheme", "scheme.json", "--povm-cache", "cache.json",
            "--state", "coherent:%r" % alpha, "--T", str(T), "--seed", str(_seed(self.rng)),
            "--out", "records.csv",
        ])
        s.count("sim.records_csv_bytes", os.path.getsize(self.path("records.csv")))
        s.count("povm.cache_bytes", os.path.getsize(self.path("cache.json")))

        estimate = ["estimate", "--records", "records.csv", "--observable", "number", "--json"]
        cached = self._step(s, "cli.estimate_cached", estimate + ["--povm-cache", "cache.json"])
        rebuilt = self._step(s, "cli.estimate_rebuild", estimate + ["--scheme", "scheme.json"])
        chain_s = s.op_seconds - start
        s.check(
            "cli.estimate_rebuild",
            "cached and rebuilt estimates identical",
            cached == rebuilt,
            "cached %s vs rebuilt %s" % (cached.strip(), rebuilt.strip()),
        )
        est = self._report(s, "cli.estimate_cached", cached)
        truth = states.expectation(
            states.coherent(alpha, n_max), states.number_operator(n_max)
        )
        _check_sigmas(s, "cli.estimate_cached", est["mean"], est["stderr"], truth)
        return {"cli_chain_s": chain_s}

    def peak_rss_mb(self):
        """Largest child of the pass that just ended."""
        return self._rss

    def probe(self, s):
        _bin_overlap_probe(s, self.rng, self.n_max, self.M, self.sizes["probe_bins"])
        self.startup_probe(s)


WORKLOADS = {"certify": Certify, "shots": Shots, "cli": Cli}


def child_env(root):
    """Environment of every child: the package from source, one BLAS thread."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
