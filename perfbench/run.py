#!/usr/bin/env python3
"""Closed-loop benchmark of ``homodyne_shadows``.

    python3 perfbench/run.py --workload {certify,shots,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``.  One
caller issues each public call only after the previous one returned.  The
run repeats passes of the workload while they are expected to end within
``--seconds`` (at least one pass), checks every output, prints a JSON
report line, and ends with one JSON line holding ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` leaves out checks
that fail exactly as a documented known defect predicts; the report line
lists those, and its ``failed_frac`` counts them.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones, taken from spans recorded around each call on
every second pass.  See ``perfbench/README.md`` for the metrics and the
reasons for each workload.
"""

import os

# One BLAS thread for this process and, through the environment, every child.
# On a 2-core machine the IC certificate at the large configuration varied
# between 1.38 and 2.45 s with two threads and held at 1.91 s with one.
# Set before numpy loads.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import homodyne_shadows  # noqa: E402
from harness import Caller, PassAborted, roots, self_times, summarize  # noqa: E402
from workloads import SIZES, WORKLOADS, child_env  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_RUNS = 15

# name: (unit, better).  The last line carries these under --trace 0.
END_TO_END = {
    "pass_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Each workload's own headline numbers; reported in the report line only,
# because the last line must carry the same metric names on every workload.
WORKLOAD_METRICS = {
    "table_s": ("s", "lower"),
    "shots_per_s": ("shots/s", "higher"),
    "multimode_shots_per_s": ("joint_shots/s", "higher"),
    "cli_chain_s": ("s", "lower"),
}

# name, unit, better, span or counter name, aggregation, on every workload.
# "sum": per root span (set-up or one traced pass) the summed span seconds
# or counts, median over the roots that have it; "per_call_us": mean span
# length in microseconds; "median_call": median span length.  Metrics marked
# True are measured on every workload and carried by the last line under
# --trace 1; the rest exist on some workloads and go to the report line.
LAYER_METRICS = (
    ("fockcore.bin_overlap_us", "us", "lower", "fockcore.bin_overlap", "per_call_us", True),
    ("povm.design_bins_s", "s", "lower", "povm.design_bins", "sum", True),
    ("povm.design_bins_tries", "count", "lower", "povm.design_bins_tries", "sum", True),
    ("povm.build_povm_s", "s", "lower", "povm.build_povm", "sum", True),
    ("povm.ic_s", "s", "lower", "povm.is_informationally_complete", "sum", True),
    ("povm.cache_bytes", "bytes", "lower", "povm.cache_bytes", "sum", False),
    ("shadow.frame_operator_s", "s", "lower", "shadow.frame_operator", "sum", True),
    ("shadow.invert_frame_s", "s", "lower", "shadow.invert_frame", "sum", True),
    ("shadow.snapshots_s", "s", "lower", "shadow.snapshots", "sum", True),
    ("shadow.shadow_norm_s", "s", "lower", "shadow.shadow_norm", "sum", False),
    ("shadow.exact_variance_s", "s", "lower", "shadow.exact_variance", "sum", False),
    ("shadow.estimate_observable_s", "s", "lower", "shadow.estimate_observable", "sum", True),
    ("shadow.estimate_mom_s", "s", "lower",
     "shadow.estimate_observable[median-of-means]", "sum", False),
    ("shadow.reconstruct_state_s", "s", "lower", "shadow.reconstruct_state", "sum", False),
    ("sim.outcome_distribution_s", "s", "lower", "sim.outcome_distribution", "sum", True),
    ("sim.sample_s", "s", "lower", "sim.sample", "sum", True),
    ("sim.write_records_s", "s", "lower", "sim.write_records", "sum", True),
    ("sim.ingest_records_s", "s", "lower", "sim.ingest_records", "sum", True),
    ("sim.records_csv_bytes", "bytes", "lower", "sim.records_csv_bytes", "sum", True),
    ("sim.sample_multi_s", "s", "lower", "sim.sample_multi", "sum", False),
    ("sim.estimate_local_s", "s", "lower", "sim.estimate_local", "sum", False),
    ("cli.startup_s", "s", "lower", "cli.startup", "median_call", True),
    ("cli.design_bins_s", "s", "lower", "cli.design_bins", "sum", False),
    ("cli.check_ic_s", "s", "lower", "cli.check_ic", "sum", False),
    ("cli.simulate_s", "s", "lower", "cli.simulate", "sum", False),
    ("cli.estimate_cached_s", "s", "lower", "cli.estimate_cached", "sum", False),
    ("cli.estimate_rebuild_s", "s", "lower", "cli.estimate_rebuild", "sum", False),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full",
                   help="problem sizes; 'tiny' is for the self-test")
    p.add_argument("--setup-only", action="store_true",
                   help="run the workload's set-up and exit (times setup_s)")
    return p.parse_args(argv)


def check_source_tree():
    """Refuse to measure anything but the package in this checkout's src/."""
    origin = os.path.realpath(homodyne_shadows.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        sys.exit("perfbench: homodyne_shadows imported from %s, not from %s" % (origin, SRC))


def git_commit():
    """Commit of the checkout, read from .git without running git; None if absent."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment():
    blas = None
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (info.get("name"), info.get("version"))
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
    }


def layer_values(caller):
    """Per-layer metric values and per-layer self times from the spans."""
    spans = caller.spans
    root_of = roots(spans)
    by_id = {sp.id: sp for sp in spans}
    per_root = defaultdict(lambda: defaultdict(float))
    durations = defaultdict(list)
    for sp in spans:
        per_root[root_of[sp.id]][sp.name] += sp.seconds
        durations[sp.name].append(sp.seconds)
    for root, name, value in caller.counts:
        per_root[root][name] += value
    values = {}
    for name, _, _, key, agg, _ in LAYER_METRICS:
        if agg == "per_call_us" and durations.get(key):
            values[name] = 1e6 * sum(durations[key]) / len(durations[key])
        elif agg == "median_call" and durations.get(key):
            values[name] = statistics.median(durations[key])
        elif agg == "sum":
            sums = [d[key] for d in per_root.values() if key in d]
            if sums:
                values[name] = statistics.median(sums)
    self_by_kind = defaultdict(lambda: defaultdict(float))
    kinds = defaultdict(int)
    for sp in spans:
        if sp.parent is None:
            kinds[sp.name] += 1
    for span_id, sec in self_times(spans).items():
        kind = by_id[root_of[span_id]].name
        self_by_kind[kind][by_id[span_id].layer] += sec
    self_s = {
        kind: {layer: sec / kinds[kind] for layer, sec in sorted(layers.items())}
        for kind, layers in self_by_kind.items()
    }
    return values, self_s


def main(argv=None):
    started = time.perf_counter()
    # Turn a termination request into SystemExit so children and scratch
    # files are cleaned up on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(sys.argv[1:] if argv is None else argv)
    check_source_tree()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        return run(args, workdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir, started):
    sizes = SIZES[args.size]
    workload = WORKLOADS[args.workload](sizes, np.random.default_rng(args.seed), workdir, ROOT)
    caller = Caller(trace=bool(args.trace) and not args.setup_only)
    if args.setup_only:
        workload.setup(caller)
        return 1 if caller.failed else 0

    with caller.span("bench.setup"):
        workload.setup(caller)

    # setup_s samples fresh set-up processes, half before the passes and half
    # after them: host noise here comes in bursts of seconds, and samples
    # taken at both ends of the run give a steadier median than one batch.
    setup_samples = []
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--size", args.size, "--seconds", "0", "--setup-only"]

    def sample_setup(runs):
        if not args.trace:
            for _ in range(runs):
                setup_samples.append(
                    caller.run_child("bench.setup", argv, child_env(ROOT), workdir)[2])

    sample_setup(SETUP_RUNS // 2)

    # A pass starts only if it is expected to end inside the window, so the
    # pass count follows the pass length rather than where the deadline falls.
    passes = []
    aborted = 0
    peak_rss = None
    deadline = time.perf_counter() + args.seconds
    min_passes = 2 if args.trace else 1
    while len(passes) < min_passes or (
        time.perf_counter() + statistics.median(p["wall_s"] for p in passes) <= deadline
    ):
        traced = bool(args.trace) and len(passes) % 2 == 1
        caller.trace = traced
        before = caller.op_seconds
        wall = time.perf_counter()
        try:
            with caller.span("bench.pass"):
                extra = workload.run_pass(caller)
        except PassAborted:
            aborted += 1
            if aborted > 3 and not passes:
                break
            continue
        finally:
            caller.trace = False
        passes.append(
            dict(extra, pass_s=caller.op_seconds - before,
                 wall_s=time.perf_counter() - wall, traced=traced)
        )
        if peak_rss is None:
            peak_rss = workload.peak_rss_mb()
    if not passes:
        print(json.dumps({"report": {"failures": caller.failures}}), file=sys.stderr)
        print("perfbench: no pass of %s completed" % args.workload, file=sys.stderr)
        return 1

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "run_id": caller.run_id,
        "environment": environment(),
        "closed_loop": {"callers": 1, "passes": len(passes), "aborted_passes": aborted},
    }
    if args.trace:
        caller.trace = True
        with caller.span("bench.probe"):
            try:
                workload.probe(caller)
            except PassAborted:
                pass
        values, self_s = layer_values(caller)
        metrics = {}
        for name, unit, better, _, _, everywhere in LAYER_METRICS:
            if everywhere and name not in values:
                sys.exit("perfbench: per-layer metric %s was not measured" % name)
            if everywhere:
                metrics[name] = {"value": values[name], "unit": unit}
        report["per_layer"] = {
            name: {"value": values[name], "unit": unit, "better": better}
            for name, unit, better, _, _, _ in LAYER_METRICS
            if name in values
        }
        report["self_s_per_root"] = self_s
        untraced = [p["wall_s"] for p in passes if not p["traced"]]
        traced = [p["wall_s"] for p in passes if p["traced"]]
        if untraced and traced:
            mu, mt = statistics.median(untraced), statistics.median(traced)
            report["tracing_overhead"] = {
                "untraced_pass_wall_s": mu,
                "traced_pass_wall_s": mt,
                "overhead_s": mt - mu,
                "overhead_frac": (mt - mu) / mu,
                "samples": [len(untraced), len(traced)],
            }
        spans_path = os.path.join(
            OUT_DIR, "spans-%s-seed%d.jsonl" % (args.workload, args.seed)
        )
        caller.write_spans(spans_path)
        report["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        sample_setup(SETUP_RUNS - SETUP_RUNS // 2)
        samples = {
            "pass_s": [p["pass_s"] for p in passes],
            "setup_s": setup_samples,
            "peak_rss_mb": [peak_rss],
        }
        for name in WORKLOAD_METRICS:
            if name in passes[0]:
                samples[name] = [p[name] for p in passes]
        metrics = {
            name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, (unit, _) in END_TO_END.items()
        }
        units = dict(END_TO_END, **WORKLOAD_METRICS)
        report["end_to_end"] = {
            name: dict(summarize(vals), unit=units[name][0], better=units[name][1])
            for name, vals in samples.items()
        }
        report["end_to_end"]["failed_frac"] = {
            "value": len(caller.failures) / max(1, caller.attempted),
            "unit": "ratio",
            "better": "lower",
            "failed": len(caller.failures),
            "known_defect_failed": caller.known_failed,
            "attempted": caller.attempted,
        }

    report["failures"] = failure_summary(caller.failures)
    report["elapsed_s"] = time.perf_counter() - started
    if caller.failures:
        print("perfbench: %d of %d operations failed their checks, %d of them as a known "
              "defect predicts (see report.failures)"
              % (len(caller.failures), caller.attempted, caller.known_failed))
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": caller.failed == 0,
        "attempted": caller.attempted,
        "failed": caller.failed,
        "metrics": metrics,
    }))
    return 0


def failure_summary(failures):
    grouped = {}
    for f in failures:
        key = (f["op"], f["check"], f["known_defect"])
        entry = grouped.setdefault(
            key, {"op": f["op"], "check": f["check"], "count": 0,
                  "first_detail": f["detail"], "known_defect": f["known_defect"]}
        )
        entry["count"] += 1
    return list(grouped.values())


if __name__ == "__main__":
    sys.exit(main())
