#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes, in seconds.

    python3 perfbench/selftest.py

Runs every workload named in BENCHMARK.json, and the ``cli`` workload
that is left out of it, with ``--trace 0`` and
``--trace 1`` at the ``tiny`` sizes, (n_max, N, M) = (3, 7, 5) and 10^3
shots, for one second each.  It fails unless every run exits 0, its last
line carries exactly the end-to-end (untraced) or per-layer (traced)
metrics BENCHMARK.json names, each a finite number with the unit given
there, and the report line states a unit and direction for every
end-to-end metric.  It checks the harness only: the tiny sizes are too
small for the statistical checks to show the known defects.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Workloads run.py offers that BENCHMARK.json leaves out (see README.md).
UNGATED = ("cli",)


def check_run(workload, trace, expected):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    where = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0:
        return ["%s: exit %d: %s" % (where, proc.returncode, proc.stderr[-500:])]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("%s: result keys %s" % (where, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0:
        problems.append("%s: correct %r, failed %r: %s"
                        % (where, result["correct"], result["failed"], report.get("failures")))
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append("%s: attempted %r" % (where, result["attempted"]))
    metrics = result["metrics"]
    names = {m["name"] for m in expected}
    if set(metrics) != names:
        problems.append("%s: metrics %s, expected %s" % (where, sorted(metrics), sorted(names)))
    for m in expected:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            problems.append("%s: %s unit %r, expected %r" % (where, m["name"], got.get("unit"), m["unit"]))
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: %s value %r" % (where, m["name"], value))
    section = report.get("end_to_end" if trace == 0 else "per_layer", {})
    for name in names:
        if not {"unit", "better"} <= set(section.get(name, {})):
            problems.append("%s: report gives no unit and direction for %s" % (where, name))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    for workload in [w["name"] for w in bench["workloads"]] + list(UNGATED):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            problems += check_run(workload, trace, bench[key])
    for p in problems:
        print("FAIL", p)
    print("selftest: %s" % ("failed" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
