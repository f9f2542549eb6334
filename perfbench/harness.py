"""Timing, tracing and failure accounting shared by the benchmark workloads.

A :class:`Caller` is the single closed-loop caller: every public call into
``homodyne_shadows`` goes through :meth:`Caller.call`, which times it, counts
it as an attempted operation and, in a traced run, records one span around
it.  :meth:`Caller.check` marks an operation as failed when its output is
wrong.  Spans stay in memory until :meth:`Caller.write_spans`.
"""

import json
import os
import resource
import statistics
import subprocess
import tempfile
import threading
import time
import traceback
import uuid
from contextlib import contextmanager, nullcontext

# A child process that outlives this is killed and counted as failed, so a
# run always ends well inside its time limit.
CHILD_TIMEOUT_S = 150.0


class PassAborted(Exception):
    """An operation raised; the rest of its pass depends on it."""


class Span:
    """One traced interval: ``<module>.<function>`` name, start, end, parent."""

    __slots__ = ("id", "name", "start_ns", "end_ns", "parent", "run_id")

    def __init__(self, id, name, start_ns, end_ns, parent, run_id):
        self.id = id
        self.name = name
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.parent = parent
        self.run_id = run_id

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def seconds(self):
        return (self.end_ns - self.start_ns) * 1e-9

    def to_json(self):
        return {
            "id": self.id,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "parent": self.parent,
            "run_id": self.run_id,
        }


class Caller:
    """Closed-loop caller with per-operation timing, checks and optional spans."""

    def __init__(self, trace):
        self.trace = trace
        self.run_id = uuid.uuid4().hex
        self.spans = []
        self._open = []
        self.attempted = 0
        self.failures = []
        self.counts = []
        self.op_seconds = 0.0

    # -- spans ---------------------------------------------------------------

    def _new_span(self, name, start_ns, end_ns, parent):
        span = Span(len(self.spans), name, start_ns, end_ns, parent, self.run_id)
        self.spans.append(span)
        return span

    @contextmanager
    def _recorded(self, name):
        parent = self._open[-1].id if self._open else None
        span = self._new_span(name, time.monotonic_ns(), None, parent)
        self._open.append(span)
        try:
            yield span
        finally:
            self._open.pop()
            span.end_ns = time.monotonic_ns()

    def span(self, name):
        """Context manager recording a span when tracing, a no-op otherwise."""
        return self._recorded(name) if self.trace else nullcontext()

    def count(self, name, value):
        """Record a work count against the current root span when tracing."""
        if self.trace and self._open:
            self.counts.append((self._open[0].id, name, value))

    def adopt_child_spans(self, path, parent):
        """Attach the spans a traced child process wrote to ``path`` under ``parent``."""
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                row = json.loads(line)
                self._new_span(row["name"], row["start_ns"], row["end_ns"], parent.id)

    def write_spans(self, path):
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")

    # -- operations and checks ------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Time one public call; a raise fails the operation and aborts the pass."""
        self.attempted += 1
        with self.span(name):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                detail = "".join(traceback.format_exception_only(exc)).strip()
                self.check(name, "does not raise", False, detail)
                raise PassAborted(name) from exc
            finally:
                self.op_seconds += time.perf_counter() - start

    def check(self, op, name, ok, detail, known_defect=None):
        """Record the verdict of one output check on operation ``op``."""
        if not ok:
            self.failures.append(
                {"op": op, "check": name, "detail": detail, "known_defect": known_defect}
            )
        return ok

    @property
    def failed(self):
        """Failed checks, leaving out reproductions of a documented defect."""
        return sum(1 for f in self.failures if f["known_defect"] is None)

    @property
    def known_failed(self):
        """Failed checks that reproduce a documented defect as it predicts."""
        return len(self.failures) - self.failed

    # -- child processes ------------------------------------------------------

    def run_child(self, name, argv, env, cwd, expect_code=0):
        """Run one child process as a timed operation.

        Returns ``(exit_code, stdout, seconds, max_rss_mb, span)``; the
        resource usage comes from ``wait4`` on that child alone, so output
        goes to files in ``cwd`` rather than pipes that ``communicate`` would
        reap.  A wrong exit code fails the operation.
        """
        self.attempted += 1
        with self.span(name) as span, tempfile.TemporaryFile(dir=cwd) as out, \
                tempfile.TemporaryFile(dir=cwd) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
            self.op_seconds += seconds
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout = out.read().decode(errors="replace")
            stderr = err.read().decode(errors="replace")
        self.check(name, "exit code %d" % expect_code, code == expect_code,
                   "exit %d: %s" % (code, stderr[-400:]))
        return code, stdout, seconds, usage.ru_maxrss / 1024.0, span


def self_rss_mb():
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def roots(spans):
    """Map span id -> id of the root span it descends from."""
    by_id = {s.id: s for s in spans}
    root = {}
    for s in spans:
        cur = s
        while cur.parent is not None:
            cur = by_id[cur.parent]
        root[s.id] = cur.id
    return root


def self_times(spans):
    """Self time of each span: its duration minus what its children cover."""
    covered = {s.id: 0 for s in spans}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end_ns - s.start_ns
    return {s.id: (s.end_ns - s.start_ns - covered[s.id]) * 1e-9 for s in spans}


def summarize(samples):
    """Median, count and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    out = {"median": statistics.median(samples), "samples": n, "p_high": None}
    for pct in (99.9, 99.0, 90.0, 75.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10:
            ranked = sorted(samples)
            idx = min(n - 1, int(round(pct / 100.0 * (n - 1))))
            out["p_high"] = {"percentile": pct, "value": ranked[idx]}
            break
    return out
