"""Command-line front end (installed as ``hshadow``).

Subcommands
-----------
design-bins
    Search for equal-spaced quadrature bins that make the binned-phase POVM
    informationally complete; write the resulting scheme as JSON.
check-ic
    Certify informational completeness of a POVM (from parameters, a scheme
    file or a cache file) and report rank, spectrum tail, and frame
    conditioning.
simulate
    Sample seeded measurement records of a chosen state into a CSV file.
estimate
    Fold a single-mode record CSV into an observable estimate (JSON report).
variance-scan
    Sweep one parameter (phases/bins/nmax) and tabulate the exact
    single-shot variance of the photon-number estimator for a coherent
    state, using the strict inverse where complete and the pseudoinverse
    elsewhere (flagged per row).

check-ic, simulate and estimate accept ``--povm-cache PATH``: a JSON file of
the POVM's parameters (the fields of a ``design-bins`` scheme file plus the
cache key), so it also serves as ``--scheme``.  An existing file is loaded,
the POVM rebuilt from it and compared with whatever POVM the other flags
describe; otherwise the built POVM's parameters are written there.

Exit codes: 0 success, 2 bin-design exhaustion, 3 negative completeness
verdict, 64 usage error, 65 unusable data (corrupt cache, malformed or
mixed-mode records, malformed matrix files, singular strict inversion).
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import povm as povm_mod
from . import shadow as shadow_mod
from . import sim as sim_mod
from . import states as states_mod
from .errors import (
    BinDesignError,
    CacheKeyMismatchError,
    InvariantViolationError,
    MalformedRecordError,
    QuadratureConvergenceError,
    StrictModeSingularError,
    UnsupportedConfigurationError,
)

EXIT_OK = 0
EXIT_DESIGN_FAILED = 2
EXIT_INCOMPLETE = 3
EXIT_USAGE = 64
EXIT_DATA = 65

SCHEME_VERSION = 1


class UsageError(Exception):
    """Bad flag/spec combination detected after argument parsing."""


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems with exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def _add_config_flag(sub):
    sub.add_argument(
        "--config",
        metavar="PATH",
        help="JSON file of defaults for this command (flag names with "
        "dashes or underscores); explicit flags win",
    )


def _add_binning_flags(sub):
    # --nmax/--phases stay optional here: a --scheme or --povm-cache file
    # records them, and _resolve_povm reports the precise missing-flag
    # combination otherwise.
    sub.add_argument("--nmax", type=int, help="Fock cutoff n_max")
    sub.add_argument("--phases", type=int, help="number of LO phases N")
    sub.add_argument("--bins", type=int, help="number of quadrature bins M")
    sub.add_argument(
        "--half-width",
        type=float,
        default=None,
        help="half-width L of the equal-spaced bin range (default: cutoff-based)",
    )
    sub.add_argument(
        "--edges",
        default=None,
        help="explicit comma-separated bin edges (overrides --bins/--half-width)",
    )
    sub.add_argument(
        "--scheme",
        default=None,
        metavar="PATH",
        help="binning-scheme JSON produced by design-bins",
    )
    sub.add_argument(
        "--tail-mode",
        choices=[povm_mod.TAIL_EXTEND, povm_mod.TAIL_STRICT],
        default=povm_mod.TAIL_EXTEND,
        help="edge-bin tail policy (default: extend-tails)",
    )
    sub.add_argument(
        "--povm-cache",
        default=None,
        metavar="PATH",
        help="POVM cache file: loaded when present, written after a build",
    )


def build_parser():
    parser = _Parser(
        prog="hshadow",
        description="Classical-shadow estimation for discretized homodyne detection",
    )
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")
    table = {}

    p = subs.add_parser(
        "design-bins",
        parents=[],
        help="search for an informationally complete equal-spaced binning",
    )
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--phases", type=int, required=True)
    p.add_argument("--bins", type=int, required=True)
    p.add_argument("--l0", type=float, default=None, help="initial half-width")
    p.add_argument("--dl", type=float, default=0.5, help="half-width growth step")
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument(
        "--tail-mode",
        choices=[povm_mod.TAIL_EXTEND, povm_mod.TAIL_STRICT],
        default=povm_mod.TAIL_EXTEND,
    )
    p.add_argument("--out", default=None, metavar="PATH", help="scheme JSON output")
    _add_config_flag(p)
    p.set_defaults(func=_cmd_design_bins)
    table["design-bins"] = p

    p = subs.add_parser("check-ic", help="certify informational completeness")
    _add_binning_flags(p)
    p.add_argument("--rtol", type=float, default=povm_mod.DEFAULT_RANK_RTOL)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    _add_config_flag(p)
    p.set_defaults(func=_cmd_check_ic)
    table["check-ic"] = p

    p = subs.add_parser("simulate", help="sample seeded measurement records")
    _add_binning_flags(p)
    p.add_argument(
        "--state",
        required=True,
        help="state spec: coherent:A, fock:N, thermal:NBAR, cat:A[:PARITY], file:PATH",
    )
    p.add_argument("--T", type=int, required=True, help="number of shots")
    p.add_argument("--seed", type=int, required=True, help="sampling seed")
    p.add_argument("--out", required=True, metavar="PATH", help="records CSV output")
    _add_config_flag(p)
    p.set_defaults(func=_cmd_simulate)
    table["simulate"] = p

    p = subs.add_parser("estimate", help="estimate an observable from records")
    _add_binning_flags(p)
    p.add_argument("--records", required=True, metavar="PATH")
    p.add_argument(
        "--observable", default="number", help="observable spec: number or file:PATH"
    )
    p.add_argument(
        "--variant",
        default="plain-mean",
        help="plain-mean or median-of-means[:batches]",
    )
    p.add_argument(
        "--inversion",
        choices=[shadow_mod.MODE_STRICT, shadow_mod.MODE_PSEUDO],
        default=shadow_mod.MODE_STRICT,
    )
    p.add_argument("--threshold", type=float, default=shadow_mod.DEFAULT_THRESHOLD)
    p.add_argument("--seed", type=int, default=None, help="annotate report metadata")
    p.add_argument("--json", action="store_true", help="print the report JSON to stdout")
    p.add_argument("--out", default=None, metavar="PATH", help="report JSON output file")
    _add_config_flag(p)
    p.set_defaults(func=_cmd_estimate)
    table["estimate"] = p

    p = subs.add_parser(
        "variance-scan", help="exact single-shot variance across a parameter sweep"
    )
    p.add_argument("--sweep", required=True, choices=["phases", "bins", "nmax"])
    p.add_argument("--range", default=None, metavar="A:B[:STEP]", help="inclusive grid")
    p.add_argument("--values", default=None, help="explicit comma-separated grid values")
    p.add_argument("--nmax", type=int, default=5)
    p.add_argument("--phases", type=int, default=32)
    p.add_argument("--bins", type=int, default=50)
    p.add_argument(
        "--half-width",
        type=float,
        default=5.0,
        help="fixed bin half-width (default 5.0, sized to the quadrature "
        "range actually explored by unit-amplitude coherent states)",
    )
    p.add_argument(
        "--tail-mode",
        choices=[povm_mod.TAIL_EXTEND, povm_mod.TAIL_STRICT],
        default=povm_mod.TAIL_EXTEND,
    )
    p.add_argument("--alpha", default="1.0", help="coherent amplitude (complex)")
    p.add_argument("--threshold", type=float, default=shadow_mod.DEFAULT_THRESHOLD)
    p.add_argument("--rtol", type=float, default=povm_mod.DEFAULT_RANK_RTOL)
    p.add_argument("--out", default=None, metavar="PATH", help="CSV output (default stdout)")
    _add_config_flag(p)
    p.set_defaults(func=_cmd_variance_scan)
    table["variance-scan"] = p

    return parser, table


def _check_tolerances(args):
    """UsageError unless --threshold is finite and >= 0 and --rtol finite and > 0."""
    for flag, positive in (("threshold", False), ("rtol", True)):
        if not hasattr(args, flag):
            continue
        value = getattr(args, flag)
        try:
            ok = math.isfinite(value) and (value > 0 if positive else value >= 0)
        except TypeError:  # a null or non-number from --config
            ok = False
        if not ok:
            bound = "> 0" if positive else ">= 0"
            raise UsageError("--%s must be finite and %s, got %r" % (flag, bound, value))


def _apply_config(parser, table, argv, args):
    """Merge --config JSON beneath explicit flags by re-parsing with new defaults."""
    path = getattr(args, "config", None)
    if not path:
        return args
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise UsageError("config %s must hold a JSON object" % path)
    sub = table[args.command]
    dests = {a.dest for a in sub._actions}
    updates = {}
    for key, value in data.items():
        dest = key.replace("-", "_")
        if dest not in dests:
            raise UsageError("config %s: unknown key %r for %s" % (path, key, args.command))
        updates[dest] = value
    sub.set_defaults(**updates)
    return parser.parse_args(argv)


def _write_scheme(path_or_none, scheme, meta):
    doc = {
        "version": SCHEME_VERSION,
        "M": scheme.M,
        "edges": [float(e) for e in scheme.edges],
        "weights": [float(w) for w in scheme.weights],
        "tail_mode": scheme.tail_mode,
    }
    doc.update(meta)
    text = json.dumps(doc, indent=2)
    if path_or_none:
        with open(path_or_none, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_scheme(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        scheme = povm_mod.BinningScheme(
            np.array(doc["edges"], dtype=float),
            tail_mode=doc.get("tail_mode", povm_mod.TAIL_EXTEND),
            weights=np.array(doc["weights"], dtype=float) if "weights" in doc else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvariantViolationError(
            "cannot parse binning scheme %s: %s" % (path, exc), check="parse"
        ) from exc
    return scheme, doc


def _parse_edges(text):
    try:
        edges = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise UsageError("cannot parse --edges %r: %s" % (text, exc)) from exc
    if len(edges) < 2:
        raise UsageError("--edges needs at least two values")
    return np.array(edges)


def _resolve_povm(args):
    """Build (or load from cache) the POVM described by the common flags.

    An existing ``--povm-cache`` file is loaded.  When the other flags
    describe a POVM too, the cache must hold exactly that one: the same
    cutoff, phase count and binning (edges, tail mode and weights); when
    they describe only part of one, each ``--nmax``/``--phases``/``--bins``
    given must match it.  A mismatch raises :class:`CacheKeyMismatchError`.
    """
    cache = getattr(args, "povm_cache", None)
    if not (cache and os.path.exists(cache)):
        n_max, N, scheme = _requested_povm(args)
        built = povm_mod.build_povm(povm_mod.PhaseGrid(N), scheme, n_max)
        if cache:
            povm_mod.save_povm(built, cache)
        return built
    povm = povm_mod.load_povm(cache)
    try:
        wanted = _requested_povm(args)
        held = (povm.n_max, povm.grid.N, povm.binning)
    except UsageError:  # the flags describe no POVM, or only part of one
        wanted = (args.nmax, args.phases, args.bins)
        held = (povm.n_max, povm.grid.N, povm.binning.M)
    if any(w is not None and w != h for w, h in zip(wanted, held)):
        raise CacheKeyMismatchError(
            "cache %s holds %r, but the flags describe another POVM: cutoff, phase "
            "count and binning (edges, tail mode, weights) must all match" % (cache, povm)
        )
    return povm


def _requested_povm(args):
    """(n_max, N, scheme) described by the flags; UsageError when incomplete."""
    if getattr(args, "scheme", None):
        scheme, doc = _load_scheme(args.scheme)
        n_max = args.nmax if args.nmax is not None else doc.get("n_max")
        N = args.phases if args.phases is not None else doc.get("N")
        if n_max is None or N is None:
            raise UsageError(
                "scheme %s does not record n_max/N; pass --nmax/--phases" % args.scheme
            )
    else:
        n_max = args.nmax
        N = args.phases
        if n_max is None or N is None:
            raise UsageError("need --nmax and --phases (or --scheme/--povm-cache)")
        if getattr(args, "edges", None):
            scheme = povm_mod.BinningScheme(
                _parse_edges(args.edges), tail_mode=args.tail_mode
            )
        else:
            if args.bins is None:
                raise UsageError("need --bins (or --edges/--scheme/--povm-cache)")
            half = (
                args.half_width
                if args.half_width is not None
                else povm_mod.default_half_width(n_max)
            )
            scheme = povm_mod.BinningScheme.equal_spaced(
                args.bins, half, tail_mode=args.tail_mode
            )
    return int(n_max), int(N), scheme


def _parse_state_spec(spec, n_max):
    kind, _, rest = spec.partition(":")
    try:
        if kind == "coherent":
            return states_mod.coherent(complex(rest), n_max)
        if kind == "fock":
            return states_mod.fock(int(rest), n_max)
        if kind == "thermal":
            return states_mod.thermal(float(rest), n_max)
        if kind == "cat":
            amp, _, par = rest.partition(":")
            return states_mod.cat(complex(amp), int(par) if par else 1, n_max)
        if kind == "file":
            return states_mod.from_file(rest)
    except (ValueError, TypeError) as exc:
        raise UsageError("bad state spec %r: %s" % (spec, exc)) from exc
    raise UsageError(
        "unknown state spec %r (expected coherent:, fock:, thermal:, cat:, file:)" % spec
    )


def _parse_observable_spec(spec, n_max):
    if spec == "number":
        return states_mod.number_operator(n_max)
    kind, _, rest = spec.partition(":")
    if kind == "file":
        return states_mod.observable_from_file(rest)
    raise UsageError("unknown observable spec %r (expected number or file:PATH)" % spec)


def _cmd_design_bins(args):
    try:
        scheme = povm_mod.design_bins(
            args.nmax,
            args.phases,
            args.bins,
            L0=args.l0,
            dL=args.dl,
            max_iter=args.max_iter,
            tail_mode=args.tail_mode,
        )
    except BinDesignError as exc:
        print("design-bins: %s" % exc, file=sys.stderr)
        return EXIT_DESIGN_FAILED
    built = povm_mod.build_povm(povm_mod.PhaseGrid(args.phases), scheme, args.nmax)
    report = povm_mod.is_informationally_complete(built)
    _write_scheme(
        args.out,
        scheme,
        {
            "n_max": args.nmax,
            "N": args.phases,
            "rank": report.rank,
            "required": report.required,
            "half_width": float(-scheme.edges[0]),
        },
    )
    print(
        "design-bins: complete scheme with rank %d/%d over [%.6g, %.6g]"
        % (report.rank, report.required, scheme.edges[0], scheme.edges[-1])
    )
    return EXIT_OK


def _cmd_check_ic(args):
    povm = _resolve_povm(args)
    report = povm_mod.is_informationally_complete(povm, rtol=args.rtol)
    tail = [float(s) for s in report.singular_values[-5:]]
    if args.json:
        print(
            json.dumps(
                {
                    "complete": report.complete,
                    "rank": report.rank,
                    "required": report.required,
                    "spectrum_tail": tail,
                    "lambda_min": report.lambda_min,
                    "condition_number": (
                        report.condition_number
                        if math.isfinite(report.condition_number)
                        else None
                    ),
                    "n_max": povm.n_max,
                    "N": povm.grid.N,
                    "M": povm.binning.M,
                    "cache_key": povm.cache_key,
                }
            )
        )
    else:
        print("rank: %d of %d required" % (report.rank, report.required))
        print(
            "spectrum tail (5 smallest singular values of the weighted "
            "measurement matrix): %s" % tail
        )
        print("frame lambda_min: %.6e" % report.lambda_min)
        print("frame condition number: %.6e" % report.condition_number)
        print("verdict: %s" % ("complete" if report.complete else "incomplete"))
    return EXIT_OK if report.complete else EXIT_INCOMPLETE


def _cmd_simulate(args):
    if args.T < 1:
        raise UsageError("--T must be >= 1")
    povm = _resolve_povm(args)
    rho = _parse_state_spec(args.state, povm.n_max)
    dist = sim_mod.outcome_distribution(rho, povm)
    records = sim_mod.sample(dist, args.T, args.seed)
    sim_mod.write_records(args.out, records)
    print(
        "simulate: wrote %d records to %s (seed %d, deficit %.3e)"
        % (len(records), args.out, args.seed, dist.deficit)
    )
    return EXIT_OK


def _cmd_estimate(args):
    try:
        shadow_mod._parse_variant(args.variant)
    except ValueError as exc:
        raise UsageError("bad --variant: %s" % exc) from exc
    povm = _resolve_povm(args)
    X = _parse_observable_spec(args.observable, povm.n_max)
    records = sim_mod.ingest_records(args.records)
    if not records:
        raise MalformedRecordError("record file %s is empty" % args.records, ordinal=0)
    frame = shadow_mod.frame_operator(povm)
    inv = shadow_mod.invert_frame(frame, mode=args.inversion, threshold=args.threshold)
    table = shadow_mod.snapshots(povm, inv)
    report = shadow_mod.estimate_observable(records, table, X, variant=args.variant)
    report.seed = args.seed
    report.povm_cache_key = povm.cache_key
    payload = json.dumps(report.to_json())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    if args.json:
        print(payload)
    else:
        print(
            "estimate[%s]: %s = %.10g +- %.3g over %d shots (%s inversion)"
            % (
                report.variant,
                report.observable_label,
                report.mean,
                report.stderr,
                report.shots,
                report.inversion,
            )
        )
    return EXIT_OK


def _parse_grid(args):
    if (args.range is None) == (args.values is None):
        raise UsageError("pass exactly one of --range A:B[:STEP] or --values v1,v2,...")
    if args.values is not None:
        try:
            return [int(tok) for tok in args.values.split(",")]
        except ValueError as exc:
            raise UsageError("cannot parse --values %r: %s" % (args.values, exc)) from exc
    parts = args.range.split(":")
    if len(parts) not in (2, 3):
        raise UsageError("--range must look like A:B or A:B:STEP, got %r" % args.range)
    try:
        a, b = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
    except ValueError as exc:
        raise UsageError("cannot parse --range %r: %s" % (args.range, exc)) from exc
    if step < 1 or b < a:
        raise UsageError("--range needs A <= B and STEP >= 1")
    return list(range(a, b + 1, step))


def _cmd_variance_scan(args):
    grid = _parse_grid(args)
    try:
        alpha = complex(args.alpha)
    except ValueError as exc:
        raise UsageError("cannot parse --alpha %r: %s" % (args.alpha, exc)) from exc
    rows = []
    for value in grid:
        n_max = value if args.sweep == "nmax" else args.nmax
        N = value if args.sweep == "phases" else args.phases
        M = value if args.sweep == "bins" else args.bins
        scheme = povm_mod.BinningScheme.equal_spaced(
            M, args.half_width, tail_mode=args.tail_mode
        )
        povm = povm_mod.build_povm(povm_mod.PhaseGrid(N), scheme, n_max)
        ic = povm_mod.is_informationally_complete(povm, rtol=args.rtol)
        frame = shadow_mod.frame_operator(povm)
        mode = shadow_mod.MODE_STRICT if ic.complete else shadow_mod.MODE_PSEUDO
        inv = shadow_mod.invert_frame(frame, mode=mode, threshold=args.threshold)
        table = shadow_mod.snapshots(povm, inv)
        rho = states_mod.coherent(alpha, n_max)
        X = states_mod.number_operator(n_max)
        var = shadow_mod.exact_variance(rho, X, table, povm)
        rows.append((args.sweep, value, var, 1 if ic.complete else 0))
    lines = ["param,value,variance,ic_flag"]
    lines += ["%s,%d,%.12g,%d" % row for row in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print("variance-scan: wrote %d rows to %s" % (len(rows), args.out))
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, table = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        args = _apply_config(parser, table, argv, args)
        _check_tolerances(args)
        return args.func(args)
    except UsageError as exc:
        print("%s: error: %s" % (parser.prog, exc), file=sys.stderr)
        return EXIT_USAGE
    except BinDesignError as exc:
        print("%s: %s" % (parser.prog, exc), file=sys.stderr)
        return EXIT_DESIGN_FAILED
    except (
        CacheKeyMismatchError,
        MalformedRecordError,
        InvariantViolationError,
        StrictModeSingularError,
        UnsupportedConfigurationError,
        QuadratureConvergenceError,
    ) as exc:
        print("%s: %s" % (parser.prog, exc), file=sys.stderr)
        return EXIT_DATA
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print("%s: %s" % (parser.prog, exc), file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
