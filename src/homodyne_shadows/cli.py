"""Command-line front end (installed as ``hshadow``).

Subcommands
-----------
design-bins
    Search for equal-spaced quadrature bins that make the binned-phase POVM
    informationally complete; write the resulting scheme as JSON (to stdout
    without ``--out``, with the status line on stderr).
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

check-ic, simulate and estimate take the POVM from flags, from ``--scheme
PATH`` or from ``--povm-cache PATH``.  Scheme and cache files are the same
JSON parameter file, written by ``povm.save_povm`` and read by
``povm.load_parameters``; a scheme fixes the binning, so binning flags
given with it are a usage error.  An existing cache file is loaded, the
POVM rebuilt from it and compared with whatever POVM the other flags
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
    HomodyneShadowsError,
    MalformedRecordError,
    _whole,
)

EXIT_OK = 0
EXIT_DESIGN_FAILED = 2
EXIT_INCOMPLETE = 3
EXIT_USAGE = 64
EXIT_DATA = 65


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
        help="JSON file of flags for this command (flag names with dashes or "
        "underscores), parsed like flags given before the explicit ones, which win",
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
        default=None,
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

    p = subs.add_parser("check-ic", help="certify informational completeness")
    _add_binning_flags(p)
    p.add_argument("--rtol", type=float, default=povm_mod.DEFAULT_RANK_RTOL)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    _add_config_flag(p)
    p.set_defaults(func=_cmd_check_ic)

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

    return parser, subs.choices


def _check_tolerances(args):
    """UsageError unless --threshold is finite and >= 0 and --rtol finite and > 0."""
    for flag, positive in (("threshold", False), ("rtol", True)):
        if not hasattr(args, flag):
            continue
        value = getattr(args, flag)
        if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
            bound = "> 0" if positive else ">= 0"
            raise UsageError("--%s must be finite and %s, got %r" % (flag, bound, value))


def _config_flags(subcommands, argv):
    """The entries of the ``--config`` file that ``argv`` names, as flags.

    Each key names a flag of the subcommand ``argv[0]`` (dashes or
    underscores).  A switch such as ``--json`` takes a JSON boolean; any
    other flag becomes ``--flag=value``, a string as it stands and any other
    JSON value as JSON text, so argparse converts and checks it as it does
    an explicit flag.  Returns ``[]`` when ``argv`` names no config file.
    """
    sub = subcommands.get(argv[0]) if argv else None
    if sub is None:
        return []
    finder = _Parser(add_help=False)
    finder.add_argument("--config")
    path = finder.parse_known_args(argv[1:])[0].config
    if not path:
        return []
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise UsageError("config %s must hold a JSON object" % path)
    flags = {a.dest: a for a in sub._actions if a.option_strings}
    tokens = []
    for key, value in data.items():
        action = flags.get(key.replace("-", "_"))
        if action is None:
            raise UsageError("config %s: unknown key %r for %s" % (path, key, argv[0]))
        flag = action.option_strings[-1]
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise UsageError("config %s: %s takes true or false, got %r" % (path, flag, value))
            tokens += [flag] if value else []
        else:
            tokens.append("%s=%s" % (flag, value if isinstance(value, str) else json.dumps(value)))
    return tokens


def _parse_edges(text):
    try:
        edges = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise UsageError("cannot parse --edges %r: %s" % (text, exc)) from exc
    if len(edges) < 2:
        raise UsageError("--edges needs at least two values")
    return np.array(edges)


# The flags that describe a binning, which a --scheme file fixes.
_BINNING_FLAGS = ("--bins", "--edges", "--half-width", "--tail-mode")


def _resolve_povm(args):
    """Build (or load from cache) the POVM described by the common flags.

    A binning flag given with ``--scheme`` raises :class:`UsageError`
    before any file is read.  An existing ``--povm-cache`` file is loaded.
    When the other flags describe a POVM too, the cache must hold exactly
    that one: the same cutoff, phase count and binning (edges and tail
    mode); when they describe only part of one, each
    ``--nmax``/``--phases``/``--bins``/``--tail-mode`` given must match it
    (``--edges``/``--half-width`` raise :class:`UsageError`).  A mismatch
    raises :class:`CacheKeyMismatchError`.
    """
    given = [f for f in _BINNING_FLAGS if getattr(args, f[2:].replace("-", "_")) is not None]
    if args.scheme and given:
        raise UsageError("--scheme fixes the binning; drop %s" % ", ".join(given))
    cache = args.povm_cache
    cached = bool(cache) and os.path.exists(cache)
    n_max, N, scheme = povm_mod.load_parameters(cache) if cached else _requested_povm(args)
    povm = povm_mod.build_povm(povm_mod.PhaseGrid(N), scheme, n_max)
    if not cached:
        if cache:
            povm_mod.save_povm(povm, cache)
        return povm
    try:
        wanted = _requested_povm(args)
        held = (povm.n_max, povm.grid.N, povm.binning)
    except UsageError as exc:  # the flags describe no POVM, or only part of one
        if args.edges is not None or args.half_width is not None:
            raise UsageError("--edges and --half-width are compared with a cache only in "
                             "a whole POVM: give --nmax, --phases and the bins") from exc
        wanted = (args.nmax, args.phases, args.bins, args.tail_mode)
        held = (povm.n_max, povm.grid.N, povm.binning.M, povm.binning.tail_mode)
    if any(w is not None and w != h for w, h in zip(wanted, held)):
        raise CacheKeyMismatchError(
            "cache %s holds %r, but the flags describe another POVM: cutoff, phase "
            "count and binning (edges, tail mode) must all match" % (cache, povm)
        )
    return povm


def _requested_povm(args):
    """(n_max, N, scheme) described by the flags; UsageError when incomplete.

    ``--nmax`` and ``--phases`` override a scheme file's cutoff and phase count.
    """
    if args.scheme:
        n_max, N, scheme = povm_mod.load_parameters(args.scheme)
        n_max = n_max if args.nmax is None else args.nmax
        N = N if args.phases is None else args.phases
        return n_max, N, scheme
    if args.nmax is None or args.phases is None:
        raise UsageError("need --nmax and --phases (or --scheme/--povm-cache)")
    tail_mode = args.tail_mode or povm_mod.TAIL_EXTEND
    if args.edges:
        scheme = povm_mod.BinningScheme(_parse_edges(args.edges), tail_mode=tail_mode)
    else:
        if args.bins is None:
            raise UsageError("need --bins (or --edges/--scheme/--povm-cache)")
        half = (
            args.half_width
            if args.half_width is not None
            else povm_mod.default_half_width(args.nmax)
        )
        scheme = povm_mod.BinningScheme.equal_spaced(args.bins, half, tail_mode=tail_mode)
    return args.nmax, args.phases, scheme


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
    # design_bins returns only a scheme it certified complete: full rank.
    required = (args.nmax + 1) ** 2
    povm_mod.save_povm(
        povm_mod.build_povm(povm_mod.PhaseGrid(args.phases), scheme, args.nmax),
        args.out or sys.stdout,
        rank=required,
        required=required,
        half_width=float(-scheme.edges[0]),
    )
    print(  # on stderr when the scheme itself goes to stdout
        "design-bins: complete scheme with rank %d/%d over [%.6g, %.6g]"
        % (required, required, scheme.edges[0], scheme.edges[-1]),
        file=sys.stdout if args.out else sys.stderr,
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
                },
                allow_nan=False,
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
    deficit = rho.truncation_deficit
    facts = ["seed %d" % args.seed,
             "truncation deficit " + ("unknown" if deficit is None else "%.3e" % deficit)]
    if povm.binning.tail_mode == povm_mod.TAIL_STRICT:
        facts.append("tail mass %.3e" % dist.deficit)
    print("simulate: wrote %d records to %s (%s)" % (len(records), args.out, ", ".join(facts)))
    return EXIT_OK


def _cmd_estimate(args):
    if args.seed is not None:  # the report states a seed only as a stream could have it
        _whole(args.seed, "seed", 0, 2**64 - 1)
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
    payload = json.dumps(report.to_json(), allow_nan=False)
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
        mode = shadow_mod.MODE_STRICT if ic.complete else shadow_mod.MODE_PSEUDO
        inv = shadow_mod.invert_frame(ic, mode=mode, threshold=args.threshold)
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
    parser, subcommands = build_parser()
    try:
        config = _config_flags(subcommands, argv)
        if config:
            try:
                args = parser.parse_args(argv[:1] + config + argv[1:])
            except SystemExit as exc:  # a config entry argparse rejects is a usage
                return exc.code  # error, which main returns rather than raises
        else:
            args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        _check_tolerances(args)
        return args.func(args)
    except UsageError as exc:
        print("%s: error: %s" % (parser.prog, exc), file=sys.stderr)
        return EXIT_USAGE
    except (HomodyneShadowsError, OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        print("%s: %s" % (parser.prog, exc), file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
