"""Command-line front end.

Subcommands: build, scan-mixing, weak-limits, cesaro, inequality,
spectrum, poisson-mult, concat.  Every command is a deterministic function
of its config: identical invocations produce byte-identical reports, and
each JSON report embeds its config, the parsed options minus the ones that
only shape the output (--out, --format, --decimal, --strict), with the
text of the file for a --cylinder or --tests given as @path.

Exit codes: 0 success, 2 config/parse error, 3 schedule invariant
violation, 4 unresolved depth: with --strict for the commands that report
enclosures (scan-mixing, weak-limits), always for the commands that report
exact values only (cesaro, inequality, spectrum).

One path runs every command: main builds the parser of the one subcommand
its first argument names (all eight for no argument, --help or an unknown
name) and parses the options, and its helper _run loads the schedule,
builds the tower, calls the command and writes the text it returns to
--out; main then turns an unresolved report under --strict into exit 4.  A
command only computes its report.  The type of an error alone decides its
exit code, with one except arm per family: a ValueError exits 2, an
InvalidSchedule 3, a DepthExhausted 4.  So a report that would need an
integer longer than the interpreter prints (sys.get_int_max_str_digits())
exits 2 before anything is written, and so does an input integer past
that limit.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import reports
from .cylinders import CylinderSet
from .errors import DepthExhausted, IntegerTooLong, InvalidSchedule
from .intervals import IntervalSet
from .mixing import (
    WeakLimitTarget,
    canonical_test_set,
    cesaro_norm,
    check_averaging_inequality,
    outside_proof_window,
    scan_mixing_intervals,
    weak_limit_discrepancy_bounds,
)
from .schedule import schedule_from_json, schedule_to_json
from .sequences import parse_int
from .spectral import (
    exp_multiplicities_identity_product,
    exp_multiplicities_symmetric_square,
    spectral_sequence,
)
from .towers import build_levels, check_restricted_growth, measure_report

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_DEPTH = 4


def _text(raw: str, what: str = "JSON argument") -> str:
    """The argument as given, or the text of the file an @path names."""
    if not raw.startswith("@"):
        return raw
    try:
        with open(raw[1:], "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise ValueError(f"cannot read {what}: {exc}") from exc


def _load_json(raw: str, what: str = "JSON argument"):
    """Inline JSON, or @path to read from a file."""
    text = _text(raw, what)
    try:
        return json.loads(text, parse_int=parse_int)
    except ValueError as exc:  # JSONDecodeError and IntegerTooLong among them
        raise ValueError(f"cannot read {what}: {exc}") from exc


def parse_cylinder(doc) -> CylinderSet:
    try:
        level = int(doc["level"])
        pairs = [(int(a), int(b)) for a, b in doc["intervals"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad cylinder literal {doc!r}: {exc}") from exc
    return CylinderSet(level, IntervalSet.from_pairs(pairs))


def _parse_tests(raw: str, levels) -> tuple[list, str]:
    if raw == "canonical":
        return canonical_test_set(levels), "canonical"
    doc = _load_json(raw)
    try:
        pairs = [(a, b) for a, b in doc]  # before parsing, so a bad cylinder keeps its message
    except (TypeError, ValueError) as exc:
        raise ValueError(f"--tests must be a list of cylinder pairs: {exc}") from exc
    return [(parse_cylinder(a), parse_cylinder(b)) for a, b in pairs], "custom"


def _parse_stages(raw: str) -> list[int]:
    try:
        if ":" in raw:
            a, b = raw.split(":")
            stages = list(range(int(a), int(b)))
        else:
            stages = [int(s) for s in raw.split(",") if s]
    except ValueError as exc:
        raise ValueError(f"bad --stages {raw!r}") from exc
    if not stages:
        raise ValueError(f"--stages {raw!r} names no stage")
    return stages


def _write(text: str, out: str):
    if out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from exc


# the command's handler and the options that only shape the output
_NOT_CONFIG = ("fn", "out", "format", "decimal", "strict")


# ---------------------------------------------------------------- commands
#
# Each command takes the parsed options, the config its report embeds and
# the tower main built (None for concat and poisson-mult), and returns the
# report text plus whether any entry is unresolved.

def cmd_build(args, config, levels):
    report = {
        "config": config,
        "name": levels.schedule.name,
        "depth": levels.depth,
        "h": [reports.digits(x) for x in levels.h],
        "bigH": [reports.digits(x) for x in levels.bigH],
        "cut_counts": list(levels.r[:levels.depth]),
        "spacer_heights": [reports.digits(z) for z in levels.z],
        "prefix_widths": list(levels.d),
        "prefix_ratio": [reports.frac_json(Fraction(levels.d[n], levels.r[n]))
                         for n in range(levels.depth)],
        "offset_set_sizes": [len(c) for c in levels.offsets],
        "measure": reports.report_json(measure_report(levels)),
    }
    if levels.depth >= 2:
        report["growth"] = reports.report_json(
            check_restricted_growth(levels, args.growth_threshold)
        )
    return reports.canonical_json(report), False


def cmd_concat(args, config, levels):
    return reports.canonical_json(schedule_to_json(args.schedule)), False


def cmd_scan_mixing(args, config, levels):
    tests, label = _parse_tests(args.tests, levels)
    stages = _parse_stages(args.stages)
    for stage in stages:  # a scan stage n reads H_n and so needs stage n + 1 built
        if stage >= levels.depth:
            raise ValueError(f"scan stage {stage} needs --max-depth {stage + 1} or more")
    report = scan_mixing_intervals(levels, tests, stages, args.samples,
                                   args.power, args.max_depth, test_set_label=label)
    unresolved = any(not s.exact for s in report.stages)
    if args.format == "csv":
        return reports.decay_report_csv(report, decimal=args.decimal), unresolved
    body = reports.decay_report_json(report)
    body["config"] = config
    return reports.canonical_json(body), unresolved


def cmd_weak_limits(args, config, levels):
    tests, label = _parse_tests(args.tests, levels)
    target_doc = _load_json(args.target)
    try:
        target = WeakLimitTarget({int(j): Fraction(a) for j, a in target_doc.items()})
    except (ArithmeticError, AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"bad --target: {exc}") from exc
    try:
        times = [int(t) for t in args.times.split(",") if t]
    except ValueError as exc:
        raise ValueError(f"bad --times {args.times!r}") from exc
    if not times:
        raise ValueError(f"--times {args.times!r} names no time")
    bounds = weak_limit_discrepancy_bounds(times, target, tests, levels, args.max_depth)
    config["target"] = {str(j): str(a) for j, a in target.items()}
    body = {
        "config": config,
        "target": {str(j): reports.frac_json(a) for j, a in target.items()},
        "test_set": label,
        "outside_proof_window": any(outside_proof_window(p, levels) for p in tests),
        "discrepancies": [
            {"m": reports.digits(m), "discrepancy": reports.enclosure_json(lo, hi)}
            for m, (lo, hi) in zip(times, bounds)
        ],
    }
    return reports.canonical_json(body), any(lo != hi for lo, hi in bounds)


def cmd_cesaro(args, config, levels):
    value = cesaro_norm(args.k, args.l, args.cylinder, levels, args.max_depth)
    return reports.canonical_json({
        "config": config,
        "squared_norm": reports.frac_json(value),
    }), False


def cmd_inequality(args, config, levels):
    rep = check_averaging_inequality(args.R, args.L, args.r, args.cylinder, levels,
                                     args.max_depth)
    return reports.canonical_json({
        "config": config,
        "mu_B": reports.frac_json(rep.mu_b),
        "lhs_squared": reports.frac_json(rep.lhs_sq),
        "rhs_norm_squared": reports.frac_json(rep.rhs_norm_sq),
        "lhs_enclosure": [reports.frac_json(x) for x in rep.lhs],
        "rhs_enclosure": [reports.frac_json(x) for x in rep.rhs],
        "holds": rep.holds,
        "decided_by": rep.decided_by,
    }), False


def cmd_spectrum(args, config, levels):
    seq = spectral_sequence(args.cylinder, args.max_m, levels, args.max_depth)
    if args.format == "csv":
        return reports.spectral_csv(seq, decimal=args.decimal), False
    return reports.canonical_json({
        "config": config,
        "values": {str(m): reports.frac_json(v) for m, v in sorted(seq.values.items())},
    }), False


def cmd_poisson_mult(args, config, levels):
    if args.kind == "symmetric-square":
        values = exp_multiplicities_symmetric_square(args.n_max)
    else:
        values = exp_multiplicities_identity_product(args.p, args.n_max)
    return reports.canonical_json({
        "config": config,
        "multiplicities": [reports.digits(v) for v in values],
        "note": "conditional on the simple-spectrum hypothesis for the exp operator",
    }), False


# ---------------------------------------------------------------- plumbing

# (flag, add_argument keywords): options shared by tower, budget and csv commands
_TOWER = (("--schedule", dict(required=True, help="path to a schedule JSON file")),
          ("--depth", dict(type=int, required=True)),
          ("--out", dict(default="-", help="output path, '-' for stdout")))
_BUDGET = (("--max-depth", dict(type=int, dest="max_depth")),
           ("--strict", dict(action="store_true",
                             help="exit 4 when any entry is unresolved at max depth")))
_CSV = (("--format", dict(choices=("json", "csv"), default="json")),
        ("--decimal", dict(action="store_true",
                           help="add a 30-significant-digit decimal column to CSV output")))

# name: (help, command, options), in --help order
_COMMANDS = {
    "build": ("materialize levels and report measures/growth", cmd_build, _TOWER + (
        ("--growth-threshold", dict(default="1")),)),
    "concat": ("flatten a fragments schedule into one document", cmd_concat, (
        ("--schedule", dict(required=True)),
        ("--out", dict(default="-")))),
    "scan-mixing": ("correlation decay over [h_n, 2 H_n)", cmd_scan_mixing,
                    _TOWER + _BUDGET + _CSV + (
        ("--stages", dict(required=True, help="'a:b' half-open or comma list")),
        ("--samples", dict(type=int, default=8)),
        ("--power", dict(type=int, default=1)),
        ("--tests", dict(default="canonical")))),
    "weak-limits": ("discrepancy against a weak operator limit", cmd_weak_limits,
                    _TOWER + _BUDGET + (
        ("--times", dict(required=True, help="comma list of integer times")),
        ("--target", dict(required=True,
                          help='JSON {"j": "alpha_j", ...} for sum_j alpha_j U^-j')),
        ("--tests", dict(default="canonical")))),
    "cesaro": ("exact squared norm of a Cesaro average", cmd_cesaro, _TOWER + _BUDGET + (
        ("--k", dict(type=int, required=True)),
        ("--l", dict(type=int, required=True)),
        ("--cylinder", dict(required=True)))),
    "inequality": ("check the averaging inequality", cmd_inequality, _TOWER + _BUDGET + (
        ("--R", dict(type=int, required=True)),
        ("--L", dict(type=int, required=True)),
        ("--r", dict(type=int, required=True)),
        ("--cylinder", dict(required=True)))),
    "spectrum": ("autocorrelation sequence of an indicator", cmd_spectrum,
                 _TOWER + _BUDGET + _CSV + (
        ("--cylinder", dict(required=True)),
        ("--max-m", dict(type=int, required=True, dest="max_m")))),
    "poisson-mult": ("exp-operator multiplicity sets", cmd_poisson_mult, (
        ("--kind", dict(choices=("symmetric-square", "identity-product"), required=True)),
        ("--p", dict(type=int, default=2)),
        ("--n-max", dict(type=int, required=True, dest="n_max")),
        ("--out", dict(default="-")))),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of the subcommand named command, or of all eight if it names none."""
    # --help shows the module docstring up to its paragraph on the write path
    usage = (__doc__ or "").partition("\nOne path")[0]
    ap = argparse.ArgumentParser(prog="cfrank", description=usage,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    lean = command in _COMMANDS
    # usage lists all eight names either way; with all eight built argparse
    # derives them, and a metavar would rename "command" in its errors
    sub = ap.add_subparsers(dest="command", required=True,
                            metavar="{" + ",".join(_COMMANDS) + "}" if lean else None)
    for name in [command] if lean else _COMMANDS:
        help_, fn, options = _COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
    return ap


def _run(args) -> bool:
    """Load what the command reads, run it, write its report; True if unresolved."""
    config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
    # the order decides which error a bad invocation reports: the threshold
    # is parsed before the schedule is read, a cylinder after the tower is built
    if hasattr(args, "growth_threshold"):
        try:
            args.growth_threshold = Fraction(args.growth_threshold)
        except (ArithmeticError, ValueError) as exc:
            raise ValueError(f"bad --growth-threshold: {exc}") from exc
    if hasattr(args, "schedule"):
        config["schedule"] = _load_json("@" + args.schedule, f"schedule {args.schedule}")
        args.schedule = schedule_from_json(config["schedule"])
    levels = None
    if hasattr(args, "depth"):
        depth = getattr(args, "max_depth", args.depth)
        if depth < args.depth:
            raise ValueError(f"--max-depth {depth} must be >= --depth {args.depth}")
        levels = build_levels(args.schedule, depth)
    for name in ("cylinder", "tests"):  # the report embeds a file's text, not its path
        if name in config:
            vars(args)[name] = config[name] = _text(config[name])
    if hasattr(args, "cylinder"):
        args.cylinder = parse_cylinder(_load_json(args.cylinder))
    try:
        text, unresolved = args.fn(args, config, levels)
    except IntegerTooLong as exc:
        if hasattr(args, "depth"):
            raise ValueError(f"{exc}; try a smaller --depth") from None
        if hasattr(args, "n_max"):
            raise ValueError(f"{exc}; try a smaller --n-max") from None
        raise  # concat has no size option to suggest
    _write(text, args.out)
    return unresolved


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser(argv[0] if argv else None)
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    if hasattr(args, "max_depth") and args.max_depth is None:
        args.max_depth = args.depth
    try:
        unresolved = _run(args)
    except DepthExhausted as exc:
        lo, hi = exc.interval
        print(f"cfrank: a correlation in [{lo}, {hi}] is unresolved at max depth "
              f"{args.max_depth}; raise --max-depth", file=sys.stderr)
        return EXIT_DEPTH
    except InvalidSchedule as exc:
        print(f"cfrank: invalid schedule: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:
        print(f"cfrank: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_DEPTH if unresolved and getattr(args, "strict", False) else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
