"""Command-line front end.

Subcommands: build, scan-mixing, weak-limits, cesaro, inequality,
spectrum, poisson-mult, concat.  Every command is a deterministic function
of its config: identical invocations produce byte-identical reports, and
each JSON report embeds its config, the parsed options minus the ones that
only shape the output (--out, --format, --decimal, --strict).

Exit codes: 0 success, 2 config/parse error, 3 schedule invariant
violation, 4 unresolved depth: with --strict for the commands that report
enclosures (scan-mixing, weak-limits), always for the commands that report
exact values only (cesaro, inequality, spectrum).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import reports
from .cylinders import CylinderSet
from .errors import CFRankError, DepthExhausted, InvalidSchedule
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


class ConfigError(Exception):
    pass


def _load_json_arg(raw: str):
    """Inline JSON, or @path to read from a file."""
    try:
        if raw.startswith("@"):
            with open(raw[1:], "r", encoding="utf-8") as fh:
                return json.load(fh)
        return json.loads(raw)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read JSON argument: {exc}") from exc


def _load_schedule_doc(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read schedule {path}: {exc}") from exc


def parse_cylinder(doc) -> CylinderSet:
    try:
        level = int(doc["level"])
        pairs = [(int(a), int(b)) for a, b in doc["intervals"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad cylinder literal {doc!r}: {exc}") from exc
    return CylinderSet(level, IntervalSet.from_pairs(pairs))


def _parse_tests(raw: str, levels) -> tuple[list, str]:
    if raw == "canonical":
        return canonical_test_set(levels), "canonical"
    doc = _load_json_arg(raw)
    pairs = [(parse_cylinder(a), parse_cylinder(b)) for a, b in doc]
    return pairs, "custom"


def _parse_stages(raw: str) -> list[int]:
    try:
        if ":" in raw:
            a, b = raw.split(":")
            return list(range(int(a), int(b)))
        return [int(s) for s in raw.split(",") if s]
    except ValueError as exc:
        raise ConfigError(f"bad --stages {raw!r}") from exc


def _write(text: str, out: str):
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# the command's handler and the options that only shape the output
_NOT_CONFIG = ("fn", "out", "format", "decimal", "strict")


def _config(args, **overrides) -> dict:
    """The parsed options a report is a function of, as the report embeds them."""
    config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
    config.update(overrides)
    return config


# ---------------------------------------------------------------- commands

def cmd_build(args) -> int:
    doc = _load_schedule_doc(args.schedule)
    sched = schedule_from_json(doc)
    levels = build_levels(sched, args.depth)
    report = {
        "config": _config(args, schedule=doc),
        "name": sched.name,
        "depth": levels.depth,
        "h": [str(x) for x in levels.h],
        "bigH": [str(x) for x in levels.bigH],
        "cut_counts": list(levels.r[:levels.depth]),
        "spacer_heights": [str(z) for z in levels.z],
        "prefix_widths": list(levels.d),
        "prefix_ratio": [reports.frac_json(Fraction(levels.d[n], levels.r[n]))
                         for n in range(levels.depth)],
        "offset_set_sizes": [len(c) for c in levels.offsets],
        "measure": reports.measure_report_json(measure_report(levels)),
    }
    if levels.depth >= 2:
        report["growth"] = reports.growth_report_json(
            check_restricted_growth(levels, Fraction(args.growth_threshold))
        )
    _write(reports.canonical_json(report), args.out)
    return EXIT_OK


def cmd_concat(args) -> int:
    doc = _load_schedule_doc(args.schedule)
    sched = schedule_from_json(doc)
    _write(reports.canonical_json(schedule_to_json(sched)), args.out)
    return EXIT_OK


def _levels_for(args):
    doc = _load_schedule_doc(args.schedule)
    sched = schedule_from_json(doc)
    if args.max_depth < args.depth:
        raise ConfigError(f"--max-depth {args.max_depth} must be >= --depth {args.depth}")
    return doc, build_levels(sched, args.max_depth)


def cmd_scan_mixing(args) -> int:
    doc, levels = _levels_for(args)
    tests, label = _parse_tests(args.tests, levels)
    stages = _parse_stages(args.stages)
    report = scan_mixing_intervals(levels, tests, stages, args.samples,
                                   args.power, args.max_depth, test_set_label=label)
    unresolved = any(not s.exact for s in report.stages)
    if args.format == "csv":
        text = reports.decay_report_csv(report, decimal=args.decimal)
    else:
        body = reports.decay_report_json(report)
        body["config"] = _config(args, schedule=doc)
        text = reports.canonical_json(body)
    _write(text, args.out)
    if unresolved and args.strict:
        return EXIT_DEPTH
    return EXIT_OK


def cmd_weak_limits(args) -> int:
    doc, levels = _levels_for(args)
    tests, label = _parse_tests(args.tests, levels)
    target_doc = _load_json_arg(args.target)
    try:
        target = WeakLimitTarget({int(j): Fraction(a) for j, a in target_doc.items()})
    except (AttributeError, ValueError) as exc:
        raise ConfigError(f"bad --target: {exc}") from exc
    times = [int(t) for t in args.times.split(",") if t]
    bounds = weak_limit_discrepancy_bounds(times, target, tests, levels, args.max_depth)
    unresolved = any(lo != hi for lo, hi in bounds)
    rows = [
        {"m": str(m), "discrepancy": reports.enclosure_json(lo, hi)}
        for m, (lo, hi) in zip(times, bounds)
    ]
    body = {
        "config": _config(args, schedule=doc,
                          target={str(j): str(a) for j, a in target.items()}),
        "target": {str(j): reports.frac_json(a) for j, a in target.items()},
        "test_set": label,
        "outside_proof_window": any(outside_proof_window(p, levels) for p in tests),
        "discrepancies": rows,
    }
    _write(reports.canonical_json(body), args.out)
    if unresolved and args.strict:
        return EXIT_DEPTH
    return EXIT_OK


def cmd_cesaro(args) -> int:
    doc, levels = _levels_for(args)
    B = parse_cylinder(_load_json_arg(args.cylinder))
    value = cesaro_norm(args.k, args.l, B, levels, args.max_depth)
    body = {
        "config": _config(args, schedule=doc),
        "squared_norm": reports.frac_json(value),
    }
    _write(reports.canonical_json(body), args.out)
    return EXIT_OK


def cmd_inequality(args) -> int:
    doc, levels = _levels_for(args)
    B = parse_cylinder(_load_json_arg(args.cylinder))
    rep = check_averaging_inequality(args.R, args.L, args.r, B, levels,
                                     args.max_depth)
    body = {
        "config": _config(args, schedule=doc),
        "mu_B": reports.frac_json(rep.mu_b),
        "lhs_squared": reports.frac_json(rep.lhs_sq),
        "rhs_norm_squared": reports.frac_json(rep.rhs_norm_sq),
        "lhs_enclosure": [reports.frac_json(x) for x in rep.lhs],
        "rhs_enclosure": [reports.frac_json(x) for x in rep.rhs],
        "holds": rep.holds,
        "decided_by": rep.decided_by,
    }
    _write(reports.canonical_json(body), args.out)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    doc, levels = _levels_for(args)
    f = parse_cylinder(_load_json_arg(args.cylinder))
    seq = spectral_sequence(f, args.max_m, levels, args.max_depth)
    if args.format == "csv":
        text = reports.spectral_csv(seq, decimal=args.decimal)
    else:
        text = reports.canonical_json({
            "config": _config(args, schedule=doc),
            "values": {str(m): reports.frac_json(v) for m, v in sorted(seq.values.items())},
        })
    _write(text, args.out)
    return EXIT_OK


def cmd_poisson_mult(args) -> int:
    if args.kind == "symmetric-square":
        values = exp_multiplicities_symmetric_square(args.n_max)
    else:
        values = exp_multiplicities_identity_product(args.p, args.n_max)
    body = {
        "config": _config(args),
        "multiplicities": [str(v) for v in values],
        "note": "conditional on the simple-spectrum hypothesis for the exp operator",
    }
    _write(reports.canonical_json(body), args.out)
    return EXIT_OK


# ---------------------------------------------------------------- plumbing

def _add_common(p, max_depth=True, csv=False):
    p.add_argument("--schedule", required=True, help="path to a schedule JSON file")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--out", default="-", help="output path, '-' for stdout")
    if max_depth:
        p.add_argument("--max-depth", type=int, dest="max_depth")
        p.add_argument("--strict", action="store_true",
                       help="exit 4 when any entry is unresolved at max depth")
    if csv:
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--decimal", action="store_true",
                       help="add a 30-significant-digit decimal column to CSV output")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cfrank", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="materialize levels and report measures/growth")
    _add_common(p, max_depth=False)
    p.add_argument("--growth-threshold", default="1")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("concat", help="flatten a fragments schedule into one document")
    p.add_argument("--schedule", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_concat)

    p = sub.add_parser("scan-mixing", help="correlation decay over [h_n, 2 H_n)")
    _add_common(p, csv=True)
    p.add_argument("--stages", required=True, help="'a:b' half-open or comma list")
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--power", type=int, default=1)
    p.add_argument("--tests", default="canonical")
    p.set_defaults(fn=cmd_scan_mixing)

    p = sub.add_parser("weak-limits", help="discrepancy against a weak operator limit")
    _add_common(p)
    p.add_argument("--times", required=True, help="comma list of integer times")
    p.add_argument("--target", required=True,
                   help='JSON {"j": "alpha_j", ...} for sum_j alpha_j U^-j')
    p.add_argument("--tests", default="canonical")
    p.set_defaults(fn=cmd_weak_limits)

    p = sub.add_parser("cesaro", help="exact squared norm of a Cesaro average")
    _add_common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--cylinder", required=True)
    p.set_defaults(fn=cmd_cesaro)

    p = sub.add_parser("inequality", help="check the averaging inequality")
    _add_common(p)
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--cylinder", required=True)
    p.set_defaults(fn=cmd_inequality)

    p = sub.add_parser("spectrum", help="autocorrelation sequence of an indicator")
    _add_common(p, csv=True)
    p.add_argument("--cylinder", required=True)
    p.add_argument("--max-m", type=int, required=True, dest="max_m")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("poisson-mult", help="exp-operator multiplicity sets")
    p.add_argument("--kind", choices=("symmetric-square", "identity-product"),
                   required=True)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_poisson_mult)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    if hasattr(args, "max_depth") and args.max_depth is None:
        args.max_depth = args.depth
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"cfrank: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DepthExhausted as exc:
        lo, hi = exc.interval
        print(f"cfrank: a correlation in [{lo}, {hi}] is unresolved at max depth "
              f"{args.max_depth}; raise --max-depth", file=sys.stderr)
        return EXIT_DEPTH
    except InvalidSchedule as exc:
        print(f"cfrank: invalid schedule: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except CFRankError as exc:
        print(f"cfrank: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:
        print(f"cfrank: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
