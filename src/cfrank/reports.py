"""Canonical report serialization.

Everything downstream (golden tests, diffing, re-run checks) relies on
byte-identical output, so: exact integers as decimal strings, rationals as
numerator/denominator pairs, sorted keys, fixed separators, '\n' newlines,
and no timestamps or machine info.  Decimal rendering is opt-in and fixed
at 30 significant digits.
"""

from __future__ import annotations

import json
from decimal import Decimal, getcontext
from fractions import Fraction

DECIMAL_DIGITS = 30


def frac_json(x: Fraction) -> dict:
    return {"numerator": str(x.numerator), "denominator": str(x.denominator)}


def frac_decimal(x: Fraction) -> str:
    ctx = getcontext().copy()
    ctx.prec = DECIMAL_DIGITS
    return str(ctx.divide(Decimal(x.numerator), Decimal(x.denominator)))


def enclosure_json(lo: Fraction, hi: Fraction) -> dict:
    """An enclosure [lo, hi] as its exact lower end plus the residual hi - lo."""
    return {"value": frac_json(lo), "residual": frac_json(hi - lo)}


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def csv_lines(header: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def growth_report_json(report) -> dict:
    return {
        "stages": list(report.stages),
        "g": [frac_json(x) for x in report.g],
        "ratio_h_stages": list(report.ratio_h_stages),
        "ratio_h": [frac_json(x) for x in report.ratio_h],
        "threshold": frac_json(report.threshold),
        "verdict": report.verdict,
        "note": report.note,
    }


def measure_report_json(report) -> dict:
    return {
        "mu": [frac_json(x) for x in report.mu],
        "level_measure": [frac_json(x) for x in report.level_measure],
        "partial_sums": [frac_json(x) for x in report.partial_sums],
        "increments": [frac_json(x) for x in report.increments],
        "verdict": report.verdict,
    }


def decay_report_json(report) -> dict:
    return {
        "power": report.power,
        "test_set": report.test_set,
        "samples_per_stage": report.samples_per_stage,
        "stages": [
            {
                "stage": s.stage,
                "interval": [str(s.interval[0]), str(s.interval[1])],
                "entries": [
                    {"m": str(m), **enclosure_json(lo, hi)}
                    for m, (lo, hi) in zip(s.times, s.values)
                ],
                "max_lower": frac_json(s.max_lower),
                "max_upper": frac_json(s.max_upper),
            }
            for s in report.stages
        ],
    }


def decay_report_csv(report, decimal: bool = False) -> str:
    header = ["stage", "m", "numerator", "denominator",
              "residual_numerator", "residual_denominator"]
    if decimal:
        header.append("decimal")
    rows = []
    for s in report.stages:
        for m, (lo, hi) in zip(s.times, s.values):
            res = hi - lo
            row = [str(s.stage), str(m), str(lo.numerator), str(lo.denominator),
                   str(res.numerator), str(res.denominator)]
            if decimal:
                row.append(frac_decimal(lo))
            rows.append(row)
    return csv_lines(header, rows)


def spectral_csv(seq, decimal: bool = False) -> str:
    header = ["m", "numerator", "denominator"]
    if decimal:
        header.append("decimal")
    ms = sorted(seq.values)
    rows = []
    for m in ms:
        v = seq.values[m]
        row = [str(m), str(v.numerator), str(v.denominator)]
        if decimal:
            row.append(frac_decimal(v))
        rows.append(row)
    return csv_lines(header, rows)
