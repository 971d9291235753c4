"""Canonical report serialization.

Everything downstream (golden tests, diffing, re-run checks) relies on
byte-identical output, so: exact integers as decimal strings, rationals as
numerator/denominator pairs, sorted keys, fixed separators, '\n' newlines,
and no timestamps or machine info.  Decimal rendering is opt-in and fixed
at 30 significant digits.
"""

from __future__ import annotations

import dataclasses
import json
from decimal import Decimal, getcontext
from fractions import Fraction

from .sequences import digits

DECIMAL_DIGITS = 30


def frac_json(x: Fraction) -> dict:
    return {"numerator": digits(x.numerator), "denominator": digits(x.denominator)}


def frac_decimal(x: Fraction) -> str:
    ctx = getcontext().copy()
    ctx.prec = DECIMAL_DIGITS
    return str(ctx.divide(Decimal(x.numerator), Decimal(x.denominator)))


def enclosure_json(lo: Fraction, hi: Fraction) -> dict:
    """An enclosure [lo, hi] as its exact lower end plus the residual hi - lo."""
    return {"value": frac_json(lo), "residual": frac_json(hi - lo)}


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def report_json(report) -> dict:
    """A report dataclass under its field names: Fractions as frac_json, tuples as lists."""
    return {f.name: _json_value(getattr(report, f.name)) for f in dataclasses.fields(report)}


def _json_value(v):
    if isinstance(v, Fraction):
        return frac_json(v)
    if isinstance(v, tuple):
        return [_json_value(x) for x in v]
    return v


def decay_report_json(report) -> dict:
    return {
        "power": report.power,
        "test_set": report.test_set,
        "samples_per_stage": report.samples_per_stage,
        "stages": [
            {
                "stage": s.stage,
                "interval": [digits(s.interval[0]), digits(s.interval[1])],
                "entries": [
                    {"m": digits(m), **enclosure_json(lo, hi)}
                    for m, (lo, hi) in zip(s.times, s.values)
                ],
                "max_lower": frac_json(s.max_lower),
                "max_upper": frac_json(s.max_upper),
            }
            for s in report.stages
        ],
    }


def csv_text(header: list[str], rows, decimal: bool) -> str:
    """One line per (cells, value) row; `decimal` appends frac_decimal(value)."""
    lines = [",".join(header + ["decimal"] if decimal else header)]
    for cells, value in rows:
        line = ",".join(map(digits, cells))
        lines.append(f"{line},{frac_decimal(value)}" if decimal else line)
    return "\n".join(lines) + "\n"


def decay_report_csv(report, decimal: bool = False) -> str:
    header = ["stage", "m", "numerator", "denominator",
              "residual_numerator", "residual_denominator"]
    rows = []
    for s in report.stages:
        for m, (lo, hi) in zip(s.times, s.values):
            res = hi - lo
            cells = (s.stage, m, lo.numerator, lo.denominator, res.numerator, res.denominator)
            rows.append((cells, lo))
    return csv_text(header, rows, decimal)


def spectral_csv(seq, decimal: bool = False) -> str:
    rows = (((m, v.numerator, v.denominator), v) for m, v in sorted(seq.values.items()))
    return csv_text(["m", "numerator", "denominator"], rows, decimal)
