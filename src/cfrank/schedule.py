"""Schedules: the generating data of a cut-and-stack construction.

A schedule fixes the initial height h0 and, per stage n, the number of
cuts r_n >= 2, the flat spacer layer height z_n >= 0, and optionally a
partially-high prefix width d_n (0 <= d_n <= r_n) with explicit offsets
for the first d_n subtowers.  d_n = 0 is the plain high staircase; z = 0
on top of that is the pure staircase.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import IntegerTooLong, InvalidSchedule
from .sequences import (SequenceSpec, const, digits, explicit, parse_int, spec_from_json,
                        spec_to_json)

# Cap on the sum of a fragments list's stopping times, checked before any
# fragment is laid out.  Schedule("min", 1, const(2), const(0)) grows the
# slowest of all schedules, and towers.MAX_TOWER_BITS lets it build to depth
# 5,792 and refuses 5,793, so a fragment starting past the cap is never built.
MAX_STOPPING_TIME = 1 << 13


@dataclass(frozen=True)
class Schedule:
    name: str
    h0: int
    r: SequenceSpec
    z: SequenceSpec
    d: SequenceSpec | None = None
    # stage -> explicit offsets c(1..min(d_n, r_n - 1)), strictly increasing
    prefix_offsets: Mapping[int, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if self.h0 < 1:
            raise InvalidSchedule(f"h0 must be >= 1, got {self.h0}")
        frozen = {int(k): tuple(int(x) for x in v) for k, v in dict(self.prefix_offsets).items()}
        object.__setattr__(self, "prefix_offsets", frozen)

    def d_at(self, n: int) -> int:
        return 0 if self.d is None else self.d.at(n)


def concatenate(fragments: Sequence[tuple[Schedule, int]]) -> Schedule:
    """Lay fragment stage parameters end to end.

    Fragment n+1 starts from the tower that fragment n reached at its
    stopping time, so any h0 declared by a later fragment is ignored; the
    compatibility of heights is forced by running the recurrence through
    the combined parameter list.  Beyond the last stopping time the
    resulting schedule keeps following the last fragment's sequences.
    """
    fragments = list(fragments)
    if not fragments:
        raise InvalidSchedule("need at least one (schedule, stopping_time) fragment")
    r_vals: list[int] = []
    z_vals: list[int] = []
    d_vals: list[int] = []
    prefix: dict[int, tuple[int, ...]] = {}
    offset = 0
    for sched, k in fragments:
        if k < 1:
            raise InvalidSchedule(f"stopping time must be >= 1, got {k}")
        if offset + k > MAX_STOPPING_TIME:
            raise InvalidSchedule(f"stopping times add up to {offset + k}, past the cap "
                                  f"of {MAX_STOPPING_TIME}")
        r_vals.extend(sched.r.prefix(k))
        z_vals.extend(sched.z.prefix(k))
        d_vals.extend(sched.d.prefix(k) if sched.d is not None else [0] * k)
        for stage, offs in sched.prefix_offsets.items():
            if stage < k:
                prefix[offset + stage] = offs
        offset += k
    last, k_last = fragments[-1]
    r = explicit(r_vals, tail=last.r.shift(k_last))
    z = explicit(z_vals, tail=last.z.shift(k_last))
    d_tail = last.d.shift(k_last) if last.d is not None else const(0)
    d = explicit(d_vals, tail=d_tail) if (any(d_vals) or last.d is not None) else None
    name = "+".join(s.name for s, _ in fragments)
    return Schedule(name=name, h0=fragments[0][0].h0, r=r, z=z, d=d, prefix_offsets=prefix)


def schedule_to_json(sched: Schedule) -> dict:
    doc = {
        "name": sched.name,
        "h0": digits(sched.h0),
        "r": spec_to_json(sched.r),
        "z": spec_to_json(sched.z),
    }
    if sched.d is not None:
        doc["d"] = spec_to_json(sched.d)
    if sched.prefix_offsets:
        doc["prefix_offsets"] = {
            digits(stage): [digits(c) for c in offs]
            for stage, offs in sorted(sched.prefix_offsets.items())
        }
    return doc


def schedule_from_json(doc: dict) -> Schedule:
    """Parse a schedule document; a 'fragments' list concatenates in place.

    A document of the wrong shape raises InvalidSchedule; an integer field
    longer than the interpreter converts raises IntegerTooLong.
    """
    if not isinstance(doc, dict):
        raise InvalidSchedule("schedule document must be a JSON object")
    try:
        return _schedule_from_dict(doc)
    except IntegerTooLong:
        raise
    except (ArithmeticError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidSchedule(f"malformed schedule document: {exc}") from exc


def _schedule_from_dict(doc: dict) -> Schedule:
    if "fragments" in doc:
        frags = []
        for entry in doc["fragments"]:
            entry = dict(entry)
            stop = parse_int(entry.pop("stopping_time"))
            frags.append((schedule_from_json(entry), stop))
        out = concatenate(frags)
        if "name" in doc:
            out = Schedule(
                name=str(doc["name"]), h0=out.h0, r=out.r, z=out.z, d=out.d,
                prefix_offsets=out.prefix_offsets,
            )
        return out
    name = str(doc.get("name", "schedule"))
    h0 = parse_int(doc["h0"])
    r = spec_from_json(doc["r"])
    z = spec_from_json(doc["z"])
    d = spec_from_json(doc["d"]) if doc.get("d") is not None else None
    prefix = {}
    for stage, offs in (doc.get("prefix_offsets") or {}).items():
        prefix[parse_int(stage)] = tuple(parse_int(c) for c in offs)
    return Schedule(name=name, h0=h0, r=r, z=z, d=d, prefix_offsets=prefix)


def load_schedule(path: str) -> Schedule:
    with open(path, "r", encoding="utf-8") as fh:
        return schedule_from_json(json.load(fh, parse_int=parse_int))
