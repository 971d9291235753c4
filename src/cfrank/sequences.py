"""Declarative integer sequence specs.

Schedules are serializable, so stage parameters (cuts, spacer heights,
prefix widths) are restricted to four closed forms: constant, affine,
geometric, and an explicit list with a declared tail rule.  All four forms
are closed under shifting the index, which is what makes concatenated
schedules expressible in the same vocabulary.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import IntegerTooLong, InvalidSchedule

_KINDS = ("const", "affine", "geometric", "list")


@dataclass(frozen=True)
class SequenceSpec:
    """A total function n -> integer for n >= 0, in one of four closed forms.

    const:     a
    affine:    a + b*n
    geometric: a * b**n
    list:      values[n] while it lasts, then tail evaluated at n - len(values)
    """

    kind: str
    a: int = 0
    b: int = 0
    values: tuple[int, ...] = ()
    tail: "SequenceSpec | None" = field(default=None)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidSchedule(f"unknown sequence kind {self.kind!r}")
        if self.kind == "geometric" and (self.a < 0 or self.b < 1):
            raise InvalidSchedule("geometric spec needs a >= 0 and ratio >= 1")
        if self.kind == "list":
            if not self.values:
                raise InvalidSchedule("list spec needs at least one value")
            if self.tail is None:
                # default tail rule: hold the last value
                object.__setattr__(self, "tail", SequenceSpec("const", a=self.values[-1]))

    def at(self, n: int) -> int:
        if n < 0:
            raise InvalidSchedule(f"sequence index must be >= 0, got {n}")
        if self.kind == "const":
            return self.a
        if self.kind == "affine":
            return self.a + self.b * n
        if self.kind == "geometric":
            return self.a * self.b**n
        if n < len(self.values):
            return self.values[n]
        return self.tail.at(n - len(self.values))

    def shift(self, k: int) -> "SequenceSpec":
        """The sequence m -> self.at(m + k), expressed in the same four forms."""
        if k < 0:
            raise InvalidSchedule("shift must be >= 0")
        if k == 0:
            return self
        if self.kind == "const":
            return self
        if self.kind == "affine":
            return SequenceSpec("affine", a=self.a + self.b * k, b=self.b)
        if self.kind == "geometric":
            return SequenceSpec("geometric", a=self.a * self.b**k, b=self.b)
        if k < len(self.values):
            return SequenceSpec("list", values=self.values[k:], tail=self.tail)
        return self.tail.shift(k - len(self.values))

    def prefix(self, count: int) -> tuple[int, ...]:
        return tuple(self.at(n) for n in range(count))


def const(value: int) -> SequenceSpec:
    return SequenceSpec("const", a=value)


def affine(base: int, step: int) -> SequenceSpec:
    return SequenceSpec("affine", a=base, b=step)


def geometric(base: int, ratio: int) -> SequenceSpec:
    return SequenceSpec("geometric", a=base, b=ratio)


def explicit(values, tail: SequenceSpec | None = None) -> SequenceSpec:
    return SequenceSpec("list", values=tuple(int(v) for v in values), tail=tail)


def spec_to_json(spec: SequenceSpec) -> dict:
    """JSON form; exact integers go out as decimal strings."""
    if spec.kind == "const":
        return {"kind": "const", "value": digits(spec.a)}
    if spec.kind == "affine":
        return {"kind": "affine", "base": digits(spec.a), "step": digits(spec.b)}
    if spec.kind == "geometric":
        return {"kind": "geometric", "base": digits(spec.a), "ratio": digits(spec.b)}
    return {
        "kind": "list",
        "values": [digits(v) for v in spec.values],
        "tail": spec_to_json(spec.tail),
    }


def parse_int(x) -> int:
    """int(x), or IntegerTooLong for a string past sys.get_int_max_str_digits()."""
    try:
        return int(x)
    except ValueError:
        limit, size = sys.get_int_max_str_digits(), sum(ch.isdecimal() for ch in str(x))
        if 0 < limit < size:
            raise IntegerTooLong(f"an input integer has {size} digits, more than the "
                                 f"interpreter's limit of {limit} digits") from None
        raise


def digits(n: int) -> str:
    """n as a decimal string, or IntegerTooLong past sys.get_int_max_str_digits()."""
    try:
        return str(n)
    except ValueError:  # the only ValueError int -> str raises
        raise IntegerTooLong(
            "the report would need an integer longer than the interpreter's limit of "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None


def printable(values: Iterable[int]) -> Iterator[int]:
    """The values, each checked before the next is computed: the first past
    the digit limit raises IntegerTooLong (none when the limit is 0)."""
    bound = 10 ** sys.get_int_max_str_digits()  # 1 when there is no limit
    for v in values:
        if abs(v) >= bound > 1:
            digits(v)  # more digits than the limit: raises
        yield v


def spec_from_json(doc) -> SequenceSpec:
    if isinstance(doc, (int, str)):
        # shorthand: a bare number means a constant sequence
        return const(parse_int(doc))
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InvalidSchedule(f"bad sequence spec: {doc!r}")
    kind = doc["kind"]
    if kind == "const":
        return const(parse_int(doc["value"]))
    if kind == "affine":
        return affine(parse_int(doc["base"]), parse_int(doc.get("step", 0)))
    if kind == "geometric":
        return geometric(parse_int(doc["base"]), parse_int(doc["ratio"]))
    if kind == "list":
        tail = spec_from_json(doc["tail"]) if doc.get("tail") is not None else None
        return explicit([parse_int(v) for v in doc["values"]], tail=tail)
    raise InvalidSchedule(f"unknown sequence kind {kind!r}")
