"""Exact number handling: rationals, the +inf sentinel, parsing and display.

All times (seconds) and sizes (bytes or packets) are carried as
``fractions.Fraction`` so that derived quantities are bit-exact.  Lost-packet
times use ``math.inf`` as an explicit sentinel; it compares and min/maxes
correctly against Fractions, and any sum involving it is again ``inf``.
Floats never appear anywhere else.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union

#: A time or size value: an exact rational, or +inf for lost packets /
#: unbounded capacities.
Rat = Union[Fraction, float]

INF: float = math.inf


def is_inf(x: Rat) -> bool:
    return isinstance(x, float) and math.isinf(x)


_TIME_SUFFIXES = {
    "s": Fraction(1),
    "ms": Fraction(1, 10**3),
    "us": Fraction(1, 10**6),
    "µs": Fraction(1, 10**6),
    "μs": Fraction(1, 10**6),
    "ns": Fraction(1, 10**9),
}

_NUMBER_RE = re.compile(
    r"^[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?$|^[+-]?\d+/\d+$"
)


def parse_rat(text: Union[str, int]) -> Rat:
    """Parse a numeric string, or an integer, into an exact value.

    Accepted forms: plain/decimal integers (``"64"``, ``"251.5"``),
    scientific notation (``"125e6"``, ``"12e-6"``), explicit fractions
    (``"3/7"``), ``"inf"`` and ints.  Floats are refused: JSON gives no
    exact value for them.
    """
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise ValueError(f"not an exact number: {text!r}; give a string or an integer")
    s = text.strip()
    if s.lower() in ("inf", "+inf", "infinity"):
        return INF
    if not _NUMBER_RE.match(s):
        raise ValueError(f"not an exact numeric literal: {text!r}")
    return Fraction(s)


def parse_time(text: str) -> Rat:
    """Parse a time with an optional unit suffix (s, ms, us, ns) into seconds."""
    s = text.strip()
    if s.lower() in ("inf", "+inf", "infinity"):
        return INF
    for suffix, scale in sorted(_TIME_SUFFIXES.items(), key=lambda kv: -len(kv[0])):
        if s.endswith(suffix):
            return parse_rat(s[: -len(suffix)]) * scale
    return parse_rat(s)


def fmt_rat(x: Rat) -> str:
    """Render a value exactly: finite decimal when the denominator is 2^a*5^b,
    otherwise ``"p/q"``; ``inf`` for the sentinel."""
    if is_inf(x):
        return "inf"
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    den = f.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{f.numerator}/{f.denominator}"
    digits = max(twos, fives)
    scaled = f.numerator * 10**digits // f.denominator
    sign = "-" if scaled < 0 else ""
    body = str(abs(scaled)).rjust(digits + 1, "0")
    head, tail = body[:-digits], body[-digits:]
    return f"{sign}{head}.{tail}"


def round_half_up(x: Fraction, digits: int) -> Fraction:
    """Round to ``digits`` decimal places, ties away from zero going up."""
    q = Fraction(10) ** digits
    scaled = x * q
    n, d = scaled.numerator, scaled.denominator
    if n >= 0:
        rounded = (2 * n + d) // (2 * d)
    else:
        rounded = -((-2 * n + d) // (2 * d))
    return Fraction(rounded, 1) / q


def floor_int(x: Rat) -> int:
    """Floor to an integer; used for byte displays."""
    if is_inf(x):
        raise ValueError("cannot floor inf")
    return math.floor(Fraction(x))


def seconds_to_us_display(t: Rat, digits: int = 2) -> str:
    """Format seconds as microseconds, rounded half-up to ``digits`` places."""
    if is_inf(t):
        return "inf"
    us = Fraction(t) * 10**6
    r = round_half_up(us, digits)
    return f"{float(r):.{digits}f}"
