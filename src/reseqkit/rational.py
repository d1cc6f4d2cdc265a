"""Exact number handling: the one intake, the +inf sentinel and display.

Times (seconds) and sizes (bytes or packets) are exact: a ``Fraction`` at
every public interface, so that derived quantities are bit-exact.  Every
number enters through ``exact``, or ``finite`` where inf is no value: a
CSV cell, a JSON value, a CLI flag and a value from a library caller alike.
It takes an ``int`` or a ``Fraction``, ``math.inf`` (returned as the
``INF`` object), or a string in one literal grammar, and refuses any other
float, ``bool``, ``None`` and type.  Each record converts its fields once,
in its constructor, and code that reads a field trusts it; ``x is INF`` is
the one test of infinity.

A number takes one of two forms.  At every interface it is an exact
value: a ``Fraction``, or ``INF``.  Code that loops over packets or curve
pieces carries a column of them as ``(base, ticks)`` instead: a base D,
the least common multiple of the denominators, and each value times D as
an integer tick, INF passing through.  This module makes the base of
exact values (``on_common_base``) and of literal strings
(``read_literals``), and moves and reduces every base (``rebased``,
``reduced``).  Five kernels take the lcm of a few denominators themselves:
``MinAffineCurve.__init__``, ``curves.shift_jitter``,
``scenarios._packetize_ticks`` and the two saturating generators.  Each runs
once per curve, stage or trace on a handful of scalars, where one
``math.lcm`` costs less than ``on_common_base``'s fixed cost of building
and scaling columns.  A per-packet result stays a tick column, written out
from its ticks (``fmt_ticks``); only a scalar becomes ``Fraction(ticks,
D)``, and ``over`` maps a column for the two views that hand out ``{index:
Fraction}`` (``Trace.packets``, ``analytic_departures``).  ``fmt_rat``
keeps its own body for one value: through ``fmt_ticks`` a call costs about
half as much again, and a report renders many scalars.  ``read_literals``
reads plain decimals straight into integers and every other literal
through ``exact`` or ``finite``.  ``INF``, the lost-packet sentinel,
compares and min/maxes correctly against Fractions and integers.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from operator import mul, sub
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

#: A time or size value: an exact rational, or +inf for lost packets /
#: unbounded capacities.
Rat = Union[Fraction, float]

INF: float = math.inf

#: A value as an integer count of 1/D on some base D, or INF.
Tick = Union[int, float]

# longest first: "12ms" ends with "s" too
_TIME_SUFFIXES = (
    ("ms", Fraction(1, 10**3)),
    ("us", Fraction(1, 10**6)),
    ("µs", Fraction(1, 10**6)),
    ("μs", Fraction(1, 10**6)),
    ("ns", Fraction(1, 10**9)),
    ("s", Fraction(1)),
)

_NUMBER_RE = re.compile(
    r"^[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?$|^[+-]?\d+/\d+$"
)

#: The interpreter's limit on the digits of an ``int`` read from a string
#: (0 when there is none; Python before 3.10.7 has no limit at all).
_int_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)

#: Largest decimal exponent magnitude ``exact`` accepts in a string:
#: ``1e1000`` is a 1001-digit integer, while ``1e999999999`` would need
#: gigabytes.
MAX_EXPONENT = 1000


def exact(x: Union[Rat, int, str]) -> Rat:
    """The exact value of ``x``: the one way a number enters reseqkit.

    Takes an ``int`` or a ``Fraction``; ``math.inf``, returned as ``INF``;
    or a string: a decimal integer or fraction (``"64"``, ``"251.5"``),
    scientific notation with an exponent of at most ``MAX_EXPONENT``
    (``"125e6"``, ``"12e-6"``), ``"p/q"`` (``"3/7"``) or ``"inf"``, of at
    most as many digits as the interpreter reads into an ``int``.  Any
    other float is refused, as JSON gives no exact value for it (0.1 is
    not 1/10, and -inf and nan are no time or size), and so are ``bool``,
    ``None`` and every other type.
    """
    if x.__class__ is Fraction:
        return x
    if isinstance(x, str):
        s = x.strip()
        if s.lower() in ("inf", "+inf", "infinity"):
            return INF
        m = _NUMBER_RE.match(s)
        if not m:
            raise ValueError(f"not an exact numeric literal: {x!r}")
        exponent = m.group(3)  # "e-6", or None
        if exponent:
            # the length test first: a long run of digits is never converted
            digits = exponent[1:].lstrip("+-").lstrip("0")
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
                raise ValueError(f"exponent beyond +/-{MAX_EXPONENT}: {x!r}")
        elif "/" in s and not s.rpartition("/")[2].strip("0"):
            raise ValueError(f"zero denominator: {x!r}")
        check_digit_limit(s)
        return Fraction(s)
    if isinstance(x, float):
        if x == INF:
            return INF
    elif isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return Fraction(x)
    raise ValueError(f"not an exact number: {x!r}; give a string or an integer")


def check_digit_limit(s: str) -> None:
    """Refuse a literal with more digits than the interpreter reads into an
    ``int``, which would otherwise fail with the interpreter's own advice.

    All the digits of the literal count, so ``"1" * 3000 + "." + "1" * 3000``
    is refused although each part would fit: a trace's plain decimals are
    read as one integer of all their digits."""
    limit = _int_digit_limit()
    if limit and len(s) > limit and sum(map(str.isdecimal, s)) > limit:
        raise ValueError(f"literal beyond {limit} digits: {s[:20] + '...'!r}")


def finite(x: Union[Rat, int, str]) -> Fraction:
    """``exact`` for a quantity that must be finite: inf is refused."""
    return _finite(exact(x), x)


def parse_finite_time(text: str) -> Fraction:
    """``parse_time`` for a time that must be finite: inf is refused."""
    return _finite(parse_time(text), text)


def _finite(x: Rat, given) -> Fraction:
    if x is INF:
        raise ValueError(f"not a finite number: {given!r}")
    return x


def parse_time(text: str) -> Rat:
    """Parse a time with an optional unit suffix (s, ms, us, ns) into seconds."""
    s = text.strip()
    for suffix, scale in _TIME_SUFFIXES:
        if s.endswith(suffix):
            x = exact(s[: -len(suffix)])
            return x if x is INF else x * scale
    return exact(s)


def fmt_rat(x: Rat) -> str:
    """Render a value exactly: finite decimal when the denominator is 2^a*5^b,
    otherwise ``"p/q"``; ``inf`` for the sentinel."""
    if x is INF:
        return "inf"
    num, den = x.numerator, x.denominator
    if den == 1:
        return str(num)
    q, digits = _decimal_split(den)
    if q != 1:
        return f"{num}/{den}"
    return _fixed_point(num * 10**digits // den, digits)


def fmt_ticks(ticks: Sequence[Tick], den: int) -> List[str]:
    """``[fmt_rat(Fraction(t, den)) for t in ticks]``, INF giving ``inf``.

    ``den`` is factored once.  A value t/den is a finite decimal exactly
    when the part q of ``den`` prime to 10 divides t; it is then written as
    a fixed-point integer, trailing zeros stripped.  Any other value is
    reduced by one integer gcd.
    """
    q, digits = _decimal_split(den)
    scale = 10**digits * q // den  # 10**digits / (2^a * 5^b), exactly
    out = []
    for t in ticks:
        if t is INF:
            out.append("inf")
        elif t % q == 0:
            out.append(_shortest(t // q * scale, digits))
        else:
            g = math.gcd(t, den)
            out.append(f"{t // g}/{den // g}")
    return out


@lru_cache(maxsize=256)  # rendered values share a few denominators
def _decimal_split(den: int) -> Tuple[int, int]:
    """``den`` as q * 2^a * 5^b with q prime to 10: returns q and max(a, b),
    the decimals that write k / (2^a * 5^b) exactly."""
    twos = (den & -den).bit_length() - 1
    q, fives = den >> twos, 0
    while q % 5 == 0:
        q //= 5
        fives += 1
    return q, max(twos, fives)


def _shortest(scaled: int, digits: int) -> str:
    """``scaled / 10**digits`` with the trailing zeros of its decimals dropped."""
    text = _fixed_point(scaled, digits)
    return text.rstrip("0").rstrip(".") if digits else text


def _fixed_point(scaled: int, digits: int) -> str:
    """``scaled / 10**digits`` written out with exactly ``digits`` decimals."""
    if digits == 0:
        return str(scaled)
    sign = "-" if scaled < 0 else ""
    body = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{body[:-digits]}.{body[-digits:]}"


def _half_up(n: int, d: int) -> int:
    """``n / d`` (d > 0) rounded to an integer, ties away from zero."""
    r = (2 * abs(n) + d) // (2 * d)
    return r if n >= 0 else -r


def seconds_to_us_display(t: Rat) -> str:
    """Format seconds as microseconds, rounded half-up to 2 places."""
    if t is INF:
        return "inf"
    return _fixed_point(_half_up(t.numerator * 10**8, t.denominator), 2)


def on_common_base(*columns: Sequence[Optional[Rat]]) -> Tuple[int, List[list]]:
    """Put columns of exact values on one integer base.

    Returns D, the least common multiple of the denominators of the finite
    values, and each column with such a value replaced by the integer
    value*D; ``None`` and ``INF`` pass through.
    """
    dens = {x.denominator for col in columns for x in col
            if x is not INF and x is not None}
    den = math.lcm(*dens)
    scale = {d: den // d for d in dens}
    return den, [
        [x if x is INF or x is None else x.numerator * scale[x.denominator] for x in col]
        for col in columns
    ]


def reduced(den: int, *columns: Sequence[Tick]) -> Tuple[int, Sequence[Sequence[Tick]]]:
    """``den`` and the tick ``columns`` on it divided by their gcd: the least
    base that holds every value, and the columns on it; INF passes through.
    Columns already on their least base come back as given."""
    if den == 1:  # the least base of any integers
        return den, columns
    try:
        g = math.gcd(den, *(columns[0] if len(columns) == 1 else chain(*columns)))
    except TypeError:  # INF, a float, among the ticks
        g = math.gcd(den, *[t for column in columns for t in column if t is not INF])
    if g == 1:
        return den, columns
    return den // g, [[t if t is INF else t // g for t in column] for column in columns]


def rebased(*columns: Tuple[int, Sequence[Tick]]) -> Tuple[int, List[Sequence[Tick]]]:
    """Tick columns, each given as ``(base, ticks)``, moved to D, the least
    common multiple of their bases: returns D and each column as ticks on D,
    a column already on D as given; INF passes through."""
    den = math.lcm(*[d for d, _ in columns])
    out = []
    for d, ticks in columns:
        if d != den:
            k = den // d
            ticks = [t if t is INF else t * k for t in ticks]
        out.append(ticks)
    return den, out


def over(ticks: Mapping[int, Tick], den: int) -> Dict[int, Rat]:
    """``{k: Fraction(t, den)}`` for integer tick counts ``t`` on base
    ``den``; INF stays INF, and equal counts share one Fraction."""
    made: Dict[Tick, Rat] = {INF: INF}
    out: Dict[int, Rat] = {}
    for k, t in ticks.items():
        f = made.get(t)
        if f is None:
            f = made[t] = Fraction(t, den)
        out[k] = f
    return out


#: A plain decimal: digits, with a point between digits or none
#: (``"64"``, ``"0.000012345"``; not ``".5"``, ``"5."`` or ``"+5"``).
_PLAIN = re.compile(r"\d+(?:\.\d+)?")


def read_literals(cells: Sequence[str],
                  parse: Callable[[str], Rat]) -> Tuple[int, List[Tick]]:
    """Stripped literal strings as ``(base, ticks)``, ``parse`` being
    ``exact`` or ``finite``, read in a few passes over all of them.

    A plain decimal with d decimals is read straight into an integer over
    10**d, trailing zeros and all (``"1.500"`` is 1500/10**3); only the
    other cells are parsed one by one, with ``parse``'s checks and
    messages.  The base is the least common multiple of 10**d, d the most
    decimals of a plain cell, and the denominators of the other cells; INF
    passes through.
    """
    if not cells:
        return 1, []
    joined = "\n".join(cells)
    first = cells[0]
    d = len(first) - first.find(".") - 1 if "." in first else 0
    cell = rf"[0-9]+\.[0-9]{{{d}}}" if d else "[0-9]+"  # ASCII, d decimals
    if (joined.count("\n") == len(cells) - 1  # no cell holds a line break
            and re.fullmatch(rf"{cell}(?:\n{cell})*", joined)):  # the usual capture
        digits = joined.replace(".", "").split("\n") if d else cells
        return 10**d, list(map(int, digits))
    others = {i: parse(c) for i, c in enumerate(cells) if not _PLAIN.fullmatch(c)}
    if others:
        cells = list(cells)
        for i in others:
            cells[i] = "0"
        joined = "\n".join(cells)
    points = list(map(str.find, cells, repeat(".")))
    ends = list(map(sub, map(len, cells), points))  # decimals + 1 where there is a point
    if -1 in points:  # whole numbers among decimals
        ends = [e if p >= 0 else 1 for e, p in zip(ends, points)]
    d = max(ends) - 1
    den = math.lcm(10**d, *{x.denominator for x in others.values() if x is not INF})
    scale = [10 ** (d + 1 - e) * (den // 10**d) for e in range(d + 2)]
    ticks = list(map(mul, map(int, joined.replace(".", "").split("\n")),
                     map(scale.__getitem__, ends)))
    for i, x in others.items():
        ticks[i] = x if x is INF else x.numerator * (den // x.denominator)
    return den, ticks
