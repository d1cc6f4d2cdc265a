"""Independent references the benchmark checks the program's outputs against.

They share no code with reseqkit's metrics: RTO is a suffix minimum over
integer nanoseconds, RBO a sorted-insert sweep, and arrival-curve conformance
a token bucket per curve piece.  The simulator is checked against the
program's own closed-form recursion, ``analytic_departures``, as the spec
of the simulator prescribes.
"""

from __future__ import annotations

import bisect
import json
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

Rat = Union[Fraction, float]  # math.inf marks a lost packet


def rto(observe: Sequence[Optional[int]]) -> int:
    """max over delivered n of E_n - min_{j >= n} E_j (lost packets: None)."""
    best = 0
    suffix_min = math.inf
    for o in reversed(observe):
        if o is None:
            continue
        suffix_min = min(suffix_min, o)
        best = max(best, o - suffix_min)
    return best


def rbo(observe: Sequence[Optional[Rat]], sizes: Sequence[Fraction]) -> Fraction:
    """max over delivered n of the bytes of later-indexed packets observed
    before n: sweep in observation order, keeping the seen indices sorted."""
    order = sorted(
        (o, i) for i, o in enumerate(observe) if o is not None and o != math.inf
    )
    seen: List[int] = []
    best = Fraction(0)
    for _, i in order:
        pos = bisect.bisect_right(seen, i)
        ahead = sum((sizes[j] for j in seen[pos:]), Fraction(0))
        best = max(best, ahead)
        seen.insert(pos, i)
    return best


def conforms(emits: Sequence[Fraction], sizes: Sequence[Fraction],
             pieces: Sequence[Tuple[Fraction, Fraction]]) -> bool:
    """Whether the emissions fit min_k(rate_k * t + burst_k): a token bucket
    per piece, starting full, must never go negative."""
    for rate, burst in pieces:
        tokens, last = burst, None
        for t, size in zip(emits, sizes):
            if last is not None:
                tokens = min(burst, tokens + rate * (t - last))
            last = t
            tokens -= size
            if tokens < 0:
                return False
    return True


def parse_number(text: str) -> Rat:
    text = text.strip()
    return math.inf if text == "inf" else Fraction(text)


def parse_key_values(out: str) -> Dict[str, Rat]:
    """``key=value`` tokens of the ``metrics`` verb, e.g. ``rto_s=0.000001``."""
    values = {}
    for line in out.splitlines():
        head = line.split(" ", 1)[0]
        if "=" in head:
            key, value = head.split("=", 1)
            values[key] = parse_number(value)
    return values


def parse_trace_csv(out: str) -> Tuple[List[Fraction], List[Fraction], List[Rat]]:
    """(sizes, emission times, observation times) of a trace CSV."""
    lines = out.strip().splitlines()
    if not lines or lines[0] != "index,size_bytes,emit_time_s,observe_time_s":
        raise ValueError("not a trace CSV")
    sizes, emits, observes = [], [], []
    for pos, line in enumerate(lines[1:], start=1):
        idx, size, emit, obs = line.split(",")
        if int(idx) != pos:
            raise ValueError(f"row {pos} has index {idx}")
        sizes.append(Fraction(size))
        emits.append(Fraction(emit))
        observes.append(parse_number(obs))
    return sizes, emits, observes


def parse_departures(out: str) -> Tuple[Dict[int, Rat], Dict[int, str], Rat]:
    blob = json.loads(out)
    departures = {int(k): parse_number(v) for k, v in blob["departures"].items()}
    discards = {int(k): v for k, v in blob["discards"].items()}
    return departures, discards, parse_number(blob["max_occupancy_bytes"])
