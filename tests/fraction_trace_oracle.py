"""Reference copy of the trace-side metrics on ``Fraction`` values.

These are ``reseqkit.metrics``' ``Trace`` validation, ``rto``, ``rbo``,
``delay_jitter`` and ``trace_from_csv``, and ``reseqkit.resequencer``'s
``analytic_departures``, as they were before traces moved to integer ticks
over a common denominator, kept verbatim as a differential oracle.  Every
value is a ``Fraction`` and every packet a ``PacketObservation`` built by
``record``, which checks and coerces its values as the record itself once
did, so the arithmetic is checked by an independent representation.
``rto`` and ``rbo`` return ``(value, {index: offset})`` over the delivered
packets, which the tests compare with the library's tick columns read the
same way (``tick_columns.offsets``).  Only the tests use them.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from reseqkit.metrics import (
    CSV_HEADER,
    DelayJitter,
    DuplicateObservationError,
    PacketObservation,
    TraceError,
)
from reseqkit.rational import INF, Rat, exact, finite
from reseqkit.resequencer import ArrivalError

#: A flow's offset and each delivered packet's, ``(value, {index: offset})``.
Offsets = Tuple[Fraction, Dict[int, Fraction]]


def is_inf(x: Rat) -> bool:
    """Whether x is +/-inf: this oracle's own test, apart from the code it checks."""
    return isinstance(x, float) and math.isinf(x)


def record(index: int, size: Rat, emit_time: Optional[Rat],
           observe_time: Rat) -> PacketObservation:
    """A ``PacketObservation`` of exact values, refused like a CSV row."""
    if index < 1:
        raise TraceError("packet indices start at 1")
    size = Fraction(size)
    if size <= 0:
        raise TraceError("packet sizes must be > 0")
    if emit_time is not None:
        emit_time = Fraction(emit_time)
    if not is_inf(observe_time):
        observe_time = Fraction(observe_time)
    return PacketObservation(index, size, emit_time, observe_time)


@dataclass(frozen=True)
class Trace:
    packets: Tuple[PacketObservation, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "packets", tuple(self.packets))
        for pos, p in enumerate(self.packets, start=1):
            if p.index != pos:
                raise TraceError("packet indices must be contiguous from 1")
        emits = [p.emit_time for p in self.packets]
        if any(e is not None for e in emits) and any(e is None for e in emits):
            raise TraceError("emission times must be present for all packets or none")
        if all(e is not None for e in emits):
            for a, b in zip(emits, emits[1:]):
                if a > b:
                    raise TraceError("emission times must be wide-sense increasing")
            for p in self.packets:
                if not p.lost and p.emit_time > p.observe_time:
                    raise TraceError("observation before emission")
        _check_distinct_observations(self.packets)

    @property
    def has_emit_times(self) -> bool:
        return bool(self.packets) and self.packets[0].emit_time is not None


def _check_distinct_observations(packets: Sequence[PacketObservation]) -> None:
    seen: Dict[Fraction, int] = {}
    for p in packets:
        if p.lost:
            continue
        other = seen.get(p.observe_time)
        if other is not None:
            raise DuplicateObservationError(
                f"packets {other} and {p.index} observed at the same instant; "
                "tie-break the timestamps explicitly"
            )
        seen[p.observe_time] = p.index


def rto(trace: Trace) -> Offsets:
    """Reordering late time offset of the flow and of each delivered packet.

    Because index n itself belongs to {j >= n}, the suffix minimum of the
    observation times gives lambda_n directly; one backward pass suffices.
    """
    packets = trace.packets
    per: Dict[int, Fraction] = {}
    suffix_min: Rat = INF
    for p in reversed(packets):
        suffix_min = min(suffix_min, p.observe_time)
        if not p.lost:
            per[p.index] = p.observe_time - suffix_min
    value = max(per.values(), default=Fraction(0))
    return Fraction(value), dict(sorted(per.items()))


def rbo(trace: Trace) -> Offsets:
    """Reordering byte offset: per delivered packet, the bytes of
    later-indexed packets observed strictly earlier.

    Packets are swept in observation order while a Fenwick tree accumulates
    sizes by index, so each pi_n is a suffix sum over already-seen packets.
    """
    packets = trace.packets
    n = len(packets)
    tree = _Fenwick(n)
    per: Dict[int, Fraction] = {}
    for p in sorted((p for p in packets if not p.lost), key=lambda p: p.observe_time):
        per[p.index] = tree.suffix_sum(p.index + 1)
        tree.add(p.index, p.size)
    value = max(per.values(), default=Fraction(0))
    return Fraction(value), dict(sorted(per.items()))


class _Fenwick:
    """Prefix sums over packet indices, exact Fraction arithmetic."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.data = [Fraction(0)] * (n + 1)
        self.total = Fraction(0)

    def add(self, i: int, v: Fraction) -> None:
        self.total += v
        while i <= self.n:
            self.data[i] += v
            i += i & (-i)

    def prefix_sum(self, i: int) -> Fraction:
        s = Fraction(0)
        while i > 0:
            s += self.data[i]
            i -= i & (-i)
        return s

    def suffix_sum(self, i: int) -> Fraction:
        if i > self.n:
            return Fraction(0)
        return self.total - self.prefix_sum(i - 1)


def delay_jitter(trace: Trace) -> DelayJitter:
    """Worst/best delay and jitter over delivered packets (lost ones excluded)."""
    if not trace.has_emit_times:
        raise TraceError("delay metrics need emission times")
    delays = [p.observe_time - p.emit_time for p in trace.packets if not p.lost]
    if not delays:
        raise TraceError("all packets lost; delay metrics undefined")
    d_max, d_min = max(delays), min(delays)
    return DelayJitter(d_max, d_min, d_max - d_min)


def trace_from_csv(text: str) -> Trace:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or [h.strip() for h in rows[0]] != CSV_HEADER:
        raise TraceError(f"trace CSV must start with header {','.join(CSV_HEADER)}")
    packets: List[PacketObservation] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 4:
            raise TraceError(f"line {lineno}: expected 4 columns")
        idx, size, emit, obs = (c.strip() for c in row)
        if not (idx.isascii() and idx.isdigit()):
            raise ValueError(f"not a packet index: {idx!r}")
        packets.append(
            record(
                index=int(idx),
                size=finite(size),
                emit_time=None if emit == "-" else finite(emit),
                observe_time=exact(obs),
            )
        )
    return Trace(tuple(packets))


def analytic_departures(
    arrivals: Mapping[int, Rat], timeout: Rat
) -> Dict[int, Rat]:
    """Closed-form departure times for an infinite-capacity buffer.

    ``arrivals`` maps sequence numbers to observation times (inf or missing
    for lost packets).  Returns D_n for every n up to the largest index.
    """
    n_max = max(arrivals, default=0)
    e = [INF] * (n_max + 2)
    for idx, t in arrivals.items():
        if idx < 1:
            raise ArrivalError("sequence numbers start at 1")
        e[idx] = t if is_inf(t) else Fraction(t)
    suffix_min: list = [INF] * (n_max + 2)
    for n in range(n_max, 0, -1):
        suffix_min[n] = min(e[n], suffix_min[n + 1])

    out: Dict[int, Rat] = {}
    prev_d: Rat = INF
    for n in range(1, n_max + 1):
        if is_inf(e[n]):
            i_n: Rat = INF
        elif e[n] > suffix_min[n] + timeout:
            i_n = INF
        else:
            i_n = e[n]
        if n == 1:
            d_n = i_n
        else:
            g_n = min(prev_d, timeout + suffix_min[n])
            d_n = max(g_n, i_n)
        out[n] = d_n
        prev_d = d_n
    return out
