"""Per-flow reordering metrics measured on packet traces.

A trace records, per packet index n (the sequence number stamped at the
source), the size, the emission time A_n and the observation time E_n at the
measurement point (inf when the packet was lost in between).  From it we
compute:

* the late time offset of packet n, ``lambda_n = E_n - min_{j>=n} E_j``:
  how long the worst later-numbered packet has already been ahead of n,
* the byte offset ``pi_n = sum of l_j over j > n with E_j < E_n``:
  how many bytes of later-numbered packets are already through when n shows
  up,
* worst/best delay and jitter over delivered packets.

Flow-level RTO / RBO are the maxima over the delivered packets.  Offsets of
lost packets are undefined and excluded throughout.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .curves import FlowSpec
from .rational import INF, Rat, fmt_rat, is_inf, parse_rat

CSV_HEADER = ["index", "size_bytes", "emit_time_s", "observe_time_s"]


class TraceError(ValueError):
    """Malformed trace (indices, ordering, causality)."""


class DuplicateObservationError(TraceError):
    """Two packets share a finite observation time; the caller must break ties."""


@dataclass(frozen=True)
class PacketObservation:
    index: int
    size: Fraction
    emit_time: Optional[Fraction]
    observe_time: Rat  # Fraction, or INF when lost

    def __post_init__(self) -> None:
        if self.index < 1:
            raise TraceError("packet indices start at 1")
        object.__setattr__(self, "size", Fraction(self.size))
        if self.size <= 0:
            raise TraceError("packet sizes must be > 0")
        if self.emit_time is not None:
            object.__setattr__(self, "emit_time", Fraction(self.emit_time))
        if not is_inf(self.observe_time):
            object.__setattr__(self, "observe_time", Fraction(self.observe_time))

    @property
    def lost(self) -> bool:
        return is_inf(self.observe_time)


@dataclass(frozen=True)
class Trace:
    packets: Tuple[PacketObservation, ...]
    flow: Optional[FlowSpec] = None

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
        if self.flow is not None:
            for p in self.packets:
                if not self.flow.l_min <= p.size <= self.flow.l_max:
                    raise TraceError(
                        f"packet {p.index} size {p.size} outside "
                        f"[{self.flow.l_min}, {self.flow.l_max}]"
                    )
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


@dataclass(frozen=True)
class OffsetResult:
    """Flow-level offset (RTO or RBO) and the offset of each delivered packet."""

    value: Fraction
    per_packet: Dict[int, Fraction]


@dataclass(frozen=True)
class DelayJitter:
    d_max: Fraction
    d_min: Fraction
    jitter: Fraction


def rto(trace: Trace) -> OffsetResult:
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
    return OffsetResult(Fraction(value), dict(sorted(per.items())))


def rbo(trace: Trace) -> OffsetResult:
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
    return OffsetResult(Fraction(value), dict(sorted(per.items())))


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


def trace_to_csv(trace: Trace) -> str:
    """Serialize to the one-row-per-packet CSV format (exact numeric strings)."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for p in trace.packets:
        w.writerow(
            [
                p.index,
                fmt_rat(p.size),
                "-" if p.emit_time is None else fmt_rat(p.emit_time),
                fmt_rat(p.observe_time),
            ]
        )
    return buf.getvalue()


def trace_from_csv(text: str, flow: Optional[FlowSpec] = None) -> Trace:
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
        packets.append(
            PacketObservation(
                index=int(idx),
                size=Fraction(parse_rat(size)),
                emit_time=None if emit == "-" else Fraction(parse_rat(emit)),
                observe_time=parse_rat(obs),
            )
        )
    return Trace(tuple(packets), flow)
