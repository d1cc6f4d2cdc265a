"""Re-sequencing buffer: event-driven simulation and closed-form departures.
The minimal timeout is the flow's RTO; the minimal size is its RBO when the
upstream is lossless, else ``curves.backlog_bound`` over one
jitter-plus-timeout window.

The buffer holds early packets until every smaller sequence number has been
seen, releasing in increasing sequence-number order.  Each stored packet has
a timer of length T; when a timer fires, the stored packets up to that
sequence number are flushed in order.  A packet is discarded when it arrives
after a larger sequence number was already released (its timeout chance has
passed) or when storing it would exceed the capacity B.

``analytic_departures`` implements the equivalent recursion for infinite
capacity:

    D_1 = I_1,   D_n = max(G_n, I_n)
    I_n = inf            if E_n > min_{j>=n} E_j + T, else E_n
    G_n = min(D_{n-1}, T + min_{j>=n} E_j)

The simulator and the recursion must agree exactly on every trace; the test
suite drives both over random and adversarial inputs.

``simulate`` processes events in virtual time.  An arrival goes before a
timer that fires at the same instant, and timers with equal deadlines fire in
sequence-number order.  Pending timers sit in a binary heap keyed by
(deadline, seq), so an event costs O(log backlog) and a trace of n packets
O(n log n), however many packets a hole parks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Tuple

from .rational import INF, Rat, is_inf


class ArrivalError(ValueError):
    """Malformed arrival map (duplicate times, bad sizes or indices)."""


@dataclass(frozen=True)
class ResequencerConfig:
    timeout: Rat = INF
    capacity: Rat = INF

    def __post_init__(self) -> None:
        if not is_inf(self.timeout):
            object.__setattr__(self, "timeout", Fraction(self.timeout))
            if self.timeout < 0:
                raise ValueError("timeout must be >= 0")
        if not is_inf(self.capacity):
            object.__setattr__(self, "capacity", Fraction(self.capacity))
            if self.capacity < 0:
                raise ValueError("capacity must be >= 0")


INVALID_LATE = "invalid_late"
OVERFLOW = "overflow"


@dataclass(frozen=True)
class ResequencerOutcome:
    departures: Dict[int, Rat]  # inf for lost, discarded or never released
    discards: Dict[int, str]
    max_occupancy: Fraction
    max_residence: Fraction


def _normalize_arrivals(
    arrivals: Mapping[int, Tuple[Rat, Rat]]
) -> Dict[int, Tuple[Rat, Fraction]]:
    out: Dict[int, Tuple[Rat, Fraction]] = {}
    seen_times = set()
    for idx, (t, size) in arrivals.items():
        if idx < 1:
            raise ArrivalError("sequence numbers start at 1")
        size = Fraction(size)
        if size <= 0:
            raise ArrivalError("packet sizes must be > 0")
        if not is_inf(t):
            t = Fraction(t)
            if t in seen_times:
                raise ArrivalError(f"duplicate arrival time {t}")
            seen_times.add(t)
        out[idx] = (t, size)
    return out


def simulate(
    arrivals: Mapping[int, Tuple[Rat, Rat]],
    cfg: ResequencerConfig,
) -> ResequencerOutcome:
    """Run the buffer over ``{seq: (arrival_time, size)}``; a missing index or
    an inf arrival time is a packet lost upstream.

    Events are serialized in virtual time.  When a timer deadline coincides
    with an arrival instant, the arrival is processed first: a timer set to
    expire "after T seconds" has not yet fired at the instant T itself.
    Timers with equal deadlines fire in sequence-number order.

    Each stored packet pushes one (deadline, seq) entry on a heap; a packet
    released before its deadline leaves a stale entry that is dropped when it
    reaches the top.  An event therefore costs O(log backlog), and the whole
    trace O(n log n) in the number of packets n.
    """
    arr = _normalize_arrivals(arrivals)
    n_max = max(arr, default=0)
    order = sorted(
        (idx for idx, (t, _) in arr.items() if not is_inf(t)),
        key=lambda idx: arr[idx][0],
    )

    buf: Dict[int, Fraction] = {}  # seq -> size, packets waiting
    stored_at: Dict[int, Fraction] = {}
    # (deadline, seq) min-heap, one entry per stored packet when the timeout
    # is finite; an entry whose packet has left the buffer is stale.
    timers: List[Tuple[Fraction, int]] = []
    finite_timeout = not is_inf(cfg.timeout)
    next_expected = 1
    departures: Dict[int, Rat] = {idx: INF for idx in range(1, n_max + 1)}
    discards: Dict[int, str] = {}
    occupancy = Fraction(0)
    max_occupancy = Fraction(0)
    max_residence = Fraction(0)

    def release(seq: int, now: Fraction) -> None:
        nonlocal occupancy, max_residence
        departures[seq] = now
        if seq in buf:
            occupancy -= buf.pop(seq)
            residence = now - stored_at.pop(seq)
            if residence > max_residence:
                max_residence = residence

    def check_buffer(now: Fraction) -> None:
        nonlocal next_expected
        while next_expected in buf:
            seq = next_expected
            next_expected = seq + 1
            release(seq, now)

    def handle_arrival(seq: int, now: Fraction, size: Fraction) -> None:
        nonlocal next_expected, occupancy, max_occupancy
        if seq < next_expected:
            discards[seq] = INVALID_LATE
            return
        if seq > next_expected:
            if occupancy + size <= cfg.capacity:
                if finite_timeout:
                    heapq.heappush(timers, (now + cfg.timeout, seq))
                buf[seq] = size
                stored_at[seq] = now
                occupancy += size
                if occupancy > max_occupancy:
                    max_occupancy = occupancy
            else:
                discards[seq] = OVERFLOW
            return
        next_expected = seq + 1
        release(seq, now)
        check_buffer(now)

    def handle_timeout(seq: int, now: Fraction) -> None:
        nonlocal next_expected
        while next_expected <= seq:
            while next_expected not in buf:
                next_expected += 1
            released = next_expected
            next_expected = released + 1
            release(released, now)
        check_buffer(now)

    pos = 0
    while True:
        while timers and timers[0][1] not in buf:
            heapq.heappop(timers)  # the packet left before its deadline
        if pos < len(order) and (
            not timers or arr[order[pos]][0] <= timers[0][0]
        ):  # arrival wins ties
            idx = order[pos]
            pos += 1
            handle_arrival(idx, arr[idx][0], arr[idx][1])
        elif timers:
            deadline, seq = heapq.heappop(timers)
            handle_timeout(seq, deadline)
        else:
            break

    return ResequencerOutcome(departures, discards, max_occupancy, max_residence)


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
