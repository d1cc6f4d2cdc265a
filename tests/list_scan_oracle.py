"""Reference copy of the list-scan re-sequencer simulator.

This is ``reseqkit.resequencer.simulate`` as it was before its timers moved
to a heap (they are now a queue in arrival order), kept verbatim as a
differential oracle.  Every event rebuilds the list of pending deadlines
and takes its minimum, so the next timer is chosen by an independent
method, at O(backlog) per event.  It also keeps its own
copy of the ``Fraction`` arrival checks that ``simulate`` ran before it
moved to integer ticks.  It returns the outcome as the tuple
``(departures, discards, max_occupancy, max_residence)``, which
``fields`` reads off a ``ResequencerOutcome``.  Only the tests use it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Mapping, Tuple

from reseqkit.rational import INF, Rat
from reseqkit.resequencer import (
    INVALID_LATE,
    OVERFLOW,
    ArrivalError,
    ResequencerConfig,
    ResequencerOutcome,
)
from tick_columns import departures

Outcome = Tuple[Dict[int, Rat], Dict[int, str], Fraction, Fraction]


def is_inf(x: Rat) -> bool:
    """Whether x is +/-inf: this oracle's own test, apart from the code it checks."""
    return isinstance(x, float) and math.isinf(x)


def fields(outcome: ResequencerOutcome) -> Outcome:
    """The four fields of ``outcome`` that ``simulate`` below returns."""
    return (departures(outcome), outcome.discards, outcome.max_occupancy,
            outcome.max_residence)


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
) -> Outcome:
    """Run the buffer over ``{seq: (arrival_time, size)}``; a missing index or
    an inf arrival time is a packet lost upstream.

    Events are serialized in virtual time.  When a timer deadline coincides
    with an arrival instant, the arrival is processed first: a timer set to
    expire "after T seconds" has not yet fired at the instant T itself.
    """
    arr = _normalize_arrivals(arrivals)
    n_max = max(arr, default=0)
    order = sorted(
        (idx for idx, (t, _) in arr.items() if not is_inf(t)),
        key=lambda idx: arr[idx][0],
    )

    buf: Dict[int, Fraction] = {}  # seq -> size, packets waiting
    stored_at: Dict[int, Fraction] = {}
    timers: Dict[int, Rat] = {}  # seq -> deadline
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
        timers.pop(seq, None)

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
                timers[seq] = now + cfg.timeout
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
        next_arrival = arr[order[pos]][0] if pos < len(order) else INF
        pending = [(d, s) for s, d in timers.items() if not is_inf(d)]
        next_deadline, deadline_seq = min(pending, default=(INF, -1))
        if is_inf(next_arrival) and is_inf(next_deadline):
            break
        if next_arrival <= next_deadline:  # arrival wins ties
            idx = order[pos]
            pos += 1
            handle_arrival(idx, next_arrival, arr[idx][1])
        else:
            del timers[deadline_seq]
            handle_timeout(deadline_seq, next_deadline)

    return departures, discards, max_occupancy, max_residence
