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

``simulate`` processes events in virtual time; an arrival goes before a
timer that fires at the same instant.  Every stored packet waits the same T,
and arrivals come at distinct instants in time order, so timers leave in
arrival order: after the O(n log n) sort, the loop is O(n) however deep.

``simulate`` takes a validated ``metrics.Trace``: its indices, sizes and
distinct observe times were checked when it was built, so the event loop
checks nothing.  ``analytic_departures`` takes a ``{seq: time}`` map.

Time base: both functions run on integers.  Times, and the timeout, are
ticks over the least common multiple of their denominators; sizes, and the
capacity, over theirs.  A ``Trace`` brings its columns already in ticks
(``metrics``).  ``rational.on_common_base`` puts the timeout and the
capacity on bases of their own and ``rational.rebased`` joins each to the
trace's, so a timeout whose denominator does not divide the trace's base
extends it.  ``simulate`` returns its departures as a column of ticks on
that base in the ``ResequencerOutcome``, and the CLI writes them straight
from the ticks, a few thousand lines per ``rational.fmt_ticks`` call and
per write.  Occupancy, residence and the departure map of
``analytic_departures`` become ``Fraction(ticks, den)`` when returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Tuple

from .metrics import Trace
from .rational import INF, Rat, Tick, exact, on_common_base, over, rebased


class ArrivalError(ValueError):
    """Malformed arrival map (an index below 1)."""


@dataclass(frozen=True)
class ResequencerConfig:
    timeout: Rat = INF
    capacity: Rat = INF

    def __post_init__(self) -> None:
        for name in ("timeout", "capacity"):
            value = exact(getattr(self, name))  # a float other than INF is refused
            if value < 0:
                raise ValueError(f"{name} must be >= 0")
            object.__setattr__(self, name, value)


INVALID_LATE = "invalid_late"
OVERFLOW = "overflow"


@dataclass(frozen=True)
class ResequencerOutcome:
    """What a run of the buffer did.  Packet seq left at
    ``departure_ticks[seq - 1]`` ticks of 1/``time_den`` s, INF when it was
    lost, discarded or never released."""

    departure_ticks: Tuple[Tick, ...]
    time_den: int
    discards: Dict[int, str]
    max_occupancy: Fraction
    max_residence: Fraction


def simulate(trace: Trace, cfg: ResequencerConfig) -> ResequencerOutcome:
    """Run the buffer over the trace's observe times and sizes; an inf
    observe time is a packet lost upstream.

    Events are serialized in virtual time.  An arrival at a timer's deadline
    goes first: a timer set to expire "after T seconds" has not yet fired at
    the instant T itself.  A stored packet's timer is its seq in ``parked``:
    in arrival order, so in deadline order (arrival plus T), the next at
    ``head``.  A packet released before its deadline is below
    ``next_expected``, and ``head`` skips it.  An event costs O(1)
    amortized, the loop O(n) after the sort.
    """
    timeout_den, (timeouts,) = on_common_base([cfg.timeout])
    capacity_den, (capacities,) = on_common_base([cfg.capacity])
    time_den, (times, (timeout,)) = rebased((trace.time_den, trace.observe_ticks),
                                            (timeout_den, timeouts))
    size_den, (sizes, (capacity,)) = rebased((trace.size_den, trace.size_ticks),
                                             (capacity_den, capacities))
    n_max = len(times)
    order = sorted(range(n_max), key=times.__getitem__)
    while order and times[order[-1]] is INF:
        order.pop()  # the lost sort last
    n_order = len(order)

    held = bytearray(n_max + 2)  # by seq: set when stored, read from next_expected on
    parked: List[int] = []  # stored seqs with a timer, in arrival order
    head = 0
    finite_timeout = timeout is not INF
    next_expected = 1
    departures: List[Tick] = [INF] * n_max  # by seq - 1
    discards: Dict[int, str] = {}
    occupancy = max_occupancy = max_residence = 0

    pos = 0
    while True:
        while head < len(parked) and parked[head] < next_expected:
            head += 1  # the packet left before its deadline
        if pos < n_order and (
            head == len(parked) or times[order[pos]] <= times[parked[head] - 1] + timeout
        ):  # arrival wins ties
            seq = order[pos] + 1
            pos += 1
            now = times[seq - 1]
            flush_to = 0
            if seq < next_expected:
                discards[seq] = INVALID_LATE
                continue
            if seq > next_expected:
                size = sizes[seq - 1]
                if occupancy + size <= capacity:
                    if finite_timeout:
                        parked.append(seq)
                    held[seq] = 1
                    occupancy += size
                    if occupancy > max_occupancy:
                        max_occupancy = occupancy
                else:
                    discards[seq] = OVERFLOW
                continue
            departures[seq - 1] = now
            next_expected = seq + 1
        elif head < len(parked):
            # flush every stored packet up to the timer's, then go on in order
            flush_to = parked[head]
            head += 1
            now = times[flush_to - 1] + timeout
        else:
            break
        while True:
            seq = next_expected
            if held[seq]:
                occupancy -= sizes[seq - 1]
                residence = now - times[seq - 1]
                if residence > max_residence:
                    max_residence = residence
                departures[seq - 1] = now
            elif seq > flush_to:
                break
            next_expected = seq + 1

    return ResequencerOutcome(
        tuple(departures),
        time_den,
        discards,
        Fraction(max_occupancy, size_den),
        Fraction(max_residence, time_den),
    )


def analytic_departures(
    arrivals: Mapping[int, Rat], timeout: Rat
) -> Dict[int, Rat]:
    """Closed-form departure times for an infinite-capacity buffer.

    ``arrivals`` maps sequence numbers to observation times (inf or missing
    for lost packets).  Returns D_n for every n up to the largest index.
    """
    n_max = max(arrivals, default=0)
    times: List[Rat] = [INF] * (n_max + 1)
    for idx, t in arrivals.items():
        if idx < 1:
            raise ArrivalError("sequence numbers start at 1")
        times[idx] = exact(t)
    den, (e, (timeout_t,)) = on_common_base(times, [exact(timeout)])
    suffix_min: List[Tick] = [INF] * (n_max + 2)
    for n in range(n_max, 0, -1):
        suffix_min[n] = e[n] if e[n] < suffix_min[n + 1] else suffix_min[n + 1]

    # No tick is ever added to INF: a large int would overflow the float.
    out: Dict[int, Tick] = {}
    prev_d: Tick = INF
    for n in range(1, n_max + 1):
        sm = suffix_min[n]
        flush = INF if sm is INF or timeout_t is INF else sm + timeout_t
        i_n = e[n] if e[n] is not INF and e[n] <= flush else INF
        if n == 1:
            d_n = i_n
        else:
            g_n = prev_d if prev_d <= flush else flush
            d_n = INF if i_n is INF else (g_n if g_n >= i_n else i_n)
        out[n] = d_n
        prev_d = d_n
    return over(out, den)
