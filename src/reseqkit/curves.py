"""Exact arrival/service-curve calculus.

Arrival curves are wide-sense increasing functions alpha with alpha(0) = 0
that cap the volume a flow may emit in any window: observed bytes (or
packets) on (s, t] never exceed alpha(t - s).  Two shapes are supported:

* ``MinAffineCurve``: the pointwise minimum of affine pieces r_i * t + b_i
  (t > 0).  Concave, always achievable when the burst covers one maximal
  packet.  A single piece is the classic leaky bucket.
* ``StaircaseCurve``: b * ceil(t / tau), the periodic-burst constraint used
  for packet-level regulation (K packets per period).

Every operation is pure and exact over Fractions.  The lower pseudo-inverse
``inf{s >= 0 | alpha(s) >= x}`` (``pseudo_inverse`` on each curve) converts
volume constraints into minimum spacing; ``min_spacing`` is the gap of two
packets that every reordering bound subtracts.

The trace conformance check (``check_conforms``) never enumerates packet
pairs.  A min-affine curve is the minimum of its leaky buckets, so a trace
conforms to it exactly when it conforms to every bucket; each bucket takes
one token-bucket (GCRA) pass, O(n*k) for k pieces.  A staircase takes one
sweep over the emission phases modulo its period, O(n log n).  Its witness
is the first non-conforming packet.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

from .rational import INF, Rat, fmt_rat, is_inf, parse_rat

BYTES = "bytes"
PACKETS = "packets"


class CurveError(ValueError):
    """Invalid curve construction or unsupported curve combination."""


class UnitMismatchError(CurveError):
    """Curves with different units were combined."""


class InstabilityError(ValueError):
    """Arrival rate exceeds the service rate; no finite delay bound exists."""


@dataclass(frozen=True)
class MinAffineCurve:
    """min_i (rate_i * t + burst_i) for t > 0, and 0 at t = 0."""

    pieces: Tuple[Tuple[Fraction, Fraction], ...]
    unit: str = BYTES

    def __post_init__(self) -> None:
        if not self.pieces:
            raise CurveError("min-affine curve needs at least one piece")
        if self.unit not in (BYTES, PACKETS):
            raise CurveError(f"unknown unit {self.unit!r}")
        norm = []
        for rate, burst in self.pieces:
            rate, burst = Fraction(rate), Fraction(burst)
            if rate <= 0:
                raise CurveError("piece rates must be > 0 (curves are unbounded)")
            if burst < 0:
                raise CurveError("piece bursts must be >= 0")
            norm.append((rate, burst))
        object.__setattr__(self, "pieces", tuple(sorted(set(norm))))

    def value(self, t: Rat) -> Rat:
        """Curve value at t (0 at t = 0, min of the pieces for t > 0)."""
        if is_inf(t):
            return INF
        t = Fraction(t)
        if t < 0:
            raise ValueError("curves are defined on t >= 0")
        if t == 0:
            return Fraction(0)
        return min(r * t + b for r, b in self.pieces)

    def value_at_zero_plus(self) -> Fraction:
        return min(b for _, b in self.pieces)

    def pseudo_inverse(self, x: Rat) -> Rat:
        """inf{s >= 0 | value(s) >= x}: the max over per-piece [(x-b)/r]^+."""
        x = Fraction(x)
        if x < 0:
            raise ValueError("pseudo-inverse is defined on x >= 0")
        if x == 0:
            return Fraction(0)
        best = Fraction(0)
        for r, b in self.pieces:
            cand = (x - b) / r
            if cand > best:
                best = cand
        return best

    def long_run_rate(self) -> Fraction:
        return min(r for r, _ in self.pieces)

    def to_json(self) -> dict:
        return {
            "unit": self.unit,
            "kind": "min_affine",
            "pieces": [
                {"rate": fmt_rat(r), "burst": fmt_rat(b)} for r, b in self.pieces
            ],
        }


@dataclass(frozen=True)
class StaircaseCurve:
    """burst * ceil(t / period): the flow sends at most `burst` per period."""

    burst: Fraction
    period: Fraction
    unit: str = BYTES

    def __post_init__(self) -> None:
        if self.unit not in (BYTES, PACKETS):
            raise CurveError(f"unknown unit {self.unit!r}")
        object.__setattr__(self, "burst", Fraction(self.burst))
        object.__setattr__(self, "period", Fraction(self.period))
        if self.burst <= 0 or self.period <= 0:
            raise CurveError("staircase burst and period must be > 0")

    def value(self, t: Rat) -> Rat:
        if is_inf(t):
            return INF
        t = Fraction(t)
        if t < 0:
            raise ValueError("curves are defined on t >= 0")
        if t == 0:
            return Fraction(0)
        return self.burst * _ceil_div(t, self.period)

    def value_at_zero_plus(self) -> Fraction:
        return self.burst

    def pseudo_inverse(self, x: Rat) -> Rat:
        """period * ceil((x - burst) / burst) for x > 0, and 0 at x = 0."""
        x = Fraction(x)
        if x < 0:
            raise ValueError("pseudo-inverse is defined on x >= 0")
        if x == 0:
            return Fraction(0)
        steps = _ceil_div(x - self.burst, self.burst)
        if steps <= 0:
            return Fraction(0)
        return self.period * steps

    def long_run_rate(self) -> Fraction:
        return self.burst / self.period

    def to_json(self) -> dict:
        return {
            "unit": self.unit,
            "kind": "staircase",
            "burst": fmt_rat(self.burst),
            "period": fmt_rat(self.period),
        }


Curve = MinAffineCurve | StaircaseCurve


def _ceil_div(num: Fraction, den: Fraction) -> int:
    q = num / den
    return -((-q.numerator) // q.denominator)


def leaky_bucket(rate: Rat, burst: Rat, unit: str = BYTES) -> MinAffineCurve:
    return MinAffineCurve(((Fraction(rate), Fraction(burst)),), unit)


@dataclass(frozen=True)
class RateLatencyService:
    """Rate-latency service guarantee beta(t) = rate * [t - latency]^+."""

    rate: Fraction
    latency: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "rate", Fraction(self.rate))
        object.__setattr__(self, "latency", Fraction(self.latency))
        if self.rate <= 0:
            raise CurveError("service rate must be > 0")
        if self.latency < 0:
            raise CurveError("service latency must be >= 0")


@dataclass(frozen=True)
class FlowSpec:
    """Per-flow contract: byte curve at the source and packet-size range.

    The size range must satisfy l_max >= 2*l_min or l_min == l_max; only then
    is the set of reachable byte totals (finite sums of packet sizes) simple
    enough for the tightness machinery: all values >= l_min in the first
    regime, multiples of the common size in the second.
    """

    source_curve: Curve
    l_min: Fraction
    l_max: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "l_min", Fraction(self.l_min))
        object.__setattr__(self, "l_max", Fraction(self.l_max))
        if not 0 < self.l_min <= self.l_max:
            raise CurveError("need 0 < l_min <= l_max")
        if self.source_curve.unit != BYTES:
            raise UnitMismatchError("source_curve must be in bytes")
        if self.source_curve.value_at_zero_plus() < self.l_max:
            raise CurveError(
                "source curve burst below l_max: a maximal packet could never be sent"
            )
        if self.l_max < 2 * self.l_min and self.l_min != self.l_max:
            raise CurveError("need l_max >= 2*l_min or l_min == l_max")

    @property
    def constant_size(self) -> bool:
        return self.l_min == self.l_max

    def reachable_floor(self, x: Rat) -> Fraction:
        """Largest finite sum of admissible packet sizes that is <= x: the
        whole-packet floor of a buffer bound, and x itself exactly when x is
        a reachable byte total.  0 when nothing fits."""
        x = Fraction(x)
        if x < self.l_min:
            return Fraction(0)
        return (x // self.l_min) * self.l_min if self.constant_size else x


def min_spacing(curve: Curve, l_min: Optional[Rat] = None) -> Fraction:
    """Shortest emission gap of two packets the curve allows: ``inv(2)`` for
    a packet curve, ``inv(2*l_min)`` for a byte curve."""
    if curve.unit == PACKETS:
        return Fraction(curve.pseudo_inverse(2))
    if l_min is None:
        raise ValueError("byte-curve packet spacing needs l_min")
    return Fraction(curve.pseudo_inverse(2 * Fraction(l_min)))


def backlog_bound(curve: Curve, max_delay: Rat) -> Rat:
    """Data of the flow inside a system with delay bound U is at most curve(U)."""
    if Fraction(max_delay) < 0:
        raise ValueError("delay bound must be >= 0")
    return curve.value(max_delay)


def shift_jitter(curve: MinAffineCurve, jitter: Rat) -> MinAffineCurve:
    """Arrival curve after a system with delay jitter V: alpha'(t) = alpha(t+V).

    Each affine piece (r, b) becomes (r, b + r*V).  Staircase curves are not
    shifted here; callers replace them by an affine upper bound first.
    """
    if not isinstance(curve, MinAffineCurve):
        raise CurveError("jitter shift is defined for min-affine curves only")
    v = Fraction(jitter)
    if v < 0:
        raise ValueError("jitter must be >= 0")
    if v == 0:
        return curve
    return MinAffineCurve(
        tuple((r, b + r * v) for r, b in curve.pieces), curve.unit
    )


def min_curves(a: MinAffineCurve, b: MinAffineCurve) -> MinAffineCurve:
    """Pointwise minimum of two min-affine curves: the union of their pieces,
    with pairwise-dominated pieces pruned (pruning never changes values)."""
    if not (isinstance(a, MinAffineCurve) and isinstance(b, MinAffineCurve)):
        raise CurveError("min is defined for min-affine curves only")
    if a.unit != b.unit:
        raise UnitMismatchError(f"cannot combine {a.unit} with {b.unit}")
    pieces = set(a.pieces) | set(b.pieces)
    kept = [
        p
        for p in pieces
        if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in pieces)
    ]
    return MinAffineCurve(tuple(kept), a.unit)


def horizontal_deviation(curve: MinAffineCurve, service: RateLatencyService) -> Fraction:
    """Worst-case delay of a FIFO element: latency + sup_t(alpha(t) - R*t)/R.

    For a concave min-affine alpha the sup is attained as t -> 0+ or at a
    breakpoint between pieces; all pairwise intersections are candidates.
    """
    if not isinstance(curve, MinAffineCurve):
        raise CurveError("delay bound requires a min-affine arrival curve")
    if curve.long_run_rate() > service.rate:
        raise InstabilityError(
            "arrival rate exceeds service rate; backlog grows without bound"
        )
    best = curve.value_at_zero_plus()  # t -> 0+
    pieces = curve.pieces
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            (r1, b1), (r2, b2) = pieces[i], pieces[j]
            if r1 == r2:
                continue
            t = (b2 - b1) / (r1 - r2)
            if t <= 0:
                continue
            v = curve.value(t) - service.rate * t
            if v > best:
                best = v
    if best < 0:
        best = Fraction(0)
    return service.latency + best / service.rate


@dataclass(frozen=True)
class Conformance:
    """Verdict of an arrival-curve check; a violation carries the pair (m, n)
    of the first non-conforming packet n and its earliest offending m."""

    ok: bool
    first_index: Optional[int] = None
    second_index: Optional[int] = None
    required_gap: Optional[Fraction] = None
    actual_gap: Optional[Fraction] = None

    def __bool__(self) -> bool:
        return self.ok


def check_conforms(
    emit_times: Sequence[Rat], sizes: Sequence[Rat], curve: Curve
) -> Conformance:
    """Check the spacing characterization of the arrival-curve constraint.

    For every pair m <= n the emission gap must satisfy
    ``A_n - A_m >= inv(sum of sizes m..n)`` (byte curves) or
    ``A_n - A_m >= inv(n - m + 1)`` (packet curves).

    No pair is enumerated.  With prefix volumes P (bytes, or packet counts),
    a min-affine curve is the minimum of its leaky buckets (r, b), and the
    window m..n overflows bucket (r, b) iff
    ``(P_n - r*A_n) - (P_{m-1} - r*A_m) > b``: one forward pass per piece
    with a running minimum of the subtrahend, O(n*k) for k pieces.  For a
    staircase b * ceil(t / tau), write ``A = tau * (q + f)`` with integer q
    and phase f in [0, 1); the window overflows iff
    ``P_n - P_{m-1} > b * (q_n - q_m + 1 - [f_n < f_m])``, which one sweep
    decides with prefix minima over phase ranks, O(n log n).

    The witness is the first non-conforming packet: the smallest violating n
    and, for that n, the smallest violating m (1-based), with the gap the
    curve requires and the one observed.
    """
    times = [Fraction(t) for t in emit_times]
    if len(sizes) != len(times):
        raise ValueError(
            f"{len(sizes)} packet sizes for {len(times)} emission times"
        )
    if any(times[i] > times[i + 1] for i in range(len(times) - 1)):
        raise ValueError("emission times must be wide-sense increasing")
    sizes = [Fraction(s) for s in sizes]
    if any(s < 0 for s in sizes):
        raise ValueError("packet sizes must be >= 0")
    if curve.unit == PACKETS:
        vol: List[Rat] = list(range(len(times) + 1))
    else:
        vol = list(accumulate(sizes, initial=Fraction(0)))
    if isinstance(curve, MinAffineCurve):
        n = _first_affine_violation(times, vol, curve.pieces)
    else:
        n = _first_staircase_violation(times, vol, curve.burst, curve.period)
    if n is None:
        return Conformance(True)
    m = next(
        m
        for m in range(n + 1)
        if times[n] - times[m] < curve.pseudo_inverse(vol[n + 1] - vol[m])
    )
    need = Fraction(curve.pseudo_inverse(vol[n + 1] - vol[m]))
    return Conformance(False, m + 1, n + 1, need, times[n] - times[m])


def _first_affine_violation(
    times: List[Fraction], vol: List[Rat], pieces: Sequence[Tuple[Fraction, Fraction]]
) -> Optional[int]:
    """0-based index of the first packet that overflows some leaky bucket."""
    first = len(times)
    for rate, burst in pieces:
        low: Rat = INF  # min over packets m <= n of P_{m-1} - r*A_m
        for n in range(first):
            drained = rate * times[n]
            low = min(low, vol[n] - drained)
            if vol[n + 1] - drained - low > burst:
                first = n
                break
    return first if first < len(times) else None


def _first_staircase_violation(
    times: List[Fraction], vol: List[Rat], burst: Fraction, period: Fraction
) -> Optional[int]:
    """0-based index of the first packet that overflows the staircase.

    Sweeps n forward and keeps, in two min-Fenwick trees keyed by phase rank,
    ``P_{m-1} - b*q_m`` over the m <= n with f_m <= f_n and with f_m > f_n.
    """
    steps, phases = [], []
    for t in times:
        x = t / period
        q = x.numerator // x.denominator
        steps.append(q)
        phases.append(x - q)
    rank = {f: i for i, f in enumerate(sorted(set(phases)), start=1)}
    size = len(rank)
    low_le: List[Rat] = [INF] * (size + 1)  # by phase rank
    low_gt: List[Rat] = [INF] * (size + 1)  # by reversed phase rank
    for n, (q, f) in enumerate(zip(steps, phases)):
        key = vol[n] - burst * q
        r = rank[f]
        _fenwick_lower(low_le, r, key)
        _fenwick_lower(low_gt, size + 1 - r, key)
        top = vol[n + 1] - burst * q
        if (
            _fenwick_min(low_le, r) < top - burst
            or _fenwick_min(low_gt, size - r) < top
        ):
            return n
    return None


def _fenwick_lower(tree: List[Rat], i: int, value: Rat) -> None:
    """Lower the minima of every prefix that contains position i (1-based)."""
    while i < len(tree):
        if value < tree[i]:
            tree[i] = value
        i += i & -i


def _fenwick_min(tree: List[Rat], i: int) -> Rat:
    """Minimum over positions 1..i (INF when i is 0)."""
    best: Rat = INF
    while i > 0:
        if tree[i] < best:
            best = tree[i]
        i -= i & -i
    return best


def check_trace_conforms(trace, curve: Curve) -> Conformance:
    """Conformance of a trace's emission times against `curve`.

    Works on any object exposing ``packets`` with ``emit_time`` and ``size``;
    all packets (including ones lost downstream) count at the source.
    """
    pkts = list(trace.packets)
    if any(p.emit_time is None for p in pkts):
        raise ValueError("trace has no emission times")
    return check_conforms([p.emit_time for p in pkts], [p.size for p in pkts], curve)


def curve_from_json(obj: dict) -> Curve:
    kind = obj.get("kind")
    unit = obj.get("unit", BYTES)
    if kind == "min_affine":
        pieces = tuple(
            (Fraction(parse_rat(p["rate"])), Fraction(parse_rat(p["burst"])))
            for p in obj["pieces"]
        )
        return MinAffineCurve(pieces, unit)
    if kind == "staircase":
        return StaircaseCurve(
            Fraction(parse_rat(obj["burst"])), Fraction(parse_rat(obj["period"])), unit
        )
    raise CurveError(f"unknown curve kind {kind!r}")
