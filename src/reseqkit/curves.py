"""Exact arrival/service-curve calculus.

Arrival curves are wide-sense increasing functions alpha with alpha(0) = 0
that cap the volume a flow may emit in any window: observed bytes (or
packets) on (s, t] never exceed alpha(t - s).  Two shapes are supported:

* ``MinAffineCurve``: the pointwise minimum of affine pieces r_i * t + b_i
  (t > 0).  Concave, always achievable when the burst covers one maximal
  packet.  A single piece is the classic leaky bucket.  The constructor
  keeps only the lower envelope (Le Boudec & Thiran, *Network Calculus*):
  the pieces that are the minimum on some interval of t > 0, by rate
  ascending, so the bursts strictly decrease.  Equal curves are equal
  functions, and reports list only envelope pieces.
* ``StaircaseCurve``: b * ceil(t / tau), the periodic-burst constraint used
  for packet-level regulation (K packets per period).

Every operation is pure and exact.  A ``MinAffineCurve`` is an integer
record: its rates are ticks on one rate base and its bursts ticks on one
burst base, each the least that holds its column (``rational.reduced``), so
that equal functions are equal records.
The kernels of the path walk run on those integers: ``shift_jitter``,
``min_curves`` and its envelope pass, ``horizontal_deviation``,
``pseudo_inverse`` and ``min_spacing``, ``value`` and ``backlog_bound``.
Each builds one ``Fraction`` per scalar it returns and none per piece; a
curve result builds none.  ``pieces``, the ``Fraction`` view of the
columns, is built on first use, and ``to_json`` writes the curve's JSON
text from the ticks (``fmt_ticks``).  A ``StaircaseCurve`` keeps its two
Fractions.  The lower pseudo-inverse ``inf{s >= 0 | alpha(s) >= x}``
(``pseudo_inverse`` on each curve) converts volume constraints into minimum
spacing; ``min_spacing`` is the gap of two packets that every reordering
bound subtracts.

The trace conformance check, ``check_conforms(trace, curve)``, takes a
``metrics.Trace`` and runs on its integer ticks; it never enumerates packet
pairs.  A min-affine curve is the minimum of its leaky buckets, so a trace
conforms to it exactly when it conforms to every bucket; each bucket takes
one token-bucket (GCRA) pass, O(n*k) for k pieces.  A staircase takes one
sliding window of less than a period, O(n): it is subadditive, so a longer
window that overflows holds a shorter one that does.  Its witness is the
first non-conforming packet.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Iterable, List, Optional, Sequence, Tuple

from .rational import INF, Rat, exact, finite, fmt_rat, fmt_ticks, rebased, reduced

BYTES = "bytes"
PACKETS = "packets"


class CurveError(ValueError):
    """Invalid curve construction or unsupported curve combination."""


class UnitMismatchError(CurveError):
    """Curves with different units were combined."""


class InstabilityError(ValueError):
    """Arrival rate exceeds the service rate; no finite delay bound exists."""


@dataclass(frozen=True, init=False)
class MinAffineCurve:
    """min_i (rate_i * t + burst_i) for t > 0, and 0 at t = 0.

    ``MinAffineCurve(pieces, unit)`` takes exact ``(rate, burst)`` pairs and
    keeps their lower envelope as two integer columns: ``rates`` on
    ``rate_den`` and ``bursts`` on ``burst_den``, rate ascending, so the
    bursts strictly decrease.  Each base is the least that holds its
    column.  ``pieces`` is the ``Fraction`` view of the columns, built on
    first use.
    """

    rates: Tuple[int, ...]
    rate_den: int
    bursts: Tuple[int, ...]
    burst_den: int
    unit: str

    def __init__(self, pieces: Iterable[Tuple[Rat, Rat]], unit: str = BYTES) -> None:
        pairs = [(finite(rate), finite(burst)) for rate, burst in pieces]
        if not pairs:
            raise CurveError("min-affine curve needs at least one piece")
        if unit not in (BYTES, PACKETS):
            raise CurveError(f"unknown unit {unit!r}")
        for rate, burst in pairs:
            if rate.numerator <= 0:
                raise CurveError("piece rates must be > 0 (curves are unbounded)")
            if burst.numerator < 0:
                raise CurveError("piece bursts must be >= 0")
        rate_den = math.lcm(*(r.denominator for r, _ in pairs))
        burst_den = math.lcm(*(b.denominator for _, b in pairs))
        ticks = sorted((r.numerator * (rate_den // r.denominator),
                        b.numerator * (burst_den // b.denominator)) for r, b in pairs)
        rates, bursts = zip(*_lower_envelope(ticks))
        self._set(rates, rate_den, bursts, burst_den, unit)

    @classmethod
    def _from_ticks(cls, rates: Sequence[int], rate_den: int, bursts: Sequence[int],
                    burst_den: int, unit: str) -> "MinAffineCurve":
        """A curve from tick columns that already are an envelope: nothing
        is checked, sorted or re-hulled; the bases are reduced."""
        curve = cls.__new__(cls)
        curve._set(rates, rate_den, bursts, burst_den, unit)
        return curve

    def _set(self, rates: Sequence[int], rate_den: int, bursts: Sequence[int],
             burst_den: int, unit: str) -> None:
        rate_den, (rates,) = reduced(rate_den, rates)
        burst_den, (bursts,) = reduced(burst_den, bursts)
        vars(self).update(rates=tuple(rates), rate_den=rate_den, bursts=tuple(bursts),
                          burst_den=burst_den, unit=unit)  # frozen fields

    @cached_property
    def pieces(self) -> Tuple[Tuple[Fraction, Fraction], ...]:
        return tuple((Fraction(r, self.rate_den), Fraction(b, self.burst_den))
                     for r, b in zip(self.rates, self.bursts))

    def value(self, t: Rat) -> Rat:
        """Curve value at t (0 at t = 0, min of the pieces for t > 0)."""
        t = exact(t)
        if t is INF:
            return INF
        tn, td = t.numerator, t.denominator
        if tn <= 0:
            if tn < 0:
                raise ValueError("curves are defined on t >= 0")
            return Fraction(0)
        # r/rd * tn/td + b/bd, all on rd * td * bd
        per_rate, per_burst = tn * self.burst_den, td * self.rate_den
        return Fraction(min(r * per_rate + b * per_burst
                            for r, b in zip(self.rates, self.bursts)),
                        per_burst * self.burst_den)

    def value_at_zero_plus(self) -> Fraction:
        return Fraction(self.bursts[-1], self.burst_den)

    def pseudo_inverse(self, x: Rat) -> Rat:
        """inf{s >= 0 | value(s) >= x}: the max over per-piece [(x-b)/r]^+."""
        x = finite(x)
        xn, xd, bd = x.numerator, x.denominator, self.burst_den
        if xn <= 0:
            if xn < 0:
                raise ValueError("pseudo-inverse is defined on x >= 0")
            return Fraction(0)
        # (x - b)/r is (xn*bd - b*xd) * rd / (xd * bd * r): compare over r
        per_x = xn * bd
        best, best_rate = 0, 1
        for r, b in zip(self.rates, self.bursts):
            above = per_x - b * xd
            if above * best_rate > best * r:
                best, best_rate = above, r
        return Fraction(best * self.rate_den, xd * bd * best_rate)

    def to_json(self) -> str:
        """The curve's JSON text, as ``json.dumps`` with ``indent=2`` lays it
        out at depth 0; ``fmt_ticks`` writes each column, and no value needs
        escaping."""
        pieces = ",\n    ".join([f'{{\n      "rate": "{r}",\n      "burst": "{b}"\n    }}'
                                   for r, b in zip(fmt_ticks(self.rates, self.rate_den),
                                                   fmt_ticks(self.bursts, self.burst_den))])
        return (f'{{\n  "unit": "{self.unit}",\n  "kind": "min_affine",\n'
                f'  "pieces": [\n    {pieces}\n  ]\n}}')


@dataclass(frozen=True)
class StaircaseCurve:
    """burst * ceil(t / period): the flow sends at most `burst` per period."""

    burst: Fraction
    period: Fraction
    unit: str = BYTES

    def __post_init__(self) -> None:
        object.__setattr__(self, "burst", finite(self.burst))
        object.__setattr__(self, "period", finite(self.period))
        if self.unit not in (BYTES, PACKETS):
            raise CurveError(f"unknown unit {self.unit!r}")
        if self.burst <= 0 or self.period <= 0:
            raise CurveError("staircase burst and period must be > 0")

    def value(self, t: Rat) -> Rat:
        t = exact(t)
        if t is INF:
            return INF
        if t < 0:
            raise ValueError("curves are defined on t >= 0")
        if t == 0:
            return Fraction(0)
        return self.burst * _ceil_div(t, self.period)

    def value_at_zero_plus(self) -> Fraction:
        return self.burst

    def pseudo_inverse(self, x: Rat) -> Rat:
        """period * ceil((x - burst) / burst) for x > 0, and 0 at x = 0."""
        x = finite(x)
        if x < 0:
            raise ValueError("pseudo-inverse is defined on x >= 0")
        if x == 0:
            return Fraction(0)
        steps = _ceil_div(x - self.burst, self.burst)
        if steps <= 0:
            return Fraction(0)
        return self.period * steps

    def to_json(self) -> str:
        return (f'{{\n  "unit": "{self.unit}",\n  "kind": "staircase",\n  "burst": '
                f'"{fmt_rat(self.burst)}",\n  "period": "{fmt_rat(self.period)}"\n}}')


Curve = MinAffineCurve | StaircaseCurve


def _lower_envelope(pieces: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """The pieces that are the minimum on some interval of t > 0, by one
    stack pass over ``(rate, burst)`` ticks sorted by rate, then burst, each
    column on one base."""
    hull: List[Tuple[int, int]] = []  # the envelope so far
    for r, b in pieces:
        if hull and b >= hull[-1][1]:
            continue  # never below the last kept piece for t > 0
        while len(hull) > 1:
            (r0, b0), (r1, b1) = hull[-2:]
            # (r1, b1) is the minimum from where (r, b) crosses it up to
            # where (r0, b0) does; drop it when that interval is empty
            if (b1 - b) * (r1 - r0) < (b0 - b1) * (r - r1):
                break
            hull.pop()
        hull.append((r, b))
    return hull


def _ceil_div(num: Fraction, den: Fraction) -> int:
    q = num / den
    return -((-q.numerator) // q.denominator)


def leaky_bucket(rate: Rat, burst: Rat, unit: str = BYTES) -> MinAffineCurve:
    return MinAffineCurve(((rate, burst),), unit)


@dataclass(frozen=True)
class RateLatencyService:
    """Rate-latency service guarantee beta(t) = rate * [t - latency]^+."""

    rate: Fraction
    latency: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "rate", finite(self.rate))
        object.__setattr__(self, "latency", finite(self.latency))
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
        object.__setattr__(self, "l_min", finite(self.l_min))
        object.__setattr__(self, "l_max", finite(self.l_max))
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
        x = finite(x)
        if x < self.l_min:
            return Fraction(0)
        return self.l_min * (x // self.l_min) if self.constant_size else x


def min_spacing(curve: Curve, l_min: Optional[Rat] = None) -> Fraction:
    """Shortest emission gap of two packets the curve allows: ``inv(2)`` for
    a packet curve, ``inv(2*l_min)`` for a byte curve."""
    if curve.unit == PACKETS:
        return curve.pseudo_inverse(2)
    if l_min is None:
        raise ValueError("byte-curve packet spacing needs l_min")
    return curve.pseudo_inverse(2 * finite(l_min))


def backlog_bound(curve: Curve, max_delay: Rat) -> Rat:
    """Data of the flow inside a system with delay bound U is at most curve(U)
    (Le Boudec & Thiran, *Network Calculus*).  With U the jitter plus the
    timeout, this is the size of a re-sequencing buffer that may see losses."""
    max_delay = exact(max_delay)
    if max_delay < 0:
        raise ValueError("delay bound must be >= 0")
    return curve.value(max_delay)


def shift_jitter(curve: MinAffineCurve, jitter: Rat) -> MinAffineCurve:
    """Arrival curve after a system with delay jitter V: alpha'(t) = alpha(t+V).

    Each affine piece (r, b) becomes (r, b + r*V).  Staircase curves are not
    shifted here; callers replace them by an affine upper bound first.

    A shift keeps the rates and their order, so the envelope needs no new
    hull, O(k): it loses only the fastest pieces, those that were the
    minimum on (0, V] alone, i.e. whose breakpoint with their slower
    neighbour is at most V.
    """
    if not isinstance(curve, MinAffineCurve):
        raise CurveError("jitter shift is defined for min-affine curves only")
    v = jitter if jitter.__class__ is Fraction else finite(jitter)
    vn, vd = v.numerator, v.denominator
    if vn <= 0:
        if vn < 0:
            raise ValueError("jitter must be >= 0")
        return curve
    rates, bursts, rd, bd = curve.rates, curve.bursts, curve.rate_den, curve.burst_den
    keep = len(rates)
    while keep > 1:
        # the breakpoint (b_slow - b_fast) / (r_fast - r_slow) is past V
        if ((bursts[keep - 2] - bursts[keep - 1]) * vd * rd
                > vn * (rates[keep - 1] - rates[keep - 2]) * bd):
            break
        keep -= 1
    # b/bd + r/rd * vn/vd on the least common multiple of bd and rd * vd
    den = math.lcm(bd, rd * vd)
    per_burst, per_rate = den // bd, vn * (den // (rd * vd))
    return MinAffineCurve._from_ticks(
        rates[:keep], rd,
        [b * per_burst + r * per_rate for r, b in zip(rates[:keep], bursts)],
        den, curve.unit,
    )


def min_curves(a: MinAffineCurve, b: MinAffineCurve) -> MinAffineCurve:
    """Pointwise minimum of two min-affine curves: the lower envelope of the
    union of their pieces, put on common bases.  Both envelopes are sorted
    already, so the sort merges two runs, and the constructor's stack pass
    takes them unchecked."""
    if not (isinstance(a, MinAffineCurve) and isinstance(b, MinAffineCurve)):
        raise CurveError("min is defined for min-affine curves only")
    if a.unit != b.unit:
        raise UnitMismatchError(f"cannot combine {a.unit} with {b.unit}")
    rate_den, (a_rates, b_rates) = rebased((a.rate_den, a.rates), (b.rate_den, b.rates))
    burst_den, (a_bursts, b_bursts) = rebased((a.burst_den, a.bursts),
                                              (b.burst_den, b.bursts))
    rates, bursts = zip(*_lower_envelope(sorted(
        [*zip(a_rates, a_bursts), *zip(b_rates, b_bursts)])))
    return MinAffineCurve._from_ticks(rates, rate_den, bursts, burst_den, a.unit)


def horizontal_deviation(curve: MinAffineCurve, service: RateLatencyService) -> Fraction:
    """Worst-case delay of a FIFO element: latency + sup_t(alpha(t) - R*t)/R.

    alpha is concave, so alpha(t) - R*t rises while the piece that is the
    minimum is faster than R, and falls after.  The sup is attained at the
    breakpoint where the slowest piece faster than R hands over to the
    fastest that is not, or as t -> 0+ when no piece is faster than R.
    """
    if not isinstance(curve, MinAffineCurve):
        raise CurveError("delay bound requires a min-affine arrival curve")
    rates, bursts, rd, bd = curve.rates, curve.bursts, curve.rate_den, curve.burst_den
    sn, sd = service.rate.numerator, service.rate.denominator
    slow = bisect_right(rates, sn * rd // sd)  # the pieces no faster than R
    if not slow:
        raise InstabilityError(
            "arrival rate exceeds service rate; backlog grows without bound"
        )
    if slow == len(rates):  # t -> 0+: the burst of the fastest piece
        best, best_den = bursts[-1] * sd, bd
    else:
        # with s the slow piece, f the fast one and t their breakpoint
        # (bs - bf)/(rf - rs), b_s + (r_s - R)*t over bd * sd * (rf - rs)
        rs, rf, bs, bf = rates[slow - 1], rates[slow], bursts[slow - 1], bursts[slow]
        best = bs * sd * (rf - rs) + (rs * sd - sn * rd) * (bs - bf)
        best_den = bd * (rf - rs)
    # latency + best / (best_den * sd) * sd / sn
    ln, ld = service.latency.numerator, service.latency.denominator
    per_sn = best_den * sn
    return Fraction(ln * per_sn + best * ld, ld * per_sn)


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


def check_conforms(trace, curve: Curve) -> Conformance:
    """Check a ``Trace``'s emission times against the spacing
    characterization of the arrival-curve constraint.  Every packet counts
    at the source, including ones lost downstream.

    For every pair m <= n the emission gap must satisfy
    ``A_n - A_m >= inv(sum of sizes m..n)`` (byte curves) or
    ``A_n - A_m >= inv(n - m + 1)`` (packet curves).

    No pair is enumerated, and the check runs on the trace's integer ticks:
    each piece, or the staircase, is scaled once to integer constants on
    the trace's time and size bases.  With prefix volumes P (bytes, or
    packet counts), a min-affine curve is the minimum of its leaky buckets
    (r, b), and the window m..n overflows bucket (r, b) iff
    ``(P_n - r*A_n) - (P_{m-1} - r*A_m) > b``: one forward pass per piece
    with a running minimum of the subtrahend, O(n*k) for k pieces.  A
    staircase b * ceil(t / tau) allows the window m..n
    ``b * (floor((A_n - A_m) / tau) + 1)``, as many bursts as the half-open
    periods from A_m that cover it; if the window overflows, one of those
    periods holds more than b, and for the first violating n it ends at n.
    So only windows shorter than a period need checking: one two-pointer
    pass, O(n).

    The witness is the first non-conforming packet: the smallest violating n
    and, for that n, the smallest violating m (1-based), with the gap the
    curve requires and the one observed, the only Fractions the check makes.
    """
    emits = trace.emit_ticks
    if emits is None:
        raise ValueError("trace has no emission times")
    if curve.unit == PACKETS:
        vol_den, vol = 1, range(len(emits) + 1)
    else:
        vol_den, vol = trace.size_den, list(accumulate(trace.size_ticks, initial=0))
    sweep = (_affine_violation if isinstance(curve, MinAffineCurve)
             else _staircase_violation)
    pair = sweep(emits, vol, curve, trace.time_den, vol_den)
    if pair is None:
        return Conformance(True)
    m, n = pair
    need = curve.pseudo_inverse(Fraction(vol[n + 1] - vol[m], vol_den))
    return Conformance(False, m + 1, n + 1, need,
                       Fraction(emits[n] - emits[m], trace.time_den))


def _affine_violation(emits: Sequence[int], vol: Sequence[int], curve: MinAffineCurve,
                      time_den: int, vol_den: int) -> Optional[Tuple[int, int]]:
    """0-based (m, n) of the first packet n that overflows some bucket.

    Bucket (r, b), scaled by ``time_den * vol_den * rate_den * burst_den``,
    is the weights of a volume tick and of a time tick, and the burst
    ``cap``."""
    rd, bd = curve.rate_den, curve.burst_den
    per_vol = time_den * rd * bd
    buckets = [(per_vol, vol_den * r * bd, b * vol_den * time_den * rd)
               for r, b in zip(curve.rates, curve.bursts)]
    first = len(emits)
    for per_vol, per_tick, cap in buckets:
        low: Rat = INF  # min over packets m <= n of P_{m-1} - r*A_m
        for n in range(first):
            drained = per_tick * emits[n]
            low = min(low, vol[n] * per_vol - drained)
            if vol[n + 1] * per_vol - drained - low > cap:
                first = n
                break
    if first == len(emits):
        return None
    n = first
    return next(
        (m, n) for m in range(n + 1)
        if any((vol[n + 1] - vol[m]) * per_vol - per_tick * (emits[n] - emits[m]) > cap
               for per_vol, per_tick, cap in buckets)
    )


def _staircase_violation(emits: Sequence[int], vol: Sequence[int],
                         curve: StaircaseCurve, time_den: int,
                         vol_den: int) -> Optional[Tuple[int, int]]:
    """0-based (m, n) of the first packet n that overflows the staircase.

    Volumes are scaled by ``burst.den`` and times by ``period.den``, so the
    burst is ``step`` volume ticks and the period ``per_period`` time ticks.
    ``lo`` is the first packet less than one period before n, and n is the
    first to overflow when the window lo..n holds more than one burst.
    """
    bn, bd = curve.burst.as_integer_ratio()
    pn, pd = curve.period.as_integer_ratio()
    step, per_period = bn * vol_den, pn * time_den
    lo = 0
    for n, t in enumerate(emits):
        while (t - emits[lo]) * pd >= per_period:
            lo += 1
        if (vol[n + 1] - vol[lo]) * bd > step:
            return next(
                (m, n) for m in range(n + 1)
                if (vol[n + 1] - vol[m]) * bd
                > step * ((t - emits[m]) * pd // per_period + 1)
            )
    return None


def json_object(obj, what: str, error: type, required: Sequence[str],
                optional: Sequence[str] = ()) -> None:
    """Raise ``error``, naming ``what``, unless ``obj`` is a JSON object
    with every key in ``required`` and no key outside ``required`` and
    ``optional``.  Every JSON config object is checked here, since a key
    that no reader reads would be silently ignored."""
    if not isinstance(obj, dict):
        raise error(f"{what} must be an object")
    for key in obj:
        if key not in required and key not in optional:
            raise error(f"unknown key {key!r} in {what}")
    for key in required:
        if key not in obj:
            raise error(f"missing key {key!r} in {what}")


def curve_from_json(obj: dict) -> Curve:
    """Curve from its ``to_json`` form; a value of the wrong JSON type, a
    missing key or a key the curve does not read raises ``CurveError``."""
    if not isinstance(obj, dict):
        raise CurveError("curve must be an object")
    kind, unit = obj.get("kind"), obj.get("unit", BYTES)
    if kind == "staircase":
        json_object(obj, "curve", CurveError, ("kind", "burst", "period"), ("unit",))
        return StaircaseCurve(obj["burst"], obj["period"], unit)
    if kind == "min_affine":
        json_object(obj, "curve", CurveError, ("kind", "pieces"), ("unit",))
        pieces = obj["pieces"]
        if not isinstance(pieces, list):
            raise CurveError("curve pieces must be a list")
        for p in pieces:
            json_object(p, "curve piece", CurveError, ("rate", "burst"))
        return MinAffineCurve(tuple((p["rate"], p["burst"]) for p in pieces), unit)
    raise CurveError(f"unknown curve kind {kind!r}")
