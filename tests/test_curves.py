import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curve_oracle
import fraction_curve_oracle
import scenario_oracle
from arrival_trace import source_trace
from pairwise_conformance_oracle import check_conforms as pairwise_check_conforms
from test_trace_ticks import prime_denominator_columns
from reseqkit.curves import (
    BYTES,
    PACKETS,
    Conformance,
    CurveError,
    FlowSpec,
    InstabilityError,
    MinAffineCurve,
    RateLatencyService,
    StaircaseCurve,
    UnitMismatchError,
    backlog_bound,
    check_conforms,
    curve_from_json,
    horizontal_deviation,
    leaky_bucket,
    min_curves,
    min_spacing,
    shift_jitter,
)
from reseqkit.metrics import CSV_HEADER, Trace, TraceError, trace_from_csv
from reseqkit.rational import fmt_rat

US = F(1, 10**6)

AUTOMOTIVE_ALPHA1 = min_curves(leaky_bucket(6400, 6400), leaky_bucket(125_000_000, 64))


def bisect_pseudo_inverse(curve, x, iters=80):
    """Independent oracle: bracket inf{s >= 0 | curve(s) >= x} by bisection."""
    x = F(x)
    if x == 0:
        return F(0), F(0)
    hi = F(1)
    while curve.value(hi) < x:
        hi *= 2
    lo = F(0)
    for _ in range(iters):
        mid = (lo + hi) / 2
        if curve.value(mid) >= x:
            hi = mid
        else:
            lo = mid
    return lo, hi


rationals = st.fractions(min_value=0, max_value=10**6, max_denominator=1000)
positive_rationals = st.fractions(
    min_value=F(1, 1000), max_value=10**6, max_denominator=1000
)


class TestEval:
    def test_leaky_bucket_value(self):
        # 6400 + 6400 * 79.19e-6 computed exactly
        c = leaky_bucket(6400, 6400)
        t = F("79.19") * US
        assert c.value(t) == 6400 + 6400 * t
        assert c.value(t) == F("6400.506816")

    def test_zero_is_zero(self):
        for c in (AUTOMOTIVE_ALPHA1, StaircaseCurve(F(3), F("0.008"), "packets")):
            assert c.value(0) == 0

    def test_staircase_left_continuous_at_period(self):
        c = StaircaseCurve(F(3), F("0.008"), "packets")
        assert c.value(F("0.008")) == 3
        assert c.value(F("0.0080001")) == 6

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            leaky_bucket(1, 1).value(F(-1))


class TestLowerPseudoInverse:
    def test_two_piece_at_two_packets(self):
        # min(6400t+6400, 125e6t+64) needs 0.512 us to admit 128 bytes
        assert AUTOMOTIVE_ALPHA1.pseudo_inverse(128) == F("0.512") * US

    def test_staircase_single_packet_period(self):
        c = StaircaseCurve(F(1), F("0.008"), "packets")
        assert c.pseudo_inverse(2) == F("0.008")

    def test_zero_argument(self):
        for c in (AUTOMOTIVE_ALPHA1, StaircaseCurve(F(2), F(1))):
            assert c.pseudo_inverse(0) == 0

    def test_closed_forms_against_bisection(self):
        # leaky-bucket and staircase closed forms vs an independent bracket
        rng = random.Random(20240817)
        for _ in range(100):
            rate = F(rng.randint(1, 10**6), rng.randint(1, 100))
            burst = F(rng.randint(1, 10**5), rng.randint(1, 100))
            x = F(rng.randint(0, 2 * 10**5), rng.randint(1, 100))
            lb = leaky_bucket(rate, burst)
            got = lb.pseudo_inverse(x)
            lo, hi = bisect_pseudo_inverse(lb, x)
            assert lo <= got <= hi
            assert hi - lo < F(1, 10**12)

            period = F(rng.randint(1, 1000), rng.randint(1, 10))
            sc = StaircaseCurve(burst, period)
            got = sc.pseudo_inverse(x)
            lo, hi = bisect_pseudo_inverse(sc, x)
            # the true infimum sits at a step edge inside (lo, hi]
            assert lo < got + F(1, 10**12)
            assert got <= hi

    @settings(max_examples=200, deadline=None)
    @given(x=rationals, t=rationals)
    def test_galois_property_two_piece(self, x, t):
        c = AUTOMOTIVE_ALPHA1
        if c.pseudo_inverse(x) < t:
            assert x <= c.value(t)

    @settings(max_examples=200, deadline=None)
    @given(x=rationals, t=rationals, burst=positive_rationals, period=positive_rationals)
    def test_galois_property_staircase(self, x, t, burst, period):
        c = StaircaseCurve(burst, period)
        if c.pseudo_inverse(x) < t:
            assert x <= c.value(t)

    def test_min_distributes_as_max_of_inverses(self):
        rng = random.Random(7)
        a = leaky_bucket(6400, 6400)
        b = leaky_bucket(125_000_000, 64)
        m = min_curves(a, b)
        for _ in range(100):
            x = F(rng.randint(0, 10**5), rng.randint(1, 64))
            assert m.pseudo_inverse(x) == max(a.pseudo_inverse(x), b.pseudo_inverse(x))


class TestShiftJitter:
    def test_automotive_shift(self):
        shifted = shift_jitter(AUTOMOTIVE_ALPHA1, F("1.5") * US)
        assert set(shifted.pieces) == {
            (F(6400), F("6400.0096")),
            (F(125_000_000), F("251.5")),
        }

    def test_zero_shift_identity(self):
        assert shift_jitter(AUTOMOTIVE_ALPHA1, 0) == AUTOMOTIVE_ALPHA1

    def test_single_piece_formula(self):
        c = leaky_bucket(F(3), F(5))
        assert shift_jitter(c, F(2)).pieces == ((F(3), F(11)),)

    @settings(max_examples=100, deadline=None)
    @given(v1=rationals, v2=rationals)
    def test_shift_composes(self, v1, v2):
        c = AUTOMOTIVE_ALPHA1
        assert shift_jitter(c, v1 + v2) == shift_jitter(shift_jitter(c, v1), v2)

    def test_staircase_shift_rejected(self):
        with pytest.raises(CurveError):
            shift_jitter(StaircaseCurve(F(1), F(1)), F(1))


class TestMinCurves:
    def test_builds_automotive_entry_curve(self):
        assert set(AUTOMOTIVE_ALPHA1.pieces) == {
            (F(6400), F(6400)),
            (F(125_000_000), F(64)),
        }

    def test_idempotent(self):
        c = AUTOMOTIVE_ALPHA1
        assert min_curves(c, c) == c

    def test_pointwise_minimum(self):
        rng = random.Random(99)
        a = MinAffineCurve(((F(3), F(50)), (F(40), F(7))))
        b = MinAffineCurve(((F(10), F(20)),))
        m = min_curves(a, b)
        for _ in range(100):
            t = F(rng.randint(0, 10**4), rng.randint(1, 100))
            assert m.value(t) == min(a.value(t), b.value(t))

    def test_pruning_keeps_values(self):
        a = MinAffineCurve(((F(5), F(10)),))
        b = MinAffineCurve(((F(5), F(3)), (F(7), F(2))))
        m = min_curves(a, b)
        assert (F(5), F(10)) not in m.pieces
        for t in (F(0), F(1, 3), F(2), F(100)):
            assert m.value(t) == min(a.value(t), b.value(t))

    def test_unit_mismatch(self):
        with pytest.raises(UnitMismatchError):
            min_curves(leaky_bucket(1, 1, "bytes"), leaky_bucket(1, 1, "packets"))


class TestBacklogBound:
    def test_automotive_window(self):
        # source curve over the 122.19 us jitter-plus-timeout window
        c = leaky_bucket(6400, 6400)
        u = F("122.19") * US
        assert backlog_bound(c, u) == 6400 + 6400 * u

    def test_zero_window(self):
        assert backlog_bound(AUTOMOTIVE_ALPHA1, 0) == 0

    def test_leaky_bucket_formula(self):
        assert backlog_bound(leaky_bucket(F(7), F(9)), F(3)) == 7 * 3 + 9


class TestHorizontalDeviation:
    SERVICE = RateLatencyService(F(125_000_000), 12 * US)

    def test_source_burst_delay(self):
        got = horizontal_deviation(leaky_bucket(6400, 6400), self.SERVICE)
        assert got == F("63.2") * US

    def test_shaped_curve_delay(self):
        shaped = MinAffineCurve(((F(6400), F(6400)), (F(125_000_000), F(251))))
        assert horizontal_deviation(shaped, self.SERVICE) == F("14.008") * US

    def test_zero_burst_curve_on_service_rate_line(self):
        svc = RateLatencyService(F(125_000_000), F(5))
        assert horizontal_deviation(leaky_bucket(F(125_000_000), F(0)), svc) == F(5)

    def test_burst_over_rate_identity(self):
        rng = random.Random(3)
        for _ in range(50):
            r = F(rng.randint(1, 10**6))
            b = F(rng.randint(0, 10**6))
            svc = RateLatencyService(r + rng.randint(0, 5), F(0))
            assert horizontal_deviation(leaky_bucket(r, b), svc) == b / svc.rate

    def test_sampled_never_exceeds_bound(self):
        rng = random.Random(11)
        curve = MinAffineCurve(((F(6400), F(6400)), (F(125_000_000), F("251.5"))))
        d = horizontal_deviation(curve, self.SERVICE)
        sup = (d - self.SERVICE.latency) * self.SERVICE.rate
        for _ in range(200):
            t = F(rng.randint(0, 10**7), 10**9)
            assert curve.value(t) - self.SERVICE.rate * t <= sup

    def test_instability_detected(self):
        with pytest.raises(InstabilityError):
            horizontal_deviation(leaky_bucket(200, 1), RateLatencyService(F(100), F(0)))


# few distinct values, so equal rates, equal bursts and zero bursts are common
piece_rates = st.one_of(
    st.integers(1, 6).map(F),
    st.fractions(min_value=F(1, 8), max_value=50, max_denominator=8),
)
piece_bursts = st.one_of(
    st.integers(0, 6).map(F),
    st.fractions(min_value=0, max_value=50, max_denominator=8),
)
raw_pieces = st.lists(st.tuples(piece_rates, piece_bursts), min_size=1, max_size=8)
services = st.builds(
    RateLatencyService,
    st.fractions(min_value=F(1, 8), max_value=60, max_denominator=8),
    st.fractions(min_value=0, max_value=5, max_denominator=8),
)


def crossings(pieces):
    """Every t > 0 where two of the raw pieces cross."""
    return {
        (b2 - b1) / (r1 - r2)
        for r1, b1 in pieces
        for r2, b2 in pieces
        if r1 > r2 and b2 > b1
    }


class TestCanonicalEnvelope:
    def test_never_minimal_middle_piece_dropped(self):
        # (1, 10) and (4, 0) cross at t = 10/3, where (2, 9) is above both
        envelope = MinAffineCurve(((F(1), F(10)), (F(4), F(0))))
        assert MinAffineCurve(((1, 10), (2, 9), (4, 0))) == envelope

    def test_dominated_and_duplicate_pieces_dropped(self):
        c = MinAffineCurve(((5, 3), (5, 10), (7, 2), (9, 2), (7, 2), (6, 0)))
        assert c.pieces == ((F(5), F(3)), (F(6), F(0)))

    def test_zero_bursts_leave_the_slowest_piece(self):
        assert MinAffineCurve(((3, 0), (1, 0), (2, 0))).pieces == ((F(1), F(0)),)

    @settings(max_examples=150, deadline=None)
    @given(pieces=raw_pieces)
    def test_each_piece_is_the_minimum_on_an_interval(self, pieces):
        kept = MinAffineCurve(tuple(pieces)).pieces
        rates, bursts = [r for r, _ in kept], [b for _, b in kept]
        assert rates == sorted(set(rates)) and bursts == sorted(set(bursts))[::-1]
        breaks = [
            (b0 - b1) / (r1 - r0) for (r0, b0), (r1, b1) in zip(kept, kept[1:])
        ]
        assert breaks == sorted(set(breaks))[::-1]  # every interval is nonempty
        edges = [2 * breaks[0] + 1 if breaks else F(1)] + breaks + [F(0)]
        for (r, b), hi, lo in zip(kept, edges, edges[1:]):
            t = (hi + lo) / 2
            others = [r2 * t + b2 for r2, b2 in pieces if (r2, b2) != (r, b)]
            assert all(r * t + b < v for v in others)

    @settings(max_examples=150, deadline=None)
    @given(pieces=raw_pieces, at_break=st.booleans(), pick=st.integers(0, 7),
           v=rationals)
    def test_shift_equals_the_hull_of_every_shifted_piece(self, pieces, at_break,
                                                          pick, v):
        c = MinAffineCurve(tuple(pieces))
        breaks = [(b0 - b1) / (r1 - r0)
                  for (r0, b0), (r1, b1) in zip(c.pieces, c.pieces[1:])]
        if at_break and breaks:
            v = breaks[pick % len(breaks)]  # V exactly at a breakpoint
        want = MinAffineCurve(tuple((r, b + r * v) for r, b in c.pieces))
        assert shift_jitter(c, v) == want

    @settings(max_examples=150, deadline=None)
    @given(pieces=raw_pieces, weights=st.lists(st.fractions(0, 1), max_size=4))
    def test_equality_is_equality_of_functions(self, pieces, weights):
        # a convex combination of two pieces is never below their minimum
        (r1, b1), (r2, b2) = pieces[0], pieces[-1]
        above = [(w * r1 + (1 - w) * r2, w * b1 + (1 - w) * b2) for w in weights]
        c = MinAffineCurve(tuple(pieces))
        assert MinAffineCurve(tuple(above + pieces[::-1] + pieces)) == c
        assert MinAffineCurve(c.pieces) == c

    @settings(max_examples=200, deadline=None)
    @given(
        a=raw_pieces,
        b=raw_pieces,
        service=services,
        ts=st.lists(st.fractions(min_value=0, max_value=100, max_denominator=16),
                    max_size=6),
    )
    def test_matches_oracle(self, a, b, service, ts):
        curve = MinAffineCurve(tuple(a))
        m = min_curves(curve, MinAffineCurve(tuple(b)))
        merged = curve_oracle.min_curves(a, b)
        for t in sorted(set(ts) | crossings(a + b) | {F(0)}):
            assert curve.value(t) == curve_oracle.value(a, t)
            assert m.value(t) == curve_oracle.value(merged, t)
            assert m.value(t) == min(curve_oracle.value(a, t), curve_oracle.value(b, t))
            x = curve_oracle.value(a, t) + t  # a volume the curve reaches later
            assert curve.pseudo_inverse(x) == curve_oracle.pseudo_inverse(a, x)
        for pieces, c in ((a, curve), (a + b, m)):
            try:
                want = curve_oracle.horizontal_deviation(pieces, service)
            except InstabilityError:
                with pytest.raises(InstabilityError):
                    horizontal_deviation(c, service)
            else:
                assert horizontal_deviation(c, service) == want


p_over_q = st.fractions(min_value=F(1, 97), max_value=10**4, max_denominator=97)
kernel_pieces = st.lists(
    st.tuples(st.one_of(piece_rates, p_over_q),
              st.one_of(piece_bursts, p_over_q, st.just(F(0)))),
    min_size=1, max_size=9,
)


def outcome(call):
    """What ``call()`` returns, or the type and text of what it raises."""
    try:
        return call()
    except Exception as exc:  # the kernels and the oracle raise alike
        return type(exc), str(exc)


class TestIntegerKernelsMatchFractionOracle:
    """Each kernel on integer ticks against the Fraction kernels it replaced
    (``fraction_curve_oracle``): the same curve, value or exception."""

    @settings(max_examples=200, deadline=None)
    @given(raw=kernel_pieces, other=kernel_pieces, data=st.data())
    def test_kernels(self, raw, other, data):
        c, env = MinAffineCurve(tuple(raw)), fraction_curve_oracle.envelope(raw)
        assert c.pieces == env
        assert c == MinAffineCurve(env)  # reduced bases: one record per function
        assert c.to_json()["pieces"] == [
            {"rate": fmt_rat(r), "burst": fmt_rat(b)} for r, b in env]
        breaks = [(b0 - b1) / (r1 - r0) for (r0, b0), (r1, b1) in zip(env, env[1:])]
        # 0, a drawn jitter, and one at or just past a breakpoint, which
        # drops every piece faster than it
        jitters = [F(0), data.draw(p_over_q)]
        if breaks:
            jitters.append(data.draw(st.sampled_from(breaks))
                           + data.draw(st.sampled_from([F(0), F(1, 10**6)])))
        for v in jitters:
            got = outcome(lambda: shift_jitter(c, v))
            want = outcome(lambda: fraction_curve_oracle.shift_jitter(env, v))
            if isinstance(got, MinAffineCurve):
                assert got.pieces == want and got == MinAffineCurve(want)
            else:
                assert got == want
        b = MinAffineCurve(tuple(other))
        m = min_curves(c, b)
        want = fraction_curve_oracle.min_curves(env, b.pieces)
        assert m.pieces == want and m == MinAffineCurve(want)
        latency = data.draw(st.one_of(st.just(F(0)), p_over_q))
        for rate in (env[0][0], data.draw(p_over_q)):  # R = the long-run rate too
            svc = RateLatencyService(rate, latency)
            assert outcome(lambda: horizontal_deviation(c, svc)) == outcome(
                lambda: fraction_curve_oracle.horizontal_deviation(env, svc))
        for t in {F(0), data.draw(p_over_q), *breaks}:
            assert c.value(t) == curve_oracle.value(env, t)
            assert backlog_bound(c, t) == curve_oracle.value(env, t)
            x = curve_oracle.value(env, t) + data.draw(st.sampled_from([F(0), t]))
            assert c.pseudo_inverse(x) == curve_oracle.pseudo_inverse(env, x)
        l_min = data.draw(p_over_q)
        assert min_spacing(c, l_min) == curve_oracle.pseudo_inverse(env, 2 * l_min)
        assert c.value_at_zero_plus() == env[-1][1]


class TestConformance:
    def test_single_max_packet(self):
        verdict = check_conforms(source_trace([F(64)], [F(0)]), AUTOMOTIVE_ALPHA1)
        assert verdict.ok

    def test_back_to_back_packets_violate(self):
        trace = source_trace([F(64), F(64)], [F(0), F(0)])
        verdict = check_conforms(trace, AUTOMOTIVE_ALPHA1)
        assert not verdict.ok
        assert (verdict.first_index, verdict.second_index) == (1, 2)
        assert verdict.required_gap == F("0.512") * US

    def test_gap_exactly_at_inverse_conforms(self):
        gap = F("0.512") * US
        trace = source_trace([F(64), F(64)], [F(0), gap])
        assert check_conforms(trace, AUTOMOTIVE_ALPHA1).ok

    def test_packet_curve_spacing(self):
        c = StaircaseCurve(F(1), F("0.008"), "packets")
        assert not check_conforms(source_trace([F(10)] * 2, [F(0), F("0.004")]), c).ok
        assert check_conforms(source_trace([F(10)] * 2, [F(0), F("0.008")]), c).ok

    @pytest.mark.parametrize("curve", [
        MinAffineCurve(((F(1, 1000), F(1)),), PACKETS),  # 1 ns short: 1 unit over
        leaky_bucket(F(6400, 3), F(1283, 2)),
        min_curves(leaky_bucket(F(6400, 3), F(1283, 2)), leaky_bucket(F(128000, 7), 64)),
        StaircaseCurve(F(129, 2), F(1, 3)),
        StaircaseCurve(F(3), F(2, 7), PACKETS),
    ])
    def test_one_ns_early_violates(self, curve):
        # packetize leaves every packet at its earliest conforming time; the
        # last one starts a period, and 1 ns is one tick of the pulled trace
        sizes = [F(64)] * 13
        emits = scenario_oracle.packetize(
            curve, sizes if curve.unit == BYTES else [F(1)] * 13)
        assert check_conforms(source_trace(sizes, emits), curve).ok
        emits[-1] -= F(1, 10**9)
        assert emits[-2] < emits[-1]
        verdict = check_conforms(source_trace(sizes, emits), curve)
        assert not verdict.ok
        assert verdict == pairwise_check_conforms(emits, sizes, curve)

    # a trace that the check could not read is refused when it is built
    def test_decreasing_times_rejected(self):
        with pytest.raises(TraceError, match="wide-sense increasing"):
            source_trace([F(1), F(1)], [F(1), F(0)])

    def test_fewer_sizes_than_times_rejected(self):
        with pytest.raises(TraceError, match="columns differ in length"):
            source_trace([F(64), F(64)], [F(0), F(1), F(2)])

    def test_more_sizes_than_times_rejected(self):
        with pytest.raises(TraceError, match="columns differ in length"):
            source_trace([F(64), F(64), F(64)], [F(0), F(1)])

    def test_negative_size_rejected(self):
        with pytest.raises(TraceError, match="sizes must be finite and > 0"):
            source_trace([F(64), F(-1)], [F(0), F(1)])

    def test_trace_without_emission_times_refused(self):
        with pytest.raises(ValueError, match="no emission times"):
            check_conforms(Trace([F(64)], None, [F(0)]), AUTOMOTIVE_ALPHA1)

    def test_emission_literals_give_one_verdict(self):
        # "0.50" puts the CSV trace on base 100, not 2; every form of the
        # schedule gives the same verdict and witness
        c = leaky_bucket(F(64), F(64))
        verdicts = set()
        for half in ("0.50", "1/2", "0.5"):
            text = "".join(
                f"{i},64,{t},inf\n" for i, t in enumerate(("0", half, "1"), start=1)
            )
            trace = trace_from_csv(",".join(CSV_HEADER) + "\n" + text)
            verdicts.add(check_conforms(trace, c))
        assert verdicts == {Conformance(False, 1, 2, F(1), F(1, 2))}


@st.composite
def conformance_cases(draw):
    """A curve, a conforming trace for it (``packetize`` for a min-affine
    curve, ``period_packed`` for a staircase) with a few gaps widened, and a
    list of packets to pull earlier, each to a point between its
    predecessor's emission and its own (0 makes the two equal)."""
    unit = draw(st.sampled_from([BYTES, PACKETS]))
    n = draw(st.integers(1, 200))
    sizes = draw(st.lists(st.integers(1, 64).map(F), min_size=n, max_size=n))
    floor = 64 if unit == BYTES else 1  # one maximal packet fits
    rates = st.builds(F, st.integers(1, 400), st.integers(1, 4))
    bursts = st.builds(F, st.integers(0, 16 * floor), st.integers(1, 4)).map(
        lambda b: floor + b
    )
    if draw(st.booleans()):
        pieces = draw(st.lists(st.tuples(rates, bursts), min_size=1, max_size=4))
        curve = MinAffineCurve(tuple(pieces), unit)
    else:
        period = draw(st.builds(F, st.integers(1, 20), st.integers(1, 4)))
        curve = StaircaseCurve(draw(bursts), period, unit)
    volumes = sizes if unit == BYTES else [F(1)] * n
    if isinstance(curve, MinAffineCurve):
        base = scenario_oracle.packetize(curve, volumes)
    else:
        base = period_packed(curve, volumes)
    # up to three gaps widen by 1/4 or 1 times themselves
    widen = draw(
        st.dictionaries(st.integers(1, max(1, n - 1)),
                        st.sampled_from([F(1, 4), F(1)]), max_size=3)
    )
    emits, extra = [base[0]], F(0)
    for k in range(1, n):
        extra += widen.get(k, 0) * (base[k] - base[k - 1])
        emits.append(base[k] + extra)
    pulls = draw(
        st.lists(st.tuples(st.integers(1, max(1, n - 1)),
                           st.sampled_from([F(0), F(1, 2), F(9, 10)])),
                 min_size=1, max_size=3)
    )
    return curve, sizes, emits, pulls


def period_packed(curve, volumes):
    """Emission times for a staircase: each period's packets leave at its
    start, as many as fit in the burst.  (``packetize`` keys periods on the
    running total, so a packet straddling a burst boundary can overfill the
    next period.)"""
    times, period, used = [], 0, F(0)
    for v in volumes:
        if used + v > curve.burst:
            period, used = period + 1, F(0)
        used += v
        times.append(period * curve.period)
    return times


def pulled_earlier(emits, pulls):
    out = list(emits)
    for k, frac in pulls:
        if k < len(out):
            out[k] = out[k - 1] + frac * (out[k] - out[k - 1])
    return out


class TestConformanceMatchesPairwise:
    @settings(max_examples=150, deadline=None)
    @given(case=conformance_cases())
    def test_verdict_and_witness_identical(self, case):
        curve, sizes, emits, pulls = case
        assert check_conforms(source_trace(sizes, emits), curve) == Conformance(True)
        pulled = pulled_earlier(emits, pulls)
        assert check_conforms(source_trace(sizes, pulled), curve) == (
            pairwise_check_conforms(pulled, sizes, curve)
        )

    def test_prime_denominator_emissions(self):
        # 200 times over the product of the first 200 primes, sizes over the
        # first 50: the sweeps' constants run to hundreds of digits
        sizes, emits, _ = prime_denominator_columns(200)
        trace = source_trace(sizes, emits)
        curves = [
            leaky_bucket(64, 104),
            min_curves(leaky_bucket(64, 100), leaky_bucket(128, 70)),  # fails at 1,101
            MinAffineCurve(((F(1), F(5, 4)),), PACKETS),
            StaircaseCurve(F(643, 5), F(1)),  # packets 50 and 51 top 128.6 B
            StaircaseCurve(F(3), F(2), PACKETS),
        ]
        verdicts = [check_conforms(trace, c) for c in curves]
        assert verdicts == [pairwise_check_conforms(emits, sizes, c) for c in curves]
        assert [v.ok for v in verdicts] == [True, False, False, False, True]


class TestConformanceAtScale:
    N = 16_000

    def test_leaky_bucket_trace(self):
        # one 64 B packet per 512 ns: every window is exactly at the curve
        curve = leaky_bucket(125_000_000, 64)
        spacing = F(64, 125_000_000)
        emits = [k * spacing for k in range(self.N)]
        sizes = [F(64)] * self.N
        assert check_conforms(source_trace(sizes, emits), curve).ok
        # packet 8000 half a spacing early: window 1..8000 holds 8000 packets
        # in 7998.5 spacings, and every shorter window ending there is short
        # of its spacing by the same half
        emits[7999] -= spacing / 2
        verdict = check_conforms(source_trace(sizes, emits), curve)
        assert (verdict.ok, verdict.first_index, verdict.second_index) == (False, 1, 8000)
        assert verdict.required_gap == 7999 * spacing
        assert verdict.actual_gap == F(15997, 2) * spacing

    def test_packet_staircase_trace(self):
        # 4 packets per 1 ms, evenly spaced at 250 us
        period = F(1, 1000)
        curve = StaircaseCurve(F(4), period, PACKETS)
        spacing = period / 4
        emits = [k * spacing for k in range(self.N)]
        sizes = [F(64)] * self.N
        assert check_conforms(source_trace(sizes, emits), curve).ok
        # packet 8000 half a spacing early: a window m..8000 of d + 1 packets
        # now spans d - 1/2 spacings and needs floor(d/4) periods, which fails
        # exactly when 4 divides d; the longest such window has d = 7996
        emits[7999] -= spacing / 2
        verdict = check_conforms(source_trace(sizes, emits), curve)
        assert (verdict.ok, verdict.first_index, verdict.second_index) == (False, 4, 8000)
        assert verdict.required_gap == 1999 * period
        assert verdict.actual_gap == F(15991, 2) * spacing


class TestFlowSpec:
    def test_burst_below_l_max_rejected(self):
        with pytest.raises(CurveError):
            FlowSpec(leaky_bucket(100, 50), l_min=F(60), l_max=F(60))

    def test_size_regimes(self):
        FlowSpec(leaky_bucket(100, 200), l_min=F(64), l_max=F(64))
        FlowSpec(leaky_bucket(100, 200), l_min=F(64), l_max=F(128))
        with pytest.raises(CurveError):
            FlowSpec(leaky_bucket(100, 200), l_min=F(64), l_max=F(100))


class TestSerialization:
    def test_round_trip_min_affine(self):
        blob = AUTOMOTIVE_ALPHA1.to_json()
        assert blob["kind"] == "min_affine"
        assert curve_from_json(blob) == AUTOMOTIVE_ALPHA1

    def test_round_trip_staircase(self):
        c = StaircaseCurve(F(3), F("0.008"), "packets")
        assert curve_from_json(c.to_json()) == c

    @pytest.mark.parametrize(
        "blob,message",
        [
            ({"kind": "min_affine", "pieces": 5}, "curve pieces must be a list"),
            ({"kind": "min_affine", "pieces": [5]}, "curve piece must be an object"),
            ({"kind": "staircase", "period": "1"}, "missing key 'burst' in curve"),
            ([1], "curve must be an object"),
            ({"kind": "min_affine", "pieces": [{"rate": "1"}]},
             "missing key 'burst' in curve piece"),
        ],
    )
    def test_malformed_json_raises_curve_error(self, blob, message):
        with pytest.raises(CurveError) as exc:
            curve_from_json(blob)
        assert str(exc.value) == message

    def test_decimal_strings_parse_exactly(self):
        c = curve_from_json(
            {
                "unit": "bytes",
                "kind": "min_affine",
                "pieces": [{"rate": "125e6", "burst": "251.5"}],
            }
        )
        assert c.pieces == ((F(125_000_000), F("251.5")),)


STAIR = StaircaseCurve(640, F(1, 100))


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: MinAffineCurve(((0, 640),)), CurveError,
         "piece rates must be > 0 (curves are unbounded)"),
        (lambda: MinAffineCurve([]), CurveError,
         "min-affine curve needs at least one piece"),
        (lambda: curve_from_json({"kind": "min_affine", "pieces": []}), CurveError,
         "min-affine curve needs at least one piece"),
        (lambda: leaky_bucket(6400, 640).pseudo_inverse(-1), ValueError,
         "pseudo-inverse is defined on x >= 0"),
        (lambda: STAIR.value(-1), ValueError, "curves are defined on t >= 0"),
        (lambda: STAIR.pseudo_inverse(-1), ValueError,
         "pseudo-inverse is defined on x >= 0"),
        (lambda: min_spacing(leaky_bucket(6400, 640)), ValueError,
         "byte-curve packet spacing needs l_min"),
        (lambda: backlog_bound(leaky_bucket(6400, 640), -1), ValueError,
         "delay bound must be >= 0"),
        (lambda: shift_jitter(leaky_bucket(6400, 640), -1), ValueError,
         "jitter must be >= 0"),
        (lambda: min_curves(STAIR, leaky_bucket(6400, 640)), CurveError,
         "min is defined for min-affine curves only"),
        (lambda: horizontal_deviation(STAIR, RateLatencyService(125_000_000, 0)),
         CurveError, "delay bound requires a min-affine arrival curve"),
        (lambda: StaircaseCurve(0, 1), CurveError,
         "staircase burst and period must be > 0"),
        (lambda: StaircaseCurve(640, 0), CurveError,
         "staircase burst and period must be > 0"),
        (lambda: StaircaseCurve(-640, 1), CurveError,
         "staircase burst and period must be > 0"),
        (lambda: curve_from_json({"kind": "staircase", "burst": "640", "period": "0"}),
         CurveError, "staircase burst and period must be > 0"),
    ],
    ids=["zero-rate", "no-piece", "json-no-piece", "affine-inverse-below-0", "staircase-value-below-0",
         "staircase-inverse-below-0", "spacing-without-l_min",
         "backlog-negative-delay", "shift-negative-jitter", "min-of-staircase",
         "deviation-of-staircase", "staircase-zero-burst", "staircase-zero-period",
         "staircase-negative-burst", "json-staircase-zero-period"],
)
def test_refusals(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert exc.type is error and str(exc.value) == message
