import math
import random
from fractions import Fraction as F
from operator import le

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scenario_oracle as oracle
from arrival_trace import source_trace
from tick_columns import departures
from reseqkit import scenarios
from reseqkit.bounds import SequenceElement, rbo_bound_element
from reseqkit.curves import (
    CurveError,
    FlowSpec,
    MinAffineCurve,
    StaircaseCurve,
    backlog_bound,
    check_conforms,
    leaky_bucket,
    min_curves,
)
from reseqkit.cli import main
from reseqkit.metrics import Trace, delay_jitter, rbo, rto, trace_to_csv
from reseqkit.rational import INF, on_common_base
from reseqkit.resequencer import INVALID_LATE, ResequencerConfig, simulate
from reseqkit.scenarios import (
    DecompositionError,
    ScenarioError,
    decompose_bytes,
    gen_amplified_rto_chain,
    gen_lossless_backlog_burst,
    gen_lossy_backlog_burst,
    gen_rbo_tight_burst,
    gen_rto_tight_pair,
    gen_two_packet_swap,
    packetize,
)

US = F(1, 10**6)
ALPHA1 = min_curves(leaky_bucket(6400, 6400), leaky_bucket(125_000_000, 64))
FIXED64 = FlowSpec(leaky_bucket(6400, 6400), l_min=F(64), l_max=F(64))
MIXED = FlowSpec(leaky_bucket(6400, 6400), l_min=F(64), l_max=F(200))
# 100 B per ms, and a flow of 32-64 B packets that fill its periods only in part
STAIR = StaircaseCurve(F(100), F(1, 1000))
PARTIAL = FlowSpec(STAIR, F(32), F(64))
AUTO64 = FlowSpec(ALPHA1, F(64), F(64))


def fractions(lo, hi, max_den):
    """p/q with p in [lo, hi] and q in [1, max_den]."""
    return st.builds(F, st.integers(lo, hi), st.integers(1, max_den))


def packetized(curve, sizes):
    """``packetize`` of exact sizes, put on their common base, as exact
    times."""
    size_den, (ticks,) = on_common_base(list(map(F, sizes)))
    times, den = packetize(curve, ticks, size_den)
    return [F(t, den) for t in times]


class TestDecompose:
    def test_fixed_size_multiples(self):
        assert decompose_bytes(F(192), FIXED64) == [F(64)] * 3
        with pytest.raises(DecompositionError):
            decompose_bytes(F(100), FIXED64)

    def test_mixed_rebalances_small_remainder(self):
        for total in (F(64), F(70), F(200), F(250), F(400), F(401), F(463)):
            parts = decompose_bytes(total, MIXED)
            assert sum(parts) == total
            assert all(F(64) <= p <= F(200) for p in parts)

    def test_below_minimum_rejected(self):
        with pytest.raises(DecompositionError):
            decompose_bytes(F(10), MIXED)

    def test_reachable_floor(self):
        assert FIXED64.reachable_floor(F(130)) == 128
        assert MIXED.reachable_floor(F(130)) == 130
        assert FIXED64.reachable_floor(F(10)) == 0

    @settings(max_examples=300)
    @given(l_min=fractions(1, 128, 5), wider=st.one_of(st.none(), fractions(0, 300, 4)),
           total=fractions(0, 2_000, 9))
    def test_refuses_exactly_the_unreachable_totals(self, l_min, wider, total):
        """One reachability rule: ``decompose_bytes`` refuses a total exactly
        when ``reachable_floor`` moves it, and otherwise splits it into
        admissible sizes."""
        l_max = l_min if wider is None else 2 * l_min + wider
        flow = FlowSpec(leaky_bucket(1000, l_max), l_min, l_max)
        if flow.reachable_floor(total) != total:
            with pytest.raises(DecompositionError):
                decompose_bytes(total, flow)
            return
        sizes = decompose_bytes(total, flow)
        assert sum(sizes) == total
        assert all(l_min <= s <= l_max for s in sizes)


class TestPacketize:
    def test_burst_then_rate_limited(self):
        c = leaky_bucket(6400, 6400)
        sizes = [F(64)] * 101
        times = packetized(c, sizes)
        assert times[:100] == [F(0)] * 100  # the burst admits 100 packets
        assert times[100] == F(64) / 6400  # then one packet per 10 ms

    def test_staircase_one_per_period(self):
        c = StaircaseCurve(F(64), F(2))
        times = packetized(c, [F(64)] * 4)
        assert times == [F(0), F(2), F(4), F(6)]

    def test_staircase_window_from_a_later_packet_binds(self):
        # counted from packet 1, packets 4 and 5 (224 and 288 B) both fit
        # by 2 ms, but the two of them alone are 128 B in one period, so
        # packet 5 must wait for the next one
        sizes = [F(32)] + [F(64)] * 6 + [F(52), F(32)]
        times = packetized(STAIR, sizes)
        assert times == [F(q, 1000) for q in (0, 0, 1, 2, 3, 4, 5, 6, 6)]
        assert check_conforms(source_trace(sizes, times), STAIR).ok
        prefix_only = [STAIR.pseudo_inverse(sum(sizes[:k])) for k in range(1, 10)]
        verdict = check_conforms(source_trace(sizes, prefix_only), STAIR)
        assert (verdict.first_index, verdict.second_index) == (4, 5)

    def test_rbo_tight_staircase_too_slow_for_the_window(self):
        # the burst above needs until 6 ms, past the 5 ms jitter window:
        # the generator says so instead of emitting a non-conforming trace
        with pytest.raises(ScenarioError, match="leave only at 0.006 s"):
            gen_rbo_tight_burst(PARTIAL, F(5, 1000))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_earliest_over_every_window(self, data):
        # every packet fits in the curve's burst, so a conforming burst exists
        if data.draw(st.booleans()):
            rates = st.builds(F, st.integers(1, 400), st.integers(1, 4))
            bursts = st.builds(F, st.integers(4 * 64, 4 * 400), st.just(4))
            pieces = data.draw(st.lists(st.tuples(rates, bursts), min_size=1, max_size=4))
            curve = MinAffineCurve(tuple(pieces))
        else:
            curve = StaircaseCurve(
                data.draw(st.builds(F, st.integers(2 * 64, 2 * 200), st.just(2))),
                data.draw(st.builds(F, st.integers(1, 20), st.integers(1, 4))),
            )
        sizes = data.draw(st.lists(st.integers(1, 64).map(F), min_size=1, max_size=30))
        times = packetized(curve, sizes)
        prefix = [F(0)]
        for size in sizes:
            prefix.append(prefix[-1] + size)
        inv = curve.pseudo_inverse
        want = [inv(prefix[1])]
        for k in range(1, len(sizes)):
            want.append(max(want[m] + inv(prefix[k + 1] - prefix[m]) for m in range(k)))
        assert times == want
        assert check_conforms(source_trace(sizes, times), curve).ok


class TestTwoPacketSwap:
    def test_offsets_match_request(self):
        trace = gen_two_packet_swap(F(7), t0=F(0))
        assert [p.observe_time for p in trace.packets] == [F(7), F(0)]
        assert rto(trace).value == 7

    def test_discarded_below_timeout_released_at_it(self):
        lam = F("29.49") * US
        trace = gen_two_packet_swap(lam, t0=F(1))
        eps = lam / 10**6
        short = simulate(trace, ResequencerConfig(lam - eps, INF))
        assert short.discards == {1: INVALID_LATE}
        exact = simulate(trace, ResequencerConfig(lam, INF))
        assert exact.discards == {}

    def test_positive_offset_required(self):
        with pytest.raises(ScenarioError):
            gen_two_packet_swap(F(0))


class TestLosslessBacklogBurst:
    def test_occupancy_equals_requested_bytes(self):
        sizes = [F(64)] * 99
        trace = gen_lossless_backlog_burst(F("29.49") * US, sizes, F(64))
        out = simulate(trace, ResequencerConfig(F("29.49") * US, INF))
        assert out.discards == {}
        assert out.max_occupancy == 6336

    def test_single_early_packet(self):
        trace = gen_lossless_backlog_burst(F(5), [F(100)], F(64))
        out = simulate(trace, ResequencerConfig(F(5), INF))
        assert out.max_occupancy == 100

    def test_metrics_round_trip(self):
        lam = F(3, 1000)
        sizes = [F(64), F(128), F(64)]
        trace = gen_lossless_backlog_burst(lam, sizes, F(64))
        assert rto(trace).value == lam
        assert rbo(trace).value == sum(sizes)


class TestLossyBacklogBurst:
    def test_exact_occupancy_on_decomposable_window(self):
        # 6400 * (V + T - eps) lands on a packet boundary: 6464 B
        v, t, eps = F(6, 1000), F(5, 1000), F(1, 1000)
        trace = gen_lossy_backlog_burst(FIXED64, v, t, eps)
        target = FIXED64.source_curve.value(v + t - eps)
        assert target == 6464
        out = simulate(trace, ResequencerConfig(t, INF))
        assert out.discards == {}
        assert out.max_occupancy == target

    def test_automotive_window_floors_to_whole_packets(self):
        v = F("92.688") * US
        t = F("29.488") * US
        trace = gen_lossy_backlog_burst(AUTO64, v, t)
        out = simulate(trace, ResequencerConfig(t, INF))
        assert out.max_occupancy == 6400  # 100 packets of 64 B

    def test_conforms_and_jitter_bounded(self):
        v, t = F(6, 1000), F(5, 1000)
        trace = gen_lossy_backlog_burst(FIXED64, v, t)
        assert check_conforms(trace, FIXED64.source_curve).ok
        assert trace.packets[0].lost
        assert delay_jitter(trace).jitter <= v

    def test_mixed_sizes(self):
        v, t, eps = F(2, 100), F(1, 100), F(1, 1000)
        trace = gen_lossy_backlog_burst(MIXED, v, t, eps)
        target = MIXED.source_curve.value(v + t - eps)
        out = simulate(trace, ResequencerConfig(t, INF))
        assert out.max_occupancy == target
        assert check_conforms(trace, MIXED.source_curve).ok

    def test_eps_bounds_checked(self):
        with pytest.raises(ScenarioError):
            gen_lossy_backlog_burst(AUTO64, F(1), F(1), eps=F(2))

    def test_staircase_burst_parks_whole(self):
        # 50-100 B packets fill the periods: all 800 B wait behind the hole
        flow = FlowSpec(STAIR, F(50), F(100))
        v, t = F(5, 1000), F(3, 1000)
        trace = gen_lossy_backlog_burst(flow, v, t)
        out = simulate(trace, ResequencerConfig(t, INF))
        assert out.max_occupancy == sum(p.size for p in trace.packets[1:]) == 800
        assert out.discards == {}

    def test_staircase_too_slow_for_the_window(self):
        # the 800 B burst needs until 11 ms, past the 8 ms window
        with pytest.raises(ScenarioError, match="leave only at 0.011 s"):
            gen_lossy_backlog_burst(PARTIAL, F(5, 1000), F(3, 1000))


class TestRtoTightPair:
    def test_automotive_fabric_offset(self):
        trace = gen_rto_tight_pair(F("1.5") * US, ALPHA1, F(64))
        assert rto(trace).value == F("0.988") * US

    def test_tiny_margin(self):
        spacing = ALPHA1.pseudo_inverse(128)
        ns = F(1, 10**9)
        trace = gen_rto_tight_pair(spacing + ns, ALPHA1, F(64))
        assert rto(trace).value == ns

    def test_jitter_is_exactly_v(self):
        v = F("1.5") * US
        trace = gen_rto_tight_pair(v, ALPHA1, F(64))
        assert delay_jitter(trace).jitter == v

    def test_conforms(self):
        trace = gen_rto_tight_pair(F("1.5") * US, ALPHA1, F(64))
        assert check_conforms(trace, ALPHA1).ok

    def test_no_reordering_possible_rejected(self):
        with pytest.raises(ScenarioError):
            gen_rto_tight_pair(F("0.5") * US, ALPHA1, F(64))


class TestRboTightBurst:
    def test_leaky_bucket_approaches_formula(self):
        r, b, l_min = F(6400), F(6400), F(64)
        v, eps = F(1, 100), F(1, 10000)
        flow = MIXED
        trace = gen_rbo_tight_burst(flow, v, eps)
        expect = r * (v - eps) + b - l_min
        assert rbo(trace).value == expect
        # approaches r*V + b - l_min as eps shrinks
        assert abs(expect - (r * v + b - l_min)) == r * eps

    def test_equal_size_packets_multiple_of_l(self):
        c = StaircaseCurve(F(192), F(8, 1000))
        flow = FlowSpec(c, l_min=F(64), l_max=F(64))
        trace = gen_rbo_tight_burst(flow, F(4, 1000), F(1, 1000))
        assert rbo(trace).value % 64 == 0
        assert rbo(trace).value == 192 - 64

    def test_rto_equals_eps(self):
        v, eps = F(1, 100), F(1, 10000)
        trace = gen_rbo_tight_burst(MIXED, v, eps)
        assert rto(trace).value == eps

    def test_jitter_within_v_and_conforms(self):
        v, eps = F(1, 100), F(1, 10000)
        trace = gen_rbo_tight_burst(MIXED, v, eps)
        assert delay_jitter(trace).jitter <= v
        assert check_conforms(trace, MIXED.source_curve).ok

    def test_indecomposable_window_rejected(self):
        with pytest.raises(DecompositionError):
            gen_rbo_tight_burst(FIXED64, F(3, 1000), F(1, 1000))


class TestSizesWithinFlow:
    """A generated trace keeps every size in the flow's [l_min, l_max]
    (``Trace`` does not check sizes against a flow): ``decompose_bytes``
    rebalances a short remainder into l_max + rem - l_min, in range as
    l_max >= 2*l_min, and the head packet is l_min or l_max."""

    FLOWS = [FIXED64, MIXED, FlowSpec(leaky_bucket(6400, 640), F(129, 2), F(129)),
             FlowSpec(leaky_bucket(6400, 6400), F(32), F(100))]

    @settings(max_examples=60)
    @given(flow=st.sampled_from(FLOWS),
           v=st.fractions(F(1, 1000), F(2, 100), max_denominator=1000),
           t=st.fractions(F(1, 1000), F(1, 100), max_denominator=1000))
    def test_generated_sizes_within_flow(self, flow, v, t):
        for make in (lambda: gen_lossy_backlog_burst(flow, v, t),
                     lambda: gen_rbo_tight_burst(flow, v)):
            try:
                trace = make()
            except ScenarioError:
                continue
            assert all(flow.l_min <= p.size <= flow.l_max for p in trace.packets)

class TestOracleEquivalenceOnGeneratedTraces:
    def test_simulator_matches_recursion(self):
        from reseqkit.resequencer import analytic_departures

        v, t, eps = F(6, 1000), F(5, 1000), F(1, 1000)
        traces = [
            gen_two_packet_swap(F(7)),
            gen_lossless_backlog_burst(F(5), [F(64)] * 4, F(64)),
            gen_lossy_backlog_burst(FIXED64, v, t, eps),
            gen_rto_tight_pair(F("1.5e-6"), ALPHA1, F(64)),
            gen_rbo_tight_burst(MIXED, F(1, 100), F(1, 10000)),
        ]
        for trace in traces:
            for timeout in (F(0), F(1, 1000), F(5, 1000), F(1)):
                sim = simulate(trace, ResequencerConfig(timeout, INF))
                ana = analytic_departures(
                    {p.index: p.observe_time for p in trace.packets}, timeout
                )
                assert departures(sim) == ana


class TestAmplifiedRtoChain:
    STAGES = [
        SequenceElement(F("1.5") * US, F("0.988") * US),
        SequenceElement(F("13.5") * US),
        SequenceElement(F("1.5") * US),
        SequenceElement(F("13.5") * US),
    ]

    def test_automotive_chain_rto(self):
        eps = F("0.988") * US / 10**6
        chain = gen_amplified_rto_chain(self.STAGES, eps=eps)
        want = F("29.488") * US - eps
        assert chain.rto_target == want
        assert rto(chain.end_to_end).value == want

    def test_single_stage(self):
        eps = F(1, 10**9)
        chain = gen_amplified_rto_chain([SequenceElement(F(5), F(2))], eps=eps)
        assert rto(chain.end_to_end).value == 2 - eps

    def test_per_stage_jitter_within_bounds(self):
        chain = gen_amplified_rto_chain(self.STAGES)
        for stage_trace, stage in zip(chain.per_stage, self.STAGES):
            assert delay_jitter(stage_trace).jitter <= stage.jitter

    def test_stages_after_head_preserve_order(self):
        chain = gen_amplified_rto_chain(self.STAGES)
        for stage_trace in chain.per_stage[1:]:
            assert rto(stage_trace).value == 0

    def test_distinct_observation_times(self):
        chain = gen_amplified_rto_chain(self.STAGES)
        for trace in chain.per_stage + (chain.end_to_end,):
            times = [p.observe_time for p in trace.packets]
            assert len(set(times)) == len(times)

    def test_eps_must_sit_below_head_rto(self):
        with pytest.raises(ScenarioError):
            gen_amplified_rto_chain([SequenceElement(F(5), F(2))], eps=F(2))


@st.composite
def scenario_inputs(draw):
    """A flow of constant or variable packet sizes on a min-affine curve of
    1-4 pieces or a staircase, with p/q jitter, timeout and eps (or the
    default eps); some draws break a generator's preconditions."""
    l_min = draw(fractions(16, 128, 4))
    l_max = l_min if draw(st.booleans()) else 2 * l_min + draw(fractions(0, 64, 3))
    if draw(st.booleans()):
        pieces = draw(st.lists(st.tuples(fractions(100, 20_000, 7),
                                         fractions(0, 2_000, 4).map(l_max.__add__)),
                               min_size=1, max_size=4))
        curve = MinAffineCurve(tuple(pieces))
    else:
        curve = StaircaseCurve(l_max + draw(fractions(0, 500, 3)),
                               draw(fractions(1, 40, 13)) / 1000)
    v, t = (draw(fractions(1, 120, 13)) / 1000 for _ in range(2))
    eps = draw(st.one_of(st.none(), fractions(1, 110, 7).map(lambda x: x / 100 * min(v, t))))
    return FlowSpec(curve, l_min, l_max), v, t, eps


@st.composite
def packetize_inputs(draw):
    """A min-affine curve of 1-8 pieces or a staircase, and up to 30 packet
    sizes as ticks on a drawn base (1, 10**k, 3 or a product of primes),
    some of them negative."""
    size_den = draw(st.one_of(st.just(1), st.integers(1, 9).map(lambda k: 10**k), st.just(3),
                              st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 101, 997]),
                                       min_size=1, max_size=4).map(math.prod)))
    if draw(st.booleans()):
        pieces = draw(st.lists(st.tuples(fractions(1, 20_000, 7), fractions(0, 2_000, 4)),
                               min_size=1, max_size=8))
        curve = MinAffineCurve(tuple(pieces))
    else:
        curve = StaircaseCurve(draw(fractions(1, 500, 3)), draw(fractions(1, 40, 13)) / 1000)
    sizes = draw(st.lists(st.integers(-50 * size_den, 400 * size_den), max_size=30))
    return curve, sizes, size_den


def outcome(make):
    """What ``make()`` returns, or the type and text of what it raises."""
    try:
        return make()
    except Exception as exc:  # the comparison is the point
        return type(exc), str(exc)


def columns(trace):
    return (trace.size_den, trace.size_ticks, trace.time_den, trace.emit_ticks,
            trace.observe_ticks)


def built(made):
    """An ``outcome``, with a trace given as its ``columns``."""
    return columns(made) if isinstance(made, Trace) else made


class TestMatchesFractionOracle:
    """The tick generators build the very columns and bases, and refuse with
    the very error, of the Fraction code they replaced
    (``tests/scenario_oracle.py``)."""

    @settings(max_examples=150, deadline=None)
    @given(scenario_inputs())
    def test_lossy_backlog(self, inputs):
        """... and a trace built fills the buffer to the lossy bound it is
        sized by."""
        flow, v, t, eps = inputs
        curve = flow.source_curve
        made = outcome(lambda: gen_lossy_backlog_burst(flow, v, t, eps))
        assert built(made) == outcome(
            lambda: columns(oracle.gen_lossy_backlog_burst(curve, v, t, flow, eps)))
        if isinstance(made, Trace):
            eps = min(v, t) / 10**6 if eps is None else eps
            target = flow.reachable_floor(backlog_bound(curve, v + t - eps))
            assert simulate(made, ResequencerConfig(t, INF)).max_occupancy == target

    @settings(max_examples=150, deadline=None)
    @given(scenario_inputs())
    def test_rbo_tight(self, inputs):
        """... and a trace built reaches the element RBO bound it is sized
        by."""
        flow, v, _, eps = inputs
        curve = flow.source_curve
        made = outcome(lambda: gen_rbo_tight_burst(flow, v, eps))
        assert built(made) == outcome(
            lambda: columns(oracle.gen_rbo_tight_burst(v, curve, flow, eps)))
        if isinstance(made, Trace):
            eps = v / 10**6 if eps is None else eps
            assert rbo(made).value == rbo_bound_element(v - eps, curve, flow.l_min)

    @settings(max_examples=150, deadline=None)
    @given(packetize_inputs())
    def test_packetize(self, inputs):
        curve, sizes, size_den = inputs

        def times():
            ticks, den = packetize(curve, sizes, size_den)
            return [F(t, den) for t in ticks]

        assert outcome(times) == outcome(
            lambda: oracle.packetize(curve, [F(s, size_den) for s in sizes]))

    @pytest.mark.parametrize("total", [F(0), F(64), F(130), F(401, 2), F(-1), F(10)])
    def test_decompose_bytes(self, total):
        for flow in (FIXED64, MIXED):
            assert outcome(lambda: decompose_bytes(total, flow)) == \
                outcome(lambda: oracle.decompose_bytes(total, flow))


def fractions_made(monkeypatch, make):
    """How many Fractions ``make()`` constructs, counted by wrapping
    ``Fraction.__new__`` (and ``_from_coprime_ints``, by which newer Pythons
    build arithmetic results)."""
    made = 0

    def counting(construct):
        def wrapper(*args, **kwargs):
            nonlocal made
            made += 1
            return construct(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(F, "__new__", counting(F.__new__))
        if "_from_coprime_ints" in vars(F):
            patch.setattr(F, "_from_coprime_ints",
                          classmethod(counting(F._from_coprime_ints.__func__)))
        make()
    return made


@pytest.mark.parametrize("make", [
    # windows of 2 and 8 s (plus 1/7 s): about 100 and 300 packets of
    # 64-200 B with a fractional tail
    lambda w: gen_lossy_backlog_burst(MIXED, w / 2 + F(1, 7), w / 2, F(1, 3000)),
    lambda w: gen_rbo_tight_burst(MIXED, w + F(1, 7), F(1, 3000)),
    # 100 and 300 early packets of 64 B and 100.5 B
    lambda w: gen_lossless_backlog_burst(
        F(1, 7), [F(64), F(201, 2)] * int((w + 1) * 50 / 3), F(64)),
], ids=["lossy-backlog", "rbo-tight", "lossless-backlog"])
def test_no_fraction_per_packet(make, monkeypatch):
    small, large = make(F(2)), make(F(8))
    assert 90 <= len(small) <= 110 and 280 <= len(large) <= 320
    assert (fractions_made(monkeypatch, lambda: make(F(8)))
            <= fractions_made(monkeypatch, lambda: make(F(2))))


def reordered_capture(n, seed=11):
    """n packets of 64-1500 B sent 1 us apart and seen up to 50 us late, in
    whole nanoseconds: nearly every packet has its own pair of offsets."""
    rng = random.Random(seed)
    observes, seen = [], set()
    for i in range(n):
        t = i * 1000 + rng.randrange(50_000)
        while t in seen:
            t += 1
        seen.add(t)
        observes.append(F(t, 10**9))
    sizes = [rng.randrange(64, 1501) for _ in range(n)]
    return Trace(sizes, [F(i, 10**6) for i in range(n)], observes)


def test_no_fraction_per_packet_in_metrics(tmp_path, monkeypatch, capsys):
    """``rto`` and ``rbo`` return each packet's offset as ticks and the CLI
    prints the flow values only, so a 4k-packet capture makes no more
    Fractions than a 1k-packet one."""
    made = []
    for n in (1000, 4000):
        trace = reordered_capture(n)
        path = tmp_path / f"{n}.csv"
        path.write_text(trace_to_csv(trace), encoding="utf-8")
        made.append([fractions_made(monkeypatch, lambda: rto(trace)),
                     fractions_made(monkeypatch, lambda: rbo(trace)),
                     fractions_made(monkeypatch, lambda: main(["metrics", str(path)]))])
    assert capsys.readouterr().out.count("rto_s=") == 2
    small, large = made
    assert all(map(le, large, small)), made


CURVE64 = leaky_bucket(6400, 640)
FLOW64 = FlowSpec(CURVE64, F(64), F(64))


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: packetize(CURVE64, [64, -128], 1), ValueError,
         "pseudo-inverse is defined on x >= 0"),
        (lambda: gen_lossless_backlog_burst(0, [64], 64), ScenarioError,
         "the overtaking offset must be > 0"),
        (lambda: gen_lossless_backlog_burst(1, [], 64), ScenarioError,
         "need at least one early packet"),
        (lambda: gen_lossy_backlog_burst(FLOW64, 0, 1), ScenarioError,
         "the construction needs jitter > 0 and timeout > 0"),
        (lambda: gen_lossy_backlog_burst(FLOW64, 1, -1), ScenarioError,
         "the construction needs jitter > 0 and timeout > 0"),
        # the flow a generator takes admits a packet in every window
        (lambda: FlowSpec(leaky_bucket(1, 0), 64, 64), CurveError,
         "source curve burst below l_max: a maximal packet could never be sent"),
        (lambda: gen_rbo_tight_burst(FLOW64, 0), ScenarioError,
         "the construction needs jitter > 0"),
        (lambda: gen_amplified_rto_chain([SequenceElement(2), SequenceElement(1)]),
         ScenarioError, "no stage may reorder"),
        (lambda: gen_amplified_rto_chain([]), ScenarioError, "no stage may reorder"),
        (lambda: gen_amplified_rto_chain([SequenceElement(3), SequenceElement(2, 0),
                                          SequenceElement(2, 1)]), ScenarioError,
         "the first stage that may reorder needs a positive RTO"),
        (lambda: gen_amplified_rto_chain([SequenceElement(1, 2)]), ValueError,
         "a stage's RTO lies between 0 and its jitter"),
    ],
    ids=["packetize-negative-size", "lossless-offset", "lossless-no-sizes",
         "lossy-jitter", "lossy-timeout", "flow-burst-below-l_max", "rbo-jitter",
         "chain-order-preserving", "chain-empty", "chain-head-rto",
         "chain-rto-above-jitter"],
)
def test_refusals(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert exc.type is error and str(exc.value) == message


def test_emissions_off_the_curve_are_refused(monkeypatch):
    """A burst whose last packet leaves one tick earlier than ``packetize``
    allows breaks the curve, and the generator refuses its own trace."""
    def one_tick_early(*args):
        times, den = packetize(*args)
        return times[:-1] + [times[-1] - 1], den

    monkeypatch.setattr(scenarios, "packetize", one_tick_early)
    with pytest.raises(ScenarioError) as exc:
        gen_rbo_tight_burst(MIXED, F(1, 100), F(1, 10000))
    assert exc.type is ScenarioError
    assert str(exc.value).startswith("packetized emissions violate the curve (pair ")
