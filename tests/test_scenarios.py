from fractions import Fraction as F

import pytest

from reseqkit.curves import (
    FlowSpec,
    StaircaseCurve,
    check_trace_conforms,
    leaky_bucket,
    min_curves,
)
from reseqkit.metrics import delay_jitter, rbo, rto
from reseqkit.rational import INF
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


def as_arrivals(trace):
    return {p.index: (p.observe_time, p.size) for p in trace.packets}


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


class TestPacketize:
    def test_burst_then_rate_limited(self):
        c = leaky_bucket(6400, 6400)
        sizes = [F(64)] * 101
        times = packetize(c, sizes)
        assert times[:100] == [F(0)] * 100  # the burst admits 100 packets
        assert times[100] == F(64) / 6400  # then one packet per 10 ms

    def test_staircase_one_per_period(self):
        c = StaircaseCurve(F(64), F(2))
        times = packetize(c, [F(64)] * 4)
        assert times == [F(0), F(2), F(4), F(6)]


class TestTwoPacketSwap:
    def test_offsets_match_request(self):
        trace = gen_two_packet_swap(F(7), t0=F(0))
        assert [p.observe_time for p in trace.packets] == [F(7), F(0)]
        assert rto(trace).value == 7

    def test_discarded_below_timeout_released_at_it(self):
        lam = F("29.49") * US
        trace = gen_two_packet_swap(lam, t0=F(1))
        eps = lam / 10**6
        short = simulate(as_arrivals(trace), ResequencerConfig(lam - eps, INF))
        assert short.discards == {1: INVALID_LATE}
        exact = simulate(as_arrivals(trace), ResequencerConfig(lam, INF))
        assert exact.discards == {}

    def test_positive_offset_required(self):
        with pytest.raises(ScenarioError):
            gen_two_packet_swap(F(0))


class TestLosslessBacklogBurst:
    def test_occupancy_equals_requested_bytes(self):
        sizes = [F(64)] * 99
        trace = gen_lossless_backlog_burst(F("29.49") * US, sizes, F(64))
        out = simulate(as_arrivals(trace), ResequencerConfig(F("29.49") * US, INF))
        assert out.discards == {}
        assert out.max_occupancy == 6336

    def test_single_early_packet(self):
        trace = gen_lossless_backlog_burst(F(5), [F(100)], F(64))
        out = simulate(as_arrivals(trace), ResequencerConfig(F(5), INF))
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
        curve = FIXED64.source_curve
        trace = gen_lossy_backlog_burst(curve, v, t, FIXED64, eps)
        target = curve.value(v + t - eps)
        assert target == 6464
        out = simulate(as_arrivals(trace), ResequencerConfig(t, INF))
        assert out.discards == {}
        assert out.max_occupancy == target

    def test_automotive_window_floors_to_whole_packets(self):
        v = F("92.688") * US
        t = F("29.488") * US
        trace = gen_lossy_backlog_burst(ALPHA1, v, t, FIXED64)
        out = simulate(as_arrivals(trace), ResequencerConfig(t, INF))
        assert out.max_occupancy == 6400  # 100 packets of 64 B

    def test_conforms_and_jitter_bounded(self):
        v, t = F(6, 1000), F(5, 1000)
        trace = gen_lossy_backlog_burst(FIXED64.source_curve, v, t, FIXED64)
        assert check_trace_conforms(trace, FIXED64.source_curve).ok
        assert trace.packets[0].lost
        assert delay_jitter(trace).jitter <= v

    def test_mixed_sizes(self):
        v, t, eps = F(2, 100), F(1, 100), F(1, 1000)
        trace = gen_lossy_backlog_burst(MIXED.source_curve, v, t, MIXED, eps)
        target = MIXED.source_curve.value(v + t - eps)
        out = simulate(as_arrivals(trace), ResequencerConfig(t, INF))
        assert out.max_occupancy == target
        assert check_trace_conforms(trace, MIXED.source_curve).ok

    def test_eps_bounds_checked(self):
        with pytest.raises(ScenarioError):
            gen_lossy_backlog_burst(ALPHA1, F(1), F(1), FIXED64, eps=F(2))


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
        assert check_trace_conforms(trace, ALPHA1).ok

    def test_no_reordering_possible_rejected(self):
        with pytest.raises(ScenarioError):
            gen_rto_tight_pair(F("0.5") * US, ALPHA1, F(64))


class TestRboTightBurst:
    def test_leaky_bucket_approaches_formula(self):
        r, b, l_min = F(6400), F(6400), F(64)
        v, eps = F(1, 100), F(1, 10000)
        flow = MIXED
        trace = gen_rbo_tight_burst(v, flow.source_curve, flow, eps)
        expect = r * (v - eps) + b - l_min
        assert rbo(trace).value == expect
        # approaches r*V + b - l_min as eps shrinks
        assert abs(expect - (r * v + b - l_min)) == r * eps

    def test_equal_size_packets_multiple_of_l(self):
        c = StaircaseCurve(F(192), F(8, 1000))
        flow = FlowSpec(c, l_min=F(64), l_max=F(64))
        trace = gen_rbo_tight_burst(F(4, 1000), c, flow, F(1, 1000))
        assert rbo(trace).value % 64 == 0
        assert rbo(trace).value == 192 - 64

    def test_rto_equals_eps(self):
        v, eps = F(1, 100), F(1, 10000)
        trace = gen_rbo_tight_burst(v, MIXED.source_curve, MIXED, eps)
        assert rto(trace).value == eps

    def test_jitter_within_v_and_conforms(self):
        v, eps = F(1, 100), F(1, 10000)
        trace = gen_rbo_tight_burst(v, MIXED.source_curve, MIXED, eps)
        assert delay_jitter(trace).jitter <= v
        assert check_trace_conforms(trace, MIXED.source_curve).ok

    def test_indecomposable_window_rejected(self):
        with pytest.raises(DecompositionError):
            gen_rbo_tight_burst(F(3, 1000), FIXED64.source_curve, FIXED64, F(1, 1000))


class TestOracleEquivalenceOnGeneratedTraces:
    def test_simulator_matches_recursion(self):
        from reseqkit.resequencer import analytic_departures

        v, t, eps = F(6, 1000), F(5, 1000), F(1, 1000)
        traces = [
            gen_two_packet_swap(F(7)),
            gen_lossless_backlog_burst(F(5), [F(64)] * 4, F(64)),
            gen_lossy_backlog_burst(FIXED64.source_curve, v, t, FIXED64, eps),
            gen_rto_tight_pair(F("1.5e-6"), ALPHA1, F(64)),
            gen_rbo_tight_burst(F(1, 100), MIXED.source_curve, MIXED, F(1, 10000)),
        ]
        for trace in traces:
            for timeout in (F(0), F(1, 1000), F(5, 1000), F(1)):
                sim = simulate(as_arrivals(trace), ResequencerConfig(timeout, INF))
                ana = analytic_departures(
                    {p.index: p.observe_time for p in trace.packets}, timeout
                )
                assert sim.departures == ana


class TestAmplifiedRtoChain:
    STAGES = [
        (F("1.5") * US, F("0.988") * US),
        (F("13.5") * US, F(0)),
        (F("1.5") * US, F(0)),
        (F("13.5") * US, F(0)),
    ]

    def test_automotive_chain_rto(self):
        eps = F("0.988") * US / 10**6
        chain = gen_amplified_rto_chain(self.STAGES, head=1, eps=eps)
        want = F("29.488") * US - eps
        assert chain.rto_target == want
        assert rto(chain.end_to_end).value == want

    def test_single_stage(self):
        eps = F(1, 10**9)
        chain = gen_amplified_rto_chain([(F(5), F(2))], head=1, eps=eps)
        assert rto(chain.end_to_end).value == 2 - eps

    def test_per_stage_jitter_within_bounds(self):
        chain = gen_amplified_rto_chain(self.STAGES, head=1)
        for stage_trace, (v, _) in zip(chain.per_stage, self.STAGES):
            assert delay_jitter(stage_trace).jitter <= v

    def test_stages_after_head_preserve_order(self):
        chain = gen_amplified_rto_chain(self.STAGES, head=1)
        for stage_trace in chain.per_stage[1:]:
            assert rto(stage_trace).value == 0

    def test_distinct_observation_times(self):
        chain = gen_amplified_rto_chain(self.STAGES, head=1)
        for trace in chain.per_stage + (chain.end_to_end,):
            times = [p.observe_time for p in trace.packets]
            assert len(set(times)) == len(times)

    def test_eps_must_sit_below_head_rto(self):
        with pytest.raises(ScenarioError):
            gen_amplified_rto_chain([(F(5), F(2))], head=1, eps=F(2))
