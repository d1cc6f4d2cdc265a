import random
from fractions import Fraction as F

import pytest

from reseqkit.curves import FlowSpec, leaky_bucket
from reseqkit.metrics import (
    DuplicateObservationError,
    PacketObservation,
    Trace,
    TraceError,
    delay_jitter,
    rbo,
    rto,
    trace_from_csv,
    trace_to_csv,
)
from reseqkit.rational import INF


def make_trace(observations, sizes=None, emits=None):
    n = len(observations)
    sizes = sizes or [F(64)] * n
    emits = emits if emits is not None else [None] * n
    return Trace(
        tuple(
            PacketObservation(i + 1, sizes[i], emits[i], observations[i])
            for i in range(n)
        )
    )


def rto_naive(trace):
    """Direct transcription of the definition: scan all j >= n."""
    per = {}
    for p in trace.packets:
        if p.lost:
            continue
        eligible = [
            q.observe_time
            for q in trace.packets
            if q.index >= p.index and not q.lost and q.observe_time <= p.observe_time
        ]
        per[p.index] = p.observe_time - min(eligible)
    return max(per.values(), default=F(0)), per


def rbo_naive(trace):
    per = {}
    for p in trace.packets:
        if p.lost:
            continue
        per[p.index] = sum(
            (
                q.size
                for q in trace.packets
                if q.index > p.index and not q.lost and q.observe_time < p.observe_time
            ),
            F(0),
        )
    return max(per.values(), default=F(0)), per


def random_trace(rng, max_packets=40, with_emits=True, loss_prob=F(1, 8)):
    n = rng.randint(1, max_packets)
    emit = F(0)
    emits, observes, sizes = [], [], []
    used = set()
    for _ in range(n):
        emit += F(rng.randint(0, 50), 16)
        emits.append(emit if with_emits else None)
        sizes.append(F(rng.choice([64, 100, 128, 200])))
        if rng.random() < loss_prob:
            observes.append(INF)
        else:
            while True:
                t = emit + F(rng.randint(0, 800), 16)
                if t not in used:
                    used.add(t)
                    observes.append(t)
                    break
    return make_trace(observes, sizes, emits)


class TestRto:
    def test_two_packet_swap(self):
        trace = make_trace([F(5), F(0)])
        res = rto(trace)
        assert res.per_packet[1] == 5
        assert res.value == 5

    def test_in_order_trace_is_zero(self):
        trace = make_trace([F(1), F(2), F(5)])
        assert rto(trace).value == 0

    def test_matches_naive_scan_on_random_traces(self):
        rng = random.Random(123)
        for _ in range(200):
            trace = random_trace(rng, with_emits=False)
            got = rto(trace)
            want_value, want_per = rto_naive(trace)
            assert got.value == want_value
            assert got.per_packet == want_per

    def test_duplicate_finite_times_error(self):
        with pytest.raises(DuplicateObservationError):
            make_trace([F(3), F(3)])


class TestRbo:
    def test_two_later_packets_ahead(self):
        trace = make_trace([F(5), F(1), F(2)])
        res = rbo(trace)
        assert res.per_packet[1] == 128
        assert res.value == 128

    def test_in_order_trace_is_zero(self):
        assert rbo(make_trace([F(1), F(2), F(3)])).value == 0

    def test_matches_naive_scan_on_random_traces(self):
        rng = random.Random(456)
        for _ in range(200):
            trace = random_trace(rng, with_emits=False)
            got = rbo(trace)
            want_value, want_per = rbo_naive(trace)
            assert got.value == want_value
            assert got.per_packet == want_per


class TestDelayJitter:
    def test_basic(self):
        trace = make_trace([F(3), F(2)], emits=[F(0), F(1)])
        dj = delay_jitter(trace)
        assert (dj.d_max, dj.d_min, dj.jitter) == (3, 1, 2)

    def test_single_packet_zero_jitter(self):
        dj = delay_jitter(make_trace([F(4)], emits=[F(1)]))
        assert dj.jitter == 0

    def test_lost_packets_excluded(self):
        trace = make_trace([F(3), INF, F(4)], emits=[F(0), F(1), F(2)])
        dj = delay_jitter(trace)
        assert (dj.d_max, dj.d_min) == (3, 2)

    def test_requires_emit_times(self):
        with pytest.raises(TraceError):
            delay_jitter(make_trace([F(1)]))

    def test_all_lost_rejected(self):
        with pytest.raises(TraceError):
            delay_jitter(make_trace([INF], emits=[F(0)]))


class TestInvariants:
    def test_rto_at_most_jitter(self):
        rng = random.Random(789)
        for _ in range(200):
            trace = random_trace(rng)
            if all(p.lost for p in trace.packets):
                continue
            assert rto(trace).value <= delay_jitter(trace).jitter

    def test_rto_zero_iff_sorted(self):
        rng = random.Random(101)
        for _ in range(200):
            trace = random_trace(rng, with_emits=False)
            finite = [p.observe_time for p in trace.packets if not p.lost]
            sorted_order = finite == sorted(finite)
            assert (rto(trace).value == 0) == sorted_order

    def test_rbo_zero_when_rto_zero(self):
        rng = random.Random(202)
        for _ in range(200):
            trace = random_trace(rng, with_emits=False)
            if rto(trace).value == 0:
                assert rbo(trace).value == 0

    def test_lost_packets_do_not_affect_metrics(self):
        rng = random.Random(303)
        for _ in range(100):
            trace = random_trace(rng, with_emits=False, loss_prob=F(1, 3))
            kept = [p for p in trace.packets if not p.lost]
            if not kept:
                continue
            reindexed = Trace(
                tuple(
                    PacketObservation(i + 1, p.size, None, p.observe_time)
                    for i, p in enumerate(kept)
                )
            )
            assert rto(trace).value == rto(reindexed).value
            assert rbo(trace).value == rbo(reindexed).value

    def test_global_time_shift_invariance(self):
        rng = random.Random(404)
        shift = F(977, 3)
        for _ in range(50):
            trace = random_trace(rng)
            shifted = Trace(
                tuple(
                    PacketObservation(
                        p.index, p.size, p.emit_time + shift, p.observe_time + shift
                    )
                    for p in trace.packets
                )
            )
            assert rto(trace).value == rto(shifted).value
            assert rbo(trace).value == rbo(shifted).value
            if any(not p.lost for p in trace.packets):
                assert delay_jitter(trace) == delay_jitter(shifted)


class TestValidateRboValue:
    """A valid RBO value is a reachable byte total: its own reachable floor."""

    FIXED = FlowSpec(leaky_bucket(10**6, 300), l_min=F(64), l_max=F(64))
    MIXED = FlowSpec(leaky_bucket(10**6, 300), l_min=F(64), l_max=F(200))

    def test_multiple_of_fixed_size(self):
        assert self.FIXED.reachable_floor(6336) == 6336  # 99 * 64

    def test_non_multiple_invalid(self):
        assert self.FIXED.reachable_floor(100) == 64
        assert self.MIXED.reachable_floor(-1) == 0

    def test_single_variable_packet(self):
        assert self.MIXED.reachable_floor(70) == 70

    def test_mixed_regime_matches_enumeration(self):
        # brute force in half-byte units: every total of packets whose sizes
        # are drawn from {l_min, l_min + 1/2, ..., l_max}, below 500 B; x runs
        # over the same grid, so non-integer x and x below l_min are covered
        for flow in (self.FIXED, self.MIXED):
            sizes = range(int(2 * flow.l_min), int(2 * flow.l_max) + 1)
            reachable, todo = {0}, [0]
            while todo:
                t = todo.pop()
                for s in sizes:
                    if t + s < 1000 and t + s not in reachable:
                        reachable.add(t + s)
                        todo.append(t + s)
            largest = 0
            for x in range(1000):
                if x in reachable:
                    largest = x
                total = F(x, 2)
                assert flow.reachable_floor(total) == F(largest, 2)
                assert (flow.reachable_floor(total) == total) == (x in reachable)

    def test_zero_always_valid(self):
        assert self.FIXED.reachable_floor(0) == 0
        assert self.MIXED.reachable_floor(0) == 0


class TestCsv:
    def test_round_trip(self):
        rng = random.Random(505)
        for _ in range(20):
            trace = random_trace(rng)
            assert trace_from_csv(trace_to_csv(trace)).packets == trace.packets

    def test_format_shape(self):
        trace = make_trace([F(1), INF], emits=[F(0), F("0.5")])
        text = trace_to_csv(trace)
        lines = text.strip().split("\n")
        assert lines[0] == "index,size_bytes,emit_time_s,observe_time_s"
        assert lines[2] == "2,64,0.5,inf"

    def test_missing_emit_column(self):
        text = "index,size_bytes,emit_time_s,observe_time_s\n1,64,-,3\n2,64,-,1\n"
        trace = trace_from_csv(text)
        assert not trace.has_emit_times
        assert rto(trace).value == 2

    def test_header_required(self):
        with pytest.raises(TraceError):
            trace_from_csv("1,64,0,1\n")

    def test_non_contiguous_indices_rejected(self):
        text = "index,size_bytes,emit_time_s,observe_time_s\n1,64,-,3\n3,64,-,1\n"
        with pytest.raises(TraceError):
            trace_from_csv(text)
