import csv
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tick_columns import offsets
from reseqkit.curves import FlowSpec, leaky_bucket
from reseqkit.metrics import (
    CSV_HEADER,
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
from reseqkit.rational import INF, fmt_rat


def make_trace(observations, sizes=None, emits=None):
    return Trace(sizes or [F(64)] * len(observations), emits, observations)


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
        emits.append(emit)
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
    return make_trace(observes, sizes, emits if with_emits else None)


class TestColumns:
    def test_packets_view_reads_the_columns(self):
        trace = Trace([64, F(129, 2)], [0, F(1, 3)], [F(1, 7), INF])
        assert trace.packets == (
            PacketObservation(1, F(64), F(0), F(1, 7)),
            PacketObservation(2, F(129, 2), F(1, 3), INF),
        )
        assert not Trace([64], None, [1]).has_emit_times

    @pytest.mark.parametrize("sizes,emits,observes,message", [
        ([64], None, [1, 2], "columns differ in length"),
        ([64, 64], [0], [1, 2], "columns differ in length"),
        ([64, 0], None, [1, 2], "packet sizes must be finite and > 0"),
        ([F(-1, 3)], [0], [1], "packet sizes must be finite and > 0"),
        ([INF], None, [1], "packet sizes must be finite and > 0"),
        ([64, 64], [0, INF], [1, INF], "emission times must be finite"),
        ([64], [0], [0.1], "not an exact number: 0.1"),
        ([64], [-INF], [1], "not an exact number: -inf"),
        ([math.nan], None, [1], "not an exact number: nan"),
        ([64], [2], [1], "observation before emission"),
    ])
    def test_bad_columns_raise_trace_error(self, sizes, emits, observes, message):
        with pytest.raises(TraceError, match=message):
            Trace(sizes, emits, observes)

    @pytest.mark.parametrize("size_ticks", [[64, 0], [-1]])
    def test_tick_columns_refuse_sizes_not_above_0(self, size_ticks):
        with pytest.raises(TraceError, match="packet sizes must be finite and > 0"):
            Trace._from_ticks(1, size_ticks, 1, [], list(range(len(size_ticks))))

    def test_csv_cells_are_fmt_rat_of_each_value(self):
        rng = random.Random(606)
        traces = [random_trace(rng, with_emits=bool(k % 2)) for k in range(20)]
        traces.append(Trace([F(3, 7), F("64.5")], [F(-1, 3), F("0.25")],
                            [INF, F(2, 3)]))
        for trace in traces:
            rows = [",".join(CSV_HEADER)] + [
                f"{p.index},{fmt_rat(p.size)},"
                f"{'-' if p.emit_time is None else fmt_rat(p.emit_time)},"
                f"{fmt_rat(p.observe_time)}"
                for p in trace.packets
            ]
            assert trace_to_csv(trace) == "\n".join(rows) + "\n"


class TestRto:
    def test_two_packet_swap(self):
        trace = make_trace([F(5), F(0)])
        value, per = offsets(rto(trace))
        assert per[1] == 5
        assert value == 5

    def test_in_order_trace_is_zero(self):
        trace = make_trace([F(1), F(2), F(5)])
        assert rto(trace).value == 0

    def test_matches_naive_scan_on_random_traces(self):
        rng = random.Random(123)
        for _ in range(200):
            trace = random_trace(rng, with_emits=False)
            got_value, got_per = offsets(rto(trace))
            want_value, want_per = rto_naive(trace)
            assert got_value == want_value
            assert got_per == want_per

    def test_duplicate_finite_times_error(self):
        with pytest.raises(DuplicateObservationError, match="packets 1 and 2 observed"):
            make_trace([F(3), F(3)])
        # a lost packet ahead of the pair is skipped, not counted as a time
        with pytest.raises(DuplicateObservationError, match="packets 2 and 3 observed"):
            make_trace([INF, F(3), F(3)])


#: Sizes with different denominators, so that the size ticks differ per packet.
RBO_SIZES = (F(64), F(1500), F(129, 2), F(3, 7), F(1), F(9000))


@st.composite
def reordered_traces(draw, max_packets=48):
    """A trace whose reorder extent is drawn, from in order (0) through
    packets that overtake up to ``extent`` others, to a fully shuffled
    observation order; sizes are drawn per packet, and losses hit the first
    ``head`` packets plus a drawn share of the rest (all of them at share 1)."""
    n = draw(st.integers(0, max_packets))
    if draw(st.integers(0, 3)):
        extent = draw(st.integers(0, n))
        keys = [i + draw(st.integers(0, extent)) for i in range(n)]
    else:
        keys = draw(st.permutations(range(n)))
    # packet i is observed at its key, ties broken by index
    observes = [key * (n + 1) + i for i, key in enumerate(keys)]
    head = draw(st.integers(0, n))
    share = draw(st.sampled_from([0, 0, 1, 4]))  # one in share lost, 0 for none
    for i in range(n):
        if i < head or (share and draw(st.integers(1, share)) == 1):
            observes[i] = INF
    sizes = [draw(st.sampled_from(RBO_SIZES)) for _ in range(n)]
    return make_trace(observes, sizes)


def held_back_trace(n, held, lost_after=False):
    """n packets observed in order but for packet ``held + 1``, which comes
    last, so that every packet after it queries the tree from ``held + 1``;
    with ``lost_after`` the packet after it is lost, so ``lo`` skips a loss."""
    order = [i for i in range(n) if i != held] + [held]
    observes = [F(0)] * n
    for t, i in enumerate(order):
        observes[i] = F(t)
    if lost_after and held + 1 < n:
        observes[held + 1] = INF
    return make_trace(observes, [F(64 + i % 5 * 100) for i in range(n)])


class TestRbo:
    def test_two_later_packets_ahead(self):
        trace = make_trace([F(5), F(1), F(2)])
        value, per = offsets(rbo(trace))
        assert per[1] == 128
        assert value == 128

    def test_in_order_trace_is_zero(self):
        assert rbo(make_trace([F(1), F(2), F(3)])).value == 0

    def test_matches_naive_scan_on_random_traces(self):
        rng = random.Random(456)
        for _ in range(200):
            trace = random_trace(rng, with_emits=False)
            got_value, got_per = offsets(rbo(trace))
            want_value, want_per = rbo_naive(trace)
            assert got_value == want_value
            assert got_per == want_per

    @settings(max_examples=300)
    @given(reordered_traces())
    @example(make_trace([F(3), F(2), F(1), F(0)], [F(64), F(1500), F(129, 2), F(3, 7)]))
    @example(make_trace([INF, INF, F(5), F(1), F(3)]))  # lost head
    @example(make_trace([F(4), INF, F(1), INF, F(2), F(3)]))  # losses at lo
    @example(make_trace([INF, INF, INF]))  # all lost
    @example(make_trace([]))
    def test_sweep_matches_naive_scan(self, trace):
        """Per-packet ticks and value equal the definition's O(n^2) scan,
        whatever the reorder extent, sizes and losses."""
        result = rbo(trace)
        assert result.den == trace.size_den
        assert [t is INF for t in result.ticks] == [p.lost for p in trace.packets]
        assert offsets(result) == rbo_naive(trace)

    @pytest.mark.parametrize("n", [2**k + d for k in (3, 4, 5) for d in (-1, 0, 1)])
    def test_range_walks_straddling_powers_of_two(self, n):
        """``lo + 1`` and ``pos + 1`` on either side of a power of two, for
        n at 2^k - 1, 2^k and 2^k + 1: the two prefix walks meet at 0 or
        at a shared ancestor, never past it."""
        powers = [2**m for m in range(n.bit_length() + 1)]
        held = sorted({p + d - 1 for p in powers for d in (-1, 0, 1)} & set(range(n)))
        for h in held:
            for lost_after in (False, True):
                trace = held_back_trace(n, h, lost_after)
                assert offsets(rbo(trace)) == rbo_naive(trace), (h, lost_after)
            reversed_tail = make_trace(
                [F(h - i) if i <= h else F(n + n - i) for i in range(n)],
                [F(1 + i % 3) for i in range(n)])
            assert offsets(rbo(reversed_tail)) == rbo_naive(reversed_tail), h


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
            reindexed = Trace([p.size for p in kept], None,
                              [p.observe_time for p in kept])
            assert rto(trace).value == rto(reindexed).value
            assert rbo(trace).value == rbo(reindexed).value

    def test_global_time_shift_invariance(self):
        rng = random.Random(404)
        shift = F(977, 3)
        for _ in range(50):
            trace = random_trace(rng)
            shifted = Trace([p.size for p in trace.packets],
                            [p.emit_time + shift for p in trace.packets],
                            [p.observe_time + shift for p in trace.packets])
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


def error_of(text):
    """The type and message of what ``trace_from_csv(text)`` raises."""
    with pytest.raises(ValueError) as info:
        trace_from_csv(text)
    return type(info.value), str(info.value)


HEADER = ",".join(CSV_HEADER)


class TestErrorOrder:
    """A trace with several defects reports the first in row order."""

    def test_short_row_before_an_unreadable_field(self):
        field = "1" * (csv.field_size_limit() + 1)
        text = f"{HEADER}\n1,64,-\n2,64,-,{field}\n"
        assert error_of(text) == (TraceError, "line 2: expected 4 columns")

    @pytest.mark.parametrize("last,message", [
        ("1000,64,-,1000,5", "line 1001: expected 4 columns"),
        ("1000,0,-,1000", "packet sizes must be > 0"),
    ])
    def test_defect_in_the_last_of_1000_rows(self, last, message):
        rows = [f"{i},64,-,{i}" for i in range(1, 1000)] + [last]
        assert error_of("\n".join([HEADER, *rows]) + "\n") == (TraceError, message)

    @pytest.mark.parametrize("rows,error", [
        ("0,64,-,abc", (ValueError, "not an exact numeric literal: 'abc'")),
        ("x,64,-,abc", (ValueError, "not a packet index: 'x'")),
        ("1,64,-,5\n0,64,-,5", (TraceError, "packet indices start at 1")),
    ])
    def test_bad_index_and_observation_in_one_row(self, rows, error):
        assert error_of(f"{HEADER}\n{rows}\n") == error


def test_unreadable_csv_is_a_trace_error():
    """A trace whose only defect is a cell over the csv module's field limit."""
    limit = csv.field_size_limit()
    text = f"{','.join(CSV_HEADER)}\n1,64,0,1{'0' * limit}\n"
    with pytest.raises(TraceError) as exc:
        trace_from_csv(text)
    assert str(exc.value) == (
        f"unreadable trace CSV: field larger than field limit ({limit})")
