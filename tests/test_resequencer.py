import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from list_scan_oracle import simulate as list_scan_simulate
from reseqkit.curves import leaky_bucket
from reseqkit.rational import INF
from reseqkit.resequencer import (
    INVALID_LATE,
    OVERFLOW,
    ArrivalError,
    ResequencerConfig,
    analytic_departures,
    required_buffer,
    simulate,
)


def arrivals_from_times(times, size=F(64)):
    return {i + 1: (t, size) for i, t in enumerate(times)}


class TestSimulate:
    def test_late_packet_discarded_after_timeout(self):
        # packet 2 at t0, packet 1 one offset later; timeout below the offset
        lam = F(7)
        out = simulate(
            arrivals_from_times([F(10) + lam, F(10)]),
            ResequencerConfig(timeout=lam - F(1), capacity=INF),
        )
        assert out.discards == {1: INVALID_LATE}
        assert out.departures[1] == INF
        # packet 2 left when packet 1's chance expired
        assert out.departures[2] == F(10) + lam - F(1)

    def test_in_order_arrivals_pass_through(self):
        times = [F(1), F(2), F(5), F(9)]
        out = simulate(arrivals_from_times(times), ResequencerConfig(F(3), INF))
        assert out.discards == {}
        assert out.max_occupancy == 0
        assert [out.departures[i] for i in range(1, 5)] == times

    def test_lost_packet_released_by_timer(self):
        # packet 1 lost, packet 2 stored at 5, timer fires at 5 + 3
        out = simulate(
            {1: (INF, F(64)), 2: (F(5), F(64))}, ResequencerConfig(F(3), INF)
        )
        assert out.departures[2] == 8
        assert out.departures[1] == INF
        assert out.discards == {}
        assert out.max_occupancy == 64
        assert out.max_residence == 3

    def test_timer_flushes_in_order(self):
        # 1 lost; 3 arrives before 2; 2's wait ends when 3's timer fires? no:
        # timers are per packet, the earliest deadline (packet 3 at 1+T) wins
        out = simulate(
            {1: (INF, F(10)), 3: (F(1), F(30)), 2: (F(2), F(20))},
            ResequencerConfig(F(5), INF),
        )
        # at t=6, packet 3's timer fires: release 2 then 3 in order
        assert out.departures[2] == 6
        assert out.departures[3] == 6
        assert out.max_occupancy == 50

    def test_overflow_discard(self):
        out = simulate(
            {1: (INF, F(64)), 2: (F(1), F(64)), 3: (F(2), F(64))},
            ResequencerConfig(F(100), capacity=F(100)),
        )
        assert out.discards == {3: OVERFLOW}
        assert out.departures[3] == INF

    def test_expected_packet_bypasses_capacity(self):
        # in-sequence packets are never stored, so capacity does not apply
        out = simulate(
            arrivals_from_times([F(1), F(2)]), ResequencerConfig(F(1), capacity=F(0))
        )
        assert out.discards == {}

    def test_released_in_sequence_order(self):
        rng = random.Random(42)
        for _ in range(100):
            trace = random_arrivals(rng)
            out = simulate(trace, ResequencerConfig(F(rng.randint(0, 40), 8), INF))
            released = sorted(
                (t, i) for i, t in out.departures.items() if t != INF
            )
            order = [i for _, i in released]
            assert order == sorted(order)

    def test_duplicate_times_rejected(self):
        with pytest.raises(ArrivalError):
            simulate(arrivals_from_times([F(1), F(1)]), ResequencerConfig())

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ArrivalError):
            simulate({1: (F(1), F(0))}, ResequencerConfig())


class TestAnalyticDepartures:
    def test_lossless_running_max(self):
        # reordered but covered by the timeout: departures are the running max
        d = analytic_departures({1: F(10), 2: F(3)}, F(20))
        assert d == {1: F(10), 2: F(10)}

    def test_lost_head_timeout_release(self):
        d = analytic_departures({1: INF, 2: F(5)}, F(3))
        assert d[1] == INF
        assert d[2] == 8

    def test_late_packet_gets_infinity(self):
        lam = F(7)
        d = analytic_departures({1: F(0) + lam, 2: F(0)}, lam - F(1))
        assert d[1] == INF

    def test_equality_with_simulation_on_random_traces(self):
        rng = random.Random(77)
        for _ in range(300):
            arrivals = random_arrivals(rng)
            timeout = F(rng.randint(0, 60), 8)
            sim = simulate(arrivals, ResequencerConfig(timeout, INF))
            ana = analytic_departures(
                {i: t for i, (t, _) in arrivals.items()}, timeout
            )
            assert sim.departures == ana

    def test_lossless_covered_timeout_gives_running_max(self):
        from reseqkit.metrics import PacketObservation, Trace, rto

        rng = random.Random(55)
        for _ in range(100):
            arrivals = random_arrivals(rng)
            times = {i: t for i, (t, _) in arrivals.items()}
            if any(t == INF for t in times.values()):
                continue
            trace = Trace(
                tuple(
                    PacketObservation(i, size, None, t)
                    for i, (t, size) in sorted(arrivals.items())
                )
            )
            lam = rto(trace).value
            d = analytic_departures(times, lam + F(rng.randint(0, 8), 8))
            running = None
            for i in sorted(times):
                running = times[i] if running is None else max(running, times[i])
                assert d[i] == running

    def test_equality_with_simulation_at_exact_tie(self):
        # packet 2's timer deadline coincides with packet 1's arrival: the
        # arrival is still in time, both ways of computing must agree
        arrivals = {1: (F(4), F(64)), 2: (F(1), F(64))}
        timeout = F(3)  # deadline of packet 2's timer: exactly 4
        sim = simulate(arrivals, ResequencerConfig(timeout, INF))
        ana = analytic_departures({1: F(4), 2: F(1)}, timeout)
        assert sim.departures == ana
        assert sim.discards == {}
        assert sim.departures[1] == 4


class TestDimensioning:
    def test_lossless_buffer_is_rbo(self):
        assert required_buffer("lossless", rbo_value=F(6336)) == 6336

    def test_lossy_buffer_is_curve_window(self):
        curve = leaky_bucket(6400, 6400)
        window = F("122.19e-6")
        got = required_buffer("lossy", curve=curve, jitter=window, timeout=0)
        assert got == 6400 + 6400 * window

    def test_lossy_zero_window_gives_burst(self):
        curve = leaky_bucket(F(7), F(50))
        assert required_buffer("lossy", curve=curve, jitter=0, timeout=0) == 0
        assert required_buffer("lossy", curve=curve, jitter=F(1), timeout=0) == 57


def random_arrivals(rng, max_packets=50):
    n = rng.randint(1, max_packets)
    used = set()
    arrivals = {}
    for idx in range(1, n + 1):
        if rng.random() < 0.15:
            arrivals[idx] = (INF, F(rng.choice([64, 128])))
            continue
        while True:
            t = F(rng.randint(0, 900), 8)
            if t not in used:
                used.add(t)
                arrivals[idx] = (t, F(rng.choice([64, 128])))
                break
    return arrivals


class TestGuarantees:
    def test_no_discard_with_measured_rto_and_infinite_buffer(self):
        from reseqkit.metrics import PacketObservation, Trace, rto

        rng = random.Random(88)
        for _ in range(100):
            arrivals = random_arrivals(rng)
            trace = Trace(
                tuple(
                    PacketObservation(i, size, None, t)
                    for i, (t, size) in sorted(arrivals.items())
                )
            )
            lam = rto(trace).value
            out = simulate(arrivals, ResequencerConfig(lam, INF))
            assert out.discards == {}
            # one unit below the measured offset must discard, when reordering exists
            if lam > 0:
                out2 = simulate(
                    arrivals, ResequencerConfig(lam - F(1, 10**6), INF)
                )
                assert any(r == INVALID_LATE for r in out2.discards.values())

    def test_residence_bounded_by_timeout(self):
        from reseqkit.metrics import PacketObservation, Trace, rto

        rng = random.Random(99)
        for _ in range(100):
            arrivals = random_arrivals(rng)
            trace = Trace(
                tuple(
                    PacketObservation(i, size, None, t)
                    for i, (t, size) in sorted(arrivals.items())
                )
            )
            lam = rto(trace).value
            timeout = lam + F(rng.randint(0, 16), 8)
            out = simulate(arrivals, ResequencerConfig(timeout, INF))
            assert out.max_residence <= timeout


@st.composite
def grid_arrivals(draw):
    """Arrivals on an integer time grid, with lost and missing indices.

    Timeouts are drawn on the same grid, so arrivals often land exactly on a
    timer deadline."""
    n = draw(st.integers(1, 40))
    slots = draw(st.lists(st.integers(0, 3 * n), min_size=n, max_size=n, unique=True))
    arrivals = {}
    for idx, slot in enumerate(slots, start=1):
        fate = draw(st.sampled_from(["arrive"] * 4 + ["lost", "missing"]))
        if fate == "missing":
            continue
        size = F(draw(st.integers(1, 3)))
        arrivals[idx] = (INF if fate == "lost" else F(slot), size)
    return arrivals


class TestHeapMatchesListScan:
    @settings(max_examples=400, deadline=None)
    @given(
        arrivals=grid_arrivals(),
        timeout=st.one_of(st.just(F(0)), st.integers(1, 60).map(F), st.just(INF)),
        capacity=st.one_of(st.just(INF), st.integers(0, 12).map(F)),
    )
    def test_outcome_identical(self, arrivals, timeout, capacity):
        cfg = ResequencerConfig(timeout, capacity)
        assert simulate(arrivals, cfg) == list_scan_simulate(arrivals, cfg)


def deep_backlog_arrivals(n=2000, hole_every=500, size=F(64)):
    """Packet i arrives at time i, except one lost packet per ``hole_every``
    and a swapped neighbour pair every 10 packets."""
    times = {i: F(i) for i in range(1, n + 1)}
    for i in range(3, n, 10):
        times[i], times[i + 1] = times[i + 1], times[i]
    for i in range(hole_every // 2, n + 1, hole_every):
        times[i] = INF
    return {i: (t, size) for i, t in times.items()}


class TestDeepBacklog:
    TIMEOUT = F(500)  # 500 spacings: each hole parks about 500 packets

    def test_infinite_buffer_matches_recursion(self):
        arrivals = deep_backlog_arrivals()
        out = simulate(arrivals, ResequencerConfig(self.TIMEOUT, INF))
        ana = analytic_departures(
            {i: t for i, (t, _) in arrivals.items()}, self.TIMEOUT
        )
        assert out.departures == ana
        assert out.discards == {}
        assert out.max_occupancy >= 400 * 64

    def test_capacity_below_peak_overflows(self):
        arrivals = deep_backlog_arrivals()
        cfg = ResequencerConfig(self.TIMEOUT, capacity=F(300 * 64))
        out = simulate(arrivals, cfg)
        assert out.discards
        assert set(out.discards.values()) == {OVERFLOW}
        assert out.max_occupancy <= cfg.capacity
        assert out == list_scan_simulate(arrivals, cfg)
