"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v -s tests/test_acceptance.py``.  The two strict-xfail
tests document cells of the original rounded reference figures that are
internally inconsistent (their lossy rows imply a head reordering offset of
1.0 us while their own timeout column implies 0.988 us, and four burst cells
contradict the adjacent columns they were derived from); the exact values
those cells should carry are asserted by the green tests next to them.
"""

import random
import time
from dataclasses import replace
from fractions import Fraction as F

import pytest

import scenario_oracle
from arrival_trace import arrival_trace
from tick_columns import departures
from reseqkit.bounds import LOSSLESS, LOSSY
from reseqkit.case_study import (
    PLACEMENTS,
    automotive_base_path,
    run_case_study,
)
from reseqkit.curves import (
    FlowSpec,
    StaircaseCurve,
    backlog_bound,
    leaky_bucket,
    min_curves,
)
from reseqkit.metrics import Trace, delay_jitter, rbo, rto
from reseqkit.path_analysis import PathSpec, analyze_path, insert_resequencers
from reseqkit.rational import INF, seconds_to_us_display
from reseqkit.resequencer import (
    INVALID_LATE,
    ResequencerConfig,
    analytic_departures,
    simulate,
)
from reseqkit.scenarios import (
    gen_amplified_rto_chain,
    gen_lossy_backlog_burst,
    gen_rbo_tight_burst,
    gen_rto_tight_pair,
    gen_two_packet_swap,
)

US = F(1, 10**6)
TIME_TOL = F(5, 1000) * US  # 0.005 us
BYTE_TOL = 1


def report(line: str) -> None:
    print(f"[acceptance] {line}")


def us(x: str) -> F:
    return F(x) * US


def display_us(x) -> F:
    return F(seconds_to_us_display(x))


# frozen per-element figures of the automotive path (exact)
D_H1, V_H1 = us("63.2"), us("62.688")
D_SF, V_SF = us("2"), us("1.5")
D_FIFO, V_FIFO = us("14.012"), us("13.5")
HEAD = us("0.988")  # fabric reordering offset with the shaped entry curve
BASE_DELAY = D_H1 + 2 * D_SF + 2 * D_FIFO  # 95.224
BASE_JITTER = V_H1 + 2 * V_SF + 2 * V_FIFO  # 92.688


def lossy_delay_jitter(head: F) -> dict:
    """Reconstruct the lossy end-to-end figures from the frozen per-element
    values, as a function of the assumed head reordering offset.

    A re-sequencer's timeout enters the totals once directly and once more
    per downstream port (its burst growth inflates that port's delay bound
    by exactly the timeout).
    """
    t_h2 = head + V_FIFO + V_SF + V_FIFO
    t_s2 = head + V_FIFO + V_SF
    return {
        "only at h2": (BASE_DELAY + t_h2, BASE_JITTER + t_h2),
        "only at S2": (BASE_DELAY + 2 * t_s2, BASE_JITTER + 2 * t_s2),
        "at S1 and h2": (
            BASE_DELAY + 3 * head + V_FIFO,
            BASE_JITTER + 3 * head + V_FIFO,
        ),
        "at S1 and S2": (BASE_DELAY + 4 * head, BASE_JITTER + 4 * head),
    }


# rounded figures carried by the original reference results for the lossy
# rows; see the module docstring
ROUNDED_REFERENCE_LOSSY = {
    "only at h2": (us("124.72"), us("122.19")),
    "only at S2": (us("127.22"), us("124.69")),
    "at S1 and h2": (us("111.72"), us("109.19")),
    "at S1 and S2": (us("99.22"), us("96.69")),
}


class TestCriterion1TableReproduction:
    def test_case_study_check_is_green_and_fast(self):
        start = time.perf_counter()
        result = run_case_study()
        elapsed = time.perf_counter() - start
        assert result.ok, result.mismatches
        assert elapsed < 1.0
        report(f"criterion 1 (case-study --check, {elapsed:.3f}s): PASS")

    def test_lossless_and_timeout_and_size_figures(self):
        result = run_case_study()
        for name, by_mode in result.reports.items():
            rep = by_mode[LOSSLESS]
            assert abs(rep.e2e_delay - us("95.22")) <= TIME_TOL
            assert abs(rep.e2e_jitter - us("92.69")) <= TIME_TOL
            for r in rep.resequencers:
                assert abs(r.buffer_size - 6336) <= BYTE_TOL
            for r in by_mode[LOSSY].resequencers:
                assert abs(r.buffer_size - 6400) <= BYTE_TOL
        timeouts = {
            (name, r.element_id): r.timeout
            for name, by_mode in result.reports.items()
            for r in by_mode[LOSSY].resequencers
        }
        assert abs(timeouts[("only at h2", "S2.fifo.reseq")] - us("29.49")) <= TIME_TOL
        assert abs(timeouts[("only at S2", "S2.fabric.reseq")] - us("15.99")) <= TIME_TOL
        assert timeouts[("at S1 and h2", "S1.fabric.reseq")] == HEAD
        assert abs(timeouts[("at S1 and h2", "S2.fifo.reseq")] - us("14.49")) <= TIME_TOL
        assert timeouts[("at S1 and S2", "S2.fabric.reseq")] == HEAD
        report("criterion 1 (lossless/timeout/size figures): PASS")

    def test_lossy_figures_follow_exactly_from_element_figures(self):
        result = run_case_study()
        want = lossy_delay_jitter(HEAD)
        for name, by_mode in result.reports.items():
            rep = by_mode[LOSSY]
            assert (rep.e2e_delay, rep.e2e_jitter) == want[name]
        report("criterion 1 (lossy figures, exact reconstruction): PASS")

    def test_rounded_reference_lossy_rows_match_one_microsecond_head(self):
        # the rounded lossy figures are exactly what a 1.0 us head offset
        # produces; the timeout column pins the head at 0.988 us instead
        variant = lossy_delay_jitter(us("1.0"))
        for name, (d, v) in ROUNDED_REFERENCE_LOSSY.items():
            got_d, got_v = variant[name]
            assert display_us(got_d) == d / US
            assert display_us(got_v) == v / US
        report(
            "criterion 1 (rounded lossy reference rows): KNOWN-DEVIATION "
            "(reproduce only under a 1.0 us head offset; documented)"
        )

    @pytest.mark.xfail(
        strict=True,
        reason="rounded lossy reference rows imply a 1.0 us head offset and "
        "sit 0.008-0.05 us away from the exact methodology",
    )
    def test_rounded_reference_lossy_rows_at_stated_tolerance(self):
        result = run_case_study()
        for name, (d, v) in ROUNDED_REFERENCE_LOSSY.items():
            rep = result.reports[name][LOSSY]
            assert abs(rep.e2e_delay - d) <= TIME_TOL
            assert abs(rep.e2e_jitter - v) <= TIME_TOL

    @pytest.mark.xfail(
        strict=True,
        reason="the rounded reference truncates 0.988 us to 0.98; the exact "
        "value sits 0.008 us above that cell",
    )
    def test_rounded_timeout_cell_098(self):
        result = run_case_study()
        t = {
            r.element_id: r.timeout
            for r in result.reports["at S1 and S2"][LOSSY].resequencers
        }["S1.fabric.reseq"]
        assert abs(t - us("0.98")) <= TIME_TOL


def automotive_report(placement: str, mode: str):
    placed = insert_resequencers(automotive_base_path(), list(PLACEMENTS[placement]))
    return analyze_path(PathSpec(placed.flow, placed.elements, loss_mode=mode))


def burst_points(rep):
    """The nine per-point curves of the automotive walk, as (slow-piece
    burst, fast-piece burst) pairs."""
    by_id = {e.element_id: e for e in rep.elements}
    reseq = {r.element_id: r for r in rep.resequencers}

    def pick(eid, fallback_eid=None, queue=False):
        if eid in reseq:
            return reseq[eid].output_curve
        if queue:
            return by_id[fallback_eid].post_queue_curve
        return by_id[fallback_eid].output_curve

    curves = [
        by_id["h1.fifo"].output_curve,
        by_id["S1.fabric"].output_curve,
        pick("S1.fabric.reseq", "S1.fabric"),
        by_id["S1.fifo"].post_queue_curve,
        by_id["S1.fifo"].output_curve,
        by_id["S2.fabric"].output_curve,
        pick("S2.fabric.reseq", "S2.fabric"),
        by_id["S2.fifo"].post_queue_curve,
        by_id["S2.fifo"].output_curve,
    ]
    out = []
    for c in curves:
        slow = max(c.pieces, key=lambda p: p[0] == F(6400))
        fast = max(c.pieces, key=lambda p: p[0])
        out.append((slow[1], fast[1]))
    return out


# fast-piece bursts per point, as carried by the rounded reference tables
ROUNDED_BURSTS = {
    (LOSSLESS, "at S1 and S2"): [64, 251, 251, 1751, 64, 251, 251, 1751, 64],
    (LOSSY, "only at h2"): [64, 251, 251, 1751, 64, 251, 251, 1751, 64],
    (LOSSY, "only at S2"): [64, 251, 251, 1751, 64, 251, 2249, 3749, 64],
    (LOSSY, "at S1 and h2"): [64, 251, 626, 1875, 64, 2012, 2012, 1751, 64],
    (LOSSY, "at S1 and S2"): [64, 251, 626, 1875, 64, 251, 375, 1875, 64],
}
# cells whose rounded values contradict the columns derived from them
# (e.g. point 4 = point 3 + 1500 pins point 3 at 375, not 626); 1-based
BURST_ERRATA = {
    (LOSSY, "at S1 and h2"): {3, 6, 7},
    (LOSSY, "at S1 and S2"): {3},
}
# exact values for those cells
BURST_ERRATA_EXPECTED = {
    (LOSSY, "at S1 and h2"): {3: F(375), 6: F("251.5"), 7: F("251.5")},
    (LOSSY, "at S1 and S2"): {3: F(375)},
}


class TestCriterion2Intermediates:
    def test_port_delay_bounds_and_head_offset(self):
        rep = automotive_report("only at h2", LOSSLESS)
        by_id = {e.element_id: e for e in rep.elements}
        assert by_id["h1.fifo"].d_max == us("63.2")
        assert by_id["S1.fifo"].d_max == us("14.012")
        assert abs(by_id["S1.fifo"].d_max - us("14.01")) <= TIME_TOL
        assert by_id["S1.fabric"].rto_bound == HEAD
        report("criterion 2 (port delay bounds 63.2/14.01, head 0.988): PASS")

    def test_destination_rto_and_rbo_bounds_exact(self):
        rep = automotive_report("only at h2", LOSSLESS)
        reseq = rep.resequencers[0]
        assert reseq.upstream_rto == us("29.488")
        assert reseq.required_buffer_exact == F("6336.5068032")
        assert reseq.buffer_size == 6336
        report("criterion 2 (destination offsets 29.488 us / 6336 B): PASS")

    def test_burst_tables_within_one_byte_outside_errata(self):
        for (mode, placement), wanted in ROUNDED_BURSTS.items():
            rep = automotive_report(placement, mode)
            points = burst_points(rep)
            errata = BURST_ERRATA.get((mode, placement), set())
            for i, ((slow, fast), want) in enumerate(zip(points, wanted), start=1):
                assert abs(slow - 6400) <= BYTE_TOL, (mode, placement, i)
                if i in errata:
                    continue
                assert abs(fast - want) <= BYTE_TOL, (mode, placement, i)
        report("criterion 2 (burst tables within 1 B outside errata): PASS")

    def test_errata_cells_match_adjacent_columns(self):
        for (mode, placement), cells in BURST_ERRATA_EXPECTED.items():
            rep = automotive_report(placement, mode)
            points = burst_points(rep)
            for i, want in cells.items():
                assert points[i - 1][1] == want
        # consistency: each port output equals its input plus the 1500 B
        # latency growth, which is what pins the errata cells
        rep = automotive_report("at S1 and h2", LOSSY)
        points = burst_points(rep)
        assert points[3][1] == points[2][1] + 1500
        assert points[7][1] == points[6][1] + 1500
        report("criterion 2 (errata cells pinned by adjacent columns): PASS")

    @pytest.mark.xfail(
        strict=True,
        reason="four rounded burst cells contradict the columns computed "
        "from them (375 printed as 626, 251.5 as 2012)",
    )
    def test_rounded_burst_tables_all_cells(self):
        for (mode, placement), wanted in ROUNDED_BURSTS.items():
            rep = automotive_report(placement, mode)
            points = burst_points(rep)
            for (slow, fast), want in zip(points, wanted):
                assert abs(fast - want) <= BYTE_TOL


def random_arrivals(rng, max_packets=50):
    n = rng.randint(1, max_packets)
    used = set()
    arrivals = {}
    for idx in range(1, n + 1):
        if rng.random() < 0.15:
            arrivals[idx] = (INF, F(64))
            continue
        while True:
            t = F(rng.randint(0, 10**6), 64)
            if t not in used:
                used.add(t)
                arrivals[idx] = (t, F(64))
                break
    return arrivals


class TestCriterion3OracleEquivalence:
    def test_simulator_matches_recursion_on_1000_random_traces(self):
        rng = random.Random(0xC0FFEE)
        start = time.perf_counter()
        for _ in range(1000):
            arrivals = random_arrivals(rng)
            timeout = F(rng.randint(0, 10**5), 16)
            sim = simulate(arrival_trace(arrivals), ResequencerConfig(timeout, INF))
            ana = analytic_departures(
                {i: t for i, (t, _) in arrivals.items()}, timeout
            )
            assert departures(sim) == ana
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        report(
            f"criterion 3 (1000-trace oracle equivalence, {elapsed:.2f}s): PASS"
        )


def random_conforming_trace(rng, flow, jitter_bound, n, lose=False):
    if flow.constant_size:
        sizes = [flow.l_min] * n
    else:
        sizes = [F(rng.randint(int(flow.l_min), int(flow.l_max))) for _ in range(n)]
    base = scenario_oracle.packetize(flow.source_curve, sizes)
    emits, slack = [], F(0)
    for t in base:
        slack += F(rng.randint(0, 8), 1000)
        emits.append(t + slack)
    used = set()
    observes = []
    for i, a in enumerate(emits):
        if lose and rng.random() < 0.2 and i > 0:
            observes.append(INF)
            continue
        while True:
            d = jitter_bound * F(rng.randint(0, 10**6), 10**6)
            if a + d not in used:
                used.add(a + d)
                observes.append(a + d)
                break
    return Trace(sizes, emits, observes)


class TestCriterion4DimensioningGuarantees:
    FLOW = FlowSpec(leaky_bucket(6400, 6400), l_min=F(64), l_max=F(200))

    def test_lossless_sizing_admits_every_conforming_trace(self):
        rng = random.Random(4040)
        for _ in range(150):
            trace = random_conforming_trace(
                rng, self.FLOW, F(rng.randint(1, 50), 1000), rng.randint(1, 30)
            )
            lam = rto(trace).value
            cap = rbo(trace).value
            out = simulate(trace, ResequencerConfig(lam, cap))
            assert out.discards == {}
            assert out.max_occupancy <= cap
        report("criterion 4 (lossless sizing on conforming traces): PASS")

    def test_lossy_sizing_admits_every_conforming_trace(self):
        rng = random.Random(5050)
        for _ in range(150):
            trace = random_conforming_trace(
                rng, self.FLOW, F(rng.randint(1, 50), 1000), rng.randint(2, 30),
                lose=True,
            )
            if all(p.lost for p in trace.packets):
                continue
            lam = rto(trace).value
            jitter = delay_jitter(trace).jitter
            cap = backlog_bound(self.FLOW.source_curve, jitter + lam)
            out = simulate(trace, ResequencerConfig(lam, cap))
            assert out.discards == {}
            assert out.max_occupancy <= cap
        report("criterion 4 (lossy sizing on conforming traces): PASS")

    def test_timeout_below_offset_discards(self):
        for lam in (F(7), us("29.488"), F(1, 3)):
            trace = gen_two_packet_swap(lam)
            out = simulate(trace, ResequencerConfig(lam * F(999999, 1000000), INF))
            assert INVALID_LATE in out.discards.values()
        report("criterion 4 (timeout minimality): PASS")


class TestCriterion5Tightness:
    ALPHA1 = min_curves(leaky_bucket(6400, 6400), leaky_bucket(125_000_000, 64))

    def test_element_rto_bound_attained_exactly(self):
        trace = gen_rto_tight_pair(us("1.5"), self.ALPHA1, F(64))
        assert rto(trace).value == HEAD
        assert delay_jitter(trace).jitter == us("1.5")
        report("criterion 5 (element RTO tightness, 0.988 us): PASS")

    def test_element_rbo_bound_attained_exactly(self):
        flow = FlowSpec(leaky_bucket(6400, 6400), l_min=F(64), l_max=F(200))
        v, eps = F(1, 100), F(1, 10**5)
        trace = gen_rbo_tight_burst(flow, v, eps)
        want = flow.source_curve.value(v - eps) - 64
        assert rbo(trace).value == want
        assert rto(trace).value == eps
        report("criterion 5 (element RBO tightness): PASS")

    def test_chain_rto_attained_exactly(self):
        stages = [(V_SF, HEAD), (V_FIFO, F(0)), (V_SF, F(0)), (V_FIFO, F(0))]
        eps = HEAD / 10**6
        chain = gen_amplified_rto_chain(stages, head=1, eps=eps)
        assert rto(chain.end_to_end).value == us("29.488") - eps
        for stage_trace, (v, _) in zip(chain.per_stage, stages):
            assert delay_jitter(stage_trace).jitter <= v
        report("criterion 5 (chain RTO tightness, 29.488 us - eps): PASS")

    def test_lossy_occupancy_attained_exactly(self):
        flow = FlowSpec(leaky_bucket(6400, 6400), l_min=F(64), l_max=F(64))
        v, t, eps = F(6, 1000), F(5, 1000), F(1, 1000)
        trace = gen_lossy_backlog_burst(flow, v, t, eps)
        want = flow.source_curve.value(v + t - eps)
        out = simulate(trace, ResequencerConfig(t, INF))
        assert want == 6464
        assert out.max_occupancy == want
        assert out.discards == {}
        report("criterion 5 (lossy occupancy tightness): PASS")


class TestCriterion6ResequencingForFree:
    def test_lossless_reports_identical_across_placements(self):
        base = replace(automotive_base_path(), loss_mode=LOSSLESS)
        seen = set()
        for placement in [()] + [tuple(p) for p in PLACEMENTS.values()]:
            placed = insert_resequencers(base, list(placement))
            rep = analyze_path(placed)
            seen.add((rep.e2e_delay, rep.e2e_jitter, rep.destination_curve))
        assert len(seen) == 1
        report("criterion 6 (lossless re-sequencing is free): PASS")

    def test_lossy_delay_is_baseline_plus_timeouts_without_burst_growth(self):
        # destination-only placement: nothing downstream can inflate
        rep = automotive_report("only at h2", LOSSY)
        t_sum = sum((r.timeout for r in rep.resequencers), F(0))
        assert rep.e2e_delay == rep.baseline_delay + t_sum
        assert rep.e2e_jitter == rep.baseline_jitter + t_sum
        report("criterion 6 (lossy delay = baseline + timeouts): PASS")


def bisect_pseudo_inverse(curve, x, iters=60):
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


class TestCriterion7CurveIdentities:
    def test_closed_form_inverses_match_bisection(self):
        rng = random.Random(777)
        for _ in range(100):
            r = F(rng.randint(1, 10**6), rng.randint(1, 32))
            b = F(rng.randint(1, 10**5), rng.randint(1, 32))
            tau = F(rng.randint(1, 10**4), rng.randint(1, 32))
            x = F(rng.randint(0, 2 * 10**5), rng.randint(1, 32))
            lb, sc = leaky_bucket(r, b), StaircaseCurve(b, tau)
            got = lb.pseudo_inverse(x)
            lo, hi = bisect_pseudo_inverse(lb, x)
            assert lo <= got <= hi and hi - lo < F(1, 10**9)
            got = sc.pseudo_inverse(x)
            lo, hi = bisect_pseudo_inverse(sc, x)
            assert lo < got + F(1, 10**9) and got <= hi
        report("criterion 7 (closed-form inverses vs bisection): PASS")

    def test_galois_implication_on_random_grid(self):
        rng = random.Random(888)
        curves = [
            leaky_bucket(6400, 6400),
            min_curves(leaky_bucket(6400, 6400), leaky_bucket(125_000_000, 64)),
            StaircaseCurve(F(192), F(1, 125)),
        ]
        for c in curves:
            for _ in range(300):
                x = F(rng.randint(0, 10**5), rng.randint(1, 16))
                t = F(rng.randint(0, 10**3), rng.randint(1, 16))
                if c.pseudo_inverse(x) < t:
                    assert x <= c.value(t)
        report("criterion 7 (pseudo-inverse Galois implication): PASS")
