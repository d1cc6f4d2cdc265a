import json
import random
import re
from dataclasses import fields, replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bounds_oracle
import scenario_oracle
import walk_oracle
from arrival_trace import source_trace
from reseqkit import bounds, path_analysis
from reseqkit.bounds import LOSSLESS, LOSSY
from reseqkit.case_study import PLACEMENTS, automotive_base_path
from reseqkit.curves import (
    FlowSpec,
    check_conforms,
    leaky_bucket,
)
from reseqkit.path_analysis import (
    FabricElement,
    FifoServiceElement,
    FixedDelayElement,
    PathConfigError,
    PathSpec,
    ResequencerElement,
    analyze_both,
    analyze_path,
    compare_placements,
    insert_resequencers,
    load_path,
    path_from_json,
    render_report_table,
    report_to_json,
)
from reseqkit.curves import MinAffineCurve, RateLatencyService
from reseqkit.metrics import rto
from reseqkit.rational import INF
from reseqkit.resequencer import INVALID_LATE, ResequencerConfig, simulate
from reseqkit.scenarios import gen_amplified_rto_chain

US = F(1, 10**6)

CONFIG_JSON = """
{
  "flow": {
    "curve": {"unit": "bytes", "kind": "min_affine",
              "pieces": [{"rate": "6400", "burst": "6400"}]},
    "l_min": "64",
    "l_max": "64"
  },
  "loss_mode": "lossy",
  "elements": [
    {"id": "h1.fifo", "kind": "fifo_service", "rate_Bps": "125e6", "latency_s": "12e-6"},
    {"id": "S1.fabric", "kind": "fabric", "d_min_s": "0.5e-6", "d_max_s": "2e-6"},
    {"id": "S1.reseq", "kind": "resequencer", "mode": "auto"},
    {"id": "S1.fifo", "kind": "fifo_service", "rate_Bps": "125e6", "latency_s": "12e-6"}
  ]
}
"""


def flow64():
    return FlowSpec(leaky_bucket(6400, 6400), l_min=F(64), l_max=F(64))


def small_path(loss_mode=LOSSY, with_reseq=True):
    elements = [
        FifoServiceElement("h1.fifo", RateLatencyService(F(125_000_000), 12 * US)),
        FabricElement("sf", F(1, 2) * US, 2 * US),
    ]
    if with_reseq:
        elements.append(ResequencerElement("rb"))
    return PathSpec(flow64(), tuple(elements), loss_mode)


def stripped_totals(path):
    """(e2e delay, e2e jitter) of the path with its re-sequencers removed:
    the no-re-sequencing baseline, computed without the lossless walk."""
    kept = tuple(e for e in path.elements if e.kind != "resequencer")
    rep = analyze_path(replace(path, elements=kept))
    return rep.e2e_delay, rep.e2e_jitter


class TestWalk:
    def test_single_order_preserving_element(self):
        path = PathSpec(
            flow64(),
            (FixedDelayElement("wire", F(1, 10**6), F(3, 10**6)),),
            LOSSLESS,
        )
        rep = analyze_path(path)
        assert rep.e2e_delay == F(3, 10**6)
        assert rep.e2e_jitter == F(2, 10**6)
        # the curve is shifted once, by the element jitter
        assert rep.destination_curve.pieces == (
            (F(6400), F(6400) + F(6400) * F(2, 10**6)),
        )

    def test_fifo_defaults_min_delay_to_one_packet(self):
        path = PathSpec(
            flow64(),
            (FifoServiceElement("p", RateLatencyService(F(125_000_000), 12 * US)),),
            LOSSLESS,
        )
        rep = analyze_path(path)
        assert rep.elements[0].d_min == F(64) / F(125_000_000)
        assert rep.elements[0].d_max == F("63.2") * US

    def test_auto_timeout_covers_segment_since_source(self):
        rep = analyze_path(small_path())
        assert rep.resequencers[0].upstream_rto == F("0.988") * US
        assert rep.resequencers[0].timeout == F("0.988") * US

    def test_segments_reset_after_resequencer(self):
        svc = RateLatencyService(F(125_000_000), 12 * US)
        path = PathSpec(
            flow64(),
            (
                FifoServiceElement("f1", svc),
                FabricElement("sf1", F(1, 2) * US, 2 * US),
                ResequencerElement("rb1"),
                FifoServiceElement("f2", svc),
                FabricElement("sf2", F(1, 2) * US, 2 * US),
                ResequencerElement("rb2"),
            ),
            LOSSY,
        )
        rep = analyze_path(path)
        # second timeout sees only the post-rb1 segment
        assert rep.resequencers[1].upstream_rto == F("0.988") * US

    def test_explicit_timeout_below_bound_flags_warning(self):
        path = PathSpec(
            flow64(),
            (
                FifoServiceElement(
                    "f", RateLatencyService(F(125_000_000), 12 * US)
                ),
                FabricElement("sf", F(1, 2) * US, 2 * US),
                ResequencerElement("rb", mode="explicit", timeout=F(1, 10**7)),
            ),
            LOSSY,
        )
        rep = analyze_path(path)
        assert rep.resequencers[0].unsafe_timeout
        assert rep.warnings

    def test_instability_raises(self):
        path = PathSpec(
            flow64(),
            (FifoServiceElement("slow", RateLatencyService(F(6000), F(0))),),
            LOSSY,
        )
        from reseqkit.curves import InstabilityError

        with pytest.raises(InstabilityError):
            analyze_path(path)

    def test_deterministic(self):
        a = analyze_path(small_path())
        b = analyze_path(small_path())
        assert a == b


class TestResequencingForFree:
    def test_lossless_reports_identical_with_and_without_buffers(self):
        with_rb = analyze_path(small_path(LOSSLESS, with_reseq=True))
        without = analyze_path(small_path(LOSSLESS, with_reseq=False))
        assert with_rb.e2e_delay == without.e2e_delay
        assert with_rb.e2e_jitter == without.e2e_jitter
        assert with_rb.destination_curve == without.destination_curve

    def test_lossless_placement_invariance(self):
        svc = RateLatencyService(F(125_000_000), 12 * US)
        base = PathSpec(
            flow64(),
            (
                FifoServiceElement("f1", svc),
                FabricElement("sf1", F(1, 2) * US, 2 * US),
                FifoServiceElement("f2", svc),
                FabricElement("sf2", F(1, 2) * US, 2 * US),
                FifoServiceElement("f3", svc),
            ),
            LOSSLESS,
        )
        results = set()
        for placement in ((), ("sf1",), ("sf2", "f3"), ("sf1", "sf2"), ("f3",)):
            placed = insert_resequencers(base, placement)
            rep = analyze_path(placed)
            results.add(
                (rep.e2e_delay, rep.e2e_jitter, rep.destination_curve)
            )
        assert len(results) == 1

    def test_lossy_delay_is_baseline_plus_timeouts_when_no_downstream_fifo(self):
        # re-sequencer at the very end: burst growth has nothing to inflate
        path = small_path(LOSSY, with_reseq=True)
        rep = analyze_path(path)
        t = rep.resequencers[0].timeout
        assert rep.e2e_delay == rep.baseline_delay + t
        assert rep.e2e_jitter == rep.baseline_jitter + t
        assert rep.delta_delay == t

    def test_jitter_decomposition(self):
        # e2e jitter == sum of element jitters + lossy timeouts
        rep = analyze_path(small_path(LOSSY))
        parts = sum((e.stage.jitter for e in rep.elements), F(0))
        parts += sum((r.timeout for r in rep.resequencers), F(0))
        assert rep.e2e_jitter == parts


class TestCurvePropagationSoundness:
    def test_propagated_curve_dominates_randomized_element_output(self):
        rng = random.Random(2024)
        flow = flow64()
        sizes = [F(64)] * 30
        emits = scenario_oracle.packetize(flow.source_curve, sizes)
        d_min, d_max = F(1, 2) * US, 2 * US
        element = FabricElement("sf", d_min, d_max)
        path = PathSpec(flow, (element,), LOSSLESS)
        rep = analyze_path(path)
        out_curve = rep.elements[0].output_curve
        for _ in range(50):
            exits = []
            used = set()
            for a in emits:
                while True:
                    delay = d_min + (d_max - d_min) * F(rng.randint(0, 10**6), 10**6)
                    if a + delay not in used:
                        used.add(a + delay)
                        exits.append(a + delay)
                        break
            order = sorted(range(len(exits)), key=lambda i: exits[i])
            verdict = check_conforms(
                source_trace([sizes[i] for i in order], [exits[i] for i in order]),
                out_curve,
            )
            assert verdict.ok

    def test_fifo_output_capped_by_line_rate(self):
        rep = analyze_path(small_path(LOSSLESS, with_reseq=False))
        fifo_out = rep.elements[0].output_curve
        assert (F(125_000_000), F(64)) in fifo_out.pieces


class TestBaselineAndPlacements:
    def test_baseline_strips_resequencers(self):
        path = small_path(LOSSY, with_reseq=True)
        d, v = stripped_totals(path)
        rep = analyze_path(small_path(LOSSY, with_reseq=False))
        assert (d, v) == (rep.e2e_delay, rep.e2e_jitter)
        assert (d, v) == (
            analyze_path(path).baseline_delay, analyze_path(path).baseline_jitter
        )

    def test_baseline_jitter_is_sum_of_element_jitters(self):
        rep = analyze_path(small_path(LOSSY, with_reseq=False))
        assert rep.e2e_jitter == sum((e.stage.jitter for e in rep.elements), F(0))

    def test_compare_placements_shapes_rows(self):
        base = small_path(LOSSY, with_reseq=False)
        reports = compare_placements(base, {"none": (), "end": ("sf",)})
        # 2 strategies x 2 loss modes, in the order given
        assert list(reports) == ["none", "end"]
        assert all(list(by_mode) == [LOSSLESS, LOSSY] for by_mode in reports.values())
        # every placement's baseline is the base path itself
        assert all(
            (r.baseline_delay, r.baseline_jitter) == stripped_totals(base)
            for by_mode in reports.values() for r in by_mode.values()
        )
        assert reports["none"][LOSSY].delta_delay == 0
        assert reports["end"][LOSSLESS].delta_delay == 0
        end_lossy = reports["end"][LOSSY]
        assert end_lossy.delta_delay == end_lossy.resequencers[0].timeout

    def test_compare_rejects_base_with_resequencer(self):
        with pytest.raises(PathConfigError):
            compare_placements(small_path(), {"x": ()})

    def test_three_subnetwork_prototype(self):
        # three reordering subnetworks with fixed delay ranges: no port
        # queues, so re-sequencing cannot inflate any downstream bound
        v = [F(3, 10**6), F(5, 10**6), F(2, 10**6)]
        base = PathSpec(
            flow64(),
            tuple(
                FabricElement(f"sub{i+1}", F(0), v[i]) for i in range(3)
            ),
            LOSSY,
        )
        reports = compare_placements(
            base,
            {
                "only at 3": ("sub3",),
                "at 1 and 2": ("sub1", "sub2"),
            },
        )
        rows = [rep for by_mode in reports.values() for rep in by_mode.values()]
        assert all(r.delta_delay == 0 for r in rows if r.loss_mode == LOSSLESS)
        assert all(r.delta_jitter == 0 for r in rows if r.loss_mode == LOSSLESS)
        # destination placement pays the head offset plus downstream jitters
        rep = analyze_path(insert_resequencers(base, ["sub3"]))
        lam1 = rep.elements[0].stage.rto
        only3 = reports["only at 3"][LOSSY]
        assert only3.delta_jitter == lam1 + v[1] + v[2]
        assert only3.delta_delay == only3.delta_jitter
        # per-switch placement pays each local offset instead
        both = reports["at 1 and 2"][LOSSY]
        assert both.delta_jitter == sum((r.timeout for r in both.resequencers), F(0))
        assert all(r.e2e_delay >= r.delta_delay for r in rows)
        for mode in (LOSSLESS, LOSSY):
            assert reports["only at 3"][mode].delta_delay >= 0


class TestConfigAndRendering:
    def test_json_round_trip(self, tmp_path):
        cfg = tmp_path / "path.json"
        cfg.write_text(CONFIG_JSON, encoding="utf-8")
        path = load_path(str(cfg))
        assert path.loss_mode == LOSSY
        assert [e.id for e in path.elements] == [
            "h1.fifo", "S1.fabric", "S1.reseq", "S1.fifo",
        ]
        rep = analyze_path(path)
        assert rep.resequencers[0].timeout == F("0.988") * US

    def test_unknown_kind_rejected(self):
        bad = json.loads(CONFIG_JSON)
        bad["elements"][0]["kind"] = "mystery"
        with pytest.raises(PathConfigError):
            path_from_json(bad)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda c: c.update(flow=[]),
            lambda c: c["flow"].update(curve="6400"),
            lambda c: c["flow"]["curve"].update(pieces={"rate": "1", "burst": "1"}),
            lambda c: c["flow"]["curve"].update(pieces=[5]),
            lambda c: c.update(elements=5),
            lambda c: c["elements"].append("S2.fabric"),
        ],
        ids=["flow", "curve", "pieces", "piece", "elements", "element"],
    )
    def test_wrong_json_types_rejected(self, edit):
        bad = json.loads(CONFIG_JSON)
        edit(bad)
        with pytest.raises(PathConfigError, match="must be"):
            path_from_json(bad)

    def test_adjacent_resequencers_rejected(self):
        with pytest.raises(PathConfigError):
            PathSpec(
                flow64(),
                (
                    FixedDelayElement("w", F(0), F(0)),
                    ResequencerElement("a"),
                    ResequencerElement("b"),
                ),
                LOSSY,
            )

    def test_report_json_is_exact(self):
        rep = analyze_path(small_path())
        blob = json.loads(report_to_json(rep))
        assert blob["resequencers"][0]["timeout_s"] == "0.000000988"
        assert blob["e2e"]["delay_us_display"] == "66.19"

    def test_report_lists_only_envelope_pieces(self):
        # 100 us of latency at h2 lifts h1's line-rate piece (125e6, 64) to a
        # burst of 12564 B, above the source piece for every t > 0
        flow = flow64()
        path = PathSpec(flow, (
            FifoServiceElement("h1", RateLatencyService(F(125_000_000), 12 * US)),
            FifoServiceElement("h2", RateLatencyService(F(125_000_000), 100 * US)),
        ), LOSSLESS)
        h1, h2 = json.loads(report_to_json(analyze_path(path)))["elements"]
        assert [p["rate"] for p in h1["queue_output_curve"]["pieces"]] == ["6400"]
        assert h1["output_curve"]["pieces"] == [
            {"rate": "6400", "burst": "6400.0768"},
            {"rate": "125000000", "burst": "64"},
        ]
        assert h2["queue_output_curve"]["pieces"] == [
            {"rate": "6400", "burst": "6400.7168"}
        ]

    def test_table_renders(self):
        rep = analyze_path(small_path())
        text = render_report_table(rep)
        assert "h1.fifo" in text
        assert "e2e delay" in text


# -- the shared lossless baseline against independent oracles -----------------

small_fractions = st.fractions(min_value=0, max_value=5, max_denominator=8)


@st.composite
def mixed_paths(draw):
    """A path of FIFO ports, fabrics, fixed stages and auto or explicit
    re-sequencers (timeouts and capacities possibly infinite) behind a
    source curve of 1 to 8 pieces."""
    l_min = F(1)
    l_max = draw(st.sampled_from([F(1), F(2), F(3)]))
    pieces = draw(st.lists(
        st.tuples(
            st.fractions(min_value=1, max_value=50, max_denominator=8),
            st.fractions(min_value=l_max, max_value=50, max_denominator=8),
        ),
        min_size=1, max_size=8,
    ))
    flow = FlowSpec(MinAffineCurve(tuple(pieces)), l_min, l_max)
    elements = []
    for i in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["fifo", "fabric", "fixed", "auto", "explicit"]))
        if kind in ("auto", "explicit") and elements and (
            elements[-1].kind == "resequencer"
        ):
            kind = "fixed"  # no adjacent re-sequencers
        eid = f"e{i}"
        if kind == "fifo":
            rate = draw(st.fractions(min_value=60, max_value=200, max_denominator=8))
            elements.append(FifoServiceElement(
                eid, RateLatencyService(rate, draw(small_fractions))
            ))
        elif kind in ("fabric", "fixed"):
            lo = draw(small_fractions)
            cls = FabricElement if kind == "fabric" else FixedDelayElement
            elements.append(cls(eid, lo, lo + draw(small_fractions)))
        elif kind == "auto":
            elements.append(ResequencerElement(eid))
        else:
            elements.append(ResequencerElement(
                eid, "explicit",
                timeout=draw(st.one_of(st.just(INF), small_fractions)),
                capacity=draw(st.one_of(
                    st.none(), st.just(INF),
                    st.fractions(min_value=0, max_value=200, max_denominator=8),
                )),
            ))
    if len(elements) == 1 and elements[0].kind == "resequencer":
        elements.append(FixedDelayElement("tail", F(0), draw(small_fractions)))
    return PathSpec(flow, tuple(elements), draw(st.sampled_from([LOSSLESS, LOSSY])))


def assert_same_report(a, b):
    for f in fields(a):
        assert getattr(a, f.name) == getattr(b, f.name), f.name


def sequence_rules(path, rep):
    """Each re-sequencer's upstream RTO and lossless size by the reference
    sequence rules (``bounds_oracle``) over whole stage lists, each stage
    with its entrance curve and no exported RTO, so that the oracle derives
    each head term from the curve itself: the RTO over the segment since
    the previous re-sequencer, and the RBO over every stage from the source,
    re-sequencers included."""
    curve, flow = path.flow.source_curve, path.flow
    whole, segment, rtos, sizes = [], [], [], []
    elements, reseqs = iter(rep.elements), iter(rep.resequencers)
    for el in path.elements:
        if el.kind == "resequencer":
            r = next(reseqs)
            rtos.append(
                bounds_oracle.rto_bound_sequence(segment, flow.l_min).value
                if segment else 0
            )
            sizes.append(
                bounds_oracle.rbo_bound_sequence(whole, flow.source_curve, flow.l_min)
            )
            jitter = bounds.resequencer_delay_effect(rep.loss_mode, r.timeout)[1]
            stage = bounds_oracle.SequenceElement(jitter, True, None, curve)
            segment, curve = [], r.output_curve
        else:
            e = next(elements)
            stage = bounds_oracle.SequenceElement(
                e.stage.jitter, e.kind != "fabric", None, curve
            )
            curve = e.output_curve
        segment.append(stage)
        whole.append(stage)
    return rtos, sizes


class TestSharedBaseline:
    @settings(max_examples=150)
    @given(path=mixed_paths())
    def test_both_modes_match_single_mode_and_oracles(self, path):
        baseline = stripped_totals(path)
        if any(
            e.kind == "resequencer" and e.timeout is INF for e in path.elements
        ):
            # lossy mode refuses an infinite timeout, whichever entry is used
            for analyze in (
                analyze_both, lambda p: analyze_path(replace(p, loss_mode=LOSSY))
            ):
                with pytest.raises(PathConfigError, match="infinite timeout"):
                    analyze(path)
            reports = {LOSSLESS: analyze_path(replace(path, loss_mode=LOSSLESS))}
        else:
            reports = analyze_both(path)
            assert list(reports) == [LOSSLESS, LOSSY]
            for mode, rep in reports.items():
                assert_same_report(rep, analyze_path(replace(path, loss_mode=mode)))
        for mode, rep in reports.items():
            assert (rep.baseline_delay, rep.baseline_jitter) == baseline
            rtos, sizes = sequence_rules(path, rep)
            assert [r.upstream_rto for r in rep.resequencers] == rtos
            if mode == LOSSLESS:
                assert (rep.delta_delay, rep.delta_jitter) == (0, 0)
                assert [r.required_buffer_exact for r in rep.resequencers] == sizes

    @settings(max_examples=100)
    @given(path=mixed_paths())
    def test_forked_walks_match_whole_walks(self, path):
        # analyze_both walks the stages before the first re-sequencer once;
        # each mode's report equals a walk of the whole path in that mode
        try:
            reports = analyze_both(path)
        except PathConfigError as exc:
            with pytest.raises(PathConfigError, match=re.escape(str(exc))):
                path_analysis._walk(path, LOSSY, path_analysis._Walk(
                    path.flow.source_curve), path.elements)
            return
        for mode, rep in reports.items():
            whole = path_analysis._walk(path, mode, path_analysis._Walk(
                path.flow.source_curve), path.elements).report(mode)
            assert_same_report(rep, replace(
                whole, baseline_delay=rep.baseline_delay,
                baseline_jitter=rep.baseline_jitter))

    @settings(max_examples=150)
    @given(path=mixed_paths())
    def test_both_modes_match_the_fraction_walk(self, path):
        # every field of both reports, the lossy sizes, the warnings and the
        # e2e figures among them, equals the walk that sums Fractions
        try:
            want = walk_oracle.analyze_both(path)
        except PathConfigError as exc:
            with pytest.raises(PathConfigError, match=re.escape(str(exc))):
                analyze_both(path)
            return
        got = analyze_both(path)
        assert list(got) == list(want)
        for mode, rep in got.items():
            assert_same_report(rep, want[mode])

    def test_only_resequencers_rejected(self):
        for mode in (LOSSLESS, LOSSY):
            with pytest.raises(
                PathConfigError, match="path contains only re-sequencers"
            ):
                PathSpec(flow64(), (ResequencerElement("rb"),), mode)


def segments(path, rep):
    """Each re-sequencer's report with the element reports of its segment,
    the elements since the previous re-sequencer, found from the order of
    ``path.elements`` as ``sequence_rules`` does."""
    elements, reseqs = iter(rep.elements), iter(rep.resequencers)
    segment = []
    for el in path.elements:
        if el.kind == "resequencer":
            yield next(reseqs), segment
            segment = []
        else:
            segment.append(next(elements))


def witnessed_rtos(path, rep):
    """For each re-sequencer whose segment has a positive head term: its
    upstream RTO, and the epsilon and chain of ``gen_amplified_rto_chain``
    over the segment's own stages.  The chain's offset is the upstream RTO
    less epsilon: a timeout 2*eps short of that RTO discards its late
    packet, and the RTO itself discards nothing."""
    witnessed = []
    for r, segment in segments(path, rep):
        stages = [e.stage for e in segment]
        head = next((s.rto for s in stages if s.rto is not None), 0)
        if not head:
            continue
        eps = head / 3
        chain = gen_amplified_rto_chain(stages, eps)
        assert rto(chain.end_to_end).value == r.upstream_rto - eps
        short = simulate(chain.end_to_end,
                         ResequencerConfig(r.upstream_rto - 2 * eps, INF))
        assert INVALID_LATE in short.discards.values()
        assert simulate(chain.end_to_end,
                        ResequencerConfig(r.upstream_rto, INF)).discards == {}
        witnessed.append((r.upstream_rto, eps, chain))
    return witnessed


class TestRtoTightAlongPath:
    """The RTO witness reaches each re-sequencer's upstream RTO bound, fed
    with the stages the analysis itself reports."""

    @settings(max_examples=150)
    @given(path=mixed_paths())
    def test_chain_over_reported_stages_reaches_upstream_rto(self, path):
        modes = (LOSSLESS,) if any(
            e.kind == "resequencer" and e.timeout is INF for e in path.elements
        ) else (LOSSLESS, LOSSY)  # lossy mode refuses an infinite timeout
        for mode in modes:
            witnessed_rtos(path, analyze_path(replace(path, loss_mode=mode)))

    def test_bundled_placements(self):
        base = automotive_base_path()
        for name, by_mode in compare_placements(base, PLACEMENTS).items():
            placed = insert_resequencers(base, PLACEMENTS[name])
            for mode, rep in by_mode.items():
                witnessed = witnessed_rtos(placed, rep)
                assert len(witnessed) == len(rep.resequencers)
                if (name, mode) == ("only at h2", LOSSLESS):
                    ((upstream, eps, chain),) = witnessed
                    assert upstream == F("29.488") * US
                    assert chain.rto_target == rto(chain.end_to_end).value
                    assert chain.rto_target == upstream - eps


def cycled_path(source_pieces, length=50):
    """A path cycling FIFO port, fabric, FIFO port, fabric and auto
    re-sequencer behind a source of p/q pieces, every burst at least two
    minimal packets, so no RTO head term is clamped."""
    cycle = [
        lambda i: FifoServiceElement(f"e{i}", RateLatencyService(F(10**9, 7), F(3, 10**6))),
        lambda i: FabricElement(f"e{i}", F(1, 10**6), F(19, 7 * 10**6)),
        lambda i: FifoServiceElement(f"e{i}", RateLatencyService(F(10**9, 7), F(5, 10**6))),
        lambda i: FabricElement(f"e{i}", F(1, 3 * 10**6), F(2, 10**6)),
        lambda i: ResequencerElement(f"e{i}"),
    ]
    flow = FlowSpec(MinAffineCurve(source_pieces), 64, 64)
    return PathSpec(flow, tuple(cycle[i % 5](i) for i in range(length)))


def test_walk_makes_no_fraction_per_piece(monkeypatch):
    from test_scenarios import fractions_made

    def source(ks):
        return tuple((F(6400, 3) * 5**k, 129 + F(5120, 7) / 3**k) for k in ks)

    two, eight = cycled_path(source((0, 7))), cycled_path(source(range(8)))
    assert len(two.flow.source_curve.pieces) == 2
    assert len(eight.flow.source_curve.pieces) == 8
    assert len(analyze_both(eight)[LOSSY].elements[-1].output_curve.pieces) > 2
    assert (fractions_made(monkeypatch, lambda: analyze_both(eight))
            <= fractions_made(monkeypatch, lambda: analyze_both(two)))


@pytest.mark.parametrize(
    "after_ids,message",
    [
        (["nope"], "unknown elements: ['nope']"),
        (["sf", "b", "a"], "unknown elements: ['a', 'b']"),
    ],
    ids=["one", "sorted"],
)
def test_insert_resequencers_refuses_unknown_elements(after_ids, message):
    with pytest.raises(PathConfigError) as exc:
        insert_resequencers(small_path(with_reseq=False), after_ids)
    assert str(exc.value) == message
