import json
import random
from fractions import Fraction as F

import pytest

from reseqkit.bounds import LOSSLESS, LOSSY
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
    analyze_path,
    baseline,
    compare_placements,
    insert_resequencers,
    load_path,
    render_report_table,
    report_to_json,
)
from reseqkit.curves import RateLatencyService
from reseqkit.scenarios import packetize

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
        parts = sum((e.jitter for e in rep.elements), F(0))
        parts += sum((r.timeout for r in rep.resequencers), F(0))
        assert rep.e2e_jitter == parts


class TestCurvePropagationSoundness:
    def test_propagated_curve_dominates_randomized_element_output(self):
        rng = random.Random(2024)
        flow = flow64()
        sizes = [F(64)] * 30
        emits = packetize(flow.source_curve, sizes)
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
                [exits[i] for i in order], [sizes[i] for i in order], out_curve
            )
            assert verdict.ok

    def test_fifo_output_capped_by_line_rate(self):
        rep = analyze_path(small_path(LOSSLESS, with_reseq=False))
        fifo_out = rep.elements[0].output_curve
        assert (F(125_000_000), F(64)) in fifo_out.pieces


class TestBaselineAndPlacements:
    def test_baseline_strips_resequencers(self):
        d, v = baseline(small_path(LOSSY, with_reseq=True))
        rep = analyze_path(small_path(LOSSY, with_reseq=False))
        assert (d, v) == (rep.e2e_delay, rep.e2e_jitter)

    def test_baseline_jitter_is_sum_of_element_jitters(self):
        rep = analyze_path(small_path(LOSSY, with_reseq=False))
        assert rep.e2e_jitter == sum((e.jitter for e in rep.elements), F(0))

    def test_compare_placements_shapes_rows(self):
        base = small_path(LOSSY, with_reseq=False)
        rows = compare_placements(base, {"none": (), "end": ("sf",)})
        assert len(rows) == 4  # 2 strategies x 2 loss modes
        by_key = {(r.strategy, r.loss_mode): r for r in rows}
        assert by_key[("none", LOSSY)].delta_delay == 0
        assert by_key[("end", LOSSLESS)].delta_delay == 0
        end_lossy = by_key[("end", LOSSY)]
        assert end_lossy.delta_delay == end_lossy.timeouts[0][1]

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
        rows = compare_placements(
            base,
            {
                "only at 3": ("sub3",),
                "at 1 and 2": ("sub1", "sub2"),
            },
        )
        by_key = {(r.strategy, r.loss_mode): r for r in rows}
        assert all(r.delta_delay == 0 for r in rows if r.loss_mode == LOSSLESS)
        assert all(r.delta_jitter == 0 for r in rows if r.loss_mode == LOSSLESS)
        # destination placement pays the head offset plus downstream jitters
        rep = analyze_path(insert_resequencers(base, ["sub3"]))
        lam1 = rep.elements[0].rto_bound
        only3 = by_key[("only at 3", LOSSY)]
        assert only3.delta_jitter == lam1 + v[1] + v[2]
        assert only3.delta_delay == only3.delta_jitter
        # per-switch placement pays each local offset instead
        both = by_key[("at 1 and 2", LOSSY)]
        assert both.delta_jitter == sum((t for _, t in both.timeouts), F(0))
        assert all(r.e2e_delay >= r.delta_delay for r in rows)
        for mode in (LOSSLESS, LOSSY):
            assert by_key[("only at 3", mode)].delta_delay >= 0


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
            load_path(json.dumps(bad), from_text=True)

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
            load_path(json.dumps(bad), from_text=True)

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
        blob = report_to_json(rep)
        assert blob["resequencers"][0]["timeout_s"] == "0.000000988"
        assert blob["e2e"]["delay_us_display"] == "66.19"

    def test_table_renders(self):
        rep = analyze_path(small_path())
        text = render_report_table(rep)
        assert "h1.fifo" in text
        assert "e2e delay" in text
