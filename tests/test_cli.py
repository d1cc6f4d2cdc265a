import contextlib
import io
import json
import math
import os
import re
import sys
import threading
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reseqkit import case_study, cli, curves, path_analysis
from reseqkit.bounds import LOSSLESS
from reseqkit.cli import DISCARD, INPUT_ERROR, MISMATCH, OK, UNSAFE_WARNING, main
from reseqkit.curves import horizontal_deviation
from reseqkit.metrics import CSV_HEADER, trace_from_csv, trace_to_csv
from reseqkit.rational import INF, fmt_rat, fmt_ticks, parse_time
from reseqkit.resequencer import (
    INVALID_LATE, OVERFLOW, ResequencerConfig, ResequencerOutcome, simulate)
from reseqkit.scenarios import gen_two_packet_swap
from report_json_oracle import report_dict
from test_path_analysis import cycled_path, mixed_paths
from test_rational import TICK_BASES

ROOT = Path(__file__).resolve().parents[1]
BUNDLED = ROOT / "configs" / "automotive_only_h2.json"
GOLDEN = ROOT / "tests" / "golden"

CONFIG = {
    "flow": {
        "curve": {
            "unit": "bytes",
            "kind": "min_affine",
            "pieces": [{"rate": "6400", "burst": "6400"}],
        },
        "l_min": "64",
        "l_max": "64",
    },
    "loss_mode": "lossy",
    "elements": [
        {"id": "h1.fifo", "kind": "fifo_service",
         "rate_Bps": "125e6", "latency_s": "12e-6"},
        {"id": "S1.fabric", "kind": "fabric",
         "d_min_s": "0.5e-6", "d_max_s": "2e-6"},
        {"id": "S1.reseq", "kind": "resequencer", "mode": "auto"},
    ],
}


@pytest.fixture
def config_file(tmp_path):
    p = tmp_path / "path.json"
    p.write_text(json.dumps(CONFIG), encoding="utf-8")
    return str(p)


@pytest.fixture
def swap_trace_file(tmp_path):
    trace = gen_two_packet_swap(F("7e-6"), t0=F("1e-6"))
    p = tmp_path / "swap.csv"
    p.write_text(trace_to_csv(trace), encoding="utf-8")
    return str(p)


class TestAnalyze:
    def test_table_output(self, config_file, capsys):
        assert main(["analyze", "--config", config_file]) == OK
        out = capsys.readouterr().out
        assert "h1.fifo" in out
        assert "e2e delay" in out

    def test_both_modes(self, config_file, capsys):
        assert main(["analyze", "--config", config_file, "--loss", "both"]) == OK
        out = capsys.readouterr().out
        assert "lossless" in out and "lossy" in out

    def test_json_and_table_agree_after_rounding(self, config_file, capsys):
        main(["analyze", "--config", config_file, "--format", "json"])
        blob = json.loads(capsys.readouterr().out)
        main(["analyze", "--config", config_file, "--format", "table"])
        table = capsys.readouterr().out
        assert blob[0]["e2e"]["delay_us_display"] in table

    def test_csv_format(self, config_file, capsys):
        assert main(["analyze", "--config", config_file, "--format", "csv"]) == OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("loss_mode,e2e_delay_us")
        assert lines[1].startswith("lossy,")

    def test_missing_config_is_input_error(self, tmp_path, capsys):
        assert main(["analyze", "--config", str(tmp_path / "nope.json")]) == INPUT_ERROR

    def test_schema_error_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"flow": {}}', encoding="utf-8")
        assert main(["analyze", "--config", str(p)]) == INPUT_ERROR

    def test_unsafe_timeout_exits_2_with_report(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(CONFIG))
        cfg["elements"][2] = {
            "id": "S1.reseq", "kind": "resequencer",
            "mode": "explicit", "timeout_s": "1e-9",
        }
        p = tmp_path / "unsafe.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["analyze", "--config", str(p)]) == UNSAFE_WARNING
        out = capsys.readouterr().out
        assert "warning" in out
        assert "e2e delay" in out  # report still emitted

    def test_both_modes_walk_the_path_once_each(self, monkeypatch, capsys):
        # the lossless walk is the lossy baseline, and the walks fork at the
        # re-sequencer: the 3 FIFO ports before it are walked once for both
        calls = []

        def counting(curve, service):
            calls.append(service)
            return horizontal_deviation(curve, service)

        monkeypatch.setattr(path_analysis, "horizontal_deviation", counting)
        assert main(["analyze", "--config", str(BUNDLED), "--loss", "both"]) == OK
        assert len(calls) == 3

    def test_both_modes_add_no_fractions(self, monkeypatch):
        # the walk sums its delays and jitters as integer ticks
        paths = [path_analysis.load_path(str(BUNDLED)),
                 cycled_path(((F(6400, 3), F(640, 7)), (F(10**6, 7), 129)))]
        adds = []
        for name in ("__add__", "__radd__"):
            def counting(a, b, _add=getattr(F, name)):
                adds.append((a, b))
                return _add(a, b)
            monkeypatch.setattr(F, name, counting)
        for path in paths:
            path_analysis.analyze_both(path)
        assert adds == []

    def test_both_modes_build_one_line_shaper_per_rate(self, monkeypatch, capsys):
        # the three ports of the bundled config share one rate and l_max
        calls = []

        def counting(*args):
            calls.append(args)
            return curves.leaky_bucket(*args)

        monkeypatch.setattr(path_analysis, "leaky_bucket", counting)
        assert main(["analyze", "--config", str(BUNDLED), "--loss", "both"]) == OK
        assert len(calls) == 1


def bundled_with(tmp_path, edit):
    """Path of a copy of the bundled config changed by ``edit``."""
    cfg = json.loads(BUNDLED.read_text(encoding="utf-8"))
    edit(cfg)
    p = tmp_path / "edited.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    return str(p)


class TestConfigErrors:
    INF_TIMEOUT = {"kind": "resequencer", "mode": "explicit", "timeout_s": "inf"}

    def test_lossy_infinite_timeout_is_input_error(self, tmp_path, capsys):
        cfg = bundled_with(
            tmp_path, lambda c: c["elements"][-1].update(self.INF_TIMEOUT)
        )
        assert main(["analyze", "--config", cfg]) == INPUT_ERROR
        err = capsys.readouterr().err
        assert err == (
            "error: h2.reseq: infinite timeout gives unbounded delay in lossy mode\n"
        )

    def test_lossless_infinite_timeout_is_fine(self, tmp_path, capsys):
        cfg = bundled_with(
            tmp_path, lambda c: c["elements"][-1].update(self.INF_TIMEOUT)
        )
        assert main(["analyze", "--config", cfg, "--loss", "lossless"]) == OK

    @pytest.mark.parametrize(
        "edit",
        [
            lambda c: c["elements"][0].update(rate_Bps=125e6),
            lambda c: c.update(elements=5),
            lambda c: c["elements"][1].update(d_min_s=None),
            lambda c: c.update(flow=[]),
            lambda c: c["flow"].update(l_min=True),
            lambda c: c["elements"][0].update(latency_s=[12]),
        ],
        ids=["float", "elements-int", "null", "flow-list", "bool", "list-value"],
    )
    def test_wrong_json_type_is_input_error(self, tmp_path, capsys, edit):
        cfg = bundled_with(tmp_path, edit)
        assert main(["analyze", "--config", cfg]) == INPUT_ERROR
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "capacity,code,err",
        [
            ("6335", UNSAFE_WARNING,
             "warning: h2.reseq: configured capacity 6335 B is below the "
             "required size 6336 B"),
            ("6336", OK, None),
            ("inf", OK, None),
        ],
    )
    def test_explicit_capacity_warning(self, tmp_path, capsys, capacity, code, err):
        cfg = bundled_with(
            tmp_path,
            lambda c: c["elements"].__setitem__(-1, {
                "id": "h2.reseq", "kind": "resequencer", "mode": "explicit",
                "timeout_s": "29.488e-6", "buffer_bytes": capacity,
            }),
        )
        assert main(["analyze", "--config", cfg, "--loss", "lossless"]) == code
        warnings = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("warning:")
        ]
        assert warnings == ([err] if err else [])

    @pytest.mark.parametrize("loss", ["lossless", "lossy"])
    @pytest.mark.parametrize(
        "fields,name",
        [
            ({"timeout_s": "-1e-6"}, "timeout_s"),
            ({"timeout_s": "29.488e-6", "buffer_bytes": "-5"}, "buffer_bytes"),
            ({"timeout_s": "-1/3", "buffer_bytes": "6336"}, "timeout_s"),
        ],
        ids=["timeout", "buffer", "timeout-fraction"],
    )
    def test_negative_resequencer_field_is_input_error(
        self, tmp_path, capsys, fields, name, loss
    ):
        cfg = bundled_with(
            tmp_path,
            lambda c: c["elements"][-1].update(mode="explicit", **fields),
        )
        assert main(["analyze", "--config", cfg, "--loss", loss]) == INPUT_ERROR
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: h2.reseq: ") and name in err

    @pytest.mark.parametrize("loss", ["lossless", "lossy", "both"])
    @pytest.mark.parametrize("min_delay", ["-1", "-1/3"])
    def test_negative_fifo_min_delay_is_input_error(
        self, tmp_path, capsys, min_delay, loss
    ):
        # accepted once: the e2e jitter then exceeded the worst-case delay
        cfg = bundled_with(
            tmp_path, lambda c: c["elements"][0].update(min_delay_s=min_delay)
        )
        assert main(["analyze", "--config", cfg, "--loss", loss]) == INPUT_ERROR
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"error: h1.fifo: min_delay_s {min_delay} is negative\n"
        )

    @pytest.mark.parametrize("fields", [{"timeout_s": "0", "buffer_bytes": "0"},
                                        {"timeout_s": "0", "buffer_bytes": "inf"}])
    def test_zero_and_infinite_resequencer_fields_accepted(
        self, tmp_path, capsys, fields
    ):
        cfg = bundled_with(
            tmp_path,
            lambda c: c["elements"][-1].update(mode="explicit", **fields),
        )
        assert main(["analyze", "--config", cfg, "--loss", "lossy"]) in (
            OK, UNSAFE_WARNING,
        )
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("loss", ["lossless", "lossy"])
    def test_timeout_on_auto_resequencer_is_input_error(self, tmp_path, capsys, loss):
        cfg = bundled_with(tmp_path, lambda c: c["elements"][-1].update(timeout_s="1"))
        assert main(["analyze", "--config", cfg, "--loss", loss]) == INPUT_ERROR
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "error: h2.reseq: timeout_s is read only in explicit mode; "
            "an auto re-sequencer takes its upstream RTO bound\n"
        )

    @pytest.mark.parametrize("loss", [[], ["--loss", "lossless"],
                                      ["--loss", "lossy"], ["--loss", "both"]])
    def test_only_resequencers_is_input_error(self, tmp_path, capsys, loss):
        cfg = bundled_with(tmp_path, lambda c: c.update(elements=c["elements"][-1:]))
        assert main(["analyze", "--config", cfg] + loss) == INPUT_ERROR
        out, err = capsys.readouterr()
        assert out == "" and err == "error: path contains only re-sequencers\n"

    @pytest.mark.parametrize("eid", [["h1", "fifo"], 7, {"a": 1}])
    def test_element_id_must_be_a_string(self, tmp_path, capsys, eid):
        # a list id was a TypeError traceback from the unique-id check, and
        # an integer id one from the table renderer
        cfg = bundled_with(tmp_path, lambda c: c["elements"][0].update(id=eid))
        assert main(["analyze", "--config", cfg]) == INPUT_ERROR
        assert capsys.readouterr().err == (
            f"error: element id {json.dumps(eid)} is not a string\n"
        )

    @pytest.mark.parametrize("loss", ["lossless", "lossy", "both"])
    @pytest.mark.parametrize("kind", ["fabric", "order_preserving_fixed"])
    @pytest.mark.parametrize("fields", [{"d_min_s": "-1"}, {"d_min_s": "3e-6"}],
                             ids=["negative", "above-d_max"])
    def test_delay_range_error_names_the_element(
        self, tmp_path, capsys, fields, kind, loss
    ):
        cfg = bundled_with(
            tmp_path, lambda c: c["elements"][1].update(kind=kind, **fields)
        )
        assert main(["analyze", "--config", cfg, "--loss", loss]) == INPUT_ERROR
        out, err = capsys.readouterr()
        assert out == "" and err == "error: S1.fabric: need 0 <= d_min <= d_max\n"

    @pytest.mark.parametrize(
        "index,fields,message",
        [
            (-1, {"mode": "explicit"},
             "h2.reseq: explicit re-sequencer needs a timeout"),
            (-1, {"mode": "manual"}, "h2.reseq: unknown re-sequencer mode 'manual'"),
            (0, {"rate_Bps": "0"}, "h1.fifo: service rate must be > 0"),
            (0, {"latency_s": "-1"}, "h1.fifo: service latency must be >= 0"),
        ],
        ids=["no-timeout", "unknown-mode", "zero-rate", "negative-latency"],
    )
    def test_element_error_names_the_element(
        self, tmp_path, capsys, index, fields, message
    ):
        cfg = bundled_with(tmp_path, lambda c: c["elements"][index].update(fields))
        assert main(["analyze", "--config", cfg]) == INPUT_ERROR
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    def test_json_ints_equal_strings(self, tmp_path, capsys):
        cfg = bundled_with(tmp_path, lambda c: c["flow"].update(l_min=64, l_max=64))
        assert main(["analyze", "--config", cfg, "--loss", "both"]) == OK
        with_ints = capsys.readouterr().out
        assert main(["analyze", "--config", str(BUNDLED), "--loss", "both"]) == OK
        assert with_ints == capsys.readouterr().out


LOSSY_BACKLOG = str(GOLDEN / "lossy_backlog.csv")
TWO_SEGMENTS = str(GOLDEN / "two_segments_path.json")
STAIRCASE_CURVE = str(GOLDEN / "staircase_curve.json")
PACKET_CURVE = str(GOLDEN / "packet_curve.json")
TWO_PIECE_CURVE = str(GOLDEN / "two_piece_curve.json")
MULTI_PIECE = str(GOLDEN / "multi_piece_path.json")
MIXED_BASES = str(GOLDEN / "mixed_bases_path.json")
CAPTURE_SHAPE = str(GOLDEN / "capture_shape.csv")
MIXED_DISCARDS = str(GOLDEN / "mixed_discards.csv")
GOLDEN_EXIT = {  # OK for the rest
    "lossy_backlog_discard.json": DISCARD,
    "mixed_discards_simulate.json": DISCARD,
    "two_segments_both.table": UNSAFE_WARNING,
    "two_segments_both.json": UNSAFE_WARNING,
    "mixed_bases_both.json": UNSAFE_WARNING,
    "mixed_bases_both.table": UNSAFE_WARNING,
}

# Every whole-output case: the argv and its golden stdout file.  The console
# script check (check_console_script.py) runs the same list.
GOLDEN_CASES = [
    (["analyze", "--config", str(BUNDLED), "--loss", "both", "--format", fmt],
     f"analyze_both.{fmt}")
    for fmt in ("table", "json", "csv")
] + [
    (["case-study", "automotive", "--check", "--format", fmt],
     f"case_study_check.{fmt}")
    for fmt in ("table", "json")
] + [
    # one lost packet, then seven survivors at p/q times
    (["scenario", "lossy-backlog", "--rate", "6400", "--burst", "640",
      "--jitter", "20ms", "--timeout", "10ms", "--l-min", "64", "--l-max", "128"],
     "lossy_backlog.csv"),
    (["metrics", "--verbose", LOSSY_BACKLOG], "lossy_backlog_metrics.txt"),
    (["simulate", "--timeout", "10ms", "--buffer", "832", LOSSY_BACKLOG],
     "lossy_backlog_simulate.json"),
    (["simulate", "--timeout", "10ms", "--buffer", "640", LOSSY_BACKLOG],
     "lossy_backlog_discard.json"),
] + [
    # the config's own loss mode (lossy), its baseline from the lossless walk
    (["analyze", "--config", str(BUNDLED), "--format", fmt],
     f"analyze_lossy.{fmt}")
    for fmt in ("table", "csv")
] + [
    # a swap, a loss and a 1/3 s arrival: decimal, p/q and inf departures
    (["simulate", "--timeout", "1/30", str(GOLDEN / "thirds.csv")],
     "thirds_simulate.json"),
] + [
    # two segments: a fabric whose RTO bound is clamped to 0, a mid-path
    # auto re-sequencer, a 1/300000 s delay, and an explicit re-sequencer
    # whose timeout and capacity are both too small (two warnings)
    (["analyze", "--config", TWO_SEGMENTS, "--loss", "both", "--format", fmt],
     f"two_segments_both.{fmt}")
    for fmt in ("table", "json")
] + [
    # one report in the list: the config's own loss mode as JSON
    (["analyze", "--config", str(BUNDLED), "--format", "json"],
     "analyze_lossy.json"),
] + [
    # one trace per generator: p/q times, --t0, a non-integer size, a
    # constant-size flow, a staircase and a packet-unit curve
    (["scenario", "two-packet-swap", "--rto", "1/3", "--t0", "1/7"],
     "two_packet_swap.csv"),
    (["scenario", "lossless-backlog", "--rto", "5ms", "--sizes", "64,100,64.5"],
     "lossless_backlog.csv"),
    (["scenario", "lossy-backlog", "--rate", "12800", "--burst", "320",
      "--jitter", "7ms", "--timeout", "3ms"],
     "lossy_backlog_constant.csv"),
    (["scenario", "lossy-backlog", "--curve-json", STAIRCASE_CURVE,
      "--jitter", "20ms", "--timeout", "10ms", "--l-min", "64", "--l-max", "128"],
     "lossy_backlog_staircase.csv"),
    (["scenario", "rto-tight", "--curve-json", PACKET_CURVE, "--jitter", "5ms"],
     "rto_tight_packets.csv"),
    (["scenario", "rbo-tight", "--rate", "6400", "--burst", "640",
      "--jitter", "20ms", "--l-min", "64", "--l-max", "128", "--eps", "1/3000"],
     "rbo_tight.csv"),
    (["scenario", "rto-chain", "--stages", "1/3,1/11,2:1", "--eps", "1/1000"],
     "rto_chain.csv"),
] + [
    # a capture's shape: nanosecond times with their trailing zeros stripped
    # or whole, padded cells, an empty and a ",,," line and one loss
    (["metrics", "--verbose", CAPTURE_SHAPE], "capture_shape_metrics.txt"),
    (["simulate", "--timeout", "2us", CAPTURE_SHAPE], "capture_shape_simulate.json"),
] + [
    # a two-piece curve whose second piece binds the burst's head and whose
    # first binds its tail: p/q emissions and a non-integer last size
    (["scenario", "lossy-backlog", "--curve-json", TWO_PIECE_CURVE,
      "--jitter", "60ms", "--timeout", "40ms", "--l-min", "64", "--l-max", "128"],
     "lossy_backlog_two_piece.csv"),
    (["scenario", "rbo-tight", "--curve-json", TWO_PIECE_CURVE, "--jitter", "100ms",
      "--l-min", "64", "--l-max", "128", "--eps", "1ms"],
     "rbo_tight_two_piece.csv"),
] + [
    # a 4-piece p/q source: a FIFO port slower than its fastest pieces (the
    # delay at a breakpoint), a clamped fabric, a fixed stage, an auto
    # re-sequencer, then a fabric whose shift drops pieces and an explicit
    # re-sequencer
    (["analyze", "--config", MULTI_PIECE, "--loss", "both", "--format", fmt],
     f"multi_piece_both.{fmt}")
    for fmt in ("json", "table")
] + [
    # denominators that share no base: FIFO rates of 10^9/7, fixed delays of
    # 1/3 and 2/7 s, an explicit min_delay_s and an explicit re-sequencer
    # with a 1/11 s timeout and a capacity below its size (one warning)
    (["analyze", "--config", MIXED_BASES, "--loss", "both", "--format", fmt],
     f"mixed_bases_both.{fmt}")
    for fmt in ("json", "table")
] + [
    # a 300 B buffer and a 5 ms timeout: overflows while the buffer is
    # full, late packets after their holes were flushed, a loss, a p/q time
    (["simulate", "--timeout", "5ms", "--buffer", "300", MIXED_DISCARDS],
     "mixed_discards_simulate.json"),
]


@pytest.mark.parametrize("argv,golden", GOLDEN_CASES)
def test_whole_output_matches_golden(argv, golden, capsys):
    assert main(argv) == GOLDEN_EXIT.get(golden, OK)
    assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")


def analyze_edited(edit):
    return lambda tmp_path: ["analyze", "--config", bundled_with(tmp_path, edit)]


def rbo_tight(*extra):
    base = ["scenario", "rbo-tight", "--jitter", "1ms", "--rate", "6400",
            "--burst", "6400"]
    return lambda tmp_path: base + list(extra)


def metrics_of(row):
    def argv(tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(
            "index,size_bytes,emit_time_s,observe_time_s\n" + row + "\n",
            encoding="utf-8",
        )
        return ["metrics", str(p)]
    return argv


@pytest.mark.parametrize(
    "argv",
    [
        analyze_edited(lambda c: c["flow"].update(l_min="inf")),
        analyze_edited(lambda c: c["elements"][0].update(rate_Bps="inf")),
        analyze_edited(
            lambda c: c["flow"]["curve"]["pieces"][0].update(rate="inf")
        ),
        rbo_tight("--rate", "inf"),
        rbo_tight("--l-min", "inf"),
        rbo_tight("--jitter", "inf"),
        metrics_of("1,inf,0,1"),
        metrics_of("1,64,inf,inf"),
    ],
    ids=["l_min", "rate_Bps", "piece-rate", "scenario-rate", "scenario-l-min",
         "scenario-jitter", "csv-size", "csv-emit"],
)
def test_infinite_value_in_finite_field_is_input_error(argv, tmp_path, capsys):
    assert main(argv(tmp_path)) == INPUT_ERROR
    out, err = capsys.readouterr()
    assert out == "" and err == "error: not a finite number: 'inf'\n"


@pytest.mark.parametrize(
    "curve,message",
    [
        ({"kind": "min_affine", "pieces": 5}, "curve pieces must be a list"),
        ({"kind": "staircase", "period": "1"}, "missing key 'burst' in curve"),
        ([1], "curve must be an object"),
        ({"kind": "min_affine", "pieces": [{"rate": "1"}]},
         "missing key 'burst' in curve piece"),
    ],
    ids=["pieces-int", "no-burst", "list", "piece-no-burst"],
)
def test_malformed_curve_json_is_input_error(curve, message, tmp_path, capsys):
    p = tmp_path / "curve.json"
    p.write_text(json.dumps(curve), encoding="utf-8")
    argv = ["scenario", "rbo-tight", "--jitter", "1ms", "--curve-json", str(p)]
    assert main(argv) == INPUT_ERROR
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


LONG = "1" * 5000  # beyond the interpreter's int-string limit of 4300 digits


@pytest.mark.parametrize(
    "argv",
    [
        metrics_of(f"1,64,0,{LONG}"),
        metrics_of(f"{LONG},64,0,1"),
        analyze_edited(lambda c: c["flow"].update(l_min=LONG)),
        lambda _: ["simulate", "--timeout", LONG, LOSSY_BACKLOG],
    ],
    ids=["csv-cell", "csv-index", "config-string", "flag"],
)
def test_literal_beyond_int_digit_limit_is_one_line(argv, tmp_path, capsys):
    assert main(argv(tmp_path)) == INPUT_ERROR
    out, err = capsys.readouterr()
    limit = sys.get_int_max_str_digits()
    assert out == "" and err == (
        f"error: literal beyond {limit} digits: '{LONG[:20]}...'\n")


@pytest.mark.parametrize("index", ["x", "+1", "0_2", "\u0661", "1.0"],
                         ids=["letter", "sign", "underscore", "arabic-indic-one", "decimal"])
def test_index_cell_of_other_than_ascii_digits_is_one_line(index, tmp_path, capsys):
    assert main(metrics_of(f"{index},64,0,1")(tmp_path)) == INPUT_ERROR
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: not a packet index: {index!r}\n"


def test_index_cells_with_leading_zeros_are_read(tmp_path, capsys):
    assert main(metrics_of("01,64,0,1\n002,64,1,2")(tmp_path)) == 0
    assert capsys.readouterr().err == ""


# A bad literal and the one error line it gets, wherever it is given.
BAD_LITERALS = {
    "abc": "not an exact numeric literal: 'abc'",
    "1_000": "not an exact numeric literal: '1_000'",
    "1e2000": "exponent beyond +/-1000: '1e2000'",
    "-inf": "not an exact numeric literal: '-inf'",
    0.1: "not an exact number: 0.1; give a string or an integer",
    None: "not an exact number: None; give a string or an integer",
    True: "not an exact number: True; give a string or an integer",
}
EXPLICIT = {"mode": "explicit", "timeout_s": "29.488e-6"}
STAIRCASE_FLOW = {"unit": "bytes", "kind": "staircase", "burst": "6400",
                  "period": "1"}
# Each numeric config key, as an edit that sets it to a value.
CONFIG_KEYS = {
    "l_min": lambda c, v: c["flow"].update(l_min=v),
    "l_max": lambda c, v: c["flow"].update(l_max=v),
    "piece-rate": lambda c, v: c["flow"]["curve"]["pieces"][0].update(rate=v),
    "piece-burst": lambda c, v: c["flow"]["curve"]["pieces"][0].update(burst=v),
    "staircase-burst": lambda c, v: c["flow"].update(
        curve=dict(STAIRCASE_FLOW, burst=v)),
    "staircase-period": lambda c, v: c["flow"].update(
        curve=dict(STAIRCASE_FLOW, period=v)),
    "rate_Bps": lambda c, v: c["elements"][0].update(rate_Bps=v),
    "latency_s": lambda c, v: c["elements"][0].update(latency_s=v),
    "min_delay_s": lambda c, v: c["elements"][0].update(min_delay_s=v),
    "d_min_s": lambda c, v: c["elements"][1].update(d_min_s=v),
    "d_max_s": lambda c, v: c["elements"][1].update(d_max_s=v),
    "timeout_s": lambda c, v: c["elements"][-1].update(EXPLICIT, timeout_s=v),
    "buffer_bytes": lambda c, v: c["elements"][-1].update(EXPLICIT, buffer_bytes=v),
}


@pytest.mark.parametrize("value", list(BAD_LITERALS), ids=repr)
@pytest.mark.parametrize("key", list(CONFIG_KEYS))
def test_bad_config_literal_wording(key, value, tmp_path, capsys):
    cfg = bundled_with(tmp_path, lambda c: CONFIG_KEYS[key](c, value))
    assert main(["analyze", "--config", cfg]) == INPUT_ERROR
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {BAD_LITERALS[value]}\n"


# Each numeric flag of simulate and scenario, as an argv around a value;
# "@" marks where the value goes, after "=" so that "-inf" is no option.
CURVE_ARGS = ["--rate", "6400", "--burst", "640"]
FLAG_ARGVS = {
    "simulate --timeout": ["simulate", LOSSY_BACKLOG, "--timeout=@"],
    "simulate --buffer": ["simulate", LOSSY_BACKLOG, "--buffer=@"],
    "--rto": ["scenario", "two-packet-swap", "--rto=@"],
    "--t0": ["scenario", "two-packet-swap", "--rto", "1ms", "--t0=@"],
    "--jitter": ["scenario", "rto-tight", *CURVE_ARGS, "--jitter=@"],
    "--timeout": ["scenario", "lossy-backlog", *CURVE_ARGS, "--jitter", "20ms",
                  "--l-max", "128", "--timeout=@"],
    "--eps": ["scenario", "rbo-tight", *CURVE_ARGS, "--jitter", "20ms",
              "--eps=@"],
    "--rate": ["scenario", "rbo-tight", "--jitter", "20ms", "--burst", "640",
               "--rate=@"],
    "--burst": ["scenario", "rbo-tight", "--jitter", "20ms", "--rate", "6400",
                "--burst=@"],
    "--l-min": ["scenario", "rbo-tight", *CURVE_ARGS, "--jitter", "20ms",
                "--l-min=@"],
    "--l-max": ["scenario", "rbo-tight", *CURVE_ARGS, "--jitter", "20ms",
                "--l-max=@"],
    "--sizes": ["scenario", "lossless-backlog", "--rto", "5ms", "--sizes=64,@"],
    "--first-size": ["scenario", "lossless-backlog", "--rto", "5ms",
                     "--sizes", "64", "--first-size=@"],
    "--stages jitter": ["scenario", "rto-chain", "--stages=@:1/7"],
    "--stages rto": ["scenario", "rto-chain", "--stages=1/3:@"],
}
FLAG_CASES = [
    (flag, value, BAD_LITERALS[value]) for flag in FLAG_ARGVS
    for value in BAD_LITERALS if isinstance(value, str)
] + [
    (flag, "inf", "not a finite number: 'inf'") for flag in FLAG_ARGVS
    if not flag.startswith("simulate")
]


@pytest.mark.parametrize("flag,value,message", FLAG_CASES)
def test_bad_flag_literal_wording(flag, value, message, capsys):
    argv = [a.replace("@", value) for a in FLAG_ARGVS[flag]]
    assert main(argv) == INPUT_ERROR
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


# every packet has an emission time, and every packet is lost
ALL_LOST_WITH_EMISSIONS = (
    "index,size_bytes,emit_time_s,observe_time_s\n1,64,0,inf\n2,64,1,inf\n"
)


class TestMetrics:
    def test_swap_trace_reports_requested_offset(self, swap_trace_file, capsys):
        assert main(["metrics", swap_trace_file]) == OK
        out = capsys.readouterr().out
        assert "rto_s=0.000007" in out

    def test_in_order_trace_zeroes(self, tmp_path, capsys):
        p = tmp_path / "t.csv"
        p.write_text(
            "index,size_bytes,emit_time_s,observe_time_s\n"
            "1,64,0,1\n2,64,2,3\n",
            encoding="utf-8",
        )
        assert main(["metrics", str(p), "--verbose"]) == OK
        out = capsys.readouterr().out
        assert "rto_s=0" in out
        assert "rbo_bytes=0" in out

    def test_lost_rows_excluded_from_offsets(self, tmp_path, capsys):
        p = tmp_path / "t.csv"
        p.write_text(
            "index,size_bytes,emit_time_s,observe_time_s\n"
            "1,64,0,inf\n2,64,1,2\n",
            encoding="utf-8",
        )
        assert main(["metrics", str(p), "--verbose"]) == OK
        out = capsys.readouterr().out
        assert "packet 1:" not in out
        assert "packet 2:" in out

    def test_all_lost_with_emissions_prints_only_the_error(self, tmp_path, capsys):
        p = tmp_path / "t.csv"
        p.write_text(ALL_LOST_WITH_EMISSIONS, encoding="utf-8")
        assert main(["metrics", str(p)]) == INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: all packets lost; delay metrics undefined\n"

    def test_duplicate_times_error(self, tmp_path, capsys):
        p = tmp_path / "t.csv"
        p.write_text(
            "index,size_bytes,emit_time_s,observe_time_s\n"
            "1,64,-,1\n2,64,-,1\n",
            encoding="utf-8",
        )
        assert main(["metrics", str(p)]) == INPUT_ERROR


class TestSimulate:
    def test_discard_exits_3(self, swap_trace_file, capsys):
        code = main(["simulate", swap_trace_file, "--timeout", "6.9us"])
        assert code == DISCARD
        blob = json.loads(capsys.readouterr().out)
        assert blob["discards"] == {"1": "invalid_late"}

    def test_exact_timeout_exits_0(self, swap_trace_file, capsys):
        assert main(["simulate", swap_trace_file, "--timeout", "7us"]) == OK
        blob = json.loads(capsys.readouterr().out)
        assert blob["discards"] == {}

    def test_in_order_departures_equal_arrivals(self, tmp_path, capsys):
        p = tmp_path / "t.csv"
        p.write_text(
            "index,size_bytes,emit_time_s,observe_time_s\n"
            "1,64,-,1\n2,64,-,2\n",
            encoding="utf-8",
        )
        assert main(["simulate", str(p), "--timeout", "inf"]) == OK
        blob = json.loads(capsys.readouterr().out)
        assert blob["departures"] == {"1": "1", "2": "2"}


def piped(tmp_path, text):
    """A FIFO under ``tmp_path`` that a thread fills with ``text`` once a
    reader opens it: a trace path that cannot seek, as ``<(cat t.csv)``."""
    if not hasattr(os, "mkfifo"):
        pytest.skip("no named pipes here")
    path = tmp_path / "trace.fifo"
    os.mkfifo(path)

    def write():
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    return str(path), writer


CAPTURE_SHAPE_CALLS = [
    (["metrics", "--verbose"], "capture_shape_metrics.txt"),
    (["simulate", "--timeout", "2us"], "capture_shape_simulate.json"),
]


class TestTraceIntake:
    """``metrics`` and ``simulate`` hand ``trace_from_csv`` the open file;
    one that cannot seek, a pipe, is read whole first, as the row pass
    reads a defective trace again from its start."""

    @pytest.mark.parametrize("verb,golden", CAPTURE_SHAPE_CALLS)
    def test_the_open_file_is_read(self, verb, golden, capsys):
        with mock.patch.object(cli, "trace_from_csv", wraps=cli.trace_from_csv) as spy:
            assert main([*verb, CAPTURE_SHAPE]) == OK
        assert isinstance(spy.call_args.args[0], io.TextIOBase)
        assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("verb,golden", CAPTURE_SHAPE_CALLS)
    def test_a_pipe_prints_the_golden_output(self, verb, golden, newline, tmp_path, capsys):
        text = Path(CAPTURE_SHAPE).read_text(encoding="utf-8").replace("\n", newline)
        fifo, writer = piped(tmp_path, text)
        assert main([*verb, fifo]) == OK
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")

    @pytest.mark.parametrize("verb", [["metrics"], ["simulate", "--timeout", "1"]])
    def test_a_defective_pipe_reports_the_first_defect(self, verb, tmp_path):
        rows = [f"{i},{0 if i == 1500 else 64},{i},{i}.5" for i in range(1, 2001)]
        fifo, writer = piped(tmp_path, "\n".join([",".join(CSV_HEADER), *rows]) + "\n")
        code, out, err = run_cli([*verb, fifo])
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert (code, out, err) == (INPUT_ERROR, "", "error: packet sizes must be > 0\n")

    @pytest.mark.parametrize("verb", [["metrics"], ["simulate", "--timeout", "1"]])
    def test_invalid_utf8_is_an_input_error(self, verb, tmp_path):
        rows = [f"{i},64,{i},{i}.5".encode() for i in range(1, 3001)]
        rows[2500] = b"2501,64,2501,\xff"
        p = tmp_path / "t.csv"
        p.write_bytes(b"\n".join([",".join(CSV_HEADER).encode(), *rows]) + b"\n")
        err = assert_clean_exit([*verb, str(p)], (INPUT_ERROR,))
        assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")


class TestScenario:
    def test_two_packet_swap_round_trip(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(
            ["scenario", "two-packet-swap", "--rto", "7us", "-o", str(out)]
        )
        assert code == OK
        trace = trace_from_csv(out.read_text(encoding="utf-8"))
        from reseqkit.metrics import rto

        assert rto(trace).value == F("7e-6")

    def test_rbo_tight_to_stdout(self, capsys):
        code = main(
            [
                "scenario", "rbo-tight", "--jitter", "10ms",
                "--rate", "6400", "--burst", "6400",
                "--l-min", "64", "--l-max", "200", "--eps", "0.1ms",
            ]
        )
        assert code == OK
        out = capsys.readouterr().out
        trace = trace_from_csv(out)
        from reseqkit.metrics import rbo

        assert rbo(trace).value == 6400 * F("9.9e-3") + 6400 - 64

    def test_chain_scenario(self, capsys):
        code = main(
            [
                "scenario", "rto-chain",
                "--stages", "1.5us:0.988us,13.5us,1.5us,13.5us",
                "--eps", "0.1us",
            ]
        )
        assert code == OK
        trace = trace_from_csv(capsys.readouterr().out)
        from reseqkit.metrics import rto

        assert rto(trace).value == F("29.388e-6")

    def test_lossless_backlog_occupancy(self, tmp_path, capsys):
        out = tmp_path / "burst.csv"
        code = main(
            [
                "scenario", "lossless-backlog", "--rto", "5ms",
                "--sizes", "64,64,64", "--first-size", "64", "-o", str(out),
            ]
        )
        assert code == OK
        assert main(["simulate", str(out), "--timeout", "5ms"]) == OK
        blob = json.loads(capsys.readouterr().out)
        assert blob["max_occupancy_bytes"] == "192"

    def test_lossy_backlog_has_lost_head(self, capsys):
        code = main(
            [
                "scenario", "lossy-backlog", "--jitter", "6ms", "--timeout", "5ms",
                "--eps", "1ms", "--rate", "6400", "--burst", "6400",
            ]
        )
        assert code == OK
        trace = trace_from_csv(capsys.readouterr().out)
        assert trace.packets[0].lost
        assert sum(p.size for p in trace.packets[1:]) == 6464

    def test_missing_parameters_error(self, capsys):
        assert main(["scenario", "rto-tight", "--jitter", "1us"]) == INPUT_ERROR


class TestCaseStudy:
    def test_check_passes(self, capsys):
        assert main(["case-study", "automotive", "--check"]) == OK
        out = capsys.readouterr().out
        assert "all values match" in out

    def test_table_contains_reference_figures(self, capsys):
        main(["case-study", "automotive"])
        out = capsys.readouterr().out
        for value in ("95.22", "92.69", "29.49", "6336", "6400"):
            assert value in out

    def test_json_format(self, capsys):
        assert main(["case-study", "automotive", "--format", "json"]) == OK
        blob = json.loads(capsys.readouterr().out)
        assert blob["only at h2"]["lossless"]["e2e"]["delay_us_display"] == "95.22"

    def test_delay_one_ns_off_is_a_mismatch(self, monkeypatch, capsys):
        ref = case_study.REFERENCE["only at h2"]
        moved = replace(ref, delay_lossless=ref.delay_lossless + F(1, 10**9))
        monkeypatch.setitem(case_study.REFERENCE, "only at h2", moved)
        assert main(["case-study", "automotive", "--check"]) == MISMATCH
        assert capsys.readouterr().out.endswith(
            "check: MISMATCH\n"
            "  only at h2/lossless: delay 0.000095224 s, expected 0.000095225 s\n"
        )

    def test_buffer_one_byte_off_is_a_mismatch(self, monkeypatch, capsys):
        ref = case_study.REFERENCE["at S1 and S2"]
        moved = replace(ref, buffer_lossy=ref.buffer_lossy + 1)
        monkeypatch.setitem(case_study.REFERENCE, "at S1 and S2", moved)
        assert main(["case-study", "automotive", "--check"]) == MISMATCH
        assert capsys.readouterr().out.endswith(
            "check: MISMATCH\n"
            "  at S1 and S2/lossy: size[S1.fabric.reseq] 6400 B, expected 6401 B\n"
            "  at S1 and S2/lossy: size[S2.fabric.reseq] 6400 B, expected 6401 B\n"
        )


    def test_jitter_one_ns_off_is_a_mismatch(self, monkeypatch, capsys):
        ref = case_study.REFERENCE["only at h2"]
        moved = replace(ref, jitter_lossy=ref.jitter_lossy + F(1, 10**9))
        monkeypatch.setitem(case_study.REFERENCE, "only at h2", moved)
        assert main(["case-study", "automotive", "--check"]) == MISMATCH
        assert capsys.readouterr().out.endswith(
            "check: MISMATCH\n"
            "  only at h2/lossy: jitter 0.000122176 s, expected 0.000122177 s\n"
        )

    def test_timeout_one_ns_off_is_a_mismatch(self, monkeypatch, capsys):
        ref = case_study.REFERENCE["only at S2"]
        moved = replace(ref, timeouts=(("S2.fabric.reseq", F("15.989e-6")),))
        monkeypatch.setitem(case_study.REFERENCE, "only at S2", moved)
        assert main(["case-study", "automotive", "--check"]) == MISMATCH
        assert capsys.readouterr().out.endswith(
            "check: MISMATCH\n"
            "  only at S2/lossless: timeout[S2.fabric.reseq] 0.000015988 s, "
            "expected 0.000015989 s\n"
            "  only at S2/lossy: timeout[S2.fabric.reseq] 0.000015988 s, "
            "expected 0.000015989 s\n"
        )

    def test_base_path_is_the_bundled_config_without_its_resequencer(self):
        bundled = path_analysis.load_path(str(BUNDLED))
        kept = tuple(e for e in bundled.elements if e.kind != "resequencer")
        assert len(bundled.elements) - len(kept) == 1
        base = case_study.automotive_base_path()
        assert base.flow == bundled.flow
        assert base.elements == kept
        assert base.loss_mode == bundled.loss_mode

    def test_without_check_a_mismatch_exits_0(self, monkeypatch, capsys):
        ref = case_study.REFERENCE["only at h2"]
        moved = replace(ref, delay_lossless=ref.delay_lossless + F(1, 10**9))
        monkeypatch.setitem(case_study.REFERENCE, "only at h2", moved)
        assert main(["case-study", "automotive"]) == OK
        assert "MISMATCH" not in capsys.readouterr().out

    def test_missing_resequencer_is_a_mismatch(self, monkeypatch, capsys):
        ref = case_study.REFERENCE["only at h2"]
        moved = replace(ref, timeouts=ref.timeouts + (("S1.fabric.reseq", F(0)),))
        monkeypatch.setitem(case_study.REFERENCE, "only at h2", moved)
        assert main(["case-study", "automotive", "--check"]) == MISMATCH
        assert capsys.readouterr().out.endswith(
            "check: MISMATCH\n"
            "  only at h2/lossless: missing re-sequencer S1.fabric.reseq\n"
            "  only at h2/lossy: missing re-sequencer S1.fabric.reseq\n"
        )


HEADER = "index,size_bytes,emit_time_s,observe_time_s"
CELLS = st.one_of(
    st.sampled_from([
        "1", "2", "64", "0", "-64", "0.5", "12e-6", "3/7", "1/3", "inf", "-inf",
        "nan", "-", "", "1e1001", "1e-1001", "3/0", "abc", "+1", "1_0", " 7 ",
        '"', "x\ny",
    ]),
    st.text(max_size=5),
)
TIMES = st.sampled_from(["0", "1", "2", "0.5", "12e-6", "3/7", "1e3", "7"])


@st.composite
def fuzzed_csv(draw):
    """A trace CSV whose rows are mostly well formed, with junk cells, inf,
    '-', huge exponents, nan, bad sizes, wrong column counts and repeated
    times mixed in; now and then the header is wrong too."""
    header = HEADER if draw(st.integers(0, 9)) else draw(st.sampled_from(["", "index", "a,b,c,d"]))
    rows = []
    for i in range(1, draw(st.integers(0, 8)) + 1):
        if draw(st.integers(0, 2)):
            rows.append([str(i), draw(st.one_of(st.just("64"), CELLS)),
                         draw(st.one_of(st.just("-"), TIMES, CELLS)),
                         draw(st.one_of(TIMES, CELLS))])
        else:
            rows.append(draw(st.lists(CELLS, max_size=6)))
    return "\n".join([header] + [",".join(r) for r in rows]) + "\n"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(argv, codes):
    """The run exits with one of ``codes``; an exit 1 prints one error line
    and nothing else, any other exit prints output and no error.  Returns
    what was printed to stderr."""
    code, out, err = run_cli(argv)
    assert code in codes
    assert "Traceback" not in err
    if code == INPUT_ERROR:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:
        assert out and err == ""
    return err


STAIRCASE_SOURCE = {"unit": "bytes", "kind": "staircase", "burst": "6400",
                    "period": "1"}
PACKET_SOURCE = {"unit": "packets", "kind": "min_affine",
                 "pieces": [{"rate": "100", "burst": "100"}]}


@pytest.mark.parametrize(
    "argv,message",
    [
        (analyze_edited(lambda c: c.update(elements=[])),
         "path needs at least one element"),
        (analyze_edited(lambda c: c.update(loss_mode="lossier")),
         "unknown loss mode 'lossier'"),
        (analyze_edited(lambda c: c["flow"].update(curve=STAIRCASE_SOURCE)),
         "path propagation needs a min-affine source curve; "
         "replace staircase sources by an affine upper bound"),
        (analyze_edited(lambda c: c["flow"].update(curve=PACKET_SOURCE)),
         "source_curve must be in bytes"),
        (analyze_edited(
            lambda c: c["flow"]["curve"]["pieces"][0].update(burst="-1")),
         "piece bursts must be >= 0"),
        (analyze_edited(lambda c: c["elements"][0].update(min_delay_s="1")),
         "h1.fifo: minimum delay exceeds the worst-case bound"),
        (lambda _: ["simulate", "--timeout", "-1", LOSSY_BACKLOG],
         "timeout must be >= 0"),
        (lambda _: ["simulate", "--timeout", "1", "--buffer", "-5", LOSSY_BACKLOG],
         "capacity must be >= 0"),
        (lambda _: ["scenario", "lossless-backlog", "--rto", "5ms"],
         "the following arguments are required: --sizes"),
        (lambda _: ["scenario", "rto-chain"],
         "the following arguments are required: --stages"),
        (lambda _: ["scenario", "rto-chain", "--stages", "1us"],
         "no stage may reorder"),
        (lambda _: ["scenario", "rto-chain", "--stages", "1us:2us:3us"],
         "--stages takes jitter or jitter:rto stages, got '1us:2us:3us'"),
        (lambda _: ["scenario", "two-packet-swap"],
         "the following arguments are required: --rto"),
        (analyze_edited(lambda c: c["elements"][1].update(id="h1.fifo")),
         "element id 'h1.fifo' is not unique"),
        (analyze_edited(lambda c: c["elements"][0].update(kind=["fifo_service"])),
         "unknown element kind ['fifo_service']"),
        (analyze_edited(lambda c: c["elements"][0].update(kind={"fabric": 1})),
         "unknown element kind {'fabric': 1}"),
        (analyze_edited(lambda c: c["flow"]["curve"].update(kind=["min_affine"])),
         "unknown curve kind ['min_affine']"),
        (analyze_edited(lambda c: c["flow"]["curve"].update(kind={"staircase": 1})),
         "unknown curve kind {'staircase': 1}"),
        (metrics_of("1,64,2,1"), "observation before emission"),
    ],
    ids=["no-elements", "loss-mode", "staircase-source", "packet-source",
         "negative-burst", "min-delay-above-bound", "simulate-timeout",
         "simulate-buffer", "lossless-backlog-sizes", "rto-chain-stages",
         "rto-chain-lone-time", "rto-chain-three-times",
         "two-packet-swap-rto", "repeated-id",
         "element-kind-list", "element-kind-object",
         "curve-kind-list", "curve-kind-object", "observe-before-emit"],
)
def test_input_error_is_one_line(argv, message, tmp_path):
    assert assert_clean_exit(argv(tmp_path), (INPUT_ERROR,)) == f"error: {message}\n"


LINK = {"id": "S1.link", "kind": "order_preserving_fixed", "d_min_s": "0",
        "d_max_s": "1e-6"}


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda c: c.update(loss="lossless"), "unknown key 'loss' in path config"),
        (lambda c: c["flow"].update(lmin="64"), "unknown key 'lmin' in flow"),
        (lambda c: c["elements"][0].update(min_delay="1e-6"),
         "unknown key 'min_delay' in element 'h1.fifo'"),
        (lambda c: c["elements"][1].update(jitter_s="1e-6"),
         "unknown key 'jitter_s' in element 'S1.fabric'"),
        (lambda c: c["elements"].insert(2, dict(LINK, delay_s="1e-6")),
         "unknown key 'delay_s' in element 'S1.link'"),
        (lambda c: c["elements"][-1].update(
            mode="explicit", timeout_s="1e-3", buffer_byte="10"),
         "unknown key 'buffer_byte' in element 'h2.reseq'"),
        (lambda c: c["flow"]["curve"].update(burst="6400"),
         "unknown key 'burst' in curve"),
        (lambda c: c["flow"].update(curve=dict(STAIRCASE_SOURCE, pieces=[])),
         "unknown key 'pieces' in curve"),
        (lambda c: c["flow"]["curve"]["pieces"][0].update(period="1"),
         "unknown key 'period' in curve piece"),
    ],
    ids=["path", "flow", "fifo_service", "fabric", "order_preserving_fixed",
         "resequencer", "min_affine-curve", "staircase-curve", "curve-piece"],
)
def test_unknown_config_key_is_input_error(edit, message, tmp_path):
    """A key that no reader reads is refused, not silently ignored."""
    argv = ["analyze", "--config", bundled_with(tmp_path, edit)]
    assert assert_clean_exit(argv, (INPUT_ERROR,)) == f"error: {message}\n"


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda c: c.pop("elements"), "missing key 'elements' in path config"),
        (lambda c: c["flow"].pop("l_max"), "missing key 'l_max' in flow"),
        (lambda c: c["elements"][0].pop("rate_Bps"),
         "missing key 'rate_Bps' in element 'h1.fifo'"),
        (lambda c: c["elements"][1].pop("d_max_s"),
         "missing key 'd_max_s' in element 'S1.fabric'"),
        (lambda c: c["elements"].insert(2, {k: v for k, v in LINK.items()
                                            if k != "d_min_s"}),
         "missing key 'd_min_s' in element 'S1.link'"),
        (lambda c: c["flow"]["curve"].pop("pieces"), "missing key 'pieces' in curve"),
        (lambda c: c["flow"].update(curve={k: v for k, v in STAIRCASE_SOURCE.items()
                                           if k != "period"}),
         "missing key 'period' in curve"),
        (lambda c: c["flow"]["curve"]["pieces"][0].pop("rate"),
         "missing key 'rate' in curve piece"),
    ],
    ids=["path", "flow", "fifo_service", "fabric", "order_preserving_fixed",
         "min_affine-curve", "staircase-curve", "curve-piece"],
)
def test_missing_config_key_names_key_and_object(edit, message, tmp_path):
    argv = ["analyze", "--config", bundled_with(tmp_path, edit)]
    assert assert_clean_exit(argv, (INPUT_ERROR,)) == f"error: {message}\n"


# A value for each scenario flag that every kind reading it accepts; no kind
# reads --head, which rto-chain took before its first stage with an RTO did.
SCENARIO_FLAG_VALUE = {
    "--rto": "7us", "--t0": "1us", "--jitter": "20ms", "--timeout": "10ms",
    "--eps": "0.1ms", "--rate": "6400", "--burst": "640",
    "--curve-json": TWO_PIECE_CURVE, "--l-min": "64", "--l-max": "64",
    "--sizes": "64", "--first-size": "64", "--stages": "1us:1us", "--head": "1",
}
CURVE_FLAGS = {"--rate", "--burst", "--curve-json"}
SCENARIO_READS = {  # a valid call of each kind, and every flag it reads but -o
    "two-packet-swap": (["--rto", "7us"], {"--rto", "--t0"}),
    "lossless-backlog": (["--rto", "5ms", "--sizes", "64,64"],
                         {"--rto", "--sizes", "--first-size"}),
    "lossy-backlog": (["--jitter", "20ms", "--timeout", "10ms", "--rate", "6400",
                       "--burst", "640"],
                      {"--jitter", "--timeout", "--eps", "--l-min", "--l-max",
                       *CURVE_FLAGS}),
    "rto-tight": (["--jitter", "1ms", "--rate", "6400", "--burst", "640"],
                  {"--jitter", "--l-min", *CURVE_FLAGS}),
    "rbo-tight": (["--jitter", "10ms", "--rate", "6400", "--burst", "640",
                   "--l-max", "200"],
                  {"--jitter", "--eps", "--l-min", "--l-max", *CURVE_FLAGS}),
    "rto-chain": (["--stages", "1.5us:0.988us,13.5us:0"],
                  {"--stages", "--eps"}),
}


def test_scenario_reads_is_the_readme_table():
    """``SCENARIO_READS`` lists for each kind the flags of its README row,
    where "curve" stands for the three curve flags."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", text, re.M)
    table = {kind: {*re.findall(r"`(--[a-z0-9-]+)`", cell),
                    *(CURVE_FLAGS if "curve" in cell.split() else ())}
             for kind, cell in rows}
    assert table == {kind: reads for kind, (_, reads) in SCENARIO_READS.items()}


@pytest.mark.parametrize("kind,flag", [
    (kind, flag) for kind, (_, reads) in SCENARIO_READS.items()
    for flag in SCENARIO_FLAG_VALUE if flag not in reads
])
def test_scenario_refuses_a_flag_its_kind_does_not_read(kind, flag):
    value = SCENARIO_FLAG_VALUE[flag]
    argv = ["scenario", kind, *SCENARIO_READS[kind][0], flag, value]
    err = assert_clean_exit(argv, (INPUT_ERROR,))
    assert err == f"error: unrecognized arguments: {flag} {value}\n"


DEEP_ARRAY = "[" * 100000
DEEP_FLOW = '{"flow": ' + '{"a": ' * 50000 + "1" + "}" * 50001


@pytest.mark.parametrize("verb", [
    lambda p: ["analyze", "--config", str(p)],
    lambda p: ["scenario", "rbo-tight", "--jitter", "1ms", "--curve-json", str(p)],
], ids=["analyze", "scenario"])
@pytest.mark.parametrize("text", [DEEP_ARRAY, DEEP_FLOW], ids=["array", "object"])
def test_deeply_nested_json_is_input_error(verb, text, tmp_path):
    p = tmp_path / "deep.json"
    p.write_text(text, encoding="utf-8")
    err = assert_clean_exit(verb(p), (INPUT_ERROR,))
    assert err == f"error: {p}: JSON nested too deeply\n"


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "trace.csv"


@settings(max_examples=200)
@given(text=fuzzed_csv(), timeout=st.sampled_from(["inf", "0", "1", "2ns", "1/3"]))
@example(text=ALL_LOST_WITH_EMISSIONS, timeout="inf")
def test_fuzzed_trace_csv_exits_cleanly(fuzz_file, text, timeout):
    """metrics and simulate exit 0, 1 or 3 on any CSV; an exit 1 prints one
    error line and nothing else."""
    fuzz_file.write_text(text, encoding="utf-8")
    for argv in (["metrics", str(fuzz_file)],
                 ["simulate", str(fuzz_file), "--timeout", timeout]):
        assert_clean_exit(argv, (OK, INPUT_ERROR, DISCARD))


# No large rates or short periods: a scenario emits curve(window) bytes of
# packets.
SMALL_JSON_VALUES = st.one_of(
    st.sampled_from([
        "64", "0", "-1", "1/3", "12e-3", "inf", "-inf", "nan", "1e1001", "3/0",
        "", "abc", "auto", "explicit", "fabric", "fifo_service", "resequencer",
        "order_preserving_fixed", "min_affine", "staircase", "bytes", "packets",
        "lossless", "lossy", "h1.fifo",
    ]),
    st.sampled_from([0, 1, -1, 64, 1.5, 0.0, True, False, None]),
    st.sampled_from([[], ["x"], [1], {}, {"rate": "1", "burst": "64"}]),
).map(lambda v: json.loads(json.dumps(v)))  # a fresh copy: mutations nest
JSON_VALUES = st.one_of(
    SMALL_JSON_VALUES, st.sampled_from(["125e6", "12e-6", "1e999", 10**30])
)


def json_paths(node, path=()):
    """Every (path, value) below ``node``, the node itself included."""
    yield path, node
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from json_paths(child, path + (key,))


@st.composite
def mutated_json(draw, base, values=JSON_VALUES):
    """``base`` with one to three values replaced by one of ``values`` (of
    every JSON type), keys deleted or added, or list items dropped or
    repeated."""
    doc = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(1, 3))):
        paths = [p for p, _ in json_paths(doc) if p]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        action = draw(st.sampled_from(["replace"] * 4 + ["delete", "add", "repeat"]))
        if action == "replace":
            parent[key] = draw(values)
        elif action == "delete":
            del parent[key]
        elif action == "repeat" and isinstance(parent, list):
            parent.insert(key, json.loads(json.dumps(parent[key])))
        elif isinstance(parent[key], dict):
            field = draw(st.sampled_from([
                "mode", "timeout_s", "buffer_bytes", "min_delay_s", "unit",
                "kind", "id", "period",
            ]))
            parent[key][field] = draw(values)
    return doc


@pytest.fixture(scope="module")
def fuzz_json(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "config.json"


@settings(max_examples=200)
@given(config=mutated_json(json.loads(BUNDLED.read_text(encoding="utf-8"))),
       loss=st.sampled_from([[], ["--loss", "both"], ["--loss", "lossless"]]),
       fmt=st.sampled_from(["table", "json", "csv"]))
def test_fuzzed_path_config_exits_cleanly(fuzz_json, config, loss, fmt):
    """analyze exits 0, 1 or 2 on any mutation of the bundled config."""
    fuzz_json.write_text(json.dumps(config), encoding="utf-8")
    assert_clean_exit(["analyze", "--config", str(fuzz_json), "--format", fmt] + loss,
                      (OK, INPUT_ERROR, UNSAFE_WARNING))


CURVES = [
    {"unit": "bytes", "kind": "min_affine",
     "pieces": [{"rate": "6400", "burst": "640"}, {"rate": "64000", "burst": "128"}]},
    {"unit": "bytes", "kind": "staircase", "burst": "640", "period": "1/100"},
]
SCENARIO_ARGS = {
    "lossy-backlog": ["--jitter", "20ms", "--timeout", "10ms"],
    "rto-tight": ["--jitter", "1ms"],
    "rbo-tight": ["--jitter", "20ms"],
}


@settings(max_examples=200)
@given(curve=st.sampled_from(CURVES).flatmap(
           lambda c: mutated_json(c, SMALL_JSON_VALUES)),
       kind=st.sampled_from(sorted(SCENARIO_ARGS)))
def test_fuzzed_scenario_curve_json_exits_cleanly(fuzz_json, curve, kind):
    """scenario --curve-json exits 0 or 1 on any mutation of a curve."""
    fuzz_json.write_text(json.dumps(curve), encoding="utf-8")
    assert_clean_exit(["scenario", kind, "--curve-json", str(fuzz_json),
                       "--l-min", "64", "--l-max", "128"] + SCENARIO_ARGS[kind],
                      (OK, INPUT_ERROR))


def run_on(parser, argv):
    """``main(argv)`` through ``parser``, or through the process's shared
    parser when it is None: the exit (a return, or argparse's SystemExit)
    and what was printed."""
    shared = cli._parser
    if parser is not None:
        cli._parser = parser
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                exit_ = ("return", main(argv))
            except SystemExit as exc:
                exit_ = ("SystemExit", exc.code)
    finally:
        if parser is not None:
            cli._parser = shared
    return exit_, out.getvalue(), err.getvalue()


MISSING = str(GOLDEN / "missing")
ARGV_FLAGS = {  # scenario writes to stdout: no file is written
    "analyze": {
        "--config": [str(BUNDLED), TWO_SEGMENTS, MISSING, LOSSY_BACKLOG],
        "--loss": ["lossless", "lossy", "both", "lossier"],
        "--format": ["table", "json", "csv", "xml"],
    },
    "metrics": {"--verbose": None},
    "simulate": {
        "--timeout": ["10ms", "1/30", "0", "inf", "-1", "soon"],
        "--buffer": ["832", "640", "inf", "-1", "x"],
    },
    "scenario": {
        "--rto": ["7us", "5ms", "0", "-1us", "x"],
        "--t0": ["0", "1us", "x"],
        "--jitter": ["1ms", "20ms", "0", "-1ms", "inf"],
        "--timeout": ["10ms", "0", "x"],
        "--eps": ["0.1ms", "0", "-1ms", "20ms"],
        "--rate": ["6400", "0", "-6400", "abc"],
        "--burst": ["640", "6400", "0", "abc"],
        "--curve-json": [MISSING, str(BUNDLED)],
        "--l-min": ["64", "128", "0", "x"],
        "--l-max": ["64", "128", "32"],
        "--sizes": ["64,64,64", "64,x", "", "0"],
        "--first-size": ["64", "0", "x"],
        "--stages": ["1.5us:0.988us,13.5us:0", "1us:2us", "1us", "x:y"],
        "--head": ["1", "2", "0", "x"],  # a removed flag: every kind refuses it
    },
    "case-study": {
        "--check": None,
        "--format": ["table", "json", "csv"],
    },
}
ARGV_POSITIONALS = {
    "metrics": [LOSSY_BACKLOG, str(GOLDEN / "thirds.csv"), MISSING, str(BUNDLED)],
    "simulate": [LOSSY_BACKLOG, str(GOLDEN / "thirds.csv"), MISSING],
    "scenario": ["two-packet-swap", "lossless-backlog", "lossy-backlog",
                 "rto-tight", "rbo-tight", "rto-chain", "no-such-kind"],
    "case-study": ["automotive", "other"],
}


ARGV_VALID = {  # argparse keeps a repeated flag's last value
    "analyze": [["analyze", "--config", str(BUNDLED)],
                ["analyze", "--config", str(BUNDLED), "--loss", "both",
                 "--format", "json"]],
    "metrics": [["metrics", LOSSY_BACKLOG], ["metrics", "--verbose", LOSSY_BACKLOG]],
    "simulate": [["simulate", LOSSY_BACKLOG, "--timeout", "10ms"],
                 ["simulate", LOSSY_BACKLOG, "--timeout", "10ms", "--buffer", "832"]],
    "scenario": [
        ["scenario", "two-packet-swap", "--rto", "7us"],
        ["scenario", "lossless-backlog", "--rto", "5ms", "--sizes", "64,64,64"],
        ["scenario", "lossy-backlog", "--rate", "6400", "--burst", "640",
         "--jitter", "20ms", "--timeout", "10ms"],
        ["scenario", "rbo-tight", "--jitter", "20ms", "--rate", "6400",
         "--burst", "640", "--eps", "0.1ms", "--l-max", "200"],
        ["scenario", "rto-chain", "--stages", "1.5us:0.988us,13.5us:0"],
    ],
    "case-study": [["case-study", "automotive"],
                   ["case-study", "automotive", "--check", "--format", "json"]],
}


def argv_flags(argv):
    """The flags a fuzzed call adds: those its scenario kind reads, by
    ``SCENARIO_READS`` (the README's table), so that the call can reach
    the generator; else, for a call without a known kind, every flag of
    its verb."""
    if argv[0] == "scenario" and argv[1:2] and argv[1] in SCENARIO_READS:
        reads = SCENARIO_READS[argv[1]][1]
        return {flag: values for flag, values in ARGV_FLAGS["scenario"].items()
                if flag in reads}
    return ARGV_FLAGS[argv[0]]


@pytest.mark.parametrize("argv", [
    pytest.param(argv, id=f"{verb}-{k}") for verb, calls in ARGV_VALID.items()
    for k, argv in enumerate(calls)
])
def test_valid_argv_exits_0(argv):
    """Every call the fuzzer starts from as valid succeeds."""
    (how, code), out, err = run_on(None, argv)
    assert (how, code, err) == ("return", OK, "")
    assert out


@st.composite
def fuzzed_argv(draw):
    """One call of a verb: a valid call or a bare verb, then valid and junk
    flags, values that override earlier ones, and flags whose value is
    missing; now and then the verb itself is junk, missing, or asks for
    help."""
    verb = draw(st.sampled_from(sorted(ARGV_FLAGS) * 4 + ["bogus", "--help", None]))
    if verb not in ARGV_FLAGS:
        return [] if verb is None else [verb]
    if draw(st.integers(0, 2)):
        argv = list(draw(st.sampled_from(ARGV_VALID[verb])))
    else:
        argv = [verb]
        if verb in ARGV_POSITIONALS and draw(st.booleans()):
            argv.append(draw(st.sampled_from(ARGV_POSITIONALS[verb])))
    flags = argv_flags(argv)
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.integers(0, 7)):
            flag = draw(st.sampled_from(sorted(flags)))
        else:
            flag = draw(st.sampled_from(["--bogus", "-h", "--", "-"]))
        argv.append(flag)
        values = flags.get(flag)
        if values and draw(st.integers(0, 7)):  # else the value is missing
            argv.append(draw(st.sampled_from(values)))
    return argv


@pytest.mark.parametrize("argv", [
    ["analyze", "--config", "x.json", "--loss", "sideways"],
    ["analyze", "--config", "x.json", "--bogus"],
    ["analyze"],
    [],
], ids=["invalid-choice", "unknown-flag", "missing-config", "missing-verb"])
def test_usage_error_exits_1_with_one_error_line(argv):
    """A usage error is an input error, not the unsafe-configuration exit 2."""
    (how, code), out, err = run_on(None, argv)
    assert (how, code) == ("return", INPUT_ERROR)
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"]] + [
    ["scenario", kind, "--help"] for kind in SCENARIO_READS
])
def test_help_exits_0(argv):
    (how, code), out, err = run_on(None, argv)
    assert (how, code) == ("SystemExit", 0)
    assert out.startswith("usage: reseqkit") and err == ""


@settings(max_examples=150)
@given(calls=st.lists(fuzzed_argv(), min_size=2, max_size=6))
def test_reused_parser_answers_like_a_fresh_one(calls):
    """main's one parser per process leaks nothing from call to call: each
    call exits, prints and errs exactly as on a freshly built parser.  Every
    exit is 0-3 or argparse's 0 after help, and an exit 1 prints one error
    line."""
    for argv in calls:
        shared = run_on(None, argv)
        assert shared == run_on(cli.build_parser(), argv)
        (how, code), out, err = shared
        assert "Traceback" not in err
        if how == "SystemExit":
            assert code == 0
            continue
        assert code in (OK, INPUT_ERROR, UNSAFE_WARNING, DISCARD)
        if code == INPUT_ERROR:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def json_documents(depth):
    """JSON values nested up to ``depth`` containers deep, of the types the
    CLI prints."""
    text = st.text(st.one_of(
        st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "/",
                         "é", " ", "\ud800", "\U0001f600", "\U0010ffff"]),
        st.characters(),
    ), max_size=8)
    leaves = st.one_of(st.none(), st.booleans(),
                       st.integers(-10**60, 10**60), text)
    if depth == 0:
        return leaves
    inner = json_documents(depth - 1)
    return st.one_of(leaves, st.lists(inner, max_size=4),
                     st.dictionaries(text, inner, max_size=4))


@settings(max_examples=300)
@given(doc=json_documents(6))
def test_json_writer_matches_indented_json_dumps(doc):
    assert cli._dump_json(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize(
    "doc",
    [1.5, F(1, 3), {1: "a"}, [{"a": [0.0]}], {"a": {None: 1}}, ("a",)],
    ids=["float", "fraction", "int-key", "nested-float", "none-key", "tuple"],
)
def test_json_writer_refuses_other_types(doc):
    with pytest.raises(TypeError):
        cli._dump_json(doc)


def outcome_dict(outcome):
    """The dict form of a ``simulate`` outcome, whose ``_dump_json`` text
    ``simulate`` prints."""
    ticks = outcome.departure_ticks
    return {
        "departures": dict(zip(map(str, range(1, len(ticks) + 1)),
                               fmt_ticks(ticks, outcome.time_den))),
        "discards": {
            str(i): reason for i, reason in sorted(outcome.discards.items())
        },
        "max_occupancy_bytes": fmt_rat(outcome.max_occupancy),
        "max_residence_s": fmt_rat(outcome.max_residence),
    }


def written_outcome(outcome, piece):
    """What ``_write_outcome`` writes with pieces of ``piece`` lines, and its
    number of writes."""
    chunks = []
    with mock.patch.object(cli, "_PIECE", piece):
        cli._write_outcome(outcome, chunks.append)
    return "".join(chunks), len(chunks)


@st.composite
def outcomes(draw):
    """Outcomes on a drawn tick base, INF, negative and decimal ticks among
    the departures, and discards among the INF: after the drawn ticks, up to
    40 more INF, so a draw can hold many discards of both reasons."""
    den = draw(st.sampled_from(TICK_BASES))
    short = st.builds(lambda n, s: n * (den // math.gcd(den, s)),
                      st.integers(-10**6, 10**6), st.sampled_from((2, 3, 10, 10**12)))
    ticks = draw(st.lists(st.one_of(
        st.integers(-10**30, 10**30), st.just(0), short, st.just(INF)), max_size=12))
    ticks += [INF] * draw(st.integers(0, 40))
    lost = [seq for seq, t in enumerate(ticks, 1) if t is INF]
    discarded = draw(st.permutations(lost))[:draw(st.integers(0, len(lost)))]
    reasons = st.sampled_from((INVALID_LATE, OVERFLOW))
    return ResequencerOutcome(
        tuple(ticks), den, {seq: draw(reasons) for seq in discarded},
        draw(st.fractions(min_value=0)), draw(st.fractions(min_value=0)))


@settings(max_examples=200)
@given(outcome=outcomes(), piece=st.sampled_from((1, 2, 3, 4096)))
def test_departures_writer_matches_the_dict_form(outcome, piece):
    text, writes = written_outcome(outcome, piece)
    assert text == cli._dump_json(outcome_dict(outcome)) + "\n"
    assert text == json.dumps(outcome_dict(outcome), indent=2) + "\n"
    n, d = len(outcome.departure_ticks), len(outcome.discards)
    assert writes == 3 + -(-n // piece) + -(-d // piece)  # one write per piece


@pytest.mark.parametrize("text,flags,shown", [
    (",".join(CSV_HEADER) + "\n", [], '"departures": {},'),  # no packet
    (ALL_LOST_WITH_EMISSIONS, [], '"departures": {\n    "1": "inf",\n    "2": "inf"\n  },'),
    (Path(LOSSY_BACKLOG).read_text(encoding="utf-8"), ["--timeout", "10ms", "--buffer", "640"],
     '"discards": {\n    "'),
], ids=["empty", "all-lost", "discards"])
@pytest.mark.parametrize("piece", [1, 4096])
def test_simulate_prints_the_dict_form(tmp_path, capsys, text, flags, shown, piece):
    p = tmp_path / "trace.csv"
    p.write_text(text, encoding="utf-8")
    with mock.patch.object(cli, "_PIECE", piece):
        code = main(["simulate", str(p), *flags])
    args = dict(zip(flags[::2], flags[1::2]))
    outcome = simulate(trace_from_csv(text), ResequencerConfig(
        parse_time(args.get("--timeout", "inf")), args.get("--buffer", "inf")))
    out = capsys.readouterr().out
    assert out == cli._dump_json(outcome_dict(outcome)) + "\n"
    assert shown in out
    assert code == (DISCARD if outcome.discards else OK)


def test_simulate_that_cannot_write_a_departure_prints_nothing(tmp_path, capsys):
    # 3 / 2^14000 is accepted as a time (a literal and a base under the digit
    # limit), but its 14000 decimals are not: the run fails before any write
    p = tmp_path / "trace.csv"
    p.write_text(",".join(CSV_HEADER) + f"\n1,64,0,3/{2**14000}\n", encoding="utf-8")
    with mock.patch.object(cli, "_PIECE", 1):
        code = main(["simulate", str(p), "--timeout", "2us"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "digits" in err


@pytest.mark.parametrize("argv", [
    metrics_of(f"1,64,0,1/{2**14000}"),
    # the summary is writable, one offset is not
    lambda tmp_path: metrics_of(f"1,64,-,5\n2,64,-,1/{2**14000}\n3,64,-,0")(tmp_path)
    + ["--verbose"],
    lambda tmp_path: ["analyze", "--format", "json", "--config", bundled_with(
        tmp_path, lambda c: c["elements"][1].update(d_min_s="0", d_max_s=f"1/{2**14000}"))],
], ids=["metrics", "metrics-verbose", "analyze-json"])
def test_a_value_too_long_to_write_is_one_line(argv, tmp_path, capsys):
    # 1 / 2^14000 is accepted (a literal and a base under the digit limit),
    # but its 14000 decimals are not: the run writes nothing
    assert main(argv(tmp_path)) == INPUT_ERROR
    out, err = capsys.readouterr()
    limit = sys.get_int_max_str_digits()
    assert (out, err) == ("", f"error: a value needs more than {limit} digits to be written\n")


#: Element ids that JSON must escape, and others that it writes as they are.
element_ids = st.text(st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "/", "é", "\ud800",
                     "\U0001f600"]),
    st.characters(),
), min_size=1, max_size=6)


@settings(max_examples=100, deadline=None)
@given(path=mixed_paths(), data=st.data())
def test_report_writer_matches_the_dict_form(path, data):
    """``report_to_json``'s text at several depths, with one memo and with
    a fresh one, is ``json.dumps(indent=2)`` of the dict form
    (``report_json_oracle``) indented for that depth; ``analyze --loss both
    --format json`` prints what ``json.dumps`` prints for its value."""
    ids = data.draw(st.lists(element_ids, min_size=len(path.elements),
                             max_size=len(path.elements), unique=True))
    path = replace(path, elements=tuple(
        replace(e, id=eid) for e, eid in zip(path.elements, ids)))
    try:
        reports = list(path_analysis.analyze_both(path).values())
    except path_analysis.PathConfigError:  # lossy mode and an infinite timeout
        reports = [path_analysis.analyze_path(replace(path, loss_mode=LOSSLESS))]
    memo = {}
    for depth in (0, 1, 2, 5):
        for rep in reports:
            want = json.dumps(report_dict(rep), indent=2).replace("\n", "\n" + "  " * depth)
            assert path_analysis.report_to_json(rep, depth) == want
            assert path_analysis.report_to_json(rep, depth, memo) == want
    with mock.patch.object(cli, "load_path", lambda _: path):
        code, out, err = run_cli(["analyze", "--config", "-", "--loss", "both",
                                  "--format", "json"])
    if code == INPUT_ERROR:
        assert len(reports) == 1 and "infinite timeout" in err
    else:
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        assert json.loads(out) == [report_dict(rep) for rep in reports]


def test_analyze_writes_each_shared_record_once():
    """``analyze --loss both`` on the bundled config, whose two reports hold
    the same five element records, calls ``fmt_ticks`` twice (rates and
    bursts) per distinct curve and ``fmt_rat`` once per scalar of a distinct
    record, not per record of each report.  It writes each report through
    ``path_analysis.report_to_json`` looked up by name, as the benchmark's
    tracer wraps it: under every module attribute that holds it."""
    reports = list(path_analysis.analyze_both(path_analysis.load_path(str(BUNDLED))).values())
    assert len(reports[0].elements) == 5
    assert all(a is b for a, b in zip(*(rep.elements for rep in reports)))
    written = [c for rep in reports for c in (
        *(e.output_curve for e in rep.elements),
        *(e.post_queue_curve for e in rep.elements if e.post_queue_curve),
        *(r.output_curve for r in rep.resequencers), rep.destination_curve)]
    elements = {id(e): e for rep in reports for e in rep.elements}.values()
    scalars = (sum(3 + (e.stage.rto is not None) for e in elements)
               + sum(3 * len(rep.resequencers) + 7 for rep in reports))
    distinct = len({id(c) for c in written})
    assert distinct < len(written)

    original, calls = path_analysis.report_to_json, []
    def traced(*args, **kwargs):
        calls.append(args[0].loss_mode)
        return original(*args, **kwargs)
    patched = [(m, attr) for m in list(sys.modules.values())
               if getattr(m, "__name__", "").startswith("reseqkit")
               for attr, value in list(vars(m).items()) if value is original]
    with contextlib.ExitStack() as stack:
        for m, attr in patched:
            stack.enter_context(mock.patch.object(m, attr, traced))
        ticks = stack.enter_context(mock.patch.object(
            curves, "fmt_ticks", wraps=curves.fmt_ticks))
        rats = stack.enter_context(mock.patch.object(
            path_analysis, "fmt_rat", wraps=path_analysis.fmt_rat))
        code, out, _ = run_cli(["analyze", "--config", str(BUNDLED), "--loss", "both",
                                "--format", "json"])
    assert code == OK
    assert out == (GOLDEN / "analyze_both.json").read_text(encoding="utf-8")
    assert calls == ["lossless", "lossy"]
    assert ticks.call_count == 2 * distinct
    assert rats.call_count == scalars
