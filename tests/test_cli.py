import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from reseqkit.cli import DISCARD, INPUT_ERROR, OK, UNSAFE_WARNING, main
from reseqkit.metrics import trace_from_csv, trace_to_csv
from reseqkit.scenarios import gen_two_packet_swap

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

    def test_json_ints_equal_strings(self, tmp_path, capsys):
        cfg = bundled_with(tmp_path, lambda c: c["flow"].update(l_min=64, l_max=64))
        assert main(["analyze", "--config", cfg, "--loss", "both"]) == OK
        with_ints = capsys.readouterr().out
        assert main(["analyze", "--config", str(BUNDLED), "--loss", "both"]) == OK
        assert with_ints == capsys.readouterr().out


@pytest.mark.parametrize(
    "argv,golden",
    [
        (["analyze", "--config", str(BUNDLED), "--loss", "both", "--format", fmt],
         f"analyze_both.{fmt}")
        for fmt in ("table", "json", "csv")
    ] + [
        (["case-study", "automotive", "--check", "--format", fmt],
         f"case_study_check.{fmt}")
        for fmt in ("table", "json")
    ],
)
def test_whole_output_matches_golden(argv, golden, capsys):
    assert main(argv) == OK
    assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")


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
                "--stages", "1.5us:0.988us,13.5us:0,1.5us:0,13.5us:0",
                "--head", "1", "--eps", "0.1us",
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
