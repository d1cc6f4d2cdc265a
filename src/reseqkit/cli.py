"""Batch command-line front end.

Verbs:

* ``analyze``: run a path config (JSON) through the analyzer.
* ``metrics``: RTO / RBO / delay / jitter of a trace CSV.
* ``simulate``: run a trace CSV through the re-sequencing buffer.
* ``scenario``: emit an adversarial trace CSV for one of the generators.
  Each kind has its own parser, which takes exactly the flags its
  generator reads (``_SCENARIOS``); any other flag is a usage error.
* ``case-study``: the bundled automotive example, with ``--check``.

Exit codes: 0 success, 1 usage, input or schema error, 2 analysis completed
with an unsafe-configuration warning, 3 the simulation discarded a packet, 4
``case-study --check`` found a figure off its reference.  Output is
deterministic for identical inputs.

A call's fixed cost is paid once per process.  ``main`` parses with one
parser, built on its first call and reused by every later one;
``build_parser()`` still returns a fresh parser.  Every JSON output goes
through ``_dump_json``, which writes the same bytes as ``json.dumps`` with
``indent=2`` but encodes strings with the C encoder.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from json.encoder import encode_basestring_ascii
from typing import List, Optional, Sequence, Tuple

from .bounds import LOSSLESS, LOSSY, SequenceElement
from .case_study import render_case_study, run_case_study
from .curves import FlowSpec, curve_from_json, leaky_bucket
from .metrics import delay_jitter, rbo, rto, trace_from_csv, trace_to_csv
from .path_analysis import (
    analyze_both,
    analyze_path,
    load_json,
    load_path,
    render_report_table,
    report_to_json,
)
from .rational import fmt_rat, fmt_ticks, parse_finite_time, parse_time
from .rational import seconds_to_us_display
from .resequencer import ResequencerConfig, simulate
from . import scenarios

OK, INPUT_ERROR, UNSAFE_WARNING, DISCARD, MISMATCH = 0, 1, 2, 3, 4


_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise ``ValueError``, which ``main``
    reports as an input error; its verbs' parsers are of this class too."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="reseqkit",
        description="Worst-case reordering metrics and re-sequencing buffer "
        "dimensioning for time-sensitive networks",
    )
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("analyze", help="analyze a flow path config")
    p.add_argument("--config", required=True, help="path config JSON file")
    p.add_argument("--loss", choices=[LOSSLESS, LOSSY, "both"], default=None,
                   help="override the config's loss mode")
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("metrics", help="reordering metrics of a trace CSV")
    p.add_argument("trace", help="trace CSV file")
    p.add_argument("--verbose", action="store_true", help="per-packet offsets")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("simulate", help="run a trace through the buffer")
    p.add_argument("trace", help="trace CSV file")
    p.add_argument("--timeout", default="inf",
                   help="timeout (rational seconds, unit suffixes ok, or inf)")
    p.add_argument("--buffer", default="inf", help="capacity in bytes, or inf")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("scenario", help="generate an adversarial trace")
    kinds = p.add_subparsers(required=True)
    for kind, (make, required, optional) in _SCENARIOS.items():
        k = kinds.add_parser(kind)
        for flag in required + optional:
            k.add_argument(flag, required=flag in required, **_SCENARIO_FLAGS[flag])
        k.add_argument("-o", "--output", help="output CSV (default stdout)")
        k.set_defaults(func=cmd_scenario, make=make)

    p = sub.add_parser("case-study", help="bundled automotive example")
    p.add_argument("name", choices=["automotive"])
    p.add_argument("--check", action="store_true",
                   help="compare against the embedded reference values")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_case_study)
    return parser


def cmd_analyze(args) -> int:
    path_spec = load_path(args.config)
    if args.loss == "both":
        outputs = list(analyze_both(path_spec).values())
    else:
        mode = args.loss or path_spec.loss_mode
        outputs = [analyze_path(replace(path_spec, loss_mode=mode))]
    code = UNSAFE_WARNING if any(r.warnings for r in outputs) else OK
    if args.format == "json":
        print(_dump_json([report_to_json(r) for r in outputs]))
    elif args.format == "csv":
        print("loss_mode,e2e_delay_us,e2e_jitter_us,delta_delay_us,delta_jitter_us")
        for r in outputs:
            print(
                f"{r.loss_mode},{seconds_to_us_display(r.e2e_delay)},"
                f"{seconds_to_us_display(r.e2e_jitter)},"
                f"{seconds_to_us_display(r.delta_delay)},"
                f"{seconds_to_us_display(r.delta_jitter)}"
            )
    else:
        print("\n\n".join(render_report_table(r) for r in outputs))
    return code


def cmd_metrics(args) -> int:
    with open(args.trace, "r", encoding="utf-8") as fh:
        trace = trace_from_csv(fh.read())
    r_time = rto(trace)
    r_byte = rbo(trace)
    # before any output: a trace with every packet lost fails here
    dj = delay_jitter(trace) if trace.has_emit_times else None
    print(f"rto_s={fmt_rat(r_time.value)} ({seconds_to_us_display(r_time.value)} us)")
    print(f"rbo_bytes={fmt_rat(r_byte.value)}")
    if dj is not None:
        print(f"d_max_s={fmt_rat(dj.d_max)} ({seconds_to_us_display(dj.d_max)} us)")
        print(f"d_min_s={fmt_rat(dj.d_min)} ({seconds_to_us_display(dj.d_min)} us)")
        print(f"jitter_s={fmt_rat(dj.jitter)} ({seconds_to_us_display(dj.jitter)} us)")
    else:
        print("d_max_s=- d_min_s=- jitter_s=-  (no emission times)")
    if args.verbose:
        lams, pis = fmt_ticks(r_time.ticks, r_time.den), fmt_ticks(r_byte.ticks, r_byte.den)
        for idx, (lam, pi) in enumerate(zip(lams, pis), start=1):
            if lam != "inf":  # a lost packet has no offset
                print(f"packet {idx}: lambda_s={lam} pi_bytes={pi}")
    return OK


def cmd_simulate(args) -> int:
    with open(args.trace, "r", encoding="utf-8") as fh:
        trace = trace_from_csv(fh.read())
    cfg = ResequencerConfig(parse_time(args.timeout), args.buffer)
    outcome = simulate(trace, cfg)
    print(_dump_json({
        "departures": dict(zip(
            map(str, range(1, len(outcome.departure_ticks) + 1)),
            fmt_ticks(outcome.departure_ticks, outcome.time_den),
        )),
        "discards": {
            str(i): reason for i, reason in sorted(outcome.discards.items())
        },
        "max_occupancy_bytes": fmt_rat(outcome.max_occupancy),
        "max_residence_s": fmt_rat(outcome.max_residence),
    }))
    return DISCARD if outcome.discards else OK


def cmd_scenario(args) -> int:
    text = trace_to_csv(args.make(args))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return OK


def _scenario_curve(args):
    if args.curve_json:
        return curve_from_json(load_json(args.curve_json))
    if args.rate and args.burst:
        return leaky_bucket(args.rate, args.burst)
    raise ValueError("scenario needs --curve-json or --rate/--burst")


def _scenario_flow(args):
    return FlowSpec(_scenario_curve(args), args.l_min, args.l_max)


def _scenario_eps(args):
    return parse_finite_time(args.eps) if args.eps else None


def _rto_chain(args):
    stages = []
    for part in args.stages.split(","):
        times = part.split(":")
        if len(times) > 2:
            raise ValueError(
                f"--stages takes jitter or jitter:rto stages, got {part!r}")
        stages.append(SequenceElement(*map(parse_finite_time, times)))
    return scenarios.gen_amplified_rto_chain(stages, _scenario_eps(args)).end_to_end


_SCENARIO_FLAGS = {
    "--rto": {"help": "target reordering offset (time)"},
    "--t0": {"default": "0", "help": "time origin"},
    "--jitter": {"help": "jitter bound (time)"},
    "--timeout": {"help": "re-sequencer timeout (time)"},
    "--eps": {"help": "tightness epsilon (time)"},
    "--rate": {"help": "leaky-bucket rate, bytes/s"},
    "--burst": {"help": "leaky-bucket burst, bytes"},
    "--curve-json": {"help": "curve JSON file (overrides rate/burst)"},
    "--l-min": {"default": "64", "help": "minimum packet size, bytes"},
    "--l-max": {"default": "64", "help": "maximum packet size, bytes"},
    "--sizes": {"help": "comma-separated early-burst sizes (bytes)"},
    "--first-size": {"default": "64", "help": "late packet size (bytes)"},
    "--stages": {"help": "comma-separated stages, each jitter (order-preserving) "
                 "or jitter:rto (times)"},
}
_CURVE = ("--rate", "--burst", "--curve-json")
# Each kind's trace maker, the flags it requires and the flags it reads when
# given; its parser accepts these and -o, and refuses any other flag.
_SCENARIOS = {
    "two-packet-swap": (lambda a: scenarios.gen_two_packet_swap(
        parse_finite_time(a.rto), parse_finite_time(a.t0)), ("--rto",), ("--t0",)),
    "lossless-backlog": (lambda a: scenarios.gen_lossless_backlog_burst(
        parse_finite_time(a.rto), a.sizes.split(","), a.first_size),
        ("--rto", "--sizes"), ("--first-size",)),
    "lossy-backlog": (lambda a: scenarios.gen_lossy_backlog_burst(
        _scenario_flow(a), parse_finite_time(a.jitter), parse_finite_time(a.timeout),
        _scenario_eps(a)),
        ("--jitter", "--timeout"), (*_CURVE, "--eps", "--l-min", "--l-max")),
    "rto-tight": (lambda a: scenarios.gen_rto_tight_pair(
        parse_finite_time(a.jitter), _scenario_curve(a), a.l_min),
        ("--jitter",), (*_CURVE, "--l-min")),
    "rbo-tight": (lambda a: scenarios.gen_rbo_tight_burst(
        _scenario_flow(a), parse_finite_time(a.jitter), _scenario_eps(a)),
        ("--jitter",), (*_CURVE, "--eps", "--l-min", "--l-max")),
    "rto-chain": (_rto_chain, ("--stages",), ("--eps",)),
}


def cmd_case_study(args) -> int:
    result = run_case_study()
    if args.format == "json":
        payload = {
            name: {mode: report_to_json(rep) for mode, rep in by_mode.items()}
            for name, by_mode in result.reports.items()
        }
        if args.check:
            payload["check"] = {"ok": result.ok, "mismatches": list(result.mismatches)}
        print(_dump_json(payload))
    else:
        print(render_case_study(result, check=args.check))
    return MISMATCH if args.check and not result.ok else OK


# Per depth d: the opening "{" or "[" with the newline and indent of the
# items, the separator between items, and the newline and indent of the
# closing "}" or "]".  Built once per depth and shared by every container.
_LAYOUT: List[Tuple[str, str, str, str, str]] = []


def _layout(depth: int) -> Tuple[str, str, str, str, str]:
    while len(_LAYOUT) <= depth:
        inner = "\n" + "  " * (len(_LAYOUT) + 1)
        outer = "\n" + "  " * len(_LAYOUT)
        _LAYOUT.append(("{" + inner, "[" + inner, "," + inner, outer + "}", outer + "]"))
    return _LAYOUT[depth]


def _dump_json(obj) -> str:
    """What ``json.dumps`` with ``indent=2`` writes, byte for byte, for the
    types the CLI prints: dicts with ``str`` keys, lists, ``str``, ``int``,
    booleans and ``None``.  Any other type raises ``TypeError``.  With an
    indent the standard library takes its pure-Python encoder; this writer
    appends the pieces to one list and encodes each string with the C
    ``encode_basestring_ascii``."""
    chunks: List[str] = []
    _write_json(obj, 0, chunks.append)
    return "".join(chunks)


def _write_json(obj, depth: int, emit) -> None:
    if isinstance(obj, str):
        emit(encode_basestring_ascii(obj))
    elif obj is None:
        emit("null")
    elif obj is True:
        emit("true")
    elif obj is False:
        emit("false")
    elif isinstance(obj, int):
        emit(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            emit("{}")
            return
        open_dict, _, sep, close_dict, _ = _layout(depth)
        lead = open_dict
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
            emit(lead)
            lead = sep
            emit(encode_basestring_ascii(key))
            emit(": ")
            _write_json(value, depth + 1, emit)
        emit(close_dict)
    elif isinstance(obj, list):
        if not obj:
            emit("[]")
            return
        _, open_list, sep, _, close_list = _layout(depth)
        lead = open_list
        for value in obj:
            emit(lead)
            lead = sep
            _write_json(value, depth + 1, emit)
        emit(close_list)
    else:
        raise TypeError(f"{type(obj).__name__} is not written as JSON")


if __name__ == "__main__":
    sys.exit(main())
