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
``build_parser()`` still returns a fresh parser.  A JSON output is written
by ``_dump_json``, which writes the same bytes as ``json.dumps`` with
``indent=2`` but encodes strings with the C encoder, and writes a report's
``JsonText`` as it is: ``report_to_json`` lays the text out from the
records, and the reports of one call share a memo, so a record that both
hold is written once.  ``simulate`` writes its outcome by column
(``_write_outcome``), its departures and discards blocks in pieces, the
same bytes again.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from itertools import count
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from .bounds import LOSSLESS, LOSSY, SequenceElement
from .case_study import render_case_study, run_case_study
from .curves import FlowSpec, curve_from_json, leaky_bucket
from .metrics import delay_jitter, rbo, rto, trace_from_csv, trace_to_csv
from .path_analysis import (
    JsonText,
    analyze_both,
    analyze_path,
    json_container,
    load_json,
    load_path,
    render_report_table,
    report_to_json,
)
from .rational import check_writable, fmt_rat, fmt_ticks, parse_finite_time, parse_time
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
        memo: dict = {}  # the records both reports share are written once
        print(_dump_json([report_to_json(r, 1, memo) for r in outputs]))
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


def _read_trace(path: str):
    """The trace in the CSV file at ``path``, read from the open file."""
    with open(path, "r", encoding="utf-8") as fh:
        return trace_from_csv(fh)


def cmd_metrics(args) -> int:
    trace = _read_trace(args.trace)
    r_time = rto(trace)
    r_byte = rbo(trace)
    # before any output: a trace with every packet lost fails here
    dj = delay_jitter(trace) if trace.has_emit_times else None
    lines = [f"rto_s={fmt_rat(r_time.value)} ({seconds_to_us_display(r_time.value)} us)",
             f"rbo_bytes={fmt_rat(r_byte.value)}"]
    if dj is not None:
        lines += [
            f"d_max_s={fmt_rat(dj.d_max)} ({seconds_to_us_display(dj.d_max)} us)",
            f"d_min_s={fmt_rat(dj.d_min)} ({seconds_to_us_display(dj.d_min)} us)",
            f"jitter_s={fmt_rat(dj.jitter)} ({seconds_to_us_display(dj.jitter)} us)",
        ]
    else:
        lines.append("d_max_s=- d_min_s=- jitter_s=-  (no emission times)")
    if args.verbose:  # before any output: an offset too long to write fails here
        lams, pis = fmt_ticks(r_time.ticks, r_time.den), fmt_ticks(r_byte.ticks, r_byte.den)
    sys.stdout.write("".join(f"{line}\n" for line in lines))
    if args.verbose:
        sys.stdout.write("".join(
            f"packet {idx}: lambda_s={lam} pi_bytes={pi}\n"
            for idx, lam, pi in zip(count(1), lams, pis)
            if lam != "inf"))  # a lost packet has no offset
    return OK


def cmd_simulate(args) -> int:
    trace = _read_trace(args.trace)
    cfg = ResequencerConfig(parse_time(args.timeout), args.buffer)
    outcome = simulate(trace, cfg)
    _write_outcome(outcome, sys.stdout.write)
    return DISCARD if outcome.discards else OK


#: Lines of a block per ``write`` of ``_write_outcome``.
_PIECE = 4096


def _write_outcome(outcome, write) -> None:
    """Write what ``_dump_json(...) + "\\n"`` writes for the outcome's dict
    form, by column (``_write_block``): a ``"seq": "time"`` line per packet,
    then a ``"seq": "reason"`` line per discard, none escaped, a time being
    digits, ``-``, ``.``, ``/`` or ``inf``.  A block too long to write is
    refused before the first ``write`` (``check_writable``), so an outcome
    that fails writes nothing."""
    ticks, den = outcome.departure_ticks, outcome.time_den
    check_writable(ticks, den, "departures")
    discards = sorted(outcome.discards.items())
    tail = (f',\n  "max_occupancy_bytes": "{fmt_rat(outcome.max_occupancy)}",'
            f'\n  "max_residence_s": "{fmt_rat(outcome.max_residence)}"\n}}\n')
    _write_block(write, '{\n  "departures": ', len(ticks), lambda part: zip(
        count(part.start + 1), fmt_ticks(ticks[part], den)))
    _write_block(write, ',\n  "discards": ', len(discards), discards.__getitem__)
    write(tail)


def _write_block(write, lead, n, pairs) -> None:
    """Write ``lead`` and the JSON object at depth 1 of ``n`` string pairs,
    which ``pairs`` gives by slice, ``_PIECE`` lines per ``write``."""
    sep = '",\n    "'
    for start in range(0, n, _PIECE):
        write((sep if start else lead + '{\n    "') + sep.join(
            [f'{k}": "{v}' for k, v in pairs(slice(start, start + _PIECE))]))
    write('"\n  }' if n else lead + "{}")


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
        memo: dict = {}
        payload = {
            name: {mode: report_to_json(rep, 2, memo) for mode, rep in by_mode.items()}
            for name, by_mode in result.reports.items()
        }
        if args.check:
            payload["check"] = {"ok": result.ok, "mismatches": list(result.mismatches)}
        print(_dump_json(payload))
    else:
        print(render_case_study(result, check=args.check))
    return MISMATCH if args.check and not result.ok else OK


def _dump_json(obj, depth: int = 0) -> str:
    """What ``json.dumps`` with ``indent=2`` writes, byte for byte, for the
    types the CLI prints, at ``depth``: dicts with ``str`` keys, lists,
    ``str``, ``int``, booleans and ``None``, and a ``JsonText`` as it is.
    Any other type raises ``TypeError``.  With an indent the standard
    library takes its pure-Python encoder; this writer encodes each string
    with the C ``encode_basestring_ascii`` and lays out each container with
    ``json_container``, as ``report_to_json`` does."""
    if isinstance(obj, str):
        return obj if obj.__class__ is JsonText else encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
        return json_container([f"{encode_basestring_ascii(k)}: {_dump_json(v, depth + 1)}"
                               for k, v in obj.items()], depth, "{}")
    if isinstance(obj, list):
        return json_container([_dump_json(value, depth + 1) for value in obj], depth)
    raise TypeError(f"{type(obj).__name__} is not written as JSON")


if __name__ == "__main__":
    sys.exit(main())
