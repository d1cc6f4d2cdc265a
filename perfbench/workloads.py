"""The benchmark's workloads: one cycle of CLI calls each, with the check of
every call's output.

A cycle is a fixed list of calls; a run repeats whole cycles, so every run
of a workload does the same mix of work.  Each call names the lane its time
counts towards: "analysis" calls reduce an input to a small report
(``metrics``, ``analyze``), "synthesis" calls emit one record per packet
(``simulate`` departures, ``scenario`` traces).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import inputs
import reference as ref
from inputs import PKT_BYTES, Capture, ScenarioParams, ns_to_s

# check(stdout, stderr) -> None when correct, else what is wrong
Check = Callable[[str, str], Optional[str]]

ROOT = Path(__file__).resolve().parent.parent
AUTOMOTIVE_CONFIG = ROOT / "configs" / "automotive_only_h2.json"
LOSSLESS, LOSSY = "lossless", "lossy"


@dataclass(frozen=True)
class Call:
    label: str  # stable name of the input, the same in every run of the seed
    argv: Tuple[str, ...]
    group: str  # metrics, simulate, simulate-overflow, analyze-auto, ...
    lane: Optional[str]  # "analysis", "synthesis", or None for check-only calls
    items: int  # packets or path elements the call processes
    expect: int  # exit code
    check: Check

    @property
    def verb(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    name: str
    cycle: List[Call]
    # Thunks the traced run times as the simulator's floor: the closed-form
    # recursion on each infinite-buffer simulate input.
    recursions: List[Callable[[], object]]


def _ok(out: str, err: str) -> Optional[str]:
    return None


def _mismatch(what: str, got, want) -> str:
    return f"{what}: got {got}, expected {want}"


# -- trace workloads -----------------------------------------------------------


def _metrics_check(cap: Capture) -> Check:
    delivered = [(e, o) for e, o in zip(cap.emit_ns, cap.observe_ns) if o is not None]
    delays = [o - e for e, o in delivered]
    want = {
        "rto_s": ns_to_s(ref.rto(cap.observe_ns)),
        "rbo_bytes": ref.rbo(cap.observe_ns, [Fraction(PKT_BYTES)] * cap.n),
        "d_max_s": ns_to_s(max(delays)),
        "d_min_s": ns_to_s(min(delays)),
        "jitter_s": ns_to_s(max(delays) - min(delays)),
    }

    def check(out: str, err: str) -> Optional[str]:
        got = ref.parse_key_values(out)
        bad = [k for k, v in want.items() if got.get(k) != v]
        return _mismatch("metrics " + ",".join(bad), [got.get(k) for k in bad],
                         [want[k] for k in bad]) if bad else None

    return check


def _arrivals(cap: Capture) -> Dict[int, object]:
    return {
        i: math.inf if o is None else ns_to_s(o)
        for i, o in enumerate(cap.observe_ns, start=1)
    }


def _simulate_check(want: Dict[int, object]) -> Check:
    def check(out: str, err: str) -> Optional[str]:
        departures, discards, _ = ref.parse_departures(out)
        if discards:
            return f"{len(discards)} discards with a timeout that covers the RTO"
        if departures != want:
            wrong = sorted(i for i in want if departures.get(i) != want[i])
            return f"departures differ from analytic_departures at {wrong[:5]}"
        return None

    return check


def _overflow_check(out: str, err: str) -> Optional[str]:
    _, discards, peak = ref.parse_departures(out)
    if "overflow" not in discards.values():
        return "no overflow discard below the peak backlog"
    if peak > inputs.OVERFLOW_BUFFER_BYTES:
        return _mismatch("max occupancy", peak, f"<= {inputs.OVERFLOW_BUFFER_BYTES}")
    return None


def _trace_workload(name: str, seed: int, workdir: Path, sizes: Sequence[int],
                    make: Callable[[int, random.Random], Capture], timeout_ns: int,
                    overflow: bool) -> Workload:
    from reseqkit import resequencer

    rng = random.Random(f"{name}:{seed}")
    cycle: List[Call] = []
    recursions = []
    timeout = f"{timeout_ns}ns"
    for n in sizes:
        cap = make(n, rng)
        if ref.rto(cap.observe_ns) > timeout_ns:
            raise AssertionError(f"{name}: generated RTO exceeds the timeout")
        path = workdir / f"{name}-{n}.csv"
        path.write_text(cap.csv(), encoding="utf-8")
        arrivals = _arrivals(cap)
        want = resequencer.analytic_departures(arrivals, ns_to_s(timeout_ns))
        tag = f"{name}-{n}"
        metrics = Call(f"metrics {tag}", ("metrics", str(path)), "metrics",
                       "analysis", n, 0, _metrics_check(cap))
        cycle += [metrics, Call(f"simulate {tag}",
                                ("simulate", str(path), "--timeout", timeout),
                                "simulate", "synthesis", n, 0, _simulate_check(want))]
        if overflow:
            # metrics runs again between the long simulate calls, so that
            # its repeats spread over the whole run.
            cycle += [metrics, Call(
                f"simulate-overflow {tag}",
                ("simulate", str(path), "--timeout", timeout,
                 "--buffer", str(inputs.OVERFLOW_BUFFER_BYTES)),
                "simulate-overflow", "synthesis", n, 3, _overflow_check)]
        # Looked up at call time, so the traced run times the wrapped function.
        recursions.append(lambda a=arrivals: resequencer.analytic_departures(
            a, ns_to_s(timeout_ns)))
    return Workload(name, cycle, recursions)


def trace_shallow(seed: int, workdir: Path,
                  sizes: Sequence[int] = inputs.SHALLOW_SIZES) -> Workload:
    return _trace_workload("trace-shallow", seed, workdir, sizes, inputs.shallow_capture,
                           inputs.SHALLOW_TIMEOUT_NS, overflow=False)


def trace_deep(seed: int, workdir: Path,
               sizes: Sequence[int] = inputs.DEEP_SIZES) -> Workload:
    return _trace_workload("trace-deep", seed, workdir, sizes, inputs.deep_capture,
                           inputs.DEEP_TIMEOUT_NS, overflow=True)


# -- bounds-synth --------------------------------------------------------------


def _e2e(report: dict) -> Tuple[Fraction, Fraction]:
    return Fraction(report["e2e"]["delay_s"]), Fraction(report["e2e"]["jitter_s"])


def _automotive_check(out: str, err: str) -> Optional[str]:
    from reseqkit.case_study import REFERENCE

    want = REFERENCE["only at h2"]
    reports = json.loads(out)
    got = [(r["loss_mode"], _e2e(r)) for r in reports]
    expect = [(LOSSLESS, (want.delay_lossless, want.jitter_lossless)),
              (LOSSY, (want.delay_lossy, want.jitter_lossy))]
    return None if got == expect else _mismatch("automotive e2e", got, expect)


def _synthetic_check(config: dict) -> Check:
    """Structure and sums of the report, from the config alone: fabric delay
    ranges pass through unchanged, the end-to-end figures are the per-element
    sums plus, when lossy, every re-sequencer's timeout, and each auto
    timeout equals its upstream RTO bound."""
    elements = config["elements"]
    n_reseq = sum(e["kind"] == "resequencer" for e in elements)
    fabrics = {e["id"]: (Fraction(e["d_min_s"]), Fraction(e["d_max_s"]))
               for e in elements if e["kind"] == "fabric"}
    fifo_min = Fraction(PKT_BYTES, inputs.LINE_RATE_BPS)

    def check(out: str, err: str) -> Optional[str]:
        reports = json.loads(out)
        if [r["loss_mode"] for r in reports] != [LOSSLESS, LOSSY]:
            return "expected one lossless and one lossy report"
        for r in reports:
            els, rs = r["elements"], r["resequencers"]
            if len(rs) != n_reseq or len(els) + len(rs) != len(elements):
                return f"{r['loss_mode']}: report lists the wrong elements"
            for e in els:
                d_range = (Fraction(e["d_min_s"]), Fraction(e["d_max_s"]))
                if e["id"] in fabrics and d_range != fabrics[e["id"]]:
                    return _mismatch(e["id"], d_range, fabrics[e["id"]])
                if e["kind"] == "fifo_service" and d_range[0] != fifo_min:
                    return _mismatch(e["id"] + " d_min", d_range[0], fifo_min)
                if d_range[1] - d_range[0] != Fraction(e["jitter_s"]):
                    return f"{e['id']}: jitter is not d_max - d_min"
            if any(x["timeout_s"] != x["upstream_rto_s"] for x in rs):
                return f"{r['loss_mode']}: auto timeout differs from its upstream RTO"
            added = sum((Fraction(x["timeout_s"]) for x in rs), Fraction(0))
            added = added if r["loss_mode"] == LOSSY else 0
            want = (sum(Fraction(e["d_max_s"]) for e in els) + added,
                    sum(Fraction(e["jitter_s"]) for e in els) + added)
            if _e2e(r) != want:
                return _mismatch(f"{r['loss_mode']} e2e", _e2e(r), want)
        return None

    return check


def _curve(p: ScenarioParams, t: Fraction) -> Fraction:
    return p.rate * t + p.burst


def _scenario_packets(p: ScenarioParams) -> int:
    """Packets the generator must emit: the lost head plus the whole-packet
    window for lossy-backlog; l_min plus the window rest cut into l_max
    packets, rounded up, for rbo-tight."""
    eps = ns_to_s(p.eps_ns)
    if p.kind == "lossy-backlog":
        window = _curve(p, ns_to_s(p.jitter_ns + p.timeout_ns) - eps)
        return 1 + math.floor(window / PKT_BYTES)
    rest = _curve(p, ns_to_s(p.jitter_ns) - eps) - PKT_BYTES
    return 1 + math.ceil(rest / p.l_max)


def _scenario_check(p: ScenarioParams) -> Check:
    """The trace conforms to the curve and reaches the bound within eps: a
    lossy backlog of floor(curve(V + T - eps)) whole packets parked behind
    one hole, or a byte offset of curve(V - eps) - l_min."""
    jitter, eps = ns_to_s(p.jitter_ns), ns_to_s(p.eps_ns)
    n_want = _scenario_packets(p)

    def check(out: str, err: str) -> Optional[str]:
        sizes, emits, observes = ref.parse_trace_csv(out)
        if len(sizes) != n_want:
            return _mismatch("packets", len(sizes), n_want)
        if not ref.conforms(emits, sizes, [(Fraction(p.rate), Fraction(p.burst))]):
            return "emissions violate the arrival curve"
        if any(not PKT_BYTES <= s <= p.l_max for s in sizes):
            return "packet size outside [l_min, l_max]"
        if p.kind == "lossy-backlog":
            survivors = observes[1:]
            if observes[0] != math.inf or math.inf in survivors:
                return "expected exactly the first packet lost"
            first_timer = survivors[0] + ns_to_s(p.timeout_ns)
            if survivors != sorted(survivors) or survivors[-1] >= first_timer:
                return "survivors do not all park before the first timer fires"
            if any(o - e > jitter for o, e in zip(survivors, emits[1:])):
                return "a delay exceeds the jitter bound"
            backlog = sum(sizes[1:])
            window = _curve(p, jitter + ns_to_s(p.timeout_ns) - eps)
            want = math.floor(window / PKT_BYTES) * PKT_BYTES
            return None if backlog == want else _mismatch("parked backlog", backlog, want)
        delays = [o - e for o, e in zip(observes, emits)]
        if max(delays) - min(delays) > jitter:
            return "delay jitter exceeds the jitter bound"
        got = ref.rbo(observes, sizes)
        want = _curve(p, jitter - eps) - PKT_BYTES
        return None if got == want else _mismatch("RBO", got, want)

    return check


def _rejected_check(out: str, err: str) -> Optional[str]:
    return None if not out and err.startswith("error:") else "expected only an error line"


def bounds_synth(seed: int, workdir: Path,
                 lengths: Sequence[int] = inputs.SYNTH_LENGTHS,
                 auto_calls: int = inputs.AUTO_CALLS,
                 scenario_scale: int = 1) -> Workload:
    """``scenario_scale`` divides the scenario rates, for tiny smoke runs."""
    rng = random.Random(f"bounds-synth:{seed}")
    auto = Call("analyze automotive_only_h2",
                ("analyze", "--config", str(AUTOMOTIVE_CONFIG), "--loss", "both",
                 "--format", "json"),
                "analyze-auto", "analysis", 2 * len(json.loads(
                    AUTOMOTIVE_CONFIG.read_text(encoding="utf-8"))["elements"]),
                0, _automotive_check)
    half = auto_calls // 2
    cycle = [auto] * half
    cycle.append(Call("case-study automotive --check",
                      ("case-study", "automotive", "--check"),
                      "case-study", None, 0, 0, _ok))
    for length in lengths:
        for pieces in inputs.SYNTH_PIECES:
            config = inputs.synthetic_path(length, pieces, rng)
            path = workdir / f"path-{length}-{pieces}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            cycle.append(Call(
                f"analyze path-{length}-{pieces}",
                ("analyze", "--config", str(path), "--loss", "both", "--format", "json"),
                "analyze-synth", "analysis", 2 * length, 0, _synthetic_check(config)))
    scenario_calls = []
    for p in inputs.scenarios(rng):
        p = ScenarioParams(p.kind, p.rate // scenario_scale, p.burst, p.jitter_ns,
                           p.timeout_ns, p.eps_ns, p.l_max)
        scenario_calls.append(Call(f"scenario {p.kind} rate={p.rate}", tuple(p.argv()),
                                   "scenario", "synthesis", _scenario_packets(p), 0,
                                   _scenario_check(p)))
    # The scenario calls run twice a cycle, apart, so that a run holds
    # enough repeats of each for a steady median.
    cycle += scenario_calls + [auto] * (auto_calls - half) + scenario_calls
    cycle.append(Call("scenario rbo-tight indecomposable",
                      tuple(inputs.REJECTED_RBO_TIGHT), "scenario-reject", None, 0, 1,
                      _rejected_check))
    return Workload("bounds-synth", cycle, [])


WORKLOADS = {
    "trace-shallow": trace_shallow,
    "trace-deep": trace_deep,
    "bounds-synth": bounds_synth,
}
