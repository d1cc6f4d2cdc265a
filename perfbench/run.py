"""Benchmark of the reseqkit CLI: three workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload trace-shallow --seed 1 --seconds 30 --trace 0

One caller in one process runs the workload's cycle of CLI calls through
``reseqkit.cli.main`` in a closed loop (the next call starts when the last
one returns) and goes round the cycle until ``--seconds`` have passed.
Inputs are generated from ``--seed`` into a temporary directory before
timing starts.  Every call's exit code and output are checked.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced cycles alternate
and the JSON carries the per-layer metrics.  Lines before it
are a readable report; the full result, with the digest of the outputs, is
also written to ``.perfbench/results/`` under the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench" / "results"
SETUP_SAMPLES = 9

SETUP_CODE = """\
import time
t0 = time.perf_counter()
import reseqkit.cli
reseqkit.cli.build_parser()
t1 = time.perf_counter()
import speed
speed.probe()
print(t1 - t0, speed.probe())
"""


def measure_setup(samples: int) -> List[float]:
    """Seconds to import reseqkit.cli and build its parser, each in a fresh
    interpreter, as every shell invocation pays it, scaled to the reference
    host by a probe run afterwards in the same interpreter; the samples of
    the host's usual band when there are any.  A first, unreported sample
    writes the bytecode cache."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    times = []
    for _ in range(samples + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        setup, probe = map(float, done.stdout.split())
        times.append((setup * speed.REFERENCE_S / probe, speed.usual(probe)))
    usual = [t for t, ok in times[1:] if ok]
    return usual or [t for t, _ in times[1:]]


class Runner:
    """Runs a workload's cycles, checks every output and keeps the timings."""

    def __init__(self, workload, main) -> None:
        self.workload = workload
        self.main = main
        self.attempted = 0
        self.failures: List[str] = []
        self.first: Dict[str, Tuple[str, Optional[str]]] = {}  # label -> (digest, problem)

    def invoke(self, argv) -> Tuple[object, float, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = self.main(list(argv))
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
            except Exception:  # a traceback is a failed call, not a dead run
                code = "traceback: " + traceback.format_exc(limit=3)
            elapsed = perf_counter() - t0
        return code, elapsed, out.getvalue(), err.getvalue()

    def verify(self, call, code, out: str, err: str) -> Optional[str]:
        """Check a call's first output; later calls on the same input must
        repeat it byte for byte."""
        digest = hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()
        seen = self.first.get(call.label)
        if seen is not None:
            return seen[1] if digest == seen[0] else "output differs from an earlier call"
        if code != call.expect:
            problem = f"exit code {code}, expected {call.expect}"
        else:
            try:
                problem = call.check(out, err)
            except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
                problem = f"unreadable output: {exc!r}"
        self.first[call.label] = (digest, problem)
        return problem

    def call(self, call, tracer=None) -> Tuple[object, float]:
        if tracer is None:
            code, elapsed, out, err = self.invoke(call.argv)
        else:
            with tracer.span(f"cli.{call.verb}", call.group, call.items):
                code, elapsed, out, err = self.invoke(call.argv)
        self.attempted += 1
        problem = self.verify(call, code, out, err)
        if problem is not None:
            self.failures.append(f"{call.label}: {problem}")
        return call, elapsed

    def cycle(self, tracer=None) -> List[Tuple[object, float]]:
        return [self.call(c, tracer) for c in self.workload.cycle]

    def digest(self) -> str:
        """sha256 over every distinct call's exit code and output, in cycle order."""
        h = hashlib.sha256()
        for label, (digest, _) in self.first.items():
            h.update(f"{label}\0{digest}\n".encode())
        return h.hexdigest()


def by_label(records) -> Dict[str, Tuple[object, List[float]]]:
    out: Dict[str, Tuple[object, List[float]]] = {}
    for call, t in records:
        out.setdefault(call.label, (call, []))[1].append(t)
    return out


def rate(cycle, records, **match) -> float:
    """Items per second of the matching calls.  Each input is timed at the
    median of its repeats in the run, which damps bursts of interference
    from other processes on the machine, and weighted by how often the cycle
    calls it, so a run that stops inside a cycle keeps the cycle's mix."""
    weight = Counter(c.label for c in cycle)
    chosen = [(c, ts) for c, ts in by_label(records).values()
              if all(getattr(c, k) == v for k, v in match.items())]
    busy = sum(weight[c.label] * statistics.median(ts) for c, ts in chosen)
    return sum(weight[c.label] * c.items for c, _ in chosen) / busy if busy else 0.0


def verb_figures(cycle, records) -> Dict[str, Tuple[float, str]]:
    """Per-verb figures of the calls the workload makes (absent verbs omitted)."""
    out = {}
    rate_of = functools.partial(rate, cycle, records)
    groups = {c.group for c, _ in records}
    if "metrics" in groups:
        out["metrics_pkts_per_s"] = (rate_of(verb="metrics"), "pkt/s")
    if "simulate" in groups:
        out["simulate_pkts_per_s"] = (rate_of(verb="simulate"), "pkt/s")
    auto = [t * 1e3 for c, t in records if c.group == "analyze-auto"]
    if auto:
        deciles = statistics.quantiles(auto, n=10)
        out["analyze_p50_ms"] = (statistics.median(auto), "ms")
        out["analyze_p90_ms"] = (deciles[-1], "ms")
        out["analyze_samples"] = (len(auto), "count")
    if "analyze-synth" in groups:
        out["analyze_elems_per_s"] = (rate_of(group="analyze-synth"), "elem/s")
    if "scenario" in groups:
        out["scenario_pkts_per_s"] = (rate_of(group="scenario"), "pkt/s")
    return out


def run_plain(runner: Runner, seconds: float):
    """The cycle's calls in order, round and round, until ``seconds`` have
    passed; at least one whole cycle.  Returns the wall-clock records and
    the same records scaled to the reference host."""
    cycle, records, marks = runner.workload.cycle, [], []
    track, t0 = speed.Track(), perf_counter()
    while len(records) < len(cycle) or perf_counter() - t0 < seconds:
        marks.append(track.mark())
        records.append(runner.call(cycle[len(records) % len(cycle)]))
    track.finish()
    return records, track.local(marks), len(records) / len(cycle)


def run_traced(runner: Runner, seconds: float):
    """Pairs of one untraced and one traced cycle until ``seconds`` have
    passed.  Each traced cycle also times the closed-form recursion on the
    inputs of the infinite-buffer simulate calls."""
    from tracing import Spans, Tracer, layer_metrics

    tracer = Tracer()
    untraced, traced, cycles, t0 = [], [], 0, perf_counter()
    while True:
        untraced += runner.cycle()
        tracer.install()
        try:
            traced += runner.cycle(tracer)
            for recursion in runner.workload.recursions:
                recursion()
        finally:
            tracer.uninstall()
        cycles += 1
        if perf_counter() - t0 >= seconds:
            break
    overhead = sum(t for _, t in traced) / sum(t for _, t in untraced)
    spans = Spans(tracer)
    groups = sorted({c.group for c, _ in traced})
    top = {g: [(name, ms / cycles) for name, ms in spans.top_self(g)] for g in groups}
    return untraced, cycles, layer_metrics(spans, cycles, overhead), top


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        make=None) -> dict:
    """Build the workload's inputs, measure it and return the full result."""
    from reseqkit.cli import main

    spec = load_spec()
    setup = measure_setup(SETUP_SAMPLES)
    workload = (make or workloads.WORKLOADS[name])(seed, workdir)
    runner = Runner(workload, main)
    t0 = perf_counter()
    if trace:
        records, cycles, layers, top = run_traced(runner, seconds)
        probes = []
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {k: {"value": layers[k], "unit": units[k]} for k in units}
    else:
        top = {}
        records, probes, cycles = run_plain(runner, seconds)
        scaled = speed.scaled(records, probes)
        values = {
            "setup_s": statistics.median(setup),
            "analysis_items_per_s": rate(workload.cycle, scaled, lane="analysis"),
            "synthesis_items_per_s": rate(workload.cycle, scaled, lane="synthesis"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    failed = len(runner.failures)
    verbs = verb_figures(workload.cycle, records)
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "cycles": cycles,
        "wall_s": perf_counter() - t0,
        "setup_samples_s": setup,
        "attempted": runner.attempted,
        "failed": failed,
        "failed_ratio": failed / runner.attempted,
        "failures": runner.failures[:20],
        "output_sha256": runner.digest(),
        "verbs": {k: {"value": v, "unit": u} for k, (v, u) in verbs.items()},
        "metrics": metrics,
        "top_self_ms_per_cycle": top,
        "call_times_s": {label: ts for label, (_, ts) in by_label(records).items()},
        "call_probes_s": {label: ps for label, (_, ps) in
                          by_label([(c, p) for (c, _), p in zip(records, probes)]).items()},
    }


def report(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{result['cycles']:.2f} cycles in {result['wall_s']:.1f} s")
    for section in ("metrics", "verbs"):
        for name, m in result[section].items():
            print(f"  {name:46s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'failed_ratio':46s} {result['failed_ratio']:14.6g} "
          f"({result['failed']}/{result['attempted']})")
    for group, top in result["top_self_ms_per_cycle"].items():
        print(f"  largest self time in {group} calls, ms per cycle: " +
              ", ".join(f"{name} {ms:.4g}" for name, ms in top))
    for line in result["failures"]:
        print(f"  FAILED {line}")
    print(f"  output sha256 {result['output_sha256']}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "reseqkit").is_dir():
        print(f"error: no reseqkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    RESULTS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=RESULTS.parent) as tmp:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), Path(tmp))
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    report(result)
    print(f"  result file {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
