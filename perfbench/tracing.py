"""Span tracing for the per-layer run, installed from benchmark code only.

``Tracer.install`` replaces each public function listed in ``WRAPPED`` by a
wrapper that records one span per call: name, parent span, start, end and
an input size.  Callers often import a function by name (``cli`` holds its
own ``trace_from_csv``, ``path_analysis`` its own ``horizontal_deviation``),
so the wrapper is bound under every reseqkit module attribute that holds the
original function, which is what callers actually look up.  ``uninstall``
puts the originals back.  Spans stay in flat arrays in memory until the run
ends; a layer's self time is its span's duration minus its child spans'.
"""

from __future__ import annotations

import importlib
import math
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


def _n_packets(args, result) -> int:
    return len(args[0].packets)


def _n_first(args, result) -> int:
    return len(args[0])


def _outcome(args, result) -> Tuple[int, int]:
    return int(result.max_occupancy), len(result.discards)


# (module, function, input or output size, extra figures kept per call)
WRAPPED: Tuple[Tuple[str, str, Optional[Callable], Optional[Callable]], ...] = (
    ("metrics", "trace_from_csv", lambda a, r: len(r.packets), None),
    ("metrics", "rto", _n_packets, None),
    ("metrics", "rbo", _n_packets, None),
    ("metrics", "delay_jitter", _n_packets, None),
    ("metrics", "trace_to_csv", _n_packets, None),
    ("resequencer", "simulate", _n_first, _outcome),
    ("resequencer", "analytic_departures", _n_first, None),
    ("curves", "horizontal_deviation", lambda a, r: len(a[0].pieces), None),
    ("curves", "min_curves", lambda a, r: len(r.pieces), None),
    ("curves", "check_conforms", _n_first, None),
    ("bounds", "rto_bound_sequence", _n_first, None),
    ("bounds", "rbo_bound_sequence", _n_first, None),
    ("path_analysis", "load_path", None, None),
    ("path_analysis", "analyze_path", lambda a, r: len(a[0].elements), None),
    ("path_analysis", "report_to_json", None, None),
    ("scenarios", "packetize", lambda a, r: len(a[1]), None),
    ("scenarios", "gen_lossy_backlog_burst", lambda a, r: len(r.packets), None),
    ("scenarios", "gen_rbo_tight_burst", lambda a, r: len(r.packets), None),
    ("rational", "fmt_rat", None, None),
)

# The layers time is attributed to; root spans (one per CLI call) are "cli".
LAYERS = ("cli", "metrics", "resequencer", "curves", "bounds", "path_analysis",
          "scenarios", "rational")


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.group: Dict[int, str] = {}  # root span -> call group
        self.notes: Dict[int, object] = {}  # span -> extra figures of the call
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.size.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, group: str, size: int):
        """A root span opened by the benchmark around one call."""
        idx = self._open(name)
        self.size[idx] = size
        self.group[idx] = group
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn: Callable, size: Optional[Callable],
             note: Optional[Callable]) -> Callable:
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if size is not None:
                self.size[idx] = size(args, out)
            if note is not None:
                self.notes[idx] = note(args, out)
            return out

        return wrapper

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if k == "reseqkit" or k.startswith("reseqkit.")]
        for mod_name, fn_name, size, note in WRAPPED:
            home = importlib.import_module(f"reseqkit.{mod_name}")
            original = getattr(home, fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original, size, note)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


class Spans:
    """Read-only view of a finished trace with self times and call groups."""

    def __init__(self, tracer: Tracer) -> None:
        n = len(tracer.start)
        self.tracer = tracer
        self.dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
        self.self_time = list(self.dur)
        self.root = list(range(n))
        for i in range(n):
            p = tracer.parent[i]
            if p >= 0:
                self.self_time[p] -= self.dur[i]
                self.root[i] = self.root[p]  # parents precede children
        self.by_name: Dict[str, List[int]] = {}
        for i in range(n):
            self.by_name.setdefault(tracer.names[tracer.name[i]], []).append(i)

    def select(self, name: str, groups: Optional[Iterable[str]] = None) -> List[int]:
        idx = self.by_name.get(name, [])
        if groups is None:
            return idx
        wanted = set(groups)
        return [i for i in idx if self.tracer.group.get(self.root[i]) in wanted]

    def total(self, idx: Sequence[int], self_only: bool = False) -> float:
        times = self.self_time if self_only else self.dur
        return sum(times[i] for i in idx)

    def size(self, idx: Sequence[int]) -> int:
        return sum(self.tracer.size[i] for i in idx)

    def exponent(self, idx: Sequence[int]) -> float:
        """Least-squares slope of log(mean time per call) against log(size)."""
        by_size: Dict[int, List[float]] = {}
        for i in idx:
            by_size.setdefault(self.tracer.size[i], []).append(self.dur[i])
        points = [(math.log(s), math.log(sum(t) / len(t)))
                  for s, t in by_size.items() if s > 0 and sum(t) > 0]
        if len(points) < 2:
            return 0.0
        mx = sum(x for x, _ in points) / len(points)
        my = sum(y for _, y in points) / len(points)
        sxx = sum((x - mx) ** 2 for x, _ in points)
        return sum((x - mx) * (y - my) for x, y in points) / sxx

    def top_self(self, group: str, k: int = 4) -> List[Tuple[str, float]]:
        """The k span names with the most self time (ms) in calls of a group."""
        per: Dict[str, float] = {}
        for i in range(len(self.dur)):
            if self.tracer.group.get(self.root[i]) == group:
                name = self.tracer.names[self.tracer.name[i]]
                per[name] = per.get(name, 0.0) + self.self_time[i] * 1e3
        return sorted(per.items(), key=lambda kv: -kv[1])[:k]

    def layer_self(self, roots: Sequence[int]) -> Dict[str, float]:
        """Self time per layer inside the given root spans."""
        wanted = set(roots)
        out = dict.fromkeys(LAYERS, 0.0)
        for i in range(len(self.dur)):
            if self.root[i] in wanted:
                name = self.tracer.names[self.tracer.name[i]]
                layer = "cli" if i == self.root[i] else name.split(".", 1)[0]
                out[layer] += self.self_time[i]
        return out


def per_unit(spans: Spans, idx: Sequence[int], scale: float, self_only: bool = False,
             units: Optional[int] = None) -> float:
    """Time per unit of size (scaled, e.g. 1e6 for us), 0 when nothing ran."""
    n = spans.size(idx) if units is None else units
    return spans.total(idx, self_only) * scale / n if n else 0.0


def mean(spans: Spans, idx: Sequence[int], scale: float, self_only: bool = False) -> float:
    return spans.total(idx, self_only) * scale / len(idx) if idx else 0.0


def layer_metrics(spans: Spans, cycles: int, overhead_ratio: float) -> Dict[str, float]:
    """Every per-layer metric of BENCHMARK.json.  A layer the workload never
    calls reads 0; counts and ``*.self_ms`` are per cycle of the workload."""
    s = spans
    us, ms = 1e6, 1e3
    trace_calls = ("metrics", "simulate", "simulate-overflow")
    parse = s.select("metrics.trace_from_csv")
    rbo_idx = s.select("metrics.rbo")
    sim = s.select("resequencer.simulate")
    sim_inf = s.select("resequencer.simulate", ["simulate"])
    sim_over = s.select("resequencer.simulate", ["simulate-overflow"])
    ana = s.select("resequencer.analytic_departures")
    auto = ["analyze-auto"]
    synth = ["analyze-synth"]
    scen = ["scenario"]
    cli_metrics = s.select("cli.metrics")
    cli_sim = s.select("cli.simulate")
    trace_roots = s.select("cli.metrics") + cli_sim
    fmt_in_trace = s.select("rational.fmt_rat", trace_calls)
    synth_an = s.select("path_analysis.analyze_path", synth)
    conforms = s.select("curves.check_conforms", scen)
    pieces = [s.tracer.size[i] for i in s.select("curves.min_curves", synth)]
    ana_us = per_unit(s, ana, us)
    sim_inf_us = per_unit(s, sim_inf, us)
    cli_roots = [i for name, idx in s.by_name.items() if name.startswith("cli.") for i in idx]
    shares = s.layer_self(cli_roots)
    traced = sum(shares.values())

    def self_ms_per_cycle(name: str, groups: Sequence[str]) -> float:
        return s.total(s.select(name, groups), self_only=True) * ms / cycles

    def mean_ms(name: str, groups: Sequence[str], self_only: bool = False) -> float:
        return mean(s, s.select(name, groups), ms, self_only)

    def occupancy_pkts(i: int) -> int:
        # Trace workloads send constant 64 B packets.
        return s.tracer.notes[i][0] // 64

    out = {
        "metrics.trace_from_csv.us_per_pkt": per_unit(s, parse, us),
        "metrics.trace_from_csv.exp": s.exponent(parse),
        "metrics.rto.us_per_pkt": per_unit(s, s.select("metrics.rto"), us),
        "metrics.rbo.us_per_pkt": per_unit(s, rbo_idx, us),
        "metrics.rbo.exp": s.exponent(rbo_idx),
        "resequencer.simulate.us_per_pkt": per_unit(s, sim, us),
        "resequencer.simulate.exp": s.exponent(sim),
        "resequencer.analytic_departures.us_per_pkt": ana_us,
        "resequencer.simulate_over_recursion": sim_inf_us / ana_us if ana_us else 0.0,
        "resequencer.simulate.peak_backlog_pkts": max(map(occupancy_pkts, sim_inf), default=0),
        "resequencer.simulate.discards":
            sum(s.tracer.notes[i][1] for i in sim_over) // cycles,
        "cli.metrics.self_us_per_pkt": per_unit(s, cli_metrics, us, self_only=True),
        "cli.simulate.self_us_per_pkt": per_unit(s, cli_sim, us, self_only=True),
        "rational.fmt_rat.calls": len(s.select("rational.fmt_rat")) // cycles,
        "rational.fmt_rat.self_us_per_pkt": per_unit(
            s, fmt_in_trace, us, self_only=True, units=s.size(trace_roots)),
        "path_analysis.load_path.ms": mean_ms("path_analysis.load_path", auto),
        "path_analysis.analyze_path.ms": mean_ms("path_analysis.analyze_path", auto),
        "path_analysis.report_to_json.ms": mean_ms("path_analysis.report_to_json", auto),
        "cli.analyze.self_ms": mean_ms("cli.analyze", auto, self_only=True),
        "path_analysis.analyze_path.us_per_elem": per_unit(s, synth_an, us),
        "path_analysis.analyze_path.exp": s.exponent(synth_an),
        "curves.horizontal_deviation.calls":
            len(s.select("curves.horizontal_deviation", synth)) // cycles,
        "curves.horizontal_deviation.self_ms":
            self_ms_per_cycle("curves.horizontal_deviation", synth),
        "curves.min_curves.self_ms": self_ms_per_cycle("curves.min_curves", synth),
        "curves.min_curves.pieces_out_max": max(pieces, default=0),
        "bounds.rto_bound_sequence.self_ms": self_ms_per_cycle("bounds.rto_bound_sequence", synth),
        "bounds.rbo_bound_sequence.self_ms": self_ms_per_cycle("bounds.rbo_bound_sequence", synth),
        "curves.check_conforms.us_per_pkt": per_unit(s, conforms, us),
        "curves.check_conforms.exp": s.exponent(conforms),
        "scenarios.packetize.us_per_pkt": per_unit(s, s.select("scenarios.packetize", scen), us),
        "scenarios.gen_lossy_backlog_burst.self_ms":
            self_ms_per_cycle("scenarios.gen_lossy_backlog_burst", scen),
        "trace.overhead_ratio": overhead_ratio,
    }
    for layer in LAYERS:
        out[f"{layer}.self_share"] = shares[layer] / traced if traced else 0.0
    return out
