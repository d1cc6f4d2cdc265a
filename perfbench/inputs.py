"""Seeded input generator for the benchmark workloads.

Every input is a pure function of the workload seed, so two runs with the
same seed feed the program byte-identical files.  The seed changes delays,
loss positions and path parameters, but never the amount of work: packet
counts, path lengths and scenario window sizes are fixed by the profiles
below.  Do not retune a profile to hide a regression; add a new workload.

Times are integer nanoseconds here and are written as exact decimal seconds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

PKT_BYTES = 64
SPACING_NS = 512  # one 64 B packet at 125 MB/s
FIRST_EMIT_NS = 10_000
BASE_DELAY_NS = 2_000

# trace-shallow: fabric-like delays over a window of a few packet spacings,
# no losses; the re-sequencer timeout covers the window and so the RTO.
SHALLOW_SIZES = (1_000, 4_000, 16_000)
SHALLOW_WINDOW_NS = 4 * SPACING_NS
SHALLOW_TIMEOUT_NS = SHALLOW_WINDOW_NS

# trace-deep: the same delays plus one upstream loss per LOSS_BLOCK packets.
# The timeout covers about 1k spacings, so each hole parks ~1k packets.
DEEP_SIZES = (1_000, 2_000, 4_000)
DEEP_WINDOW_NS = 4 * SPACING_NS
DEEP_TIMEOUT_NS = 1_000 * SPACING_NS
LOSS_BLOCK = 1_000
LOSS_OFFSET = (50, 150)  # position of the hole inside its block
OVERFLOW_BUFFER_BYTES = 256 * PKT_BYTES  # well below the ~1k-packet peak

# bounds-synth
SYNTH_LENGTHS = (25, 50, 100, 200)
SYNTH_PIECES = (1, 8)
ELEMENT_CYCLE = ("fifo_service", "fabric", "fifo_service", "fabric", "resequencer")
LINE_RATE_BPS = 125_000_000
AUTO_CALLS = 500  # analyze calls on the bundled config per cycle
# Source rates (B/s) giving windows of about 100, 200 and 300 packets.
LOSSY_RATES = (2_880_000, 6_080_000, 9_280_000)
RBO_RATES = (5_760_000, 12_160_000, 18_560_000)
SCENARIO_BURST = 640
LOSSY_JITTER_NS = 1_000_000
LOSSY_TIMEOUT_NS = 1_000_000
RBO_JITTER_NS = 2_000_000
SCENARIO_EPS_NS = 1_000
RBO_L_MAX = 128


def fmt_ns(ns: int) -> str:
    """Exact decimal seconds for an integer nanosecond count."""
    return f"{ns // 10**9}.{ns % 10**9:09d}"


def ns_to_s(ns: int) -> Fraction:
    return Fraction(ns, 10**9)


@dataclass(frozen=True)
class Capture:
    """One generated capture: emission and observation times per packet
    (observation None when the packet was lost upstream)."""

    emit_ns: Tuple[int, ...]
    observe_ns: Tuple[Optional[int], ...]

    @property
    def n(self) -> int:
        return len(self.emit_ns)

    def csv(self) -> str:
        rows = ["index,size_bytes,emit_time_s,observe_time_s"]
        for i, (e, o) in enumerate(zip(self.emit_ns, self.observe_ns), start=1):
            obs = "inf" if o is None else fmt_ns(o)
            rows.append(f"{i},{PKT_BYTES},{fmt_ns(e)},{obs}")
        return "\n".join(rows) + "\n"


def capture(n: int, rng: random.Random, window_ns: int, lost: Sequence[int] = ()) -> Capture:
    """Evenly spaced 64 B packets, each delayed by BASE_DELAY_NS plus a
    uniform draw over ``window_ns``; ``lost`` lists 1-based lost indices.
    Equal observation instants are broken by pushing the later draw 1 ns on,
    because the trace format requires distinct times."""
    lost_set = set(lost)
    seen = set()
    emits, observes = [], []
    for i in range(1, n + 1):
        e = FIRST_EMIT_NS + i * SPACING_NS
        emits.append(e)
        if i in lost_set:
            observes.append(None)
            continue
        o = e + BASE_DELAY_NS + rng.randrange(window_ns)
        while o in seen:
            o += 1
        seen.add(o)
        observes.append(o)
    return Capture(tuple(emits), tuple(observes))


def shallow_capture(n: int, rng: random.Random) -> Capture:
    return capture(n, rng, SHALLOW_WINDOW_NS)


def deep_capture(n: int, rng: random.Random) -> Capture:
    lost = [
        block + rng.randrange(*LOSS_OFFSET)
        for block in range(0, n - LOSS_OFFSET[1], LOSS_BLOCK)
    ]
    return capture(n, rng, DEEP_WINDOW_NS, lost)


def synthetic_path(length: int, pieces: int, rng: random.Random) -> dict:
    """A path config cycling through FIFO ports, fabrics and auto-mode
    re-sequencers.  The source curve is a concave min of ``pieces`` leaky
    buckets whose long-run rate stays below the line rate."""
    curve = []
    for k in range(pieces):
        rate = LINE_RATE_BPS // (4 ** (k + 1)) + rng.randrange(1_000)
        burst = PKT_BYTES * 3**k + rng.randrange(64)
        curve.append({"rate": str(rate), "burst": str(burst)})
    elements = []
    for i in range(length):
        kind = ELEMENT_CYCLE[i % len(ELEMENT_CYCLE)]
        if kind == "fifo_service":
            elements.append({
                "id": f"e{i}.fifo", "kind": kind, "rate_Bps": str(LINE_RATE_BPS),
                "latency_s": fmt_ns(rng.randrange(1_000, 20_000)),
            })
        elif kind == "fabric":
            lo = rng.randrange(100, 1_000)
            elements.append({
                "id": f"e{i}.fabric", "kind": kind, "d_min_s": fmt_ns(lo),
                "d_max_s": fmt_ns(lo + rng.randrange(500, 3_000)),
            })
        else:
            elements.append({"id": f"e{i}.reseq", "kind": kind, "mode": "auto"})
    return {
        "flow": {
            "curve": {"unit": "bytes", "kind": "min_affine", "pieces": curve},
            "l_min": str(PKT_BYTES),
            "l_max": str(PKT_BYTES),
        },
        "loss_mode": "lossy",
        "elements": elements,
    }


@dataclass(frozen=True)
class ScenarioParams:
    kind: str  # "lossy-backlog" or "rbo-tight"
    rate: int
    burst: int
    jitter_ns: int
    timeout_ns: int  # 0 for rbo-tight
    eps_ns: int
    l_max: int

    def argv(self) -> List[str]:
        out = [
            "scenario", self.kind, "--jitter", f"{self.jitter_ns}ns",
            "--rate", str(self.rate), "--burst", str(self.burst),
            "--eps", f"{self.eps_ns}ns",
            "--l-min", str(PKT_BYTES), "--l-max", str(self.l_max),
        ]
        if self.timeout_ns:
            out += ["--timeout", f"{self.timeout_ns}ns"]
        return out


def scenarios(rng: random.Random) -> List[ScenarioParams]:
    """Lossy-backlog and rbo-tight generators at three window sizes.  The
    seed moves each window by under 1 us, which shifts it by at most one
    packet, so the work per call stays the same across seeds."""
    out = []
    for rate in LOSSY_RATES:
        out.append(ScenarioParams(
            "lossy-backlog", rate, SCENARIO_BURST,
            LOSSY_JITTER_NS + rng.randrange(1_000), LOSSY_TIMEOUT_NS,
            SCENARIO_EPS_NS, PKT_BYTES,
        ))
    for rate in RBO_RATES:
        out.append(ScenarioParams(
            "rbo-tight", rate, SCENARIO_BURST,
            RBO_JITTER_NS + rng.randrange(1_000), 0, SCENARIO_EPS_NS, RBO_L_MAX,
        ))
    return out


# A constant-size flow whose rbo-tight window, 6400 B/s * 2 ms = 12.8 B past
# the burst, is not a whole number of packets: the generator rejects it by
# design, so this call must exit 1.
REJECTED_RBO_TIGHT = [
    "scenario", "rbo-tight", "--jitter", "3ms", "--rate", "6400",
    "--burst", "6400", "--l-min", "64", "--l-max", "64", "--eps", "1ms",
]
