"""Built-in automotive double-star case study, usable as a regression check.

One highest-priority control flow crosses two switches: the source output
port, the first switch's fabric and output port, the second switch's fabric
and output port, then the destination host.  Links run at 1 Gb/s; each port
guarantees 125e6 B/s after a 12 us latency; fabrics delay packets between
0.5 us and 2 us and may reorder.  The flow is a 6400 B/s, 6400 B leaky
bucket of constant 64 B packets.

Four re-sequencer placements are compared: destination only, edge switch
only, first switch plus destination, and both switches.  The module embeds
the reference results (exact rationals) for all placements under lossless
and lossy operation; ``run_case_study(check=True)`` recomputes everything
and fails on any mismatch beyond the display tolerances (0.005 us on times,
1 byte on sizes).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .bounds import LOSSLESS, LOSSY
from .curves import FlowSpec, RateLatencyService, leaky_bucket
from .path_analysis import (
    AnalysisReport,
    FabricElement,
    FifoServiceElement,
    PathSpec,
    _align_rows,
    analyze_path,
    insert_resequencers,
)
from .rational import Rat, seconds_to_us_display

US = Fraction(1, 10**6)

LINK_RATE = Fraction(125_000_000)  # bytes/s (1 Gb/s)
PORT_LATENCY = 12 * US
FABRIC_MIN = Fraction(1, 2) * US
FABRIC_MAX = 2 * US
PACKET = Fraction(64)


def automotive_flow() -> FlowSpec:
    return FlowSpec(leaky_bucket(6400, 6400), l_min=PACKET, l_max=PACKET)


def automotive_base_path(loss_mode: str = LOSSY) -> PathSpec:
    service = RateLatencyService(LINK_RATE, PORT_LATENCY)
    return PathSpec(
        flow=automotive_flow(),
        elements=(
            FifoServiceElement("h1.fifo", service),
            FabricElement("S1.fabric", FABRIC_MIN, FABRIC_MAX),
            FifoServiceElement("S1.fifo", service),
            FabricElement("S2.fabric", FABRIC_MIN, FABRIC_MAX),
            FifoServiceElement("S2.fifo", service),
        ),
        loss_mode=loss_mode,
    )


#: placement name -> elements after which a re-sequencer is inserted
PLACEMENTS: Dict[str, Tuple[str, ...]] = {
    "only at h2": ("S2.fifo",),
    "only at S2": ("S2.fabric",),
    "at S1 and h2": ("S1.fabric", "S2.fifo"),
    "at S1 and S2": ("S1.fabric", "S2.fabric"),
}


@dataclass(frozen=True)
class Reference:
    """Expected results for one placement (times in seconds, exact)."""

    delay_lossless: Fraction
    jitter_lossless: Fraction
    delay_lossy: Fraction
    jitter_lossy: Fraction
    timeouts: Tuple[Tuple[str, Fraction], ...]
    buffer_lossless: int
    buffer_lossy: int


def _us(x: str) -> Fraction:
    return Fraction(x) * US


# Derived once from the element parameters above and frozen; every value is
# exact.  Shared intermediates: the source-port delay bound is 63.2 us with
# 0.512 us minimum (one 64 B transmission), switch-port bounds are 14.012 us
# (burst 251.5 B over 125 B/us after the 12 us latency), and the first
# fabric's reordering offset is 1.5 us of jitter minus the 0.512 us minimum
# spacing of two packets, 0.988 us.
REFERENCE: Dict[str, Reference] = {
    "only at h2": Reference(
        _us("95.224"), _us("92.688"),
        _us("124.712"), _us("122.176"),
        (("S2.fifo.reseq", _us("29.488")),),
        6336, 6400,
    ),
    "only at S2": Reference(
        _us("95.224"), _us("92.688"),
        _us("127.2"), _us("124.664"),
        (("S2.fabric.reseq", _us("15.988")),),
        6336, 6400,
    ),
    "at S1 and h2": Reference(
        _us("95.224"), _us("92.688"),
        _us("111.688"), _us("109.152"),
        (("S1.fabric.reseq", _us("0.988")), ("S2.fifo.reseq", _us("14.488"))),
        6336, 6400,
    ),
    "at S1 and S2": Reference(
        _us("95.224"), _us("92.688"),
        _us("99.176"), _us("96.64"),
        (("S1.fabric.reseq", _us("0.988")), ("S2.fabric.reseq", _us("0.988"))),
        6336, 6400,
    ),
}

TIME_TOLERANCE = _us("0.005")
BYTE_TOLERANCE = 1


@dataclass(frozen=True)
class CaseStudyResult:
    reports: Dict[str, Dict[str, AnalysisReport]]  # placement -> mode -> report
    mismatches: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def run_case_study(check: bool = False) -> CaseStudyResult:
    """Analyze all four placements under both loss modes; optionally compare
    against the embedded reference values."""
    reports: Dict[str, Dict[str, AnalysisReport]] = {}
    mismatches: List[str] = []
    for name, after in PLACEMENTS.items():
        placed = insert_resequencers(automotive_base_path(), list(after))
        reports[name] = {}
        for mode in (LOSSLESS, LOSSY):
            rep = analyze_path(
                PathSpec(placed.flow, placed.elements, loss_mode=mode)
            )
            reports[name][mode] = rep
            if check:
                mismatches.extend(_check_one(name, mode, rep))
    return CaseStudyResult(reports, tuple(mismatches))


def _check_one(name: str, mode: str, rep: AnalysisReport) -> List[str]:
    ref = REFERENCE[name]
    exp_delay = ref.delay_lossless if mode == LOSSLESS else ref.delay_lossy
    exp_jitter = ref.jitter_lossless if mode == LOSSLESS else ref.jitter_lossy
    exp_buffer = ref.buffer_lossless if mode == LOSSLESS else ref.buffer_lossy
    out: List[str] = []

    def close(a: Rat, b: Fraction) -> bool:
        return abs(Fraction(a) - b) <= TIME_TOLERANCE

    if not close(rep.e2e_delay, exp_delay):
        out.append(
            f"{name}/{mode}: delay {seconds_to_us_display(rep.e2e_delay)} us, "
            f"expected {seconds_to_us_display(exp_delay)} us"
        )
    if not close(rep.e2e_jitter, exp_jitter):
        out.append(
            f"{name}/{mode}: jitter {seconds_to_us_display(rep.e2e_jitter)} us, "
            f"expected {seconds_to_us_display(exp_jitter)} us"
        )
    got_timeouts = {r.element_id: r.timeout for r in rep.resequencers}
    for rid, exp_t in ref.timeouts:
        if rid not in got_timeouts:
            out.append(f"{name}/{mode}: missing re-sequencer {rid}")
        elif not close(got_timeouts[rid], exp_t):
            out.append(
                f"{name}/{mode}: timeout[{rid}] "
                f"{seconds_to_us_display(got_timeouts[rid])} us, "
                f"expected {seconds_to_us_display(exp_t)} us"
            )
    for r in rep.resequencers:
        if abs(r.buffer_size - exp_buffer) > BYTE_TOLERANCE:
            out.append(
                f"{name}/{mode}: size[{r.element_id}] {r.buffer_size} B, "
                f"expected {exp_buffer} B"
            )
    return out


def render_case_study(result: CaseStudyResult, check: bool = False) -> str:
    """Two aligned tables: delay/jitter per placement and mode, then the
    per-re-sequencer timeout and size block."""
    lines: List[str] = []
    head = (
        "placement", "lossless delay", "lossless jitter", "lossy delay",
        "lossy jitter",
    )
    rows = [head]
    for name, by_mode in result.reports.items():
        rows.append(
            (
                name,
                seconds_to_us_display(by_mode[LOSSLESS].e2e_delay),
                seconds_to_us_display(by_mode[LOSSLESS].e2e_jitter),
                seconds_to_us_display(by_mode[LOSSY].e2e_delay),
                seconds_to_us_display(by_mode[LOSSY].e2e_jitter),
            )
        )
    lines.extend(_align_rows(rows))
    lines.append("")
    lines.append("times in us")
    lines.append("")
    rows = [("placement", "re-sequencer", "timeout us", "lossless B", "lossy B")]
    for name, by_mode in result.reports.items():
        lossless_sizes = {
            r.element_id: r.buffer_size for r in by_mode[LOSSLESS].resequencers
        }
        for r in by_mode[LOSSY].resequencers:
            rows.append(
                (
                    name,
                    r.element_id,
                    seconds_to_us_display(r.timeout),
                    str(lossless_sizes[r.element_id]),
                    str(r.buffer_size),
                )
            )
    lines.extend(_align_rows(rows))
    if check:
        lines.append("")
        if result.ok:
            lines.append("check: all values match the embedded references")
        else:
            lines.append("check: MISMATCH")
            lines.extend(f"  {m}" for m in result.mismatches)
    return "\n".join(lines)
