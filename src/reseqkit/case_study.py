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
and lossy operation; ``run_case_study()`` recomputes everything, compares
every value exactly with its reference, and reports each one that differs
with both values written out exactly.
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
    compare_placements,
)
from .rational import exact, fmt_rat, seconds_to_us_display

US = Fraction(1, 10**6)


def automotive_base_path() -> PathSpec:
    """``configs/automotive_only_h2.json`` without its re-sequencer, lossy."""
    service = RateLatencyService("125e6", "12e-6")
    return PathSpec(
        FlowSpec(leaky_bucket(6400, 6400), 64, 64),
        (
            FifoServiceElement("h1.fifo", service),
            FabricElement("S1.fabric", "0.5e-6", "2e-6"),
            FifoServiceElement("S1.fifo", service),
            FabricElement("S2.fabric", "0.5e-6", "2e-6"),
            FifoServiceElement("S2.fifo", service),
        ),
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
    return exact(x) * US


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


@dataclass(frozen=True)
class CaseStudyResult:
    reports: Dict[str, Dict[str, AnalysisReport]]  # placement -> mode -> report
    mismatches: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def run_case_study() -> CaseStudyResult:
    """Analyze all four placements under both loss modes and compare each
    report against the embedded reference values."""
    reports = compare_placements(automotive_base_path(), PLACEMENTS)
    mismatches = tuple(
        m for name, by_mode in reports.items()
        for mode, rep in by_mode.items() for m in _check_one(name, mode, rep)
    )
    return CaseStudyResult(reports, mismatches)


def _check_one(name: str, mode: str, rep: AnalysisReport) -> List[str]:
    ref = REFERENCE[name]
    delay, jitter, size = (
        (ref.delay_lossless, ref.jitter_lossless, ref.buffer_lossless)
        if mode == LOSSLESS else (ref.delay_lossy, ref.jitter_lossy, ref.buffer_lossy)
    )
    timeouts = {r.element_id: r.timeout for r in rep.resequencers}
    # (what, got, want, unit); got is None for a re-sequencer the report lacks
    rows = [("delay", rep.e2e_delay, delay, "s"), ("jitter", rep.e2e_jitter, jitter, "s")]
    rows += [(f"timeout[{rid}]" if rid in timeouts else rid, timeouts.get(rid), want, "s")
             for rid, want in ref.timeouts]
    rows += [(f"size[{r.element_id}]", r.buffer_size, size, "B") for r in rep.resequencers]
    out: List[str] = []
    for what, got, want, unit in rows:
        if got is None:
            out.append(f"{name}/{mode}: missing re-sequencer {what}")
        elif got != want:
            out.append(
                f"{name}/{mode}: {what} {fmt_rat(got)} {unit}, "
                f"expected {fmt_rat(want)} {unit}"
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
