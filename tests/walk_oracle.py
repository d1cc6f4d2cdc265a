"""Reference copy of the path walk as it was before it summed on ticks.

This is ``path_analysis.analyze_both`` and ``_walk`` with their ``Fraction``
sums, kept as a differential oracle: each stage's delays, jitters and
re-sequencer window are ``Fraction`` arithmetic, the line shaper is built
at every FIFO port of every walk, every stage record goes through the
validating ``SequenceElement`` constructor, and each upstream RTO is the
head term plus the ``Fraction`` sum of the later jitters.  It reuses the
report records and the curve kernels, not the walk's sums.  Only the tests
use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, List

from reseqkit.bounds import LOSSLESS, LOSSY, SequenceElement, rbo_bound_element
from reseqkit.curves import (
    MinAffineCurve,
    backlog_bound,
    horizontal_deviation,
    leaky_bucket,
    min_curves,
    min_spacing,
    shift_jitter,
)
from reseqkit.path_analysis import (
    AnalysisReport,
    ElementReport,
    PathConfigError,
    PathSpec,
    ResequencerReport,
)
from reseqkit.rational import INF, fmt_rat


def analyze_both(path: PathSpec) -> Dict[str, AnalysisReport]:
    """Reports of ``path`` lossless then lossy, each walked from the source."""
    lossless = _walk(path, LOSSLESS).report(LOSSLESS)
    lossy = replace(_walk(path, LOSSY).report(LOSSY),
                    baseline_delay=lossless.e2e_delay,
                    baseline_jitter=lossless.e2e_jitter)
    return {LOSSLESS: lossless, LOSSY: lossy}


@dataclass
class _Walk:
    curve: MinAffineCurve
    elements: List[ElementReport] = field(default_factory=list)
    reseqs: List[ResequencerReport] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    since: int = 0
    reordering: Fraction = Fraction(0)
    total_delay: Fraction = Fraction(0)
    total_min_delay: Fraction = Fraction(0)

    def report(self, loss_mode: str) -> AnalysisReport:
        jitter = self.total_delay - self.total_min_delay
        return AnalysisReport(loss_mode, tuple(self.elements), tuple(self.reseqs),
                              self.total_delay, self.total_min_delay, jitter,
                              self.curve, self.total_delay, jitter,
                              tuple(self.warnings))


def _upstream_rto(stages: List[SequenceElement]) -> Fraction:
    for s, head in enumerate(stages):
        if head.rto is not None:
            total = head.rto
            for el in stages[s + 1:]:
                total += el.jitter
            return total
    return Fraction(0)


def _walk(path: PathSpec, loss_mode: str) -> _Walk:
    flow = path.flow
    walk = _Walk(flow.source_curve)
    for el in path.elements:
        curve = walk.curve
        if el.kind == "fifo_service":
            svc = el.service
            d_max = horizontal_deviation(curve, svc)
            d_min = el.min_delay if el.min_delay is not None else flow.l_min / svc.rate
            if d_min > d_max:
                raise PathConfigError(
                    f"{el.id}: minimum delay exceeds the worst-case bound")
            post_queue = shift_jitter(curve, svc.latency)
            curve = min_curves(post_queue,
                               leaky_bucket(svc.rate, flow.l_max, curve.unit))
            walk.elements.append(ElementReport(
                el.id, el.kind, d_min, d_max, SequenceElement(d_max - d_min), curve,
                post_queue))
        elif el.kind in ("fabric", "order_preserving_fixed"):
            d_min, d_max = el.d_min, el.d_max
            jitter = d_max - d_min
            if el.kind == "fabric":
                head = jitter - min_spacing(curve, flow.l_min)
                stage = SequenceElement(jitter, max(head, Fraction(0)), head < 0)
            else:
                stage = SequenceElement(jitter)
            curve = shift_jitter(curve, jitter)
            walk.elements.append(
                ElementReport(el.id, el.kind, d_min, d_max, stage, curve))
        else:
            upstream = _upstream_rto([e.stage for e in walk.elements[walk.since:]])
            timeout = upstream if el.mode == "auto" else el.timeout
            unsafe = timeout < upstream
            if unsafe:
                walk.warnings.append(
                    f"{el.id}: explicit timeout {fmt_rat(timeout)} s is below "
                    f"the upstream RTO bound {fmt_rat(upstream)} s; "
                    "packets may be discarded")
            if loss_mode == LOSSY:
                if timeout is INF:
                    raise PathConfigError(
                        f"{el.id}: infinite timeout gives unbounded delay in lossy mode")
                window = walk.total_delay - walk.total_min_delay + timeout
                req = backlog_bound(flow.source_curve, window)
            else:
                req = rbo_bound_element(walk.reordering, flow.source_curve, flow.l_min)
            size = math.floor(flow.reachable_floor(req))
            if el.capacity is not None and el.capacity < size:
                walk.warnings.append(
                    f"{el.id}: configured capacity {fmt_rat(el.capacity)} B "
                    f"is below the required size {size} B")
            d_min = Fraction(0)
            d_max = jitter = timeout if loss_mode == LOSSY else Fraction(0)
            curve = shift_jitter(curve, jitter)
            walk.reseqs.append(
                ResequencerReport(el.id, upstream, timeout, req, size, unsafe, curve))
            walk.since = len(walk.elements)
        walk.curve = curve
        walk.total_delay += d_max
        walk.total_min_delay += d_min
        if el.kind == "fabric":
            walk.reordering = walk.total_delay - walk.total_min_delay
    return walk
