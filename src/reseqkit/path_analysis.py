"""End-to-end analysis of one flow path.

The path is an ordered list of elements, each of which contributes a delay
range and a jitter and transforms the flow's arrival curve:

* ``fifo_service``: an output port with a rate-latency guarantee.  Its worst
  delay is the horizontal deviation between the entrance curve and the
  service curve; its output curve is the entrance curve advanced by the
  service latency, capped by the line rate plus one maximal packet.
* ``fabric``: a parallel-stage switching fabric with a delay in
  [d_min, d_max]; the only non-order-preserving element.
* ``order_preserving_fixed``: any per-flow-FIFO stage with a delay range.
* ``resequencer``: restores sequence order.  Its timeout is the computed
  RTO bound of the segment since the previous re-sequencer (auto mode) or a
  user-supplied value; its size comes from the lossless RBO bound or the
  lossy curve window.  Under lossless operation it is free; under lossy
  operation it adds its timeout to both worst-case delay and jitter and
  widens the curve accordingly.

Reports carry exact rationals; rounding happens only in the renderers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import bounds
from .bounds import LOSSLESS, LOSSY, SequenceElement
from .curves import (
    Curve,
    FlowSpec,
    MinAffineCurve,
    RateLatencyService,
    curve_from_json,
    horizontal_deviation,
    leaky_bucket,
    min_curves,
    shift_jitter,
)
from .rational import (
    Rat,
    floor_int,
    fmt_rat,
    is_inf,
    parse_rat,
    seconds_to_us_display,
)
from .resequencer import required_buffer


class PathConfigError(ValueError):
    """Invalid path description."""


@dataclass(frozen=True)
class FifoServiceElement:
    id: str
    service: RateLatencyService
    min_delay: Optional[Fraction] = None  # default: l_min / rate

    kind = "fifo_service"
    order_preserving = True


@dataclass(frozen=True)
class FabricElement:
    id: str
    d_min: Fraction
    d_max: Fraction

    kind = "fabric"
    order_preserving = False

    def __post_init__(self) -> None:
        _check_delay_range(self.d_min, self.d_max)


@dataclass(frozen=True)
class FixedDelayElement:
    id: str
    d_min: Fraction
    d_max: Fraction

    kind = "order_preserving_fixed"
    order_preserving = True

    def __post_init__(self) -> None:
        _check_delay_range(self.d_min, self.d_max)


@dataclass(frozen=True)
class ResequencerElement:
    id: str
    mode: str = "auto"  # auto | explicit
    timeout: Optional[Rat] = None
    capacity: Optional[Rat] = None

    kind = "resequencer"
    order_preserving = True

    def __post_init__(self) -> None:
        if self.mode not in ("auto", "explicit"):
            raise PathConfigError(f"unknown re-sequencer mode {self.mode!r}")
        if self.mode == "explicit" and self.timeout is None:
            raise PathConfigError("explicit re-sequencer needs a timeout")


def _check_delay_range(d_min, d_max) -> None:
    if Fraction(d_min) < 0 or Fraction(d_max) < Fraction(d_min):
        raise PathConfigError("need 0 <= d_min <= d_max")


PathElement = (
    FifoServiceElement | FabricElement | FixedDelayElement | ResequencerElement
)


@dataclass(frozen=True)
class PathSpec:
    flow: FlowSpec
    elements: Tuple[PathElement, ...]
    loss_mode: str = LOSSY

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))
        if not self.elements:
            raise PathConfigError("path needs at least one element")
        if self.loss_mode not in (LOSSLESS, LOSSY):
            raise PathConfigError(f"unknown loss mode {self.loss_mode!r}")
        ids = [e.id for e in self.elements]
        if len(set(ids)) != len(ids):
            raise PathConfigError("element ids must be unique")
        for a, b in zip(self.elements, self.elements[1:]):
            if a.kind == "resequencer" and b.kind == "resequencer":
                raise PathConfigError(
                    "two adjacent re-sequencers serve the same upstream segment"
                )
        if not isinstance(self.flow.source_curve, MinAffineCurve):
            raise PathConfigError(
                "path propagation needs a min-affine source curve; "
                "replace staircase sources by an affine upper bound"
            )


@dataclass(frozen=True)
class ElementReport:
    element_id: str
    kind: str
    d_min: Fraction
    d_max: Fraction
    jitter: Fraction
    rto_bound: Optional[Fraction]  # fabric elements only
    output_curve: Curve
    post_queue_curve: Optional[Curve] = None  # fifo: before the line shaper


@dataclass(frozen=True)
class ResequencerReport:
    element_id: str
    upstream_rto: Fraction
    timeout: Rat
    required_buffer_exact: Rat
    buffer_size: int  # packet-sum floor of the exact bound
    unsafe_timeout: bool
    output_curve: Curve


@dataclass(frozen=True)
class AnalysisReport:
    loss_mode: str
    elements: Tuple[ElementReport, ...]
    resequencers: Tuple[ResequencerReport, ...]
    e2e_delay: Fraction
    e2e_min_delay: Fraction
    e2e_jitter: Fraction
    destination_curve: Curve
    baseline_delay: Fraction
    baseline_jitter: Fraction
    warnings: Tuple[str, ...]

    @property
    def delta_delay(self) -> Fraction:
        return self.e2e_delay - self.baseline_delay

    @property
    def delta_jitter(self) -> Fraction:
        return self.e2e_jitter - self.baseline_jitter


def analyze_path(path: PathSpec) -> AnalysisReport:
    """Walk the path once, propagating the arrival curve and accumulating
    delay, jitter and re-sequencer parameters; then attach baseline deltas
    (a path without re-sequencers is its own baseline)."""
    main = _walk(path)
    if any(e.kind == "resequencer" for e in path.elements):
        base_delay, base_jitter = baseline(path)
        return replace(main, baseline_delay=base_delay, baseline_jitter=base_jitter)
    return main


def baseline(path: PathSpec) -> Tuple[Fraction, Fraction]:
    """(worst-case delay, jitter) of the same path with no re-sequencing."""
    kept = tuple(e for e in path.elements if e.kind != "resequencer")
    if not kept:
        raise PathConfigError("path contains only re-sequencers")
    rep = _walk(replace(path, elements=kept))
    return rep.e2e_delay, rep.e2e_jitter


def _walk(path: PathSpec) -> AnalysisReport:
    flow = path.flow
    lossy = path.loss_mode == LOSSY
    curve = flow.source_curve
    elements: List[ElementReport] = []
    reseqs: List[ResequencerReport] = []
    warnings: List[str] = []

    segment: List[SequenceElement] = []  # since the previous re-sequencer
    whole: List[SequenceElement] = []  # since the source, for RBO sizing
    total_delay = Fraction(0)
    total_min_delay = Fraction(0)
    total_jitter = Fraction(0)

    for el in path.elements:
        entrance = curve
        if el.kind == "fifo_service":
            svc = el.service
            d_max = horizontal_deviation(curve, svc)
            d_min = (
                Fraction(el.min_delay)
                if el.min_delay is not None
                else flow.l_min / svc.rate
            )
            if d_min > d_max:
                raise PathConfigError(
                    f"{el.id}: minimum delay exceeds the worst-case bound"
                )
            jitter = d_max - d_min
            post_queue = shift_jitter(curve, svc.latency)
            curve = min_curves(
                post_queue, leaky_bucket(svc.rate, flow.l_max, curve.unit)
            )
            stage = SequenceElement(
                jitter, True, Fraction(0), entrance, el.id
            )
            elements.append(
                ElementReport(
                    el.id, el.kind, d_min, d_max, jitter, None, curve, post_queue
                )
            )
        elif el.kind in ("fabric", "order_preserving_fixed"):
            d_min, d_max = Fraction(el.d_min), Fraction(el.d_max)
            jitter = d_max - d_min
            curve = shift_jitter(curve, jitter)
            if el.kind == "fabric":
                lam = bounds.rto_bound_element(
                    bounds.ElementBoundInput(jitter, entrance, flow.l_min)
                )
                stage = SequenceElement(jitter, False, lam, entrance, el.id)
            else:
                lam = None
                stage = SequenceElement(jitter, True, Fraction(0), entrance, el.id)
            elements.append(
                ElementReport(el.id, el.kind, d_min, d_max, jitter, lam, curve)
            )
        elif el.kind == "resequencer":
            upstream = bounds.rto_bound_sequence(
                segment, flow.l_min
            ).value if segment else Fraction(0)
            timeout: Rat
            if el.mode == "auto":
                timeout = upstream  # the timeout that never discards is the RTO
            else:
                timeout = (
                    el.timeout if is_inf(el.timeout) else Fraction(el.timeout)
                )
            unsafe = timeout < upstream
            if unsafe:
                warnings.append(
                    f"{el.id}: explicit timeout {fmt_rat(timeout)} s is below "
                    f"the upstream RTO bound {fmt_rat(upstream)} s; "
                    "packets may be discarded"
                )
            if lossy:
                if is_inf(timeout):
                    raise PathConfigError(
                        f"{el.id}: infinite timeout gives unbounded delay in lossy mode"
                    )
                req = required_buffer(
                    LOSSY,
                    curve=flow.source_curve,
                    jitter=total_jitter,
                    timeout=timeout,
                )
            else:
                req = bounds.rbo_bound_sequence(
                    whole, flow.source_curve, flow.l_min
                )
            size = floor_int(flow.reachable_floor(req))
            if el.capacity is not None and not is_inf(el.capacity):
                if Fraction(el.capacity) < size:
                    warnings.append(
                        f"{el.id}: configured capacity {fmt_rat(el.capacity)} B "
                        f"is below the required size {size} B"
                    )
            delay, jitter = bounds.resequencer_delay_effect(path.loss_mode, timeout)
            total_delay += delay
            total_jitter += jitter
            if jitter > 0:
                curve = shift_jitter(curve, jitter)
            reseqs.append(
                ResequencerReport(el.id, upstream, timeout, req, size, unsafe, curve)
            )
            stage = SequenceElement(jitter, True, Fraction(0), entrance, el.id)
            segment = []
            whole.append(stage)
            continue
        else:  # pragma: no cover - exhaustive over PathElement
            raise PathConfigError(f"unknown element kind {el.kind!r}")

        total_delay += d_max
        total_min_delay += d_min
        total_jitter += jitter
        segment.append(stage)
        whole.append(stage)

    return AnalysisReport(
        loss_mode=path.loss_mode,
        elements=tuple(elements),
        resequencers=tuple(reseqs),
        e2e_delay=total_delay,
        e2e_min_delay=total_min_delay,
        e2e_jitter=total_jitter,
        destination_curve=curve,
        baseline_delay=total_delay,
        baseline_jitter=total_jitter,
        warnings=tuple(warnings),
    )


# -- placement comparison ----------------------------------------------------


@dataclass(frozen=True)
class PlacementRow:
    strategy: str
    loss_mode: str
    timeouts: Tuple[Tuple[str, Rat], ...]  # (resequencer id, T)
    buffer_sizes: Tuple[Tuple[str, int], ...]
    e2e_delay: Fraction
    e2e_jitter: Fraction
    delta_delay: Fraction
    delta_jitter: Fraction


def insert_resequencers(
    base: PathSpec, after_ids: Sequence[str], mode: str = "auto"
) -> PathSpec:
    """New path with an auto re-sequencer inserted after each named element."""
    missing = set(after_ids) - {e.id for e in base.elements}
    if missing:
        raise PathConfigError(f"unknown elements: {sorted(missing)}")
    out: List[PathElement] = []
    for el in base.elements:
        out.append(el)
        if el.id in after_ids:
            out.append(ResequencerElement(id=f"{el.id}.reseq", mode=mode))
    return replace(base, elements=tuple(out))


def compare_placements(
    base: PathSpec,
    placements: Dict[str, Sequence[str]],
    loss_modes: Sequence[str] = (LOSSLESS, LOSSY),
) -> List[PlacementRow]:
    """Analyze each placement strategy under each loss mode.

    ``base`` must not contain re-sequencers; each strategy names the elements
    after which one is inserted.  Deltas are against the no-re-sequencing
    baseline, whose delay and jitter do not depend on the loss mode.
    """
    if any(e.kind == "resequencer" for e in base.elements):
        raise PathConfigError("the comparison baseline must have no re-sequencers")
    base_delay, base_jitter = baseline(base)
    rows: List[PlacementRow] = []
    for name, after_ids in placements.items():
        placed = insert_resequencers(base, after_ids)
        for mode in loss_modes:
            rep = analyze_path(replace(placed, loss_mode=mode))
            rows.append(
                PlacementRow(
                    strategy=name,
                    loss_mode=mode,
                    timeouts=tuple((r.element_id, r.timeout) for r in rep.resequencers),
                    buffer_sizes=tuple(
                        (r.element_id, r.buffer_size) for r in rep.resequencers
                    ),
                    e2e_delay=rep.e2e_delay,
                    e2e_jitter=rep.e2e_jitter,
                    delta_delay=rep.e2e_delay - base_delay,
                    delta_jitter=rep.e2e_jitter - base_jitter,
                )
            )
    return rows


# -- JSON config and report rendering ----------------------------------------


def _typed(value, kind: type, what: str):
    """``value`` when it has the JSON type ``kind`` (dict or list)."""
    if not isinstance(value, kind):
        name = "an object" if kind is dict else "a list"
        raise PathConfigError(f"{what} must be {name}")
    return value


def flow_from_json(obj: dict) -> FlowSpec:
    obj = _typed(obj, dict, "flow")
    curve = _typed(obj["curve"], dict, "flow curve")
    for piece in _typed(curve.get("pieces", []), list, "curve pieces"):
        _typed(piece, dict, "curve piece")
    return FlowSpec(
        source_curve=curve_from_json(curve),
        l_min=Fraction(parse_rat(obj["l_min"])),
        l_max=Fraction(parse_rat(obj["l_max"])),
    )


def element_from_json(obj: dict) -> PathElement:
    obj = _typed(obj, dict, "element")
    kind = obj.get("kind")
    eid = obj.get("id")
    if not eid:
        raise PathConfigError("every element needs an id")
    if kind == "fifo_service":
        svc = RateLatencyService(
            Fraction(parse_rat(obj["rate_Bps"])), Fraction(parse_rat(obj["latency_s"]))
        )
        min_delay = (
            Fraction(parse_rat(obj["min_delay_s"])) if "min_delay_s" in obj else None
        )
        return FifoServiceElement(eid, svc, min_delay)
    if kind in ("fabric", "order_preserving_fixed"):
        d_min = Fraction(parse_rat(obj["d_min_s"]))
        d_max = Fraction(parse_rat(obj["d_max_s"]))
        cls = FabricElement if kind == "fabric" else FixedDelayElement
        return cls(eid, d_min, d_max)
    if kind == "resequencer":
        mode = obj.get("mode", "auto")
        timeout = parse_rat(obj["timeout_s"]) if "timeout_s" in obj else None
        capacity = parse_rat(obj["buffer_bytes"]) if "buffer_bytes" in obj else None
        return ResequencerElement(eid, mode, timeout, capacity)
    raise PathConfigError(f"unknown element kind {kind!r}")


def path_from_json(obj: dict) -> PathSpec:
    try:
        obj = _typed(obj, dict, "path config")
        flow = flow_from_json(obj["flow"])
        elements = tuple(
            element_from_json(e) for e in _typed(obj["elements"], list, "elements")
        )
        loss_mode = obj.get("loss_mode", LOSSY)
    except KeyError as exc:
        raise PathConfigError(f"missing config key: {exc}") from exc
    return PathSpec(flow, elements, loss_mode)


def load_path(path_or_text: str, from_text: bool = False) -> PathSpec:
    if from_text:
        return path_from_json(json.loads(path_or_text))
    with open(path_or_text, "r", encoding="utf-8") as fh:
        return path_from_json(json.load(fh))


def report_to_json(rep: AnalysisReport) -> dict:
    """Exact-rational JSON form of a report (strings preserve exactness)."""
    return {
        "loss_mode": rep.loss_mode,
        "elements": [
            {
                "id": e.element_id,
                "kind": e.kind,
                "d_min_s": fmt_rat(e.d_min),
                "d_max_s": fmt_rat(e.d_max),
                "jitter_s": fmt_rat(e.jitter),
                **(
                    {"rto_bound_s": fmt_rat(e.rto_bound)}
                    if e.rto_bound is not None
                    else {}
                ),
                "output_curve": e.output_curve.to_json(),
                **(
                    {"queue_output_curve": e.post_queue_curve.to_json()}
                    if e.post_queue_curve is not None
                    else {}
                ),
            }
            for e in rep.elements
        ],
        "resequencers": [
            {
                "id": r.element_id,
                "upstream_rto_s": fmt_rat(r.upstream_rto),
                "timeout_s": fmt_rat(r.timeout),
                "required_buffer_bytes_exact": fmt_rat(r.required_buffer_exact),
                "buffer_size_bytes": r.buffer_size,
                "unsafe_timeout": r.unsafe_timeout,
                "output_curve": r.output_curve.to_json(),
            }
            for r in rep.resequencers
        ],
        "e2e": {
            "delay_s": fmt_rat(rep.e2e_delay),
            "min_delay_s": fmt_rat(rep.e2e_min_delay),
            "jitter_s": fmt_rat(rep.e2e_jitter),
            "delay_us_display": seconds_to_us_display(rep.e2e_delay),
            "jitter_us_display": seconds_to_us_display(rep.e2e_jitter),
        },
        "baseline": {
            "delay_s": fmt_rat(rep.baseline_delay),
            "jitter_s": fmt_rat(rep.baseline_jitter),
            "delta_delay_s": fmt_rat(rep.delta_delay),
            "delta_jitter_s": fmt_rat(rep.delta_jitter),
        },
        "destination_curve": rep.destination_curve.to_json(),
        "warnings": list(rep.warnings),
    }


def render_report_table(rep: AnalysisReport) -> str:
    """Aligned text rendering; times in microseconds, sizes in bytes."""
    rows = [("element", "kind", "d_min us", "d_max us", "jitter us", "rto us")]
    for e in rep.elements:
        rows.append(
            (
                e.element_id,
                e.kind,
                seconds_to_us_display(e.d_min),
                seconds_to_us_display(e.d_max),
                seconds_to_us_display(e.jitter),
                seconds_to_us_display(e.rto_bound) if e.rto_bound is not None else "-",
            )
        )
    lines = _align_rows(rows)
    if rep.resequencers:
        lines.append("")
        rrows = [("re-sequencer", "upstream rto us", "timeout us", "size B")]
        for r in rep.resequencers:
            rrows.append(
                (
                    r.element_id,
                    seconds_to_us_display(r.upstream_rto),
                    seconds_to_us_display(r.timeout),
                    str(r.buffer_size),
                )
            )
        lines.extend(_align_rows(rrows))
    lines.append("")
    lines.append(
        f"e2e delay {seconds_to_us_display(rep.e2e_delay)} us, "
        f"jitter {seconds_to_us_display(rep.e2e_jitter)} us "
        f"({rep.loss_mode}); baseline {seconds_to_us_display(rep.baseline_delay)}"
        f"/{seconds_to_us_display(rep.baseline_jitter)} us"
    )
    for w in rep.warnings:
        lines.append(f"warning: {w}")
    return "\n".join(lines)


def _align_rows(rows: Sequence[Tuple[str, ...]]) -> List[str]:
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    return [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rows
    ]
