"""End-to-end analysis of one flow path.

The path is an ordered list of stages, each with a delay range [d_min, d_max]
(jitter d_max - d_min) and a transform of the flow's arrival curve:

* ``fifo_service``: an output port with a rate-latency guarantee.  Its worst
  delay is the horizontal deviation between the entrance curve and the
  service curve; its output curve is the entrance curve advanced by the
  service latency, capped by the line rate plus one maximal packet.
* ``fabric``: a parallel-stage switching fabric with a delay in
  [d_min, d_max]; the only non-order-preserving element.
* ``order_preserving_fixed``: any per-flow-FIFO stage with a delay range.
* ``resequencer``: restores sequence order.  Its timeout T is the RTO bound
  of the segment since the previous re-sequencer (auto mode) or a
  user-supplied value.  Its size is the sequence RBO bound from the source
  when lossless, and ``backlog_bound`` of the source curve over the jitter
  so far plus T when lossy.  Sized, it is an order-preserving stage with
  delay range [0, 0] lossless and [0, T] lossy; the curve shifts by its jitter.

Each element's report keeps the ``bounds.SequenceElement`` the walk builds
for it as ``stage``: its jitter and, for a fabric only, its RTO bound
``[jitter - min_spacing]^+`` and whether that clamp fired.  A re-sequencer's
upstream RTO is ``bounds.rto_bound_sequence`` of the stages reported since
the previous one; ``scenarios.gen_amplified_rto_chain`` takes those records.

Lossless re-sequencing is free: a [0, 0] stage leaves the curve unchanged,
so the lossless walk's totals are the baseline, the same path without
re-sequencers, against which both loss modes report their deltas.  A walk is
linear in the path length: each RTO bound sees only its own segment, and
each lossless size is the element RBO bound at the jitter through the last
fabric, a jitter so far being the delay sum minus the minimum-delay sum.
The loss mode is first read at a re-sequencer, so ``analyze_both`` walks the
stages before the first one once and forks the walk's state (``_Walk``)
there into the lossless and the lossy walk of the rest.  The curve kernels
run on integer ticks (see ``curves``), and so do the walk's sums: the
delay, the jitter and that through the last fabric are one tick column on
a base grown only by a new denominator (``rational.add_ticks``).  What no
walk changes is built once per call: a FIFO port's ``l_min / rate`` and
line shaper, one per rate, ``2*l_min``, and a delay range's jitter.

Reports carry exact rationals; rounding happens only in the renderers.
``report_to_json`` writes a report's JSON text straight from its records,
laid out as ``json.dumps`` with ``indent=2`` lays it out, and writes a
record that several reports share once per memo.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Dict, List, Optional, Sequence, Tuple

from . import bounds
from .bounds import LOSSLESS, LOSSY, SequenceElement
from .curves import (
    Curve,
    CurveError,
    FlowSpec,
    MinAffineCurve,
    RateLatencyService,
    backlog_bound,
    curve_from_json,
    horizontal_deviation,
    json_object,
    leaky_bucket,
    min_curves,
    shift_jitter,
)
from .rational import INF, Rat, add_ticks, exact, finite, fmt_rat, seconds_to_us_display


class PathConfigError(ValueError):
    """Invalid path description."""


@dataclass(frozen=True)
class FifoServiceElement:
    id: str
    service: RateLatencyService
    min_delay: Optional[Fraction] = None  # default: l_min / rate

    kind = "fifo_service"

    def __post_init__(self) -> None:
        if self.min_delay is None:
            return
        object.__setattr__(self, "min_delay", finite(self.min_delay))
        if self.min_delay < 0:
            raise PathConfigError(
                f"{self.id}: min_delay_s {fmt_rat(self.min_delay)} is negative"
            )


@dataclass(frozen=True)
class _DelayRange:
    """A stage with the delay range [d_min, d_max]; its subclasses differ
    only in ``kind``."""

    id: str
    d_min: Fraction
    d_max: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "d_min", finite(self.d_min))
        object.__setattr__(self, "d_max", finite(self.d_max))
        if self.d_min < 0 or self.d_max < self.d_min:
            raise PathConfigError(f"{self.id}: need 0 <= d_min <= d_max")
        object.__setattr__(self, "jitter", self.d_max - self.d_min)  # not a field


class FabricElement(_DelayRange):
    kind = "fabric"


class FixedDelayElement(_DelayRange):
    kind = "order_preserving_fixed"


@dataclass(frozen=True)
class ResequencerElement:
    id: str
    mode: str = "auto"  # auto | explicit
    timeout: Optional[Rat] = None
    capacity: Optional[Rat] = None

    kind = "resequencer"

    def __post_init__(self) -> None:
        for name in ("timeout", "capacity"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, exact(getattr(self, name)))
        if self.mode not in ("auto", "explicit"):
            raise PathConfigError(f"{self.id}: unknown re-sequencer mode {self.mode!r}")
        if self.mode == "explicit" and self.timeout is None:
            raise PathConfigError(f"{self.id}: explicit re-sequencer needs a timeout")
        if self.mode == "auto" and self.timeout is not None:
            raise PathConfigError(
                f"{self.id}: timeout_s is read only in explicit mode; "
                "an auto re-sequencer takes its upstream RTO bound"
            )
        for name, value in (("timeout_s", self.timeout),
                            ("buffer_bytes", self.capacity)):
            if value is not None and value < 0:
                raise PathConfigError(
                    f"{self.id}: {name} {fmt_rat(value)} is negative"
                )


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
        if all(e.kind == "resequencer" for e in self.elements):
            raise PathConfigError("path contains only re-sequencers")
        if self.loss_mode not in (LOSSLESS, LOSSY):
            raise PathConfigError(f"unknown loss mode {self.loss_mode!r}")
        ids = [e.id for e in self.elements]
        if len(set(ids)) != len(ids):
            repeated = next(eid for n, eid in enumerate(ids) if eid in ids[:n])
            raise PathConfigError(f"element id {repeated!r} is not unique")
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
    stage: SequenceElement  # its jitter; a fabric's RTO bound and clamp
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
    """Report of the path in its own loss mode.  A walk propagates the
    arrival curve and accumulates delay, jitter and re-sequencer parameters
    in time linear in the path length.  A lossless path, or one without
    re-sequencers, is walked once and is its own baseline; a lossy path with
    re-sequencers is ``analyze_both(path)[LOSSY]``."""
    if path.loss_mode == LOSSY and any(
        e.kind == "resequencer" for e in path.elements
    ):
        return analyze_both(path)[LOSSY]
    return _walk(path, path.loss_mode, _Walk(path.flow.source_curve),
                 path.elements).report(path.loss_mode)


def analyze_both(path: PathSpec) -> Dict[str, AnalysisReport]:
    """Reports of ``path`` lossless then lossy.

    The loss modes differ only from the first re-sequencer on, so the
    stages before it are walked once and the walk forks there.  A lossless
    re-sequencer is a [0, 0] stage that leaves the curve as it is, so the
    lossless walk's totals are those of the path without re-sequencing:
    they are the baseline of both reports."""
    elements = path.elements
    first = next((i for i, e in enumerate(elements) if e.kind == "resequencer"),
                 len(elements))
    # no stage before the first re-sequencer reads the loss mode
    prefix = _walk(path, LOSSLESS, _Walk(path.flow.source_curve), elements[:first])
    lossy_start = prefix.fork()
    lossless = _walk(path, LOSSLESS, prefix, elements[first:]).report(LOSSLESS)
    lossy = _walk(path, LOSSY, lossy_start, elements[first:]).report(LOSSY, lossless)
    return {LOSSLESS: lossless, LOSSY: lossy}


@dataclass
class _Walk:
    """The state of a walk after some stages: the curve and the sums so
    far, and the reports.  ``fork`` copies it where the loss modes part."""

    curve: MinAffineCurve
    elements: List[ElementReport] = field(default_factory=list)
    reseqs: List[ResequencerReport] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    since: int = 0  # elements[since:] came after the last re-sequencer
    den: int = 1  # ticks: the delay, the jitter and that through the last fabric
    ticks: List[int] = field(default_factory=lambda: [0, 0, 0])
    # built once per call and shared by the forks: 2*l_min and, by FIFO
    # rate, l_min / rate and the line shaper
    pair: Optional[Fraction] = None
    shapers: Dict[Tuple[int, int], Tuple[Fraction, MinAffineCurve]] = field(
        default_factory=dict)

    def fork(self) -> "_Walk":
        return replace(self, elements=self.elements[:], reseqs=self.reseqs[:],
                       warnings=self.warnings[:], ticks=self.ticks[:])

    def report(self, loss_mode: str,
               baseline: Optional[AnalysisReport] = None) -> AnalysisReport:
        (delay, jitter, _), den = self.ticks, self.den
        total, spread = Fraction(delay, den), Fraction(jitter, den)
        return AnalysisReport(
            loss_mode=loss_mode,
            elements=tuple(self.elements),
            resequencers=tuple(self.reseqs),
            e2e_delay=total,
            e2e_min_delay=Fraction(delay - jitter, den),
            e2e_jitter=spread,
            destination_curve=self.curve,
            baseline_delay=baseline.e2e_delay if baseline else total,
            baseline_jitter=baseline.e2e_jitter if baseline else spread,
            warnings=tuple(self.warnings),
        )


def _walk(path: PathSpec, loss_mode: str, walk: _Walk,
          stages: Sequence[PathElement]) -> _Walk:
    """``walk`` carried on through ``stages`` in ``loss_mode``."""
    flow = path.flow
    lossy = loss_mode == LOSSY
    if walk.pair is None:
        walk.pair = flow.l_min * 2
    den, ticks = walk.den, walk.ticks
    for el in stages:
        curve = walk.curve
        if el.kind == "fifo_service":
            svc = el.service
            rate = svc.rate.numerator, svc.rate.denominator  # hashed faster than a Fraction
            shaper = walk.shapers.get(rate)
            if shaper is None:
                shaper = walk.shapers[rate] = (
                    flow.l_min / svc.rate, leaky_bucket(svc.rate, flow.l_max, curve.unit))
            d_max = horizontal_deviation(curve, svc)
            d_min = el.min_delay if el.min_delay is not None else shaper[0]
            jitter = d_max - d_min
            if jitter.numerator < 0:
                raise PathConfigError(
                    f"{el.id}: minimum delay exceeds the worst-case bound"
                )
            post_queue = shift_jitter(curve, svc.latency)
            curve = min_curves(post_queue, shaper[1])
            walk.elements.append(ElementReport(
                el.id, el.kind, d_min, d_max, SequenceElement._of(jitter), curve,
                post_queue))
        elif el.kind in ("fabric", "order_preserving_fixed"):
            d_max, jitter = el.d_max, el.jitter
            stage = (
                # min_spacing of the byte curve, with 2*l_min made once
                bounds.reordering_stage(jitter, curve.pseudo_inverse(walk.pair))
                if el.kind == "fabric"
                else SequenceElement._of(jitter)
            )
            curve = shift_jitter(curve, jitter)
            walk.elements.append(
                ElementReport(el.id, el.kind, el.d_min, d_max, stage, curve))
        elif el.kind == "resequencer":
            upstream = bounds.rto_bound_sequence(
                [e.stage for e in walk.elements[walk.since:]]).value
            # in auto mode, the timeout that never discards: the RTO
            timeout: Rat = upstream if el.mode == "auto" else el.timeout
            unsafe = el.mode == "explicit" and timeout < upstream
            if unsafe:
                walk.warnings.append(
                    f"{el.id}: explicit timeout {fmt_rat(timeout)} s is below "
                    f"the upstream RTO bound {fmt_rat(upstream)} s; "
                    "packets may be discarded"
                )
            if lossy:
                if timeout is INF:
                    raise PathConfigError(
                        f"{el.id}: infinite timeout gives unbounded delay in lossy mode"
                    )
                window = ticks[1:2]  # the jitter so far, plus the timeout
                window_den = add_ticks(den, window, timeout)
                req = backlog_bound(flow.source_curve, Fraction(window[0], window_den))
            else:
                req = bounds.rbo_bound_element(Fraction(ticks[2], den), flow.source_curve,
                                               flow.l_min)
            size = math.floor(flow.reachable_floor(req))
            if el.capacity is not None and el.capacity < size:
                walk.warnings.append(
                    f"{el.id}: configured capacity {fmt_rat(el.capacity)} B "
                    f"is below the required size {size} B"
                )
            # now an order-preserving stage, delay [0, d_max]
            d_max, jitter = bounds.resequencer_delay_effect(loss_mode, timeout)
            curve = shift_jitter(curve, jitter)
            walk.reseqs.append(
                ResequencerReport(el.id, upstream, timeout, req, size, unsafe, curve)
            )
            walk.since = len(walk.elements)
        else:  # pragma: no cover - exhaustive over PathElement
            raise PathConfigError(f"unknown element kind {el.kind!r}")

        walk.curve = curve
        den = add_ticks(den, ticks, d_max, jitter)
        if el.kind == "fabric":
            ticks[2] = ticks[1]
    walk.den = den
    return walk


# -- placement comparison ----------------------------------------------------


def insert_resequencers(base: PathSpec, after_ids: Sequence[str]) -> PathSpec:
    """New path with an auto re-sequencer inserted after each named element."""
    missing = set(after_ids) - {e.id for e in base.elements}
    if missing:
        raise PathConfigError(f"unknown elements: {sorted(missing)}")
    out: List[PathElement] = []
    for el in base.elements:
        out.append(el)
        if el.id in after_ids:
            out.append(ResequencerElement(id=f"{el.id}.reseq"))
    return replace(base, elements=tuple(out))


def compare_placements(
    base: PathSpec, placements: Dict[str, Sequence[str]]
) -> Dict[str, Dict[str, AnalysisReport]]:
    """Report of each placement strategy, lossless then lossy, keyed by
    placement (in the order given) and then by loss mode.

    ``base`` must not contain re-sequencers; each strategy names the elements
    after which one is inserted.  Every report's deltas are against ``base``,
    the no-re-sequencing baseline of each placement.
    """
    if any(e.kind == "resequencer" for e in base.elements):
        raise PathConfigError("the comparison baseline must have no re-sequencers")
    out: Dict[str, Dict[str, AnalysisReport]] = {}
    for name, after_ids in placements.items():
        placed = insert_resequencers(base, after_ids)
        out[name] = analyze_both(placed)
    return out


# -- JSON config and report rendering ----------------------------------------


def flow_from_json(obj: dict) -> FlowSpec:
    json_object(obj, "flow", PathConfigError, ("curve", "l_min", "l_max"))
    return FlowSpec(curve_from_json(obj["curve"]), obj["l_min"], obj["l_max"])


def element_from_json(obj: dict) -> PathElement:
    if not isinstance(obj, dict):
        raise PathConfigError("element must be an object")
    kind = obj.get("kind")
    eid = obj.get("id")
    if not eid:
        raise PathConfigError("every element needs an id")
    if not isinstance(eid, str):
        raise PathConfigError(f"element id {json.dumps(eid)} is not a string")
    what = f"element {eid!r}"
    if kind == "fifo_service":
        json_object(obj, what, PathConfigError, ("id", "kind", "rate_Bps", "latency_s"),
                    ("min_delay_s",))
        try:
            svc = RateLatencyService(obj["rate_Bps"], obj["latency_s"])
        except CurveError as exc:
            raise PathConfigError(f"{eid}: {exc}") from exc
        # optional keys are parsed here, so that a JSON null is refused,
        # not read as absent
        min_delay = finite(obj["min_delay_s"]) if "min_delay_s" in obj else None
        return FifoServiceElement(eid, svc, min_delay)
    if kind in ("fabric", "order_preserving_fixed"):
        json_object(obj, what, PathConfigError, ("id", "kind", "d_min_s", "d_max_s"))
        cls = FabricElement if kind == "fabric" else FixedDelayElement
        return cls(eid, obj["d_min_s"], obj["d_max_s"])
    if kind == "resequencer":
        json_object(obj, what, PathConfigError, ("id", "kind"),
                    ("mode", "timeout_s", "buffer_bytes"))
        timeout = exact(obj["timeout_s"]) if "timeout_s" in obj else None
        capacity = exact(obj["buffer_bytes"]) if "buffer_bytes" in obj else None
        return ResequencerElement(eid, obj.get("mode", "auto"), timeout, capacity)
    raise PathConfigError(f"unknown element kind {kind!r}")


def path_from_json(obj: dict) -> PathSpec:
    json_object(obj, "path config", PathConfigError, ("flow", "elements"), ("loss_mode",))
    try:
        flow = flow_from_json(obj["flow"])
        if not isinstance(obj["elements"], list):
            raise PathConfigError("elements must be a list")
        elements = tuple(map(element_from_json, obj["elements"]))
    except CurveError as exc:
        raise PathConfigError(str(exc)) from exc
    return PathSpec(flow, elements, obj.get("loss_mode", LOSSY))


def load_json(path: str):
    """The value in the JSON file ``path``: the one reader of reseqkit's
    JSON inputs.  Nesting deeper than the parser recurses is an input
    error, not a traceback."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def load_path(path: str) -> PathSpec:
    return path_from_json(load_json(path))


class JsonText(str):
    """JSON text laid out as ``json.dumps`` with ``indent=2`` lays it out at
    its depth; ``cli``'s writer writes it as it is."""


def report_to_json(rep: AnalysisReport, depth: int = 0,
                   memo: Optional[Dict[int, str]] = None) -> JsonText:
    """A report's exact-rational JSON text (strings keep exactness): what
    ``json.dumps`` with ``indent=2`` writes for its object at ``depth``.
    An element record or a curve is written once per ``memo``, keyed by its
    identity: the reports of ``analyze_both`` share the records before the
    first re-sequencer, and a destination curve is the last stage's.  A
    memo must not outlive the reports that filled it."""
    memo = {} if memo is None else memo
    d = depth + 1
    return JsonText(json_container([
        f'"loss_mode": {encode_basestring_ascii(rep.loss_mode)}',
        '"elements": ' + json_container(
            [_once(memo, e, d + 1, _element_text) for e in rep.elements], d),
        '"resequencers": ' + json_container([json_container([
            f'"id": {encode_basestring_ascii(r.element_id)}',
            f'"upstream_rto_s": "{fmt_rat(r.upstream_rto)}"',
            f'"timeout_s": "{fmt_rat(r.timeout)}"',
            f'"required_buffer_bytes_exact": "{fmt_rat(r.required_buffer_exact)}"',
            f'"buffer_size_bytes": {r.buffer_size}',
            f'"unsafe_timeout": {"true" if r.unsafe_timeout else "false"}',
            f'"output_curve": {_once(memo, r.output_curve, d + 2)}',
        ], d + 1, "{}") for r in rep.resequencers], d),
        '"e2e": ' + json_container([
            f'"delay_s": "{fmt_rat(rep.e2e_delay)}"',
            f'"min_delay_s": "{fmt_rat(rep.e2e_min_delay)}"',
            f'"jitter_s": "{fmt_rat(rep.e2e_jitter)}"',
            f'"delay_us_display": "{seconds_to_us_display(rep.e2e_delay)}"',
            f'"jitter_us_display": "{seconds_to_us_display(rep.e2e_jitter)}"',
        ], d, "{}"),
        '"baseline": ' + json_container([
            f'"delay_s": "{fmt_rat(rep.baseline_delay)}"',
            f'"jitter_s": "{fmt_rat(rep.baseline_jitter)}"',
            f'"delta_delay_s": "{fmt_rat(rep.delta_delay)}"',
            f'"delta_jitter_s": "{fmt_rat(rep.delta_jitter)}"',
        ], d, "{}"),
        f'"destination_curve": {_once(memo, rep.destination_curve, d)}',
        '"warnings": ' + json_container(list(map(encode_basestring_ascii, rep.warnings)), d),
    ], depth, "{}"))


def json_container(items: List[str], depth: int, brackets: str = "[]") -> str:
    """The JSON array of the JSON texts ``items`` or, with ``brackets``
    ``"{}"``, the object of its ``"key": text`` members, laid out as
    ``json.dumps`` with ``indent=2`` lays it out at ``depth``."""
    if not items:
        return brackets
    ind = "\n" + "  " * depth
    return f"{brackets[0]}{ind}  " + f",{ind}  ".join(items) + ind + brackets[1]


def _once(memo: Dict[int, str], record, depth: int, write=None) -> str:
    """A record's text at depth 0, by ``write(record, memo)`` or a curve's
    ``to_json``, written once per memo and indented for ``depth``."""
    text = memo.get(id(record))
    if text is None:
        text = memo[id(record)] = write(record, memo) if write else record.to_json()
    return text.replace("\n", "\n" + "  " * depth)


def _element_text(e: ElementReport, memo: Dict[int, str]) -> str:
    rto, queue = e.stage.rto, e.post_queue_curve
    return json_container([
        f'"id": {encode_basestring_ascii(e.element_id)}', f'"kind": "{e.kind}"',
        f'"d_min_s": "{fmt_rat(e.d_min)}"', f'"d_max_s": "{fmt_rat(e.d_max)}"',
        f'"jitter_s": "{fmt_rat(e.stage.jitter)}"',
        *([f'"rto_bound_s": "{fmt_rat(rto)}"'] if rto is not None else []),
        f'"output_curve": {_once(memo, e.output_curve, 1)}',
        *([f'"queue_output_curve": {_once(memo, queue, 1)}'] if queue is not None else []),
    ], 0, "{}")


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
                seconds_to_us_display(e.stage.jitter),
                seconds_to_us_display(e.stage.rto) if e.stage.rto is not None else "-",
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
