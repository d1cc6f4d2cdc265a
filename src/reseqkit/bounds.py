"""Reordering bounds for single elements and element sequences, and the
delay/jitter effect of a re-sequencing buffer.

For one element with delay jitter V and entrance curve alpha, the late time
offset is at most ``[V - inv(2*l_min)]^+``: two packets can only swap if the
second one may be emitted within the jitter window, and ``inv(2*l_min)``
(``curves.min_spacing``) is the minimum spacing the curve allows between two
packets.  The byte offset is at most ``alpha(V) - l_min``: everything that
overtakes a packet was emitted within one jitter window alongside it.

Across a sequence, order-preserving prefixes are transparent to the late
time offset; from the first reordering element s onward the bound is
``head(s) + sum of downstream jitters`` (small early reordering is amplified
by any later per-flow-FIFO jitter).  For the byte offset only the
order-preserving suffix can be dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .curves import BYTES, PACKETS, Curve, min_spacing
from .rational import Rat

LOSSLESS = "lossless"
LOSSY = "lossy"


def _check_mode(mode: str) -> None:
    if mode not in (LOSSLESS, LOSSY):
        raise ValueError(f"unknown loss mode {mode!r}")


@dataclass(frozen=True)
class ElementBoundInput:
    """One network element seen by one flow: jitter plus entrance constraint."""

    jitter: Fraction
    entrance_curve: Optional[Curve] = None
    l_min: Optional[Fraction] = None
    l_max: Optional[Fraction] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "jitter", Fraction(self.jitter))
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")


def rto_bound_element(inp: ElementBoundInput) -> Fraction:
    """Late-time-offset bound ``[V - min_spacing]^+``; plain V when no curve
    is known."""
    if inp.entrance_curve is None:
        return inp.jitter
    out = inp.jitter - min_spacing(inp.entrance_curve, inp.l_min)
    return out if out > 0 else Fraction(0)


def rbo_bound_element(inp: ElementBoundInput) -> Fraction:
    """Byte-offset bound ``alpha(V) - l_min`` (or ``l_max*(a_pkt(V)-1)``),
    zero when the curve admits fewer than two packets per jitter window."""
    v = inp.jitter
    curve = inp.entrance_curve
    if curve is None:
        raise ValueError("RBO bound needs an entrance curve")
    if curve.unit == PACKETS:
        if inp.l_max is None:
            raise ValueError("packet-curve RBO bound needs l_max")
        count = curve.value(v)
        if count < 2:
            return Fraction(0)
        return Fraction(inp.l_max) * (Fraction(count) - 1)
    if inp.l_min is None:
        raise ValueError("byte-curve RBO bound needs l_min")
    l_min = Fraction(inp.l_min)
    volume = curve.value(v)
    if volume < 2 * l_min:
        return Fraction(0)
    return Fraction(volume) - l_min


def resequencer_delay_effect(mode: str, timeout: Rat) -> tuple[Rat, Rat]:
    """Added worst-case delay and jitter of a re-sequencing buffer whose
    timeout covers the upstream RTO: nothing when lossless, up to the
    timeout each when losses are possible.  The buffer's output curve is its
    input curve shifted by that jitter (``curves.shift_jitter``)."""
    _check_mode(mode)
    if mode == LOSSLESS:
        return Fraction(0), Fraction(0)
    return timeout, timeout


@dataclass(frozen=True)
class SequenceElement:
    """One stage of a path as seen by the sequence bounds.

    ``rto`` is an exported per-element bound when available (None = unknown).
    Order-preserving stages have rto 0 by definition.
    """

    jitter: Optional[Fraction]
    order_preserving: bool
    rto: Optional[Fraction] = None
    entrance_curve: Optional[Curve] = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.jitter is not None:
            object.__setattr__(self, "jitter", Fraction(self.jitter))
            if self.jitter < 0:
                raise ValueError("jitter must be >= 0")
        if self.rto is not None:
            object.__setattr__(self, "rto", Fraction(self.rto))
            if self.order_preserving and self.rto != 0:
                raise ValueError("order-preserving elements have zero RTO")
            if self.jitter is not None and self.rto > self.jitter:
                raise ValueError("per-element RTO cannot exceed its jitter")


@dataclass(frozen=True)
class SequenceRtoBound:
    value: Fraction
    head_index: Optional[int]  # 0-based index of the first reordering stage
    head_term: Fraction
    clamped: bool  # whether [.]^+ fired on the head term


def rto_bound_sequence(
    seq: Sequence[SequenceElement], l_min: Optional[Rat] = None
) -> SequenceRtoBound:
    """Late-time-offset bound over a stage sequence.

    Stages before the first potentially-reordering stage s are ignored.  The
    head term for s is the best available of: its exported RTO, its
    curve-based bound, its jitter.  Every stage after s contributes its full
    jitter.  All-order-preserving sequences give zero.
    """
    if not seq:
        raise ValueError("empty element sequence")
    s = None
    for i, el in enumerate(seq):
        if (el.rto is not None and el.rto > 0) or not el.order_preserving:
            s = i
            break
    if s is None:
        return SequenceRtoBound(Fraction(0), None, Fraction(0), False)

    head_el = seq[s]
    if head_el.jitter is None:
        raise ValueError(f"stage {s} needs a jitter bound")
    candidates = [head_el.jitter]
    if head_el.rto is not None:
        candidates.append(head_el.rto)
    if head_el.entrance_curve is not None:
        # Unclamped on purpose: a negative value means the curve already rules
        # out reordering at this stage, which we record via `clamped`.
        candidates.append(head_el.jitter - min_spacing(head_el.entrance_curve, l_min))
    head = min(candidates)
    clamped = head < 0
    if clamped:
        head = Fraction(0)
    total = head
    for i in range(s + 1, len(seq)):
        if seq[i].jitter is None:
            raise ValueError(f"stage {i} needs a jitter bound")
        total += seq[i].jitter
    return SequenceRtoBound(total, s, head, clamped)


def rbo_bound_sequence(
    seq: Sequence[SequenceElement], entry_curve: Curve, l_min: Rat
) -> Fraction:
    """Byte-offset bound over a stage sequence: one element bound with the
    jitters summed through the last non-order-preserving stage and the curve
    at the sequence entrance."""
    if entry_curve.unit != BYTES:
        raise ValueError("sequence RBO bound works on the byte-level curve")
    last = None
    for i, el in enumerate(seq):
        if not el.order_preserving:
            last = i
    if last is None:
        return Fraction(0)
    total_v = Fraction(0)
    for i in range(last + 1):
        if seq[i].jitter is None:
            raise ValueError(f"stage {i} needs a jitter bound")
        total_v += seq[i].jitter
    return rbo_bound_element(
        ElementBoundInput(total_v, entry_curve, Fraction(l_min))
    )
