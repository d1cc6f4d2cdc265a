"""Reference copy of the stage-sequence bounds with two head-term sources.

These are ``bounds.SequenceElement``, ``rto_bound_sequence``,
``rbo_bound_sequence`` and ``rbo_bound_element`` (with its input record
``ElementBoundInput``) as they were before a stage carried its own head term.
Here a stage says whether it preserves order, and ``rto_bound_sequence``
computes the head term itself, as the least of the head stage's jitter, its
exported RTO and its curve bound ``V - min_spacing(entrance_curve)``, with
the ``[.]^+`` clamp applied afterwards.  Kept as a differential oracle for the
path walk; only the tests use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from reseqkit.curves import BYTES, PACKETS, Curve, min_spacing
from reseqkit.rational import Rat


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
