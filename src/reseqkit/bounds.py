"""Reordering bounds for single elements and element sequences, and the
delay/jitter effect of a re-sequencing buffer.

For one element with delay jitter V and entrance curve alpha, the late time
offset is at most ``[V - inv(2*l_min)]^+``: two packets can only swap if the
second one may be emitted within the jitter window, and ``inv(2*l_min)``
(``curves.min_spacing``) is the minimum spacing the curve allows between two
packets.  The byte offset is at most ``alpha(V) - l_min``: everything that
overtakes a packet was emitted within one jitter window alongside it.

A path is a sequence of stages; ``rto`` None marks one that preserves order.
``rto_bound_element`` builds each stage that may reorder, with the head term
above as its ``rto`` and whether ``[.]^+`` fired as ``clamped``.  The late
time offset of a sequence is ``rto(s) + sum of downstream jitters`` from the
first reordering stage s on (small early reordering is amplified by any
later per-flow-FIFO jitter); the byte offset drops only the order-preserving
suffix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .curves import BYTES, Curve, min_spacing
from .rational import Rat, exact, exact_sum, finite

LOSSLESS = "lossless"
LOSSY = "lossy"


@dataclass(frozen=True)
class SequenceElement:
    """One stage of a path: its jitter and, for a stage that may reorder,
    its head term ``rto`` and whether the clamp fired on it."""

    jitter: Fraction
    rto: Optional[Fraction] = None
    clamped: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "jitter", finite(self.jitter))
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")
        if self.rto is not None:
            object.__setattr__(self, "rto", finite(self.rto))
            if not 0 <= self.rto <= self.jitter:
                raise ValueError("a stage's RTO lies between 0 and its jitter")

    @classmethod
    def _of(cls, jitter: Fraction, rto: Optional[Fraction] = None,
            clamped: bool = False) -> "SequenceElement":
        """A stage of values its caller derived itself: nothing is checked."""
        stage = cls.__new__(cls)
        vars(stage).update(jitter=jitter, rto=rto, clamped=clamped)  # frozen fields
        return stage


def rto_bound_element(jitter: Rat, curve: Curve, l_min: Rat) -> SequenceElement:
    """The stage of an element that may reorder: jitter V and late-time-offset
    bound ``[V - min_spacing(curve, l_min)]^+``."""
    jitter = finite(jitter)
    if jitter < 0:
        raise ValueError("jitter must be >= 0")
    return reordering_stage(jitter, min_spacing(curve, l_min))


def reordering_stage(jitter: Fraction, spacing: Fraction) -> SequenceElement:
    """``rto_bound_element`` of a jitter V >= 0 and the ``spacing`` that
    ``min_spacing`` gives, both taken as given."""
    head = jitter - spacing
    clamped = head.numerator < 0
    return SequenceElement._of(jitter, Fraction(0) if clamped else head, clamped)


def rbo_bound_element(jitter: Rat, curve: Curve, l_min: Rat) -> Fraction:
    """Byte-offset bound ``alpha(V) - l_min``, zero when the byte curve admits
    fewer than two minimal packets per jitter window."""
    if curve.unit != BYTES:
        raise ValueError("the RBO bound works on the byte-level curve")
    l_min = finite(l_min)
    beyond = curve.value(finite(jitter)) - l_min
    return beyond if beyond >= l_min else Fraction(0)


def resequencer_delay_effect(mode: str, timeout: Rat) -> tuple[Rat, Rat]:
    """Added worst-case delay and jitter of a re-sequencing buffer whose
    timeout covers the upstream RTO: nothing when lossless, up to the
    timeout each when losses are possible.  The buffer's output curve is its
    input curve shifted by that jitter (``curves.shift_jitter``)."""
    if mode not in (LOSSLESS, LOSSY):
        raise ValueError(f"unknown loss mode {mode!r}")
    timeout = exact(timeout)
    return (timeout, timeout) if mode == LOSSY else (Fraction(0), Fraction(0))


@dataclass(frozen=True)
class SequenceRtoBound:
    value: Fraction
    head_index: Optional[int]  # 0-based index of the first reordering stage
    head_term: Fraction
    clamped: bool  # whether [.]^+ fired on the head term


def rto_bound_sequence(seq: Sequence[SequenceElement]) -> SequenceRtoBound:
    """Late-time-offset bound over a stage sequence: the head term of the
    first stage that may reorder plus the full jitter of every stage after
    it.  An empty or all-order-preserving sequence gives zero."""
    for s, head in enumerate(seq):
        if head.rto is not None:
            total = exact_sum([head.rto, *[el.jitter for el in seq[s + 1:]]])
            return SequenceRtoBound(total, s, head.rto, head.clamped)
    return SequenceRtoBound(Fraction(0), None, Fraction(0), False)


def rbo_bound_sequence(
    seq: Sequence[SequenceElement], entry_curve: Curve, l_min: Rat
) -> Fraction:
    """Byte-offset bound over a stage sequence: one element bound with the
    jitters summed through the last stage that may reorder and the curve at
    the sequence entrance."""
    last = max((s for s, el in enumerate(seq) if el.rto is not None), default=None)
    if last is None:
        return Fraction(0)
    return rbo_bound_element(exact_sum([el.jitter for el in seq[:last + 1]]),
                             entry_curve, l_min)
