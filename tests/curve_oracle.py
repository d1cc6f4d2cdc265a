"""Reference copy of the min-affine curve operations on raw piece sets.

These are ``MinAffineCurve.value``, ``MinAffineCurve.pseudo_inverse``,
``curves.min_curves`` and ``curves.horizontal_deviation`` as they were before
``MinAffineCurve`` kept only its lower-envelope pieces, kept as a differential
oracle.  They take a plain sequence of ``(rate, burst)`` pairs, so no
normalization runs: ``min_curves`` prunes pairwise-dominated pieces, and
``horizontal_deviation`` tries every pairwise crossing and evaluates the whole
curve there, O(k^3) for k pieces.  Only the tests use them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence, Tuple

from reseqkit.curves import InstabilityError, RateLatencyService
from reseqkit.rational import INF, Rat

Pieces = Sequence[Tuple[Fraction, Fraction]]


def is_inf(x: Rat) -> bool:
    """Whether x is +/-inf: this oracle's own test, apart from the code it checks."""
    return isinstance(x, float) and math.isinf(x)


def value(pieces: Pieces, t: Rat) -> Rat:
    """Curve value at t (0 at t = 0, min of the pieces for t > 0)."""
    if is_inf(t):
        return INF
    t = Fraction(t)
    if t < 0:
        raise ValueError("curves are defined on t >= 0")
    if t == 0:
        return Fraction(0)
    return min(r * t + b for r, b in pieces)


def pseudo_inverse(pieces: Pieces, x: Rat) -> Rat:
    """inf{s >= 0 | value(s) >= x}: the max over per-piece [(x-b)/r]^+."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("pseudo-inverse is defined on x >= 0")
    if x == 0:
        return Fraction(0)
    best = Fraction(0)
    for r, b in pieces:
        cand = (x - b) / r
        if cand > best:
            best = cand
    return best


def min_curves(a: Pieces, b: Pieces) -> List[Tuple[Fraction, Fraction]]:
    """Pieces of the pointwise minimum: the union of both piece sets, with
    pairwise-dominated pieces pruned (pruning never changes values)."""
    pieces = set(a) | set(b)
    kept = [
        p
        for p in pieces
        if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in pieces)
    ]
    return sorted(kept)


def horizontal_deviation(pieces: Pieces, service: RateLatencyService) -> Fraction:
    """Worst-case delay of a FIFO element: latency + sup_t(alpha(t) - R*t)/R.

    For a concave min-affine alpha the sup is attained as t -> 0+ or at a
    breakpoint between pieces; all pairwise intersections are candidates.
    """
    if min(r for r, _ in pieces) > service.rate:
        raise InstabilityError(
            "arrival rate exceeds service rate; backlog grows without bound"
        )
    best = min(b for _, b in pieces)  # t -> 0+
    pieces = sorted(set(pieces))  # the old constructor's normalization
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            (r1, b1), (r2, b2) = pieces[i], pieces[j]
            if r1 == r2:
                continue
            t = (b2 - b1) / (r1 - r2)
            if t <= 0:
                continue
            v = value(pieces, t) - service.rate * t
            if v > best:
                best = v
    if best < 0:
        best = Fraction(0)
    return service.latency + best / service.rate
