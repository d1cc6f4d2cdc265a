"""Reference copy of the min-affine curve kernels on ``Fraction`` pieces.

These are the lower envelope, ``shift_jitter``, ``min_curves`` and
``horizontal_deviation`` as they were before ``MinAffineCurve`` kept its
pieces as integer ticks: every piece a pair of Fractions, and each kernel
O(k) ``Fraction`` operations for k pieces.  They take and return envelopes
as tuples of ``(rate, burst)`` Fraction pairs, sorted by rate.  The value
and the pseudo-inverse are ``curve_oracle.value`` and
``curve_oracle.pseudo_inverse``, the same scans.  Kept as a differential
oracle for the integer kernels; only the tests use it.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import merge
from typing import Iterable, List, Tuple

from reseqkit.curves import InstabilityError, RateLatencyService

Envelope = Tuple[Tuple[Fraction, Fraction], ...]


def lower_envelope(pieces: Iterable[Tuple[Fraction, Fraction]]) -> Envelope:
    """The pieces that are the minimum on some interval of t > 0, by one
    stack pass over ``pieces`` sorted by rate, then burst."""
    hull: List[Tuple[Fraction, Fraction]] = []
    for r, b in pieces:
        if hull and b >= hull[-1][1]:
            continue
        while len(hull) > 1:
            (r0, b0), (r1, b1) = hull[-2:]
            if (b1 - b) * (r1 - r0) < (b0 - b1) * (r - r1):
                break
            hull.pop()
        hull.append((r, b))
    return tuple(hull)


def envelope(pieces: Iterable[Tuple[Fraction, Fraction]]) -> Envelope:
    """What the constructor kept of raw pieces."""
    return lower_envelope(sorted((Fraction(r), Fraction(b)) for r, b in pieces))


def shift_jitter(pieces: Envelope, v: Fraction) -> Envelope:
    """alpha(t + V): each piece (r, b) becomes (r, b + r*V), after dropping
    the fastest pieces whose breakpoint with their slower neighbour is at
    most V."""
    if v < 0:
        raise ValueError("jitter must be >= 0")
    if v == 0:
        return pieces
    keep = len(pieces)
    while keep > 1:
        (r_slow, b_slow), (r_fast, b_fast) = pieces[keep - 2], pieces[keep - 1]
        if b_slow - b_fast > v * (r_fast - r_slow):
            break
        keep -= 1
    return tuple((r, b + r * v) for r, b in pieces[:keep])


def min_curves(a: Envelope, b: Envelope) -> Envelope:
    """Lower envelope of the merged pieces of two envelopes."""
    return lower_envelope(merge(a, b))


def horizontal_deviation(pieces: Envelope, service: RateLatencyService) -> Fraction:
    """latency + sup_t(alpha(t) - R*t)/R over t -> 0+ and every breakpoint."""
    if pieces[0][0] > service.rate:
        raise InstabilityError(
            "arrival rate exceeds service rate; backlog grows without bound"
        )
    best = pieces[-1][1]
    for (r_slow, b_slow), (r_fast, b_fast) in zip(pieces, pieces[1:]):
        t = (b_slow - b_fast) / (r_fast - r_slow)
        best = max(best, r_slow * t + b_slow - service.rate * t)
    return service.latency + best / service.rate

