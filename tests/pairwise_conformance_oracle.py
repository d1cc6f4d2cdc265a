"""Reference copy of the pairwise arrival-curve conformance check.

This is ``reseqkit.curves.check_conforms`` as it was before the per-piece
token-bucket passes, kept as a differential oracle.  It tests every pair
m <= n against the curve's pseudo-inverse, O(n^2) pseudo-inverse calls.  The
loops run n-outer so that the witness is the first non-conforming packet n
and, for that n, the smallest violating m.  Only the tests use it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from reseqkit.curves import PACKETS, Conformance, Curve
from reseqkit.rational import Rat


def check_conforms(
    emit_times: Sequence[Rat], sizes: Sequence[Rat], curve: Curve
) -> Conformance:
    """For every pair m <= n the emission gap must satisfy
    ``A_n - A_m >= inv(sum of sizes m..n)`` (byte curves) or
    ``A_n - A_m >= inv(n - m + 1)`` (packet curves)."""
    times = [Fraction(t) for t in emit_times]
    if any(times[i] > times[i + 1] for i in range(len(times) - 1)):
        raise ValueError("emission times must be wide-sense increasing")
    by_packets = curve.unit == PACKETS
    for n in range(len(times)):
        acc = Fraction(0)
        witness = None
        for m in range(n, -1, -1):  # accumulate sizes m..n backwards
            acc += Fraction(sizes[m])
            need = curve.pseudo_inverse(n - m + 1 if by_packets else acc)
            gap = times[n] - times[m]
            if gap < need:
                witness = Conformance(False, m + 1, n + 1, Fraction(need), gap)
        if witness is not None:
            return witness
    return Conformance(True)
