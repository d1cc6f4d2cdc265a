"""Test-side reading of reseqkit's per-packet tick columns as the
``{index: value}`` maps that the ``Fraction`` oracles return."""

from fractions import Fraction

from reseqkit.rational import INF


def tick_map(ticks, den):
    """``{n: ticks[n - 1] / den}`` for every packet n, INF staying INF."""
    return {n: t if t is INF else Fraction(t, den) for n, t in enumerate(ticks, start=1)}


def departures(outcome):
    """A ``ResequencerOutcome``'s departures as ``{seq: time}``."""
    return tick_map(outcome.departure_ticks, outcome.time_den)


def offsets(result):
    """An ``OffsetResult`` as ``(value, {n: offset})``, the map holding the
    delivered packets only."""
    return result.value, {n: x for n, x in tick_map(result.ticks, result.den).items()
                          if x is not INF}
