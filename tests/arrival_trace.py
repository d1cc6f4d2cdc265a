"""Hand-written arrival maps as the ``Trace`` that ``simulate`` takes."""

from reseqkit.metrics import PacketObservation, Trace
from reseqkit.rational import INF

LOST = (INF, 1)  # a lost packet's size is never read


def arrival_trace(arrivals):
    """``{seq: (observe_time, size)}`` as a trace without emission times; a
    missing index up to the largest one is a lost packet."""
    return Trace(tuple(
        PacketObservation(i, size, None, t)
        for i in range(1, max(arrivals, default=0) + 1)
        for t, size in [arrivals.get(i, LOST)]
    ))
