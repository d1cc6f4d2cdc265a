"""Test-side inputs as the column-built ``Trace`` that ``simulate`` and the
metrics take: hand-written arrival maps, and ``PacketObservation`` records
read by the ``Fraction`` oracle."""

from reseqkit.metrics import Trace
from reseqkit.rational import INF

LOST = (INF, 1)  # a lost packet's size is never read


def arrival_trace(arrivals):
    """``{seq: (observe_time, size)}`` as a trace without emission times; a
    missing index up to the largest one is a lost packet."""
    cells = [arrivals.get(i, LOST) for i in range(1, max(arrivals, default=0) + 1)]
    return Trace([size for _, size in cells], None, [t for t, _ in cells])


def packets_trace(packets):
    """Records indexed 1..n in order, as the ``Trace`` of their columns."""
    assert [p.index for p in packets] == list(range(1, len(packets) + 1))
    emits = [p.emit_time for p in packets]
    return Trace([p.size for p in packets], None if None in emits else emits,
                 [p.observe_time for p in packets])


def source_trace(sizes, emits):
    """Packets of ``sizes`` emitted at ``emits``, as a trace that sees none
    of them arrive: every packet counts at the source, as ``check_conforms``
    counts them."""
    return Trace(sizes, emits, [INF] * len(sizes))
