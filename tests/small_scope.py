"""Small-scope exhaustive inputs for the re-sequencing buffer.

Every small input is enumerated rather than drawn (the small scope
hypothesis: most faults show on some small input).  Times sit on an
integer grid, so an arrival often lands on a timer's deadline, where the
event rules live; exact arithmetic makes each check an equality.  The scope
is a parameter: the tier-1 slice runs up to 4 packets.  Only the tests use
this module.
"""

from fractions import Fraction
from itertools import permutations, product

from reseqkit.rational import INF

#: Sizes of packet 1, 2, ...: all 1 B, and 2 B, 1 B alternating.
SIZE_PATTERNS = ((1,), (2, 1))


def buffer_traces(max_packets, grid=None):
    """Every ``{seq: (observe_time, size)}`` of 1 to ``max_packets`` packets:
    each loss pattern, each assignment of distinct times from ``range(grid)``
    (``max_packets`` points by default) to the packets that arrive, and each
    size pattern.  A lost packet has time INF."""
    grid = max_packets if grid is None else grid
    for n in range(1, max_packets + 1):
        for pattern in SIZE_PATTERNS:
            sizes = [Fraction(pattern[i % len(pattern)]) for i in range(n)]
            for lost in product((False, True), repeat=n):
                arriving = [i for i in range(n) if not lost[i]]
                for times in permutations(range(grid), len(arriving)):
                    observe = [INF] * n
                    for i, t in zip(arriving, times):
                        observe[i] = Fraction(t)
                    yield {i + 1: (observe[i], sizes[i]) for i in range(n)}


def buffer_configs(arrivals, grid):
    """``(timeout, capacity)`` pairs: timeouts 0 to ``grid`` and INF, with
    capacities 0 to twice the packet count in bytes and INF."""
    timeouts = [Fraction(t) for t in range(grid + 1)] + [INF]
    capacities = [Fraction(b) for b in range(2 * len(arrivals) + 1)] + [INF]
    return product(timeouts, capacities)
