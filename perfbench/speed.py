"""Host speed probe that the end-to-end times are scaled by.

On a small shared VM the host's speed drifts by up to 2x over seconds to
minutes as other tenants come and go, while a run lasts 30 s, so raw
wall-clock rates of two runs of the same code can differ by half.  The
probe is a fixed job of the same kind as the program's work (CSV parsing
into Fractions, a sorted-insert sweep, a JSON dump, a scan of a deadline
table) in benchmark code that never changes with the program.  Timed
between the calls, it measures the host's speed at that moment; a call's
time is scaled by ``REFERENCE_S / probe time``, i.e. to a host that runs
the probe in ``REFERENCE_S``.  A slower program stays slower after scaling;
a slower host does not.  The program's code speeds up less than the probe
when the host runs fast, so scaling over-corrects there: calls timed
outside the usual band are left out when some repeat of the same input
fell inside it.
"""

from __future__ import annotations

import csv
import io
import json
import random
from fractions import Fraction
from time import perf_counter
from typing import List, Sequence, Tuple

import inputs
import reference

# The probe's usual duration on a 2-vCPU x86 VM (Python 3.11), and the band
# of probe times, as a factor either side of it, that counts as usual.
REFERENCE_S = 0.090
USUAL_BAND = 1.3
EVERY_S = 1.0  # probe again once this much time has passed

_CSV = inputs.shallow_capture(1_000, random.Random(0)).csv()
_DEADLINES = {i: Fraction(i * inputs.SPACING_NS + 7, 10**9) for i in range(1, 600)}


def usual(probe_s: float) -> bool:
    return 1 / USUAL_BAND <= probe_s / REFERENCE_S <= USUAL_BAND


def probe() -> float:
    """Seconds the fixed probe job takes now: parse a capture into
    Fractions, sweep it for its RBO, dump its delays as JSON, and scan a
    table of Fraction deadlines for the earliest, as the simulator does."""
    t0 = perf_counter()
    rows = list(csv.reader(io.StringIO(_CSV)))[1:]
    sizes = [Fraction(r[1]) for r in rows]
    emits = [Fraction(r[2]) for r in rows]
    observes = [Fraction(r[3]) for r in rows]
    reference.rbo(observes, sizes)
    delays = {i: o - e for i, (o, e) in enumerate(zip(observes, emits))}
    json.dumps({str(i): str(d) for i, d in delays.items()})
    for _ in range(30):
        min((d, s) for s, d in _DEADLINES.items() if d is not None)
    return perf_counter() - t0


class Track:
    """Probes taken between calls, at least ``EVERY_S`` apart."""

    def __init__(self) -> None:
        self.samples: List[float] = [probe()]
        self.last = perf_counter()

    def mark(self) -> int:
        """Probe if due; return the index of the latest probe before a call."""
        if perf_counter() - self.last >= EVERY_S:
            self.samples.append(probe())
            self.last = perf_counter()
        return len(self.samples) - 1

    def finish(self) -> None:
        self.samples.append(probe())

    def local(self, marks: Sequence[int]) -> List[float]:
        """Per call, the mean of the probes on either side of it."""
        return [(self.samples[k] + self.samples[k + 1]) / 2 for k in marks]


def scaled(records: Sequence[Tuple[object, float]],
           local: Sequence[float]) -> List[Tuple[object, float]]:
    """The records with each call time scaled to the reference host by its
    local probe time.  Calls made while the host ran outside the usual band
    are dropped, as the scaling over-corrects there, unless no repeat of
    that input was usual."""
    out = [(c, t * REFERENCE_S / p, usual(p)) for (c, t), p in zip(records, local)]
    kept = {c.label for c, _, ok in out if ok}
    return [(c, t) for c, t, ok in out if ok or c.label not in kept]
