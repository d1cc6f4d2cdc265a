"""Adversarial trace generators: executable witnesses that the bounds are
attained (exactly, or within a requested epsilon).

Each generator builds the worst-case packet timeline for one bound:

* ``gen_two_packet_swap``: two swapped packets showing that any timeout below
  the flow RTO discards a packet.
* ``gen_lossless_backlog_burst``: a burst parked in front of one late packet,
  filling the buffer to exactly the requested byte offset.
* ``gen_lossy_backlog_burst``: one lost packet followed by a curve-saturating
  burst that all lands inside the timeout window.
* ``gen_rto_tight_pair`` / ``gen_rbo_tight_burst``: greedy two-packet /
  n-packet scenarios meeting the per-element RTO/RBO bounds.
* ``gen_amplified_rto_chain``: a small swap at an early stage amplified by the
  jitter of every later stage.

The two burst generators take the analyzed ``FlowSpec`` and size their
burst with the bound they reach, ``backlog_bound`` and
``bounds.rbo_bound_element``, on the flow's own source curve.

Emission times that must saturate an arrival curve are produced by
packetizing the fluid curve: packet k leaves as soon as every window of
packets ending at it fits under the curve.  ``packetize`` takes the sizes
as ticks on one base and returns the times as ticks on another, in O(n*k)
for n packets and k curve pieces, with no ``Fraction`` per packet.
``gen_lossy_backlog_burst``, ``gen_rbo_tight_burst`` and
``gen_lossless_backlog_burst`` build their size, emission and observation
columns as ticks on one base each.  The sizes and a construction's scalars
go on a base by ``on_common_base``; the scalars join the emission base,
which ``packetize`` derives from the curve's columns, by ``rebased``; and
``reduced`` leaves each column on the base ``Trace(sizes, emits,
observes)`` would compute.  The trace takes the columns unconverted.
Every generated trace that saturates a curve is re-validated against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from typing import List, Optional, Sequence, Tuple

from .bounds import rbo_bound_element
from .curves import Curve, FlowSpec, StaircaseCurve, backlog_bound, check_conforms
from .curves import min_spacing
from .metrics import Trace
from .rational import INF, Rat, finite, fmt_rat, on_common_base, rebased, reduced


class ScenarioError(ValueError):
    """Scenario parameters are inconsistent or outside the construction's
    preconditions."""


class DecompositionError(ScenarioError):
    """The requested byte total is not a finite sum of admissible packet
    sizes."""


def decompose_bytes(total: Rat, flow: FlowSpec) -> List[Fraction]:
    """Split ``total`` into packet sizes within [l_min, l_max], exactly."""
    total = finite(total)
    if total < 0:
        raise DecompositionError("byte totals are non-negative")
    if flow.reachable_floor(total) != total:
        raise DecompositionError(
            f"{total} is not a multiple of the packet size {flow.l_min}"
            if flow.constant_size else f"{total} is below the minimum packet size"
        )
    count = int(total // flow.l_max)
    rem = total - count * flow.l_max
    if rem == 0:
        return [flow.l_max] * count
    if rem >= flow.l_min:
        return [flow.l_max] * count + [rem]
    # rem < l_min needs count >= 1; rebalance the last two packets.
    return [flow.l_max] * (count - 1) + [flow.l_max + rem - flow.l_min, flow.l_min]


def packetize(curve: Curve, sizes: Sequence[int],
              size_den: int) -> Tuple[List[int], int]:
    """Earliest emission times of a packet burst saturating the curve, for
    sizes given as ticks of 1/``size_den`` B: the times as ticks of 1/D s,
    and D.

    With prefix sums P, packet 1 leaves at inv(P_1) and packet k at
    ``max over m < k of A_m + inv(P_k - P_{m-1})``, the earliest time that
    keeps every window m..k inside the curve.  A min-affine curve has a
    convex inverse, so the window from packet 1 binds and A_k = inv(P_k)
    whenever each packet fits in the burst.  With integer prefix volumes
    p_k = P_k * size_den and the curve's columns, piece (r, b) puts A_k at
    (p_k*bd - b*size_den) * rd over size_den*bd*r; D is the lcm of those
    bases, and A_k*D the largest piece's value scaled to D, or 0.  A
    staircase b*ceil(t/tau) puts every A_m on a multiple q_m of tau, and then
    ``q_k = ceil(P_k/b + max over m < k of (q_m - P_{m-1}/b)) - 1``, run with
    P/b kept as integers over size_den*b.num, ceilings by exact integer
    division, and D = tau.den.
    """
    if isinstance(curve, StaircaseCurve):
        bn, bd = curve.burst.as_integer_ratio()
        pn, pd = curve.period.as_integer_ratio()
        per_burst = size_den * bn  # x/b is x's ticks * bd over per_burst
        acc = lead = 0  # P_{k-1}'s ticks; (max over m < k of q_m - P_{m-1}/b) * per_burst
        times = []
        for s in sizes:
            q = -(-((acc + s) * bd + lead) // per_burst) - 1
            lead = max(lead, q * per_burst - acc * bd)
            acc += s
            times.append(pn * q)
        return times, pd
    prefix = list(accumulate(sizes))
    if prefix and min(prefix) < 0:  # as pseudo_inverse refuses it
        raise ValueError("pseudo-inverse is defined on x >= 0")
    rd, bd = curve.rate_den, curve.burst_den
    per_rate = size_den * bd
    den = math.lcm(*(per_rate * r for r in curve.rates))
    columns = []
    for r, b in zip(curve.rates, curve.bursts):
        offset, scale = b * size_den, rd * (den // (per_rate * r))
        columns.append([(p * bd - offset) * scale for p in prefix])
    return list(map(max, repeat(0, len(prefix)), *columns)), den


def _packetize_by(curve: Curve, sizes: Sequence[int], size_den: int,
                  deadline: Fraction, window: str) -> Tuple[List[int], int]:
    """``packetize``, refused when the last packet cannot leave by
    ``deadline``, the end of the generator's ``window``."""
    times, den = packetize(curve, sizes, size_den)
    last = Fraction(times[-1], den)
    if last > deadline:
        raise ScenarioError(
            f"the curve lets the last of these packets leave only at "
            f"{fmt_rat(last)} s, after the {window} window ends at {fmt_rat(deadline)} s"
        )
    return times, den


def _eps(eps: Optional[Rat], bound: Fraction, what: str) -> Fraction:
    """A generator's tightness epsilon: ``eps``, by default ``bound / 10**6``,
    refused outside (0, bound), ``bound`` being named ``what``."""
    eps = finite(eps) if eps is not None else bound / 10**6
    if not 0 < eps < bound:
        raise ScenarioError(f"need 0 < eps < {what}")
    return eps


def gen_two_packet_swap(rto_value: Rat, t0: Rat = 0) -> Trace:
    """Two 64-byte packets where packet 2 overtakes packet 1 by exactly the
    given offset; any re-sequencer timeout below it discards packet 1."""
    lam, t0 = finite(rto_value), finite(t0)
    if lam <= 0:
        raise ScenarioError("the overtaking offset must be > 0")
    return Trace([64, 64], None, [t0 + lam, t0])


def gen_lossless_backlog_burst(
    rto_value: Rat, sizes: Sequence[Rat], first_size: Rat
) -> Trace:
    """k packets arrive early and wait for packet 1, which shows up last,
    exactly one RTO after the earliest of them.

    The buffer holds all of ``sizes`` when packet 1 arrives, so the peak
    occupancy equals their sum, the trace's byte offset.
    """
    lam = finite(rto_value)
    if lam <= 0:
        raise ScenarioError("the overtaking offset must be > 0")
    if not sizes:
        raise ScenarioError("need at least one early packet")
    size_den, (size_ticks,) = on_common_base(list(map(finite, [first_size, *sizes])))
    # packet 1 at lam, early packet j + 2 at lam * j/(k+1): ticks on lam.den*(k+1)
    k, step = len(sizes), lam.numerator
    time_den, (observes,) = reduced(lam.denominator * (k + 1),
                                    [step * (k + 1), *range(0, step * k, step)])
    return Trace._from_ticks(size_den, size_ticks, time_den, [], observes)


def gen_lossy_backlog_burst(flow: FlowSpec, jitter: Rat, timeout: Rat,
                            eps: Optional[Rat] = None) -> Trace:
    """One lost packet, then a burst on the flow's source curve worth the
    lossy buffer bound ``backlog_bound(curve, V + T - eps)``, all arriving
    before the first survivor's timer fires.

    The survivors are parked behind the hole until the timeout flushes them,
    so the buffer peaks at exactly the bound's ``flow.reachable_floor``: the
    bound itself for variable-size flows, its whole-packet floor for
    constant-size flows.  Refused when the curve cannot emit the burst
    within V + T - eps, as with a staircase whose periods these packet
    sizes cannot fill.
    """
    v, t = finite(jitter), finite(timeout)
    if v <= 0 or t <= 0:
        raise ScenarioError("the construction needs jitter > 0 and timeout > 0")
    eps = _eps(eps, min(v, t), "min(jitter, timeout)")
    curve = flow.source_curve
    target = flow.reachable_floor(backlog_bound(curve, v + t - eps))
    size_den, (sizes,) = on_common_base([flow.l_max, *decompose_bytes(target, flow)])
    n = len(sizes) - 1  # >= 1: the curve admits l_max in any window
    times, den = _packetize_by(curve, sizes[1:], size_den, v + t - eps,
                               "jitter-plus-timeout")

    # The burst starts once the lost packet and the burst together fit.
    # The first survivor lands eps/2 short of the jitter bound; later ones
    # (none when n == 1) trail it by eps/(3(n-1)) hops.  Their delays can
    # grow by at most eps/3 in total, so every delay stays below v and every
    # arrival beats the timeout deadline at observes[1] + t.
    t0 = curve.pseudo_inverse(flow.l_max + target)
    scalar_den, (scalars,) = on_common_base([t0, v, eps / 2, eps / (3 * max(n - 1, 1))])
    base, (times, (start, bound, lag, step)) = rebased((den, times), (scalar_den, scalars))
    emits = [0] + [start + e for e in times]
    observe = bound + emits[1] - lag
    observes = [INF, observe]
    for e in emits[2:]:
        observe = max(observe, e) + step
        observes.append(observe)
    return _conforming_trace(curve, size_den, sizes, base, emits, observes)


def gen_rto_tight_pair(jitter: Rat, curve: Curve, l_min: Rat) -> Trace:
    """Two minimum-size packets emitted as close as the curve allows; the
    first is hit by the full jitter, the second by none.

    The measured offset is exactly ``jitter - min_spacing(curve, l_min)``.
    """
    v, lm = finite(jitter), finite(l_min)
    spacing = min_spacing(curve, lm)
    if v <= spacing:
        raise ScenarioError("jitter at or below the curve spacing: no reordering")
    return Trace([lm, lm], [Fraction(0), spacing], [v, spacing])


def gen_rbo_tight_burst(flow: FlowSpec, jitter: Rat,
                        eps: Optional[Rat] = None) -> Trace:
    """A burst on the flow's source curve in one jitter window; every packet
    but the first slips past it, so its byte offset is the element bound
    ``rbo_bound_element(V - eps, curve, l_min)``, refused when that is 0.

    Refused too when the curve cannot emit the whole burst by V - eps, as
    with a staircase whose periods these packet sizes cannot fill."""
    v = finite(jitter)
    if v <= 0:
        raise ScenarioError("the construction needs jitter > 0")
    eps = _eps(eps, v, "jitter")
    curve = flow.source_curve
    offset = rbo_bound_element(v - eps, curve, flow.l_min)
    if not offset:
        raise ScenarioError("curve window admits fewer than two packets")
    size_den, (sizes,) = on_common_base([flow.l_min, *decompose_bytes(offset, flow)])
    n = len(sizes)
    times, den = _packetize_by(curve, sizes, size_den, v - eps, "jitter")
    # packet 1 arrives at v + eps, packet k >= 2 at v + (k - 2) * eps/n
    scalar_den, (scalars,) = on_common_base([v, eps, eps / n])
    base, (emits, (first, late, step)) = rebased((den, times), (scalar_den, scalars))
    observes = [first + late, *range(first, first + (n - 1) * step, step)]
    return _conforming_trace(curve, size_den, sizes, base, emits, observes)


def _conforming_trace(curve: Curve, size_den: int, sizes: List[int], time_den: int,
                      emits: List[int], observes: List[Rat]) -> Trace:
    """The generated trace from its tick columns, each base first reduced,
    so the bases are the ones ``Trace(sizes, emits, observes)`` gives;
    refused when the packetized emissions violate the curve they were
    derived from."""
    size_den, (sizes,) = reduced(size_den, sizes)
    time_den, (emits, observes) = reduced(time_den, emits, observes)
    trace = Trace._from_ticks(size_den, sizes, time_den, emits, observes)
    verdict = check_conforms(trace, curve)
    if not verdict:
        raise ScenarioError(
            "packetized emissions violate the curve "
            f"(pair {verdict.first_index},{verdict.second_index})"
        )
    return trace


@dataclass(frozen=True)
class ConcatScenario:
    """Per-stage and end-to-end views of the amplification construction."""

    per_stage: Tuple[Trace, ...]
    end_to_end: Trace
    rto_target: Fraction  # head RTO + downstream jitters - eps


def gen_amplified_rto_chain(
    stages: Sequence[Tuple[Rat, Rat]],
    head: int,
    eps: Optional[Rat] = None,
) -> ConcatScenario:
    """Two 64-byte packets swapped by ``rto`` at stage ``head`` (1-based), then
    stretched apart by the full jitter of every later stage.

    ``stages`` lists (jitter, rto) per stage; stages before ``head`` forward
    both packets with identical delay.
    """
    stages = [(finite(v), finite(lam)) for v, lam in stages]
    if not 1 <= head <= len(stages):
        raise ScenarioError("head stage out of range")
    v_s, lam_s = stages[head - 1]
    if lam_s <= 0:
        raise ScenarioError("head stage needs a positive RTO")
    if lam_s > v_s:
        raise ScenarioError("per-stage RTO cannot exceed its jitter")
    eps = _eps(eps, lam_s, "head-stage RTO")

    # Packet 2 enters at eps and crosses every stage with zero delay; packet
    # 1 enters at 0 and is held back by the head's RTO and every later jitter.
    t1 = Fraction(0)
    per_stage: List[Trace] = []
    for h, (v_h, _) in enumerate(stages, start=1):
        out1 = t1 + (0 if h < head else lam_s if h == head else v_h)
        # Index packets by arrival order at this stage's input.
        pairs = [(t1, out1), (eps, eps)] if t1 < eps else [(eps, eps), (t1, out1)]
        emits, observes = zip(*pairs)
        per_stage.append(Trace([64, 64], emits, observes))
        t1 = out1

    end_to_end = Trace([64, 64], [Fraction(0), eps], [t1, eps])
    downstream = sum((v for v, _ in stages[head:]), Fraction(0))
    return ConcatScenario(
        tuple(per_stage), end_to_end, lam_s - eps + downstream
    )
