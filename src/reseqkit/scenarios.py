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

Emission times that must saturate an arrival curve are produced by
packetizing the fluid curve (packet k leaves when the curve admits the k-th
prefix sum); every generated trace is re-validated against its curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .curves import Curve, FlowSpec, check_conforms, min_spacing
from .metrics import PacketObservation, Trace
from .rational import INF, Rat


class ScenarioError(ValueError):
    """Scenario parameters are inconsistent or outside the construction's
    preconditions."""


class DecompositionError(ScenarioError):
    """The requested byte total is not a finite sum of admissible packet
    sizes."""


def decompose_bytes(total: Rat, flow: FlowSpec) -> List[Fraction]:
    """Split ``total`` into packet sizes within [l_min, l_max], exactly."""
    total = Fraction(total)
    if total < 0:
        raise DecompositionError("byte totals are non-negative")
    if total == 0:
        return []
    if flow.constant_size:
        count, rem = divmod(total, flow.l_min)
        if rem != 0:
            raise DecompositionError(
                f"{total} is not a multiple of the packet size {flow.l_min}"
            )
        return [flow.l_min] * int(count)
    if total < flow.l_min:
        raise DecompositionError(f"{total} is below the minimum packet size")
    count = int(total // flow.l_max)
    rem = total - count * flow.l_max
    if rem == 0:
        return [flow.l_max] * count
    if rem >= flow.l_min:
        return [flow.l_max] * count + [rem]
    # rem < l_min needs count >= 1; rebalance the last two packets.
    return [flow.l_max] * (count - 1) + [flow.l_max + rem - flow.l_min, flow.l_min]


def packetize(curve: Curve, sizes: Sequence[Fraction]) -> List[Fraction]:
    """Earliest emission times of a packet burst saturating the curve:
    packet k leaves as soon as the curve admits sizes[0..k]."""
    times: List[Fraction] = []
    acc = Fraction(0)
    for s in sizes:
        acc += Fraction(s)
        times.append(Fraction(curve.pseudo_inverse(acc)))
    return times


def _default_eps(target: Rat) -> Fraction:
    return Fraction(target) / 10**6


def gen_two_packet_swap(
    rto_value: Rat, t0: Rat = 0, size: Rat = 64
) -> Trace:
    """Two packets where packet 2 overtakes packet 1 by exactly the given
    offset; any re-sequencer timeout below it discards packet 1."""
    lam = Fraction(rto_value)
    if lam <= 0:
        raise ScenarioError("the overtaking offset must be > 0")
    t0 = Fraction(t0)
    return Trace(
        (
            PacketObservation(1, Fraction(size), None, t0 + lam),
            PacketObservation(2, Fraction(size), None, t0),
        )
    )


def gen_lossless_backlog_burst(
    rto_value: Rat, sizes: Sequence[Rat], first_size: Rat
) -> Trace:
    """k packets arrive early and wait for packet 1, which shows up last,
    exactly one RTO after the earliest of them.

    The buffer holds all of ``sizes`` when packet 1 arrives, so the peak
    occupancy equals their sum, the trace's byte offset.
    """
    lam = Fraction(rto_value)
    if lam <= 0:
        raise ScenarioError("the overtaking offset must be > 0")
    burst = [Fraction(s) for s in sizes]
    if not burst:
        raise ScenarioError("need at least one early packet")
    k = len(burst)
    packets = [PacketObservation(1, Fraction(first_size), None, lam)]
    for j, s in enumerate(burst, start=2):
        packets.append(
            PacketObservation(j, s, None, Fraction(j - 2, k + 1) * lam)
        )
    return Trace(tuple(packets))


def gen_lossy_backlog_burst(
    curve: Curve,
    jitter: Rat,
    timeout: Rat,
    flow: FlowSpec,
    eps: Optional[Rat] = None,
) -> Trace:
    """One lost packet, then a conforming burst worth curve(V + T - eps)
    bytes, all arriving before the first survivor's timer fires.

    The survivors are parked behind the hole until the timeout flushes them,
    so the buffer peaks at exactly the packetized value of
    curve(V + T - eps): the value itself for variable-size flows, its
    whole-packet floor for constant-size flows.
    """
    v, t = Fraction(jitter), Fraction(timeout)
    if v <= 0 or t <= 0:
        raise ScenarioError("the construction needs jitter > 0 and timeout > 0")
    eps = Fraction(eps) if eps is not None else _default_eps(min(v, t))
    if not 0 < eps < min(v, t):
        raise ScenarioError("need 0 < eps < min(jitter, timeout)")
    target = flow.reachable_floor(curve.value(v + t - eps))
    burst_sizes = decompose_bytes(target, flow)
    if not burst_sizes:
        raise DecompositionError("curve window admits no packet")
    n = len(burst_sizes)
    burst_times = packetize(curve, burst_sizes)

    all_sizes = [flow.l_max] + burst_sizes
    t0 = Fraction(curve.pseudo_inverse(sum(all_sizes)))
    emits = [Fraction(0)] + [t0 + bt for bt in burst_times]

    # First survivor lands eps/2 short of the jitter bound; later ones trail
    # it by eps/(3(n-1)) hops.  Their delays can grow by at most eps/3 in
    # total, so every delay stays below v and every arrival beats the
    # timeout deadline at observes[1] + t.
    observes: List[Rat] = [INF, v + emits[1] - eps / 2]
    for k in range(2, n + 1):
        observes.append(max(observes[-1], emits[k]) + eps / (3 * (n - 1)))

    packets = tuple(
        PacketObservation(i + 1, all_sizes[i], emits[i], observes[i])
        for i in range(n + 1)
    )
    trace = Trace(packets, flow)
    verdict = check_conforms(emits, all_sizes, curve)
    if not verdict:
        raise ScenarioError(
            "packetized emissions violate the curve "
            f"(pair {verdict.first_index},{verdict.second_index})"
        )
    return trace


def gen_rto_tight_pair(
    jitter: Rat, curve: Curve, l_min: Rat, base_delay: Rat = 0
) -> Trace:
    """Two minimum-size packets emitted as close as the curve allows; the
    first is hit by the full jitter, the second by none.

    The measured offset is exactly ``jitter - min_spacing(curve, l_min)``.
    """
    v, lm, d = Fraction(jitter), Fraction(l_min), Fraction(base_delay)
    spacing = min_spacing(curve, lm)
    if v <= spacing:
        raise ScenarioError("jitter at or below the curve spacing: no reordering")
    a1, a2 = Fraction(0), spacing
    return Trace(
        (
            PacketObservation(1, lm, a1, a1 + d + v),
            PacketObservation(2, lm, a2, a2 + d),
        )
    )


def gen_rbo_tight_burst(
    jitter: Rat,
    curve: Curve,
    flow: FlowSpec,
    eps: Optional[Rat] = None,
) -> Trace:
    """A curve-saturating burst in one jitter window; every packet but the
    first slips past it, so its byte offset is curve(V - eps) - l_min."""
    v = Fraction(jitter)
    if v <= 0:
        raise ScenarioError("the construction needs jitter > 0")
    eps = Fraction(eps) if eps is not None else _default_eps(v)
    if not 0 < eps < v:
        raise ScenarioError("need 0 < eps < jitter")
    total = Fraction(curve.value(v - eps))
    if total < 2 * flow.l_min:
        raise ScenarioError("curve window admits fewer than two packets")
    sizes = [flow.l_min] + decompose_bytes(total - flow.l_min, flow)
    n = len(sizes)
    emits = packetize(curve, sizes)
    observes: List[Fraction] = [v + eps]
    for k in range(2, n + 1):
        observes.append(v + Fraction(k - 2, n) * eps)
    packets = tuple(
        PacketObservation(i + 1, sizes[i], emits[i], observes[i]) for i in range(n)
    )
    trace = Trace(packets, flow)
    verdict = check_conforms(emits, sizes, curve)
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
    stage_floor_delay: Rat = 0,
    size: Rat = 64,
) -> ConcatScenario:
    """Two packets swapped by ``rto`` at stage ``head`` (1-based), then
    stretched apart by the full jitter of every later stage.

    ``stages`` lists (jitter, rto) per stage; stages before ``head`` forward
    both packets with identical delay.
    """
    if not 1 <= head <= len(stages):
        raise ScenarioError("head stage out of range")
    v_s, lam_s = (Fraction(x) for x in stages[head - 1])
    if lam_s <= 0:
        raise ScenarioError("head stage needs a positive RTO")
    if lam_s > v_s:
        raise ScenarioError("per-stage RTO cannot exceed its jitter")
    eps = Fraction(eps) if eps is not None else _default_eps(lam_s)
    if not 0 < eps < lam_s:
        raise ScenarioError("need 0 < eps < head-stage RTO")
    d = Fraction(stage_floor_delay)
    if d < 0:
        raise ScenarioError("stage floor delay must be >= 0")
    size = Fraction(size)

    t1, t2 = Fraction(0), eps  # packet 1 and 2 at the entrance
    per_stage: List[Trace] = []
    for h, (v_h, _) in enumerate(stages, start=1):
        v_h = Fraction(v_h)
        in1, in2 = t1, t2
        if h < head:
            out1, out2 = in1 + d, in2 + d
        elif h == head:
            out1, out2 = in1 + d + lam_s, in2 + d
        else:
            out1, out2 = in1 + d + v_h, in2 + d
        # Index packets by arrival order at this stage's input.
        if in1 < in2:
            pairs = [(in1, out1), (in2, out2)]
        else:
            pairs = [(in2, out2), (in1, out1)]
        per_stage.append(
            Trace(
                tuple(
                    PacketObservation(i + 1, size, a, e)
                    for i, (a, e) in enumerate(pairs)
                )
            )
        )
        t1, t2 = out1, out2

    end_to_end = Trace(
        (
            PacketObservation(1, size, Fraction(0), t1),
            PacketObservation(2, size, eps, t2),
        )
    )
    downstream = sum(
        (Fraction(v) for v, _ in stages[head:]), Fraction(0)
    )
    return ConcatScenario(
        tuple(per_stage), end_to_end, lam_s - eps + downstream
    )
