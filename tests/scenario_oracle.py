"""Reference copy of the saturating generators on ``Fraction`` times.

These are ``decompose_bytes``, ``packetize``, ``gen_lossy_backlog_burst``
and ``gen_rbo_tight_burst`` as they were before packetization ran on
integer ticks: one ``pseudo_inverse`` of Fractions per packet, Fraction
emission and observation times, and a trace built by ``Trace(sizes, emits,
observes)``.  Kept as a differential oracle for the tick generators; only
the tests use it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence

from reseqkit.curves import Curve, FlowSpec, StaircaseCurve, check_conforms
from reseqkit.metrics import Trace
from reseqkit.rational import INF, Rat, finite, fmt_rat
from reseqkit.scenarios import DecompositionError, ScenarioError


def decompose_bytes(total: Rat, flow: FlowSpec) -> List[Fraction]:
    total = finite(total)
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
    return [flow.l_max] * (count - 1) + [flow.l_max + rem - flow.l_min, flow.l_min]


def packetize(curve: Curve, sizes: Sequence[Fraction]) -> List[Fraction]:
    sizes = list(map(finite, sizes))
    times: List[Fraction] = []
    acc = Fraction(0)
    if isinstance(curve, StaircaseCurve):
        lead = Fraction(0)  # max over m < k of q_m - P_{m-1}/b
        for s in sizes:
            q = math.ceil((acc + s) / curve.burst + lead) - 1
            lead = max(lead, q - acc / curve.burst)
            acc += s
            times.append(curve.period * q)
        return times
    for s in sizes:
        acc += s
        times.append(curve.pseudo_inverse(acc))
    return times


def _packetize_by(curve: Curve, sizes: Sequence[Fraction], deadline: Fraction,
                  window: str) -> List[Fraction]:
    times = packetize(curve, sizes)
    if times[-1] > deadline:
        raise ScenarioError(
            f"the curve lets the last of these packets leave only at "
            f"{fmt_rat(times[-1])} s, after the {window} window ends at "
            f"{fmt_rat(deadline)} s"
        )
    return times


def _default_eps(target: Fraction) -> Fraction:
    return target / 10**6


def gen_lossy_backlog_burst(curve: Curve, jitter: Rat, timeout: Rat, flow: FlowSpec,
                            eps: Optional[Rat] = None) -> Trace:
    v, t = finite(jitter), finite(timeout)
    if v <= 0 or t <= 0:
        raise ScenarioError("the construction needs jitter > 0 and timeout > 0")
    eps = finite(eps) if eps is not None else _default_eps(min(v, t))
    if not 0 < eps < min(v, t):
        raise ScenarioError("need 0 < eps < min(jitter, timeout)")
    target = flow.reachable_floor(curve.value(v + t - eps))
    burst_sizes = decompose_bytes(target, flow)
    if not burst_sizes:
        raise DecompositionError("curve window admits no packet")
    n = len(burst_sizes)
    burst_times = _packetize_by(
        curve, burst_sizes, v + t - eps, "jitter-plus-timeout"
    )

    all_sizes = [flow.l_max] + burst_sizes
    t0 = curve.pseudo_inverse(sum(all_sizes))
    emits = [Fraction(0)] + [t0 + bt for bt in burst_times]

    observes: List[Rat] = [INF, v + emits[1] - eps / 2]
    for k in range(2, n + 1):
        observes.append(max(observes[-1], emits[k]) + eps / (3 * (n - 1)))

    return _conforming_trace(all_sizes, emits, observes, curve)


def gen_rbo_tight_burst(jitter: Rat, curve: Curve, flow: FlowSpec,
                        eps: Optional[Rat] = None) -> Trace:
    v = finite(jitter)
    if v <= 0:
        raise ScenarioError("the construction needs jitter > 0")
    eps = finite(eps) if eps is not None else _default_eps(v)
    if not 0 < eps < v:
        raise ScenarioError("need 0 < eps < jitter")
    total = curve.value(v - eps)
    if total < 2 * flow.l_min:
        raise ScenarioError("curve window admits fewer than two packets")
    sizes = [flow.l_min] + decompose_bytes(total - flow.l_min, flow)
    n = len(sizes)
    emits = _packetize_by(curve, sizes, v - eps, "jitter")
    observes: List[Fraction] = [v + eps]
    for k in range(2, n + 1):
        observes.append(v + Fraction(k - 2, n) * eps)
    return _conforming_trace(sizes, emits, observes, curve)


def _conforming_trace(sizes: List[Fraction], emits: List[Fraction],
                      observes: List[Rat], curve: Curve) -> Trace:
    trace = Trace(sizes, emits, observes)
    verdict = check_conforms(trace, curve)
    if not verdict:
        raise ScenarioError(
            "packetized emissions violate the curve "
            f"(pair {verdict.first_index},{verdict.second_index})"
        )
    return trace
