"""Reference copy of the dict form of an analysis report.

This is ``path_analysis.report_to_json`` and the curves' ``to_json`` as
they were before they wrote JSON text straight from the records, kept as a
differential oracle: ``json.dumps(report_dict(rep), indent=2)`` is the text
the writer must give at depth 0.  Each curve is read through its
``Fraction`` view and ``fmt_rat``, not the tick columns and ``fmt_ticks``,
and every record is rendered where it occurs, shared or not.  Only the
tests use it.
"""

from __future__ import annotations

from reseqkit.curves import MinAffineCurve
from reseqkit.rational import fmt_rat, seconds_to_us_display


def curve_dict(curve) -> dict:
    if isinstance(curve, MinAffineCurve):
        return {
            "unit": curve.unit,
            "kind": "min_affine",
            "pieces": [{"rate": fmt_rat(r), "burst": fmt_rat(b)}
                       for r, b in curve.pieces],
        }
    return {
        "unit": curve.unit,
        "kind": "staircase",
        "burst": fmt_rat(curve.burst),
        "period": fmt_rat(curve.period),
    }


def report_dict(rep) -> dict:
    return {
        "loss_mode": rep.loss_mode,
        "elements": [
            {
                "id": e.element_id,
                "kind": e.kind,
                "d_min_s": fmt_rat(e.d_min),
                "d_max_s": fmt_rat(e.d_max),
                "jitter_s": fmt_rat(e.stage.jitter),
                **(
                    {"rto_bound_s": fmt_rat(e.stage.rto)}
                    if e.stage.rto is not None
                    else {}
                ),
                "output_curve": curve_dict(e.output_curve),
                **(
                    {"queue_output_curve": curve_dict(e.post_queue_curve)}
                    if e.post_queue_curve is not None
                    else {}
                ),
            }
            for e in rep.elements
        ],
        "resequencers": [
            {
                "id": r.element_id,
                "upstream_rto_s": fmt_rat(r.upstream_rto),
                "timeout_s": fmt_rat(r.timeout),
                "required_buffer_bytes_exact": fmt_rat(r.required_buffer_exact),
                "buffer_size_bytes": r.buffer_size,
                "unsafe_timeout": r.unsafe_timeout,
                "output_curve": curve_dict(r.output_curve),
            }
            for r in rep.resequencers
        ],
        "e2e": {
            "delay_s": fmt_rat(rep.e2e_delay),
            "min_delay_s": fmt_rat(rep.e2e_min_delay),
            "jitter_s": fmt_rat(rep.e2e_jitter),
            "delay_us_display": seconds_to_us_display(rep.e2e_delay),
            "jitter_us_display": seconds_to_us_display(rep.e2e_jitter),
        },
        "baseline": {
            "delay_s": fmt_rat(rep.baseline_delay),
            "jitter_s": fmt_rat(rep.baseline_jitter),
            "delta_delay_s": fmt_rat(rep.delta_delay),
            "delta_jitter_s": fmt_rat(rep.delta_jitter),
        },
        "destination_curve": curve_dict(rep.destination_curve),
        "warnings": list(rep.warnings),
    }
