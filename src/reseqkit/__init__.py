"""Worst-case packet reordering toolkit for time-sensitive networks.

Computes reordering metrics (late time offset, byte offset) from traces,
dimensions re-sequencing buffers (timeout, size), bounds end-to-end delay
and jitter along a flow path with exact rational arithmetic, and validates
every bound against an event-driven buffer simulator plus adversarial trace
generators.
"""

from .bounds import (
    SequenceElement,
    rbo_bound_element,
    rbo_bound_sequence,
    resequencer_delay_effect,
    rto_bound_element,
    rto_bound_sequence,
)
from .curves import (
    Conformance,
    FlowSpec,
    MinAffineCurve,
    RateLatencyService,
    StaircaseCurve,
    backlog_bound,
    check_conforms,
    curve_from_json,
    horizontal_deviation,
    leaky_bucket,
    min_curves,
    shift_jitter,
)
from .metrics import (
    Trace,
    delay_jitter,
    rbo,
    rto,
    trace_from_csv,
    trace_to_csv,
)
from .path_analysis import (
    AnalysisReport,
    FabricElement,
    FifoServiceElement,
    FixedDelayElement,
    PathSpec,
    ResequencerElement,
    analyze_both,
    analyze_path,
    compare_placements,
    insert_resequencers,
)
from .rational import INF, Rat
from .resequencer import (
    ResequencerConfig,
    ResequencerOutcome,
    analytic_departures,
    simulate,
)

__version__ = "0.1.0"
