"""Every number enters reseqkit through ``rational.exact`` or ``finite``.

The records and the public functions that take a number convert it once,
where they are called: a float other than ``inf`` (0.1 is not 1/10, and
-inf and nan are no time or size) is refused, so is ``inf`` in a field
that must be finite, and a string follows the one literal grammar.
"""

import ast
import math
from fractions import Fraction as F
from pathlib import Path

import pytest

from reseqkit.bounds import (
    LOSSY,
    SequenceElement,
    rbo_bound_element,
    resequencer_delay_effect,
    rto_bound_element,
)
from reseqkit.curves import (
    FlowSpec,
    MinAffineCurve,
    RateLatencyService,
    StaircaseCurve,
    backlog_bound,
    leaky_bucket,
    min_spacing,
    shift_jitter,
)
from reseqkit.metrics import Trace, TraceError
from reseqkit.path_analysis import (
    FabricElement,
    FifoServiceElement,
    FixedDelayElement,
    ResequencerElement,
)
from reseqkit.rational import INF
from reseqkit import scenarios

SRC = Path(__file__).resolve().parents[1] / "src" / "reseqkit"


def coercions(path):
    """Lines of the one-argument ``Fraction(x)`` calls whose x is no literal."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "Fraction" and len(node.args) == 1
        and not node.keywords and not isinstance(node.args[0], ast.Constant)
    ]


def test_no_fraction_coercion_outside_rational():
    found = {p.name: coercions(p) for p in sorted(SRC.glob("*.py"))
             if p.name != "rational.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def callers(path):
    """``{called name: the functions that call it}`` in a module, the name
    being ``f``, ``m.f`` or, for a method called on any receiver, ``.f``,
    and each function ``module.qualified.name``."""
    found = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                    name = f"{func.value.id}.{func.attr}"
                else:
                    name = getattr(func, "id", None)
                where = ".".join([path.stem, *scope])
                found.setdefault(name, set()).add(where)
                if isinstance(func, ast.Attribute):
                    found.setdefault(f".{func.attr}", set()).add(where)
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), [])
    return found


def test_tick_bases_are_reduced_and_mapped_only_in_rational():
    """A tick base is made, moved and reduced in ``rational`` alone, so no
    other module calls ``gcd``, and ``lcm`` only in the three kernels that
    derive a base from a curve's integer columns or a few scalars; and
    per-packet results stay tick columns, ``over`` building a ``{index:
    Fraction}`` map only for the two views that still hand one out.  An
    exact value is a ``Fraction`` or a tick column, never a ``(numerator,
    denominator)`` pair: ``as_integer_ratio`` is called only where a
    ``StaircaseCurve``'s fields are unpacked."""
    gcd, lcm, over, pairs = set(), set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        found = callers(path)
        gcd |= found.get("math.gcd", set()) | found.get("gcd", set())
        lcm |= found.get("math.lcm", set()) | found.get("lcm", set())
        over |= found.get("over", set())
        pairs |= found.get(".as_integer_ratio", set())
    assert {f for f in gcd if not f.startswith("rational.")} == set()
    assert {f for f in lcm if not f.startswith("rational.")} == {
        "curves.MinAffineCurve.__init__", "curves.shift_jitter", "scenarios.packetize"}
    assert over == {"metrics.Trace.packets", "resequencer.analytic_departures"}
    assert pairs == {"curves._staircase_violation", "scenarios.packetize"}


def unused_imports(path):
    """Names that the module imports and never names again, with their
    lines; ``from __future__`` imports are directives, not names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in bound.items() if name not in read}


def test_no_unused_import():
    found = {p.name: unused_imports(p) for p in sorted(SRC.glob("*.py"))
             if p.name != "__init__.py"}
    assert {name: unused for name, unused in found.items() if unused} == {}


CURVE = leaky_bucket(6400, 640)
FLOW = FlowSpec(CURVE, 64, 128)
SERVICE = RateLatencyService(125_000_000, F(12, 10**6))

# One row per number a record or a public function takes: the call with x
# in that place, and whether x may be inf there.
FIELDS = {
    "MinAffineCurve rate": (lambda x: MinAffineCurve(((x, 640),)), False),
    "MinAffineCurve burst": (lambda x: MinAffineCurve(((1, x),)), False),
    "StaircaseCurve burst": (lambda x: StaircaseCurve(x, 1), False),
    "StaircaseCurve period": (lambda x: StaircaseCurve(640, x), False),
    "leaky_bucket rate": (lambda x: leaky_bucket(x, 640), False),
    "leaky_bucket burst": (lambda x: leaky_bucket(6400, x), False),
    "RateLatencyService rate": (lambda x: RateLatencyService(x, 0), False),
    "RateLatencyService latency": (lambda x: RateLatencyService(1, x), False),
    "FlowSpec l_min": (lambda x: FlowSpec(CURVE, x, 128), False),
    "FlowSpec l_max": (lambda x: FlowSpec(CURVE, 64, x), False),
    "SequenceElement jitter": (lambda x: SequenceElement(x), False),
    "SequenceElement rto": (lambda x: SequenceElement(1, x), False),
    "value": (lambda x: CURVE.value(x), True),
    "pseudo_inverse": (lambda x: CURVE.pseudo_inverse(x), False),
    "staircase value": (lambda x: StaircaseCurve(640, 1).value(x), True),
    "staircase pseudo_inverse": (
        lambda x: StaircaseCurve(640, 1).pseudo_inverse(x), False),
    "min_spacing": (lambda x: min_spacing(CURVE, x), False),
    "backlog_bound": (lambda x: backlog_bound(CURVE, x), True),
    "shift_jitter": (lambda x: shift_jitter(CURVE, x), False),
    "reachable_floor": (lambda x: FLOW.reachable_floor(x), False),
    "rto_bound_element jitter": (lambda x: rto_bound_element(x, CURVE, 64), False),
    "rto_bound_element l_min": (lambda x: rto_bound_element(1, CURVE, x), False),
    "rbo_bound_element jitter": (lambda x: rbo_bound_element(x, CURVE, 64), False),
    "rbo_bound_element l_min": (lambda x: rbo_bound_element(1, CURVE, x), False),
    "resequencer_delay_effect": (lambda x: resequencer_delay_effect(LOSSY, x), True),
    "FifoServiceElement min_delay": (
        lambda x: FifoServiceElement("f", SERVICE, x), False),
    "FabricElement d_min": (lambda x: FabricElement("f", x, 1), False),
    "FabricElement d_max": (lambda x: FabricElement("f", 0, x), False),
    "FixedDelayElement d_min": (lambda x: FixedDelayElement("f", x, 1), False),
    "FixedDelayElement d_max": (lambda x: FixedDelayElement("f", 0, x), False),
    "ResequencerElement timeout": (
        lambda x: ResequencerElement("r", "explicit", x), True),
    "ResequencerElement capacity": (
        lambda x: ResequencerElement("r", "explicit", 1, x), True),
    "decompose_bytes": (lambda x: scenarios.decompose_bytes(x, FLOW), False),
    "gen_two_packet_swap rto": (lambda x: scenarios.gen_two_packet_swap(x), False),
    "gen_two_packet_swap t0": (lambda x: scenarios.gen_two_packet_swap(1, x), False),
    "gen_lossless_backlog_burst rto": (
        lambda x: scenarios.gen_lossless_backlog_burst(x, [64], 64), False),
    "gen_lossless_backlog_burst sizes": (
        lambda x: scenarios.gen_lossless_backlog_burst(1, [64, x], 64), False),
    "gen_lossless_backlog_burst first_size": (
        lambda x: scenarios.gen_lossless_backlog_burst(1, [64], x), False),
    "gen_lossy_backlog_burst jitter": (
        lambda x: scenarios.gen_lossy_backlog_burst(FLOW, x, 1), False),
    "gen_lossy_backlog_burst timeout": (
        lambda x: scenarios.gen_lossy_backlog_burst(FLOW, 1, x), False),
    "gen_lossy_backlog_burst eps": (
        lambda x: scenarios.gen_lossy_backlog_burst(FLOW, 1, 1, x), False),
    "gen_rto_tight_pair jitter": (
        lambda x: scenarios.gen_rto_tight_pair(x, CURVE, 64), False),
    "gen_rto_tight_pair l_min": (
        lambda x: scenarios.gen_rto_tight_pair(1, CURVE, x), False),
    "gen_rbo_tight_burst jitter": (
        lambda x: scenarios.gen_rbo_tight_burst(FLOW, x), False),
    "gen_rbo_tight_burst eps": (
        lambda x: scenarios.gen_rbo_tight_burst(FLOW, 1, x), False),
    "gen_amplified_rto_chain jitter": (
        lambda x: scenarios.gen_amplified_rto_chain([(x, 1)], 1), False),
    "gen_amplified_rto_chain rto": (
        lambda x: scenarios.gen_amplified_rto_chain([(2, x)], 1), False),
    "gen_amplified_rto_chain eps": (
        lambda x: scenarios.gen_amplified_rto_chain([(2, 1)], 1, x), False),
}


@pytest.mark.parametrize("value", [0.1, -math.inf, math.nan], ids=repr)
@pytest.mark.parametrize("field", list(FIELDS))
def test_inexact_value_is_refused(field, value):
    call, _ = FIELDS[field]
    with pytest.raises(ValueError, match="not an exact number"):
        call(value)


@pytest.mark.parametrize("field", list(FIELDS))
def test_inf_is_refused_where_the_value_must_be_finite(field):
    call, may_be_inf = FIELDS[field]
    if may_be_inf:
        call(math.inf)  # accepted
    else:
        with pytest.raises(ValueError, match="finite"):
            call(math.inf)


def test_records_keep_the_exact_value_of_a_literal():
    fabric = FabricElement("f", "1/30", "2e-1")
    assert (fabric.d_min, fabric.d_max) == (F(1, 30), F(2, 10))
    assert type(fabric.d_min) is F and type(fabric.d_max) is F
    reseq = ResequencerElement("r", "explicit", "inf", 64)
    assert reseq.timeout is INF and type(reseq.capacity) is F
    assert FifoServiceElement("f", SERVICE, "0.5e-6").min_delay == F(1, 2 * 10**6)
    for bad in ("1_0", "1e2000"):
        with pytest.raises(ValueError):
            FabricElement("f", 0, bad)


def test_infinite_delay_has_an_infinite_backlog():
    assert backlog_bound(CURVE, math.inf) is INF
    assert backlog_bound(CURVE, "inf") is INF


@pytest.mark.parametrize("column", ["sizes", "emits", "observes"])
@pytest.mark.parametrize("literal,message", [
    ("1_000", "not an exact numeric literal: '1_000'"),
    ("1e2000", "exponent beyond"),
])
def test_trace_columns_refuse_what_a_csv_cell_refuses(column, literal, message):
    cols = {"sizes": [64], "emits": [0], "observes": [1], column: [literal]}
    with pytest.raises(TraceError, match=message):
        Trace(cols["sizes"], cols["emits"], cols["observes"])
