"""The integer-tick trace side against its ``Fraction`` oracle.

``fraction_trace_oracle`` keeps the ``Fraction`` implementations of trace
parsing and validation, ``rto``, ``rbo``, ``delay_jitter`` and
``analytic_departures``, and ``list_scan_oracle`` the simulator.  These tests
draw traces in every literal form the CSV format accepts (decimals, padded
decimals, ``12e-6``, ``3/7``, integers), with lost packets and with or
without emission times, and require the same results from both sides, or
the same exception type and message.
"""

import csv
import io
import math
import random
import re
import sys
import time
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_trace_oracle as oracle
from arrival_trace import packets_trace
from list_scan_oracle import fields, simulate as list_scan_simulate
from tick_columns import offsets
from reseqkit import metrics, rational
from reseqkit.cli import main
from reseqkit.metrics import (
    CSV_HEADER,
    Trace,
    TraceError,
    delay_jitter,
    rbo,
    rto,
    trace_from_csv,
    trace_to_csv,
)
from reseqkit.rational import INF, fmt_rat
from reseqkit.resequencer import ResequencerConfig, analytic_departures, simulate

DENOMINATORS = (1, 2, 10, 1000, 10**9, 3, 7, 1024)
SIZES = (F(64), F(100), F(1500), F(129, 2), F(3, 7))
FORMS = ("decimal", "padded", "scientific", "fraction", "integer")


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # the comparison is the point
        return type(exc), str(exc)


def decimal_digits(x):
    """Digits after the point that write x exactly, or None when none do."""
    for d in range(40):
        if (x * 10**d).denominator == 1:
            return d
    return None


def literal(x, form):
    """An exact CSV literal for x in the given form, where x allows it."""
    if x is INF:
        return "inf"
    d = decimal_digits(x)
    if form == "fraction" or d is None:
        return f"{x.numerator}/{x.denominator}"
    if form == "scientific":
        return f"{int(x * 10**(d + 1))}e-{d + 1}"
    if form == "padded":
        text = fmt_rat(x)
        return text + "00" if "." in text else text + ".0"
    if form == "integer" and d == 0:
        return str(x.numerator)
    return fmt_rat(x)


def csv_text(rows):
    return "\n".join([",".join(CSV_HEADER)] + [",".join(r) for r in rows]) + "\n"


ROW_FORMATS = ("plain", "padded", "quoted", "crlf")


@st.composite
def formatted_csv(draw, rows):
    """The CSV text of the drawn ``rows``, each row in a drawn format:
    plain, one cell padded with a space or a tab, one cell quoted, or a
    CRLF line ending.  Every form reads as its plain row, so a file mixes
    plain chunks with chunks that ``csv.reader`` reads, at any boundary."""
    lines = [",".join(CSV_HEADER)]
    for row in draw(rows):
        cells, form = list(row), draw(st.sampled_from(ROW_FORMATS))
        if form in ("padded", "quoted"):
            i = draw(st.integers(0, len(cells) - 1))
            if form == "quoted":
                cells[i] = f'"{cells[i]}"'
            else:
                pad = draw(st.sampled_from([" ", "\t"]))
                cells[i] = draw(st.sampled_from([pad + cells[i], cells[i] + pad]))
        lines.append(",".join(cells) + ("\r" if form == "crlf" else ""))
    return "\n".join(lines) + "\n"


@st.composite
def trace_rows(draw, max_packets=20):
    """Rows of a valid trace: increasing emissions, observations at or after
    them (or lost), distinct observation instants, each cell in a drawn
    literal form."""
    n = draw(st.integers(0, max_packets))
    with_emits = draw(st.booleans())
    loss = draw(st.sampled_from([0, 4, 10]))  # 1 in loss packets is lost
    forms = st.sampled_from(FORMS)
    step = st.builds(F, st.integers(0, 40), st.sampled_from(DENOMINATORS))
    t = F(draw(st.integers(-50, 50)), draw(st.sampled_from(DENOMINATORS)))
    rows, used = [], set()
    for i in range(1, n + 1):
        t += draw(step)
        if loss and draw(st.integers(0, loss - 1)) == 0:
            obs = INF
        else:
            obs = t + draw(step) * 10
            while obs in used:
                obs += F(1, 11)
            used.add(obs)
        rows.append([
            str(i),
            literal(draw(st.sampled_from(SIZES)), draw(forms)),
            literal(t, draw(forms)) if with_emits else "-",
            literal(obs, draw(forms)),
        ])
    return rows


TIMEOUTS = st.one_of(
    st.just(INF), st.fractions(min_value=0, max_value=60, max_denominator=30)
)
CAPACITIES = st.one_of(st.just(INF), st.sampled_from([F(0), F(64), F(129, 2), F(3000, 7)]))


def literal_den(cell):
    """The denominator a CSV cell puts on its column's base: 10**d for a
    plain decimal with d decimals, however many of them are trailing zeros,
    and the reduced denominator of any other literal."""
    plain = re.fullmatch(r"[0-9]+(?:\.([0-9]+))?", cell)
    if plain:
        return 10 ** len(plain.group(1) or "")
    return F(cell).denominator


def csv_bases(text):
    """``(time_den, size_den)`` of a trace CSV, read from its text: the lcm
    of its time cells' and of its size cells' denominators."""
    times, sizes = [1], [1]
    for row in list(csv.reader(io.StringIO(text)))[1:]:
        cells = [c.strip() for c in row]
        if any(cells):
            sizes.append(literal_den(cells[1]))
            times += [literal_den(c) for c in cells[2:] if c not in ("-", "inf")]
    return math.lcm(*times), math.lcm(*sizes)


def assert_same_results(text, timeout, capacity):
    trace, ref = trace_from_csv(text), oracle.trace_from_csv(text)
    assert trace.packets == ref.packets
    assert (trace.time_den, trace.size_den) == csv_bases(text)
    assert all(type(t) is int or t is INF for t in trace.observe_ticks)
    from_packets = packets_trace(ref.packets)
    for t in (trace, from_packets):
        assert offsets(rto(t)) == oracle.rto(ref)
        assert offsets(rbo(t)) == oracle.rbo(ref)
        assert outcome(delay_jitter, t) == outcome(oracle.delay_jitter, ref)
    arrivals = {p.index: (p.observe_time, p.size) for p in ref.packets}
    cfg = ResequencerConfig(timeout, capacity)
    assert fields(simulate(trace, cfg)) == list_scan_simulate(arrivals, cfg)
    times = {i: t for i, (t, _) in arrivals.items()}
    assert analytic_departures(times, timeout) == oracle.analytic_departures(times, timeout)


def example_rows(observes, sizes=("64", "100", "1500", "129/2", "3/7", "64.5")):
    """Rows of a trace emitted 1 s apart from 0, observed at ``observes``."""
    return [[str(i), sizes[(i - 1) % len(sizes)], str(i - 1), obs]
            for i, obs in enumerate(observes, start=1)]


@settings(max_examples=150)
@given(formatted_csv(trace_rows()), TIMEOUTS, CAPACITIES)
@example(csv_text(example_rows(["12", "11.5", "10.25", "9.125", "25/3", "6"])),
         F(2), F(64))  # reversed
@example(csv_text(example_rows(["9", "11.5", "7.5", "19/2", "14", "8"])),
         F(1, 3), INF)  # shuffled
@example(csv_text(example_rows(["inf", "7", "4", "4.5", "6.25"])),
         INF, F(129, 2))  # lost head
@example(csv_text(example_rows(["inf", "inf", "inf"])), F(1), INF)  # all lost
@example(csv_text([]), INF, INF)  # empty
def test_valid_traces_match_oracle(text, timeout, capacity):
    assert_same_results(text, timeout, capacity)


@pytest.mark.parametrize("observes", [
    ["4.500", "inf", "3.250", "5.125"],  # one decimal count, one loss
    ["inf", "4.500", "3.250"],  # a lost first cell
    ["4.500", "3.250", "inf", "inf"],
    ["7", "inf", "3", "5"],
    ["4.50", "inf", "3.250"],  # decimal counts differ
    ["inf", "inf"],
])
def test_lossy_decimal_column_matches_oracle(observes):
    """A column of plain decimals with ``inf`` among them, as a lossy
    capture writes its observations."""
    assert_same_results(csv_text(example_rows(observes)), F(1), INF)


@pytest.mark.parametrize("observes", [
    ["4.500", "Inf", "3.250"],  # other spellings of inf
    ["4.500", "infinity", "inf"],
    ["4.500", "inff", "3.250"],  # an "f" that is no inf
    ["4.500", "3.25f"],
    ["f"],
])
def test_f_beside_plain_decimals_reads_like_oracle(observes):
    """A column whose "f" is not that of a plain ``inf`` cell is read, or
    refused, cell by cell, as the oracle reads it."""
    text = csv_text(example_rows(observes))
    assert parsed(trace_from_csv, text) == parsed(oracle.trace_from_csv, text)


@pytest.mark.parametrize("column", [1, 2])
def test_inf_among_plain_sizes_or_emissions_fails_like_oracle(column):
    rows = example_rows(["1.5", "2.5", "3.5"], sizes=("64",))
    rows[1][column] = "inf"
    text = csv_text(rows)
    got = parsed(trace_from_csv, text)
    assert got == parsed(oracle.trace_from_csv, text)
    assert got[0] is ValueError


JUNK = ("0", "-64", "inf", "-inf", "nan", "-", "abc", "", "1e1001", "1e-1001",
        "3/0", "1/3", "0x10", "1_0", "+5", ".5", "5.", "1e-6", "2/4")


@st.composite
def defective_rows(draw):
    """A valid trace with one or two defects, each a junk or copied cell,
    two cells swapped, a cell too many or too few, a row removed or a blank
    row; two defects check which error comes first."""
    rows = draw(trace_rows(max_packets=8))
    for _ in range(draw(st.integers(1, 2))):
        rows = rows or [["1", "64", "-", "1"]]
        r = draw(st.integers(0, len(rows) - 1))
        r2 = draw(st.integers(0, len(rows) - 1))
        col = draw(st.integers(0, 3))
        kind = draw(st.sampled_from(
            ["junk", "copy", "swap", "drop", "extra", "delete", "blank"]))
        if col >= min(len(rows[r]), len(rows[r2])):  # an earlier drop shortened it
            kind = "extra"
        if kind == "junk":
            rows[r][col] = draw(st.sampled_from(JUNK))
        elif kind == "copy":
            rows[r][col] = rows[r2][col]
        elif kind == "swap":
            rows[r][col], rows[r2][col] = rows[r2][col], rows[r][col]
        elif kind == "drop":
            del rows[r][col]
        elif kind == "extra":
            rows[r].append("1")
        elif kind == "delete":
            del rows[r]
        else:
            rows.insert(r, ["", "", "", ""])
    return rows


def parsed(parse, text):
    """The packets ``parse`` reads from ``text``, or what it raises."""
    try:
        return parse(text).packets
    except Exception as exc:  # the comparison is the point
        return type(exc), str(exc)


@settings(max_examples=300)
@given(formatted_csv(defective_rows()))
def test_defective_traces_fail_like_oracle(text):
    got = parsed(trace_from_csv, text)
    assert got == parsed(oracle.trace_from_csv, text)
    if not (len(got) == 2 and isinstance(got[0], type)):  # a harmless defect
        assert_same_results(text, INF, INF)


@settings(max_examples=150)
@given(formatted_csv(st.one_of(trace_rows(), defective_rows())), st.integers(1, 4))
def test_reading_in_chunks_matches_oracle(text, chunk):
    """A trace longer than a chunk of rows reads as in one chunk: each
    chunk's columns are converted on their own base and put on one base at
    the end, plain chunks and those ``csv.reader`` reads alike, and a
    defect anywhere still gets the oracle's error."""
    with mock.patch.object(metrics, "_CHUNK_ROWS", chunk):
        got = parsed(trace_from_csv, text)
        assert got == parsed(oracle.trace_from_csv, text)
        if not (len(got) == 2 and isinstance(got[0], type)):
            assert_same_results(text, INF, INF)


@pytest.mark.parametrize("rows", [
    ["0,0,-,1"],  # index and size both bad
    ["0,abc,-,1"],  # a cell that does not parse comes first
    ["1,0,x,1"],
    ["1,-64,-,nan"],
    ["2,64,-,1", "1,64,-,1"],  # indices out of order, no other defect
    ["1,64,5,1", "2,64,1,2"],  # emissions decrease, packet 1 seen before sent
    ["1,64,-,3", "2,64,0,3"],  # mixed emissions and a repeated time
    ["1,64,0,1/2", "2,64,1/4,0.5"],  # one instant in two literal forms
    ["1,64,0,inf", "2,64,0,inf", "3,64,0,1"],  # two losses repeat no instant
], ids=lambda rows: "|".join(rows))
def test_several_defects_report_the_oracle_error(rows):
    text = csv_text([r.split(",") for r in rows])
    assert parsed(trace_from_csv, text) == parsed(oracle.trace_from_csv, text)


BLANK_ROWS = ("", "   ", ",,,", " , , , ")


def rows_with(line=None, at=1, n=1030):
    """A valid CSV of n packets with ``line``, when given, read as its row
    ``at`` (1-based, after the header): rows 1024 and 1025 sit on either
    side of the first chunk boundary."""
    lines = [f"{i},64,{i},{i}.5" for i in range(1, n + 1)]
    if line is not None:
        lines.insert(at - 1, line)
    return "\n".join([",".join(CSV_HEADER), *lines]) + "\n"


@pytest.mark.parametrize("at", [1, 500, 1024, 1025, 1031])
@pytest.mark.parametrize("line", BLANK_ROWS,
                         ids=["empty", "spaces", "commas", "spaced-commas"])
def test_blank_row_is_dropped_in_any_chunk(line, at):
    """An empty line, a whitespace-only line, ``,,,`` and `` , , , `` are
    skipped wherever they fall, a chunk boundary included."""
    text = rows_with(line, at)
    trace = trace_from_csv(text)
    assert trace.packets == trace_from_csv(rows_with()).packets
    assert trace.packets == oracle.trace_from_csv(text).packets


@pytest.mark.parametrize("at", [1, 500, 1024, 1025, 1031])
@pytest.mark.parametrize("line,error", [
    ("1,64,1", (metrics.TraceError, "line {line}: expected 4 columns")),
    ("   ,64,1,1.5", (ValueError, "not a packet index: ''")),
    (",,,,", None),  # five blank cells: still a blank row
], ids=["three-cells", "blank-index", "five-blank-cells"])
def test_short_or_half_blank_row_fails_as_before(line, error, at):
    """A 3-cell row and a row whose index alone is blank fail with the row
    pass's message wherever they fall; a blank row of five cells is
    skipped."""
    text = rows_with(line, at)
    got = parsed(trace_from_csv, text)
    assert got == parsed(oracle.trace_from_csv, text)
    if error is None:
        assert len(got) == 1030
    else:
        assert got == (error[0], error[1].format(line=at + 1))


def with_line(text, row, line):
    """``text`` with data row ``row`` (1-based) replaced by ``line``."""
    lines = text.split("\n")
    lines[row] = line
    return "\n".join(lines)


@pytest.mark.parametrize("at", [1, 500, 1024, 1025])
@pytest.mark.parametrize("cut", [3, 5], ids=["3-then-5", "5-then-3"])
def test_three_and_five_cells_in_one_chunk_fail_like_oracle(at, cut):
    """Two rows of one chunk, their line break moved a cell to the left or
    right: 3 and 5 cells, 4 a line on average, and the 8 cells in order
    read as the valid rows.  The first is refused all the same, as a chunk
    is plain only when each of its lines holds 4 cells."""
    first = at - 1 if at % 1024 == 0 else at  # ``first`` and ``first + 1`` share a chunk
    lines = rows_with().split("\n")
    cells = f"{lines[first]},{lines[first + 1]}".split(",")
    lines[first], lines[first + 1] = ",".join(cells[:cut]), ",".join(cells[cut:])
    text = "\n".join(lines)
    got = parsed(trace_from_csv, text)
    assert got == parsed(oracle.trace_from_csv, text)
    assert got == (TraceError, f"line {first + 1}: expected 4 columns")


def test_unclosed_quote_ending_a_chunk_is_read_on():
    """An unclosed quote on the last line of chunk 1 makes the rest of the
    file one cell, as one ``csv.reader`` over the whole stream reads it,
    and the trace is refused; a reader per chunk would have accepted it."""
    text = with_line(rows_with(), 1024, '1024,64,1024,"1024.5')
    got = parsed(trace_from_csv, text)
    assert got == parsed(oracle.trace_from_csv, text)
    assert got[0] is ValueError
    assert got[1].startswith("not an exact numeric literal: '1024.5\\n1025,64,")


@pytest.mark.parametrize("line", [
    '1500,"64",1500,1500.5',  # a quoted cell
    "1500, 64,1500,1500.5",  # cells padded with a space or a tab
    "1500,64,1500\t,1500.5",
    "1500,64,1500,15005E-1",  # an uppercase exponent
    "1500,64,1500,INF",  # an uppercase inf: a lost packet
    "1500,64,1500,1500.5\n",  # followed by a blank row
], ids=["quoted", "space", "tab", "exponent", "INF", "blank-row"])
def test_a_later_non_plain_row_reads_like_oracle(line):
    """A row in chunk 2 of an otherwise plain file that only ``csv.reader``
    reads: the plain chunk 1 and the rest of the stream read as one."""
    text = with_line(rows_with(n=2100), 1500, line)
    got = parsed(trace_from_csv, text)
    assert got == parsed(oracle.trace_from_csv, text)
    plain = trace_from_csv(rows_with(n=2100)).packets
    if "INF" in line:
        assert got[1499].lost and got[:1499] + got[1500:] == plain[:1499] + plain[1500:]
    else:
        assert got == plain


def test_plain_chunks_take_no_csv_rows():
    """A plain file is split chunk by chunk without ``_columns``; from its
    first chunk that is not plain, every chunk goes through ``_columns``."""
    with mock.patch.object(metrics, "_columns", wraps=metrics._columns) as spy:
        trace_from_csv(rows_with(n=3000))
        assert spy.call_count == 0
        trace_from_csv(with_line(rows_with(n=3000), 1500, '1500,"64",1500,1500.5'))
        assert spy.call_count == 2  # rows 1025-2048 and 2049-3000


def test_crlf_text_reads_as_lf_text():
    """CRLF line ends in a ``str`` go to ``csv.reader``, which reads them
    as the plain text."""
    text = rows_with(n=2100)
    crlf = text.replace("\n", "\r\n")
    assert trace_from_csv(crlf).packets == trace_from_csv(text).packets
    assert parsed(trace_from_csv, crlf) == parsed(oracle.trace_from_csv, crlf)


@pytest.mark.parametrize("text", [
    rows_with(n=2100),
    with_line(rows_with(n=2100), 1500, '1500,"64",1500,1500.5'),
    with_line(rows_with(n=2100), 1500, "1500,0,1500,1500.5"),  # size 0
    with_line(with_line(rows_with(n=2100), 1500, "1500,64,1500,x"), 1800, "0,64,0,0"),
], ids=["plain", "quoted", "size-0", "two-defects"])
def test_an_open_file_reads_as_its_text(tmp_path, text):
    """``trace_from_csv`` reads an open file from its position as it reads
    the text after it, a defect found by the row pass included."""
    path = tmp_path / "trace.csv"
    path.write_text("preamble\n" + text, encoding="utf-8")
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        got = parsed(trace_from_csv, fh)
    assert got == parsed(trace_from_csv, text) == parsed(oracle.trace_from_csv, text)


def primes(count):
    found = []
    k = 2
    while len(found) < count:
        if all(k % p for p in found if p * p <= k):
            found.append(k)
        k += 1
    return found


def prime_denominator_columns(n, seed=7):
    """Sizes, emit and observe times of n packets whose times have
    denominator p_i, the i-th prime, so that the common denominator is the
    product of n primes; sizes carry the first 50 primes.  Observations
    reorder over a few units."""
    rng = random.Random(seed)
    ps = primes(n)
    sizes, emits, observes = [], [], []
    for i, p in enumerate(ps, start=1):
        sizes.append(64 + F(1, ps[i % 50]))
        emits.append(i + F(1, p))
        observes.append(
            INF if i % 97 == 0 else i + rng.randrange(4) + F(rng.randrange(1, p), p))
    return sizes, emits, observes


def prime_denominator_csv(n):
    """The CSV of the ``prime_denominator_columns(n)`` trace, written row by
    row with ``fmt_rat``, as ``trace_to_csv`` would write it: ``Trace``
    refuses the base of those columns beyond about 1.3k rows."""
    rows = zip(range(1, n + 1), *prime_denominator_columns(n))
    lines = [",".join(CSV_HEADER), *(",".join(map(fmt_rat, row)) for row in rows)]
    return "".join(f"{line}\n" for line in lines)


def test_prime_denominators_match_oracle():
    columns = prime_denominator_columns(1000)
    ref = oracle.Trace(tuple(map(oracle.record, range(1, 1001), *columns)))
    trace = trace_from_csv(trace_to_csv(Trace(*columns)))
    assert trace.packets == ref.packets
    assert offsets(rto(trace)) == oracle.rto(ref)
    assert offsets(rbo(trace)) == oracle.rbo(ref)
    assert delay_jitter(trace) == oracle.delay_jitter(ref)
    arrivals = {p.index: (p.observe_time, p.size) for p in ref.packets}
    cfg = ResequencerConfig(F(3, 2), F(640))
    assert fields(simulate(trace, cfg)) == list_scan_simulate(arrivals, cfg)
    times = {i: t for i, (t, _) in arrivals.items()}
    assert analytic_departures(times, F(3, 2)) == oracle.analytic_departures(times, F(3, 2))


def test_prime_denominators_beyond_the_digit_limit_are_refused(tmp_path, capsys):
    """2000 rows: each chunk's time base fits in the interpreter's int-digit
    limit, but the two joined (about 7.5k digits) do not, so the file is
    refused before any tick is scaled to that base."""
    path = tmp_path / "primes.csv"
    path.write_text(prime_denominator_csv(2000), encoding="utf-8")
    limit = sys.get_int_max_str_digits()
    for argv in (["metrics", str(path)], ["simulate", "--timeout", "1", str(path)]):
        start = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"error: the times (emit_time_s, observe_time_s) need a tick base "
            f"beyond {limit} digits; put them on a common decimal grid\n")


def with_cell(text, row, column, cell):
    """``text`` with the cell in data row ``row`` (1-based) and ``column``
    replaced by ``cell``."""
    lines = text.split("\n")
    cells = lines[row].split(",")
    cells[column] = cell
    lines[row] = ",".join(cells)
    return "\n".join(lines)


class TestBaseRefusalPrecedence:
    """A base beyond the digit limit is no row's defect: the reader refuses
    it without the row pass, yet a defect in a row read before the refusal
    is still the one reported."""

    TEXT = prime_denominator_csv(2000)
    BASE = r"^the times \(emit_time_s, observe_time_s\) need a tick base beyond"

    def read(self, text):
        with mock.patch.object(metrics, "_raise_first_row_defect",
                               wraps=metrics._raise_first_row_defect) as spy:
            try:
                trace_from_csv(text)
            except ValueError as exc:
                return str(exc), spy.call_count
        raise AssertionError("the trace was not refused")

    def test_the_base_refusal_skips_the_row_pass(self):
        message, row_passes = self.read(self.TEXT)
        assert re.match(self.BASE, message) and row_passes == 0

    def test_a_size_of_0_in_row_1_is_reported(self):
        text = with_cell(self.TEXT, 1, 1, "0")
        assert self.read(text) == ("packet sizes must be > 0", 1)

    def test_a_junk_cell_in_chunk_1_is_reported(self):
        text = with_cell(self.TEXT, 900, 3, "junk")
        assert self.read(text) == ("not an exact numeric literal: 'junk'", 1)


def test_trace_refuses_a_base_beyond_the_digit_limit(monkeypatch):
    """``Trace(...)`` refuses the base of the 2000 prime-denominator rows as
    the CSV reader does, and builds them where there is no limit."""
    columns = prime_denominator_columns(2000)
    limit = sys.get_int_max_str_digits()
    with pytest.raises(TraceError) as exc:
        Trace(*columns)
    assert exc.type is TraceError and str(exc.value) == (
        f"the times need a tick base beyond {limit} digits; "
        "put them on a common decimal grid")
    monkeypatch.setattr(rational, "_int_digit_limit", lambda: 0)
    assert len(Trace(*columns)) == 2000
    monkeypatch.setattr(rational, "_int_digit_limit", lambda: 10)
    with pytest.raises(TraceError, match="^the sizes need a tick base beyond 10 digits"):
        Trace([1 + F(1, p) for p in primes(12)], None, range(12))
