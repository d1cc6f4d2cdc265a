"""Per-flow reordering metrics measured on packet traces.

A trace records, per packet index n (the sequence number stamped at the
source), the size, the emission time A_n and the observation time E_n at the
measurement point (inf when the packet was lost in between).  From it we
compute:

* the late time offset of packet n, ``lambda_n = E_n - min_{j>=n} E_j``:
  how long the worst later-numbered packet has already been ahead of n,
* the byte offset ``pi_n = sum of l_j over j > n with E_j < E_n``:
  how many bytes of later-numbered packets are already through when n shows
  up,
* worst/best delay and jitter over delivered packets.

Flow-level RTO / RBO are the maxima over the delivered packets.  Offsets of
lost packets are undefined and excluded throughout.

Time base: a ``Trace`` keeps its columns as integers.  Emit and observe
times are ticks of 1/``time_den`` s, where ``time_den`` is the least common
multiple of their denominators (10**9 for a nanosecond capture), and sizes
are ticks of 1/``size_den`` B.  Parsing, validation, ``rto``, ``rbo`` and
``delay_jitter`` run on those integers, so results stay exact.  ``rto``
and ``rbo`` return an ``OffsetResult``: the offset of each packet as a
column of ticks on the trace's base, INF for a lost packet, and the flow's
offset as one ``Fraction``; ``DelayJitter`` holds three.  A ``Trace`` is
built from those columns, ``Trace(sizes, emit_times, observe_times)``, or
read by ``trace_from_csv``; ``trace_to_csv`` writes the ticks straight back
out.  ``Trace.packets``, a per-packet view, is built from the columns on
first use and cached.

Offsets: ``rto`` is one backward pass that keeps a suffix minimum.  ``rbo``
sweeps the delivered packets in observation order and keeps ``lo``, the
lowest delivered index not yet observed.  A packet observed at ``lo`` takes
as its offset the bytes already observed above it, one running sum; only a
packet observed ahead of ``lo`` reads and updates a Fenwick tree, over the
range between the two.  Its cost thus follows the reorder extent: O(n)
after the sort for a trace in order, O(n log n) at worst.

Reading: ``trace_from_csv`` takes the text or an open text file, and
reads it a chunk of lines at a time.  A plain chunk, whose every line is
an index of ASCII digits and three non-empty cells over ``[0-9a-z./+-]``,
is split on its commas and newlines straight into four columns of cells.
From the first chunk that is not plain (a quoted or padded cell, a blank
row, a CRLF line end), the rest of the stream goes through one
``csv.reader``, whose rows are transposed into columns of stripped cells.
Each chunk's column is converted in a few passes over all of it into
ticks on its own base: plain decimals, and ``inf`` among them, become
ticks directly, and only the other literals (``3/7``, ``12e-6``) are
parsed one by one.  The chunks of a column are joined on the least
common multiple of their bases, emissions and observations on one base and
sizes on another; a base of more digits than an ``int`` literal may have
is refused.  The checks then run on whole columns, but for sizes above 0,
checked per chunk.  When one fails, a second reading, row by row, raises
the defect that comes first in the file, so a trace with several defects
reports the same error however it is read; a file that cannot seek, a
pipe, is therefore read whole first.  A refused base skips that
second reading, as no row shows it.  A refusal is reported where it is
found; later columns and chunks are not read.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice
from operator import gt, le
from typing import Dict, Iterator, List, Optional, Sequence, TextIO, Tuple, Union

from .rational import INF, Rat, Tick, check_digit_limit, exact, finite, fmt_ticks
from .rational import BaseLimitError, on_common_base, over, read_literals, rebased

CSV_HEADER = ["index", "size_bytes", "emit_time_s", "observe_time_s"]


class TraceError(ValueError):
    """Malformed trace (indices, ordering, causality)."""


class DuplicateObservationError(TraceError):
    """Two packets share a finite observation time; the caller must break ties."""


@dataclass(frozen=True)
class PacketObservation:
    """One packet of ``Trace.packets``, read from the validated columns.

    It converts nothing, so ``reseqkit`` does not export it: only
    ``Trace.packets`` builds it, from a validated trace's ticks."""

    index: int
    size: Fraction
    emit_time: Optional[Fraction]
    observe_time: Rat  # Fraction, or INF when lost

    @property
    def lost(self) -> bool:
        return self.observe_time is INF


class Trace:
    """A validated trace: per packet, in index order, its size and its emit
    and observe times as integer ticks (see the module docstring).

    ``Trace(sizes, emit_times, observe_times)`` takes one column per
    quantity, position i being packet i+1, and ``emit_times=None`` for a
    trace without emission times; its values are exact (a float other than
    ``INF`` is refused), and a base of more digits than an ``int`` literal
    may have is refused as the CSV reader refuses it.  ``trace_from_csv``
    fills the columns from the file.  Either way the same checks run on the
    integer columns: finite sizes above 0, contiguous indices from 1,
    emission times for all packets or none, wide-sense increasing
    emissions, no observation before emission, and distinct finite
    observation times.  ``packets`` is a per-packet view of the columns,
    built on first use.
    """

    def __init__(self, sizes: Sequence[Rat], emit_times: Optional[Sequence[Rat]],
                 observe_times: Sequence[Rat]) -> None:
        n = len(observe_times)
        if len(sizes) != n or (emit_times is not None and len(emit_times) != n):
            raise TraceError("size, emission and observation columns differ in length")
        try:
            sizes = list(map(exact, sizes))
            emits = [] if emit_times is None else list(map(exact, emit_times))
            observes = list(map(exact, observe_times))
            if INF in sizes:
                raise ValueError("packet sizes must be finite and > 0")
            if INF in emits:
                raise ValueError("emission times must be finite")
            size_den, (size_ticks,) = on_common_base(sizes, name="sizes")
            time_den, (emit_ticks, observe_ticks) = on_common_base(
                emits, observes, name="times")
        except ValueError as exc:
            raise TraceError(str(exc)) from None
        self._set_columns(size_den, size_ticks, time_den, emit_ticks, observe_ticks)

    @classmethod
    def _from_ticks(cls, size_den: int, size_ticks: List[int], time_den: int,
                    emit_ticks: List[int], observe_ticks: List[Tick]) -> "Trace":
        """A trace from integer tick columns on the given bases, checked
        as ``Trace(...)`` checks its own (``_set_columns``)."""
        trace = cls.__new__(cls)
        trace._set_columns(size_den, size_ticks, time_den, emit_ticks, observe_ticks)
        return trace

    def _set_columns(self, size_den: int, size_ticks: List[int], time_den: int,
                     emit_ticks: List[int], observe_ticks: List[Tick]) -> None:
        """Validate integer tick columns and keep them; ``emit_ticks`` is
        empty for a trace without emission times.  The order of the checks
        fixes which error a trace with several defects reports."""
        if min(size_ticks, default=1) <= 0:
            raise TraceError("packet sizes must be finite and > 0")
        if emit_ticks:
            if not all(map(le, emit_ticks, emit_ticks[1:])):
                raise TraceError("emission times must be wide-sense increasing")
            if any(map(gt, emit_ticks, observe_ticks)):  # never true for INF
                raise TraceError("observation before emission")
        _check_distinct_observations(observe_ticks)
        self.time_den, self.size_den = time_den, size_den
        self.size_ticks = tuple(size_ticks)
        self.emit_ticks = tuple(emit_ticks) if emit_ticks else None
        self.observe_ticks = tuple(observe_ticks)

    @cached_property
    def packets(self) -> Tuple[PacketObservation, ...]:
        times = over(dict(enumerate(self.observe_ticks, start=1)), self.time_den)
        sizes = over(dict(enumerate(self.size_ticks, start=1)), self.size_den)
        emits = (dict.fromkeys(times) if self.emit_ticks is None else
                 over(dict(enumerate(self.emit_ticks, start=1)), self.time_den))
        return tuple(PacketObservation(i, sizes[i], emits[i], times[i]) for i in times)

    @property
    def has_emit_times(self) -> bool:
        return self.emit_ticks is not None

    def __len__(self) -> int:
        return len(self.observe_ticks)


def _check_distinct_observations(observe_ticks: List[Tick]) -> None:
    lost = observe_ticks.count(INF)
    if len(set(observe_ticks)) == len(observe_ticks) - lost + (lost > 0):
        return
    seen: Dict[int, int] = {}
    for index, t in enumerate(observe_ticks, start=1):
        if t is INF:
            continue
        other = seen.get(t)
        if other is not None:
            raise DuplicateObservationError(
                f"packets {other} and {index} observed at the same instant; "
                "tie-break the timestamps explicitly"
            )
        seen[t] = index


@dataclass(frozen=True)
class OffsetResult:
    """A flow's offset (RTO or RBO), the maximum over its delivered packets
    or 0, and each packet's: packet n's is ``ticks[n - 1]`` ticks of
    1/``den`` (s or B), INF when it was lost."""

    ticks: Tuple[Tick, ...]
    den: int
    value: Fraction


@dataclass(frozen=True)
class DelayJitter:
    d_max: Fraction
    d_min: Fraction
    jitter: Fraction


def rto(trace: Trace) -> OffsetResult:
    """Reordering late time offset of the flow and of each delivered packet.

    Because index n itself belongs to {j >= n}, the suffix minimum of the
    observation times gives lambda_n directly; one backward pass suffices.
    """
    observes = trace.observe_ticks
    ticks: List[Tick] = [INF] * len(observes)
    suffix_min: Tick = INF
    best = 0
    for pos in range(len(observes) - 1, -1, -1):
        t = observes[pos]
        if t is not INF:
            if t < suffix_min:
                suffix_min = t
            late = ticks[pos] = t - suffix_min
            if late > best:
                best = late
    return OffsetResult(tuple(ticks), trace.time_den, Fraction(best, trace.time_den))


def rbo(trace: Trace) -> OffsetResult:
    """Reordering byte offset: per delivered packet, the bytes of
    later-indexed packets observed strictly earlier.

    Delivered packets are swept in observation order (the lost sort last
    and are cut).  ``lo`` is the smallest delivered position not yet
    observed and ``above`` the bytes already observed at positions above
    it; a packet counts as observed once its ``ticks`` entry is not INF.
    Before each packet, ``lo`` moves past observed and lost positions, and
    each observed one it passes leaves ``above``.  A packet observed at
    ``lo`` has ``above`` as its offset, in O(1).  Only a packet observed
    ahead of ``lo`` touches the Fenwick tree of sizes by position: its
    offset is ``above`` minus the tree's sum over ``(lo, pos]``, whose two
    prefix walks stop where they meet, and then it is inserted.  The cost
    thus follows the reorder extent: O(n) plus a sort in order, O(n log n).
    """
    observes, sizes = trace.observe_ticks, trace.size_ticks
    n = len(observes)
    tree = [0] * (n + 1)  # Fenwick tree of size ticks by 1-based position
    ticks: List[Tick] = [INF] * n
    lo = above = best = 0
    order = sorted(range(n), key=observes.__getitem__)
    while order and observes[order[-1]] is INF:
        order.pop()  # the lost sort last
    for pos in order:
        while lo < n and (ticks[lo] is not INF or observes[lo] is INF):
            if ticks[lo] is not INF:
                above -= sizes[lo]
            lo += 1
        if pos == lo:
            ticks[pos] = above
            if above > best:
                best = above
            lo += 1
            continue
        ahead, i, j = above, pos + 1, lo + 1
        while i != j:
            while i > j:
                ahead -= tree[i]
                i &= i - 1
            while j > i:
                ahead += tree[j]
                j &= j - 1
        ticks[pos] = ahead
        if ahead > best:
            best = ahead
        size = sizes[pos]
        above += size
        i = pos + 1
        while i <= n:
            tree[i] += size
            i += i & -i
    return OffsetResult(tuple(ticks), trace.size_den, Fraction(best, trace.size_den))


def delay_jitter(trace: Trace) -> DelayJitter:
    """Worst/best delay and jitter over delivered packets (lost ones excluded)."""
    if trace.emit_ticks is None:
        raise TraceError("delay metrics need emission times")
    delays = [o - e for e, o in zip(trace.emit_ticks, trace.observe_ticks)
              if o is not INF]
    if not delays:
        raise TraceError("all packets lost; delay metrics undefined")
    d_max, d_min, den = max(delays), min(delays), trace.time_den
    return DelayJitter(Fraction(d_max, den), Fraction(d_min, den),
                       Fraction(d_max - d_min, den))


def trace_to_csv(trace: Trace) -> str:
    """Serialize to the one-row-per-packet CSV format (exact numeric strings),
    each column written straight from its ticks."""
    n = len(trace)
    emits = (["-"] * n if trace.emit_ticks is None
             else fmt_ticks(trace.emit_ticks, trace.time_den))
    rows = zip(map(str, range(1, n + 1)), fmt_ticks(trace.size_ticks, trace.size_den),
               emits, fmt_ticks(trace.observe_ticks, trace.time_den))
    return "".join(f"{line}\n" for line in map(",".join, [CSV_HEADER, *rows]))


def trace_from_csv(source: Union[str, TextIO]) -> Trace:
    """Read a trace from CSV text, or from an open text file, at its
    position (see ``trace_to_csv``).

    The columns are read and checked whole (``_read_columns``).  When that
    fails, a pass row by row (``_raise_first_row_defect``) reads the source
    again from where it started and reports the defect that comes first in
    the file, so a trace with several defects always reports the same one;
    when no row is at fault, the column check's own error stands.  A file
    that cannot seek, a pipe, is therefore read whole first.  A base beyond
    the digit limit (``BaseLimitError``) is no row's defect and skips the
    row pass.  A refusal is reported where it is found: a column's base is
    refused before its values are checked, and later columns and chunks
    are not read.  Each chunk's sizes are checked above 0 as it is read, so
    a defect in an earlier chunk or column is the one reported."""
    if isinstance(source, str):
        source = io.StringIO(source)
    elif not source.seekable():
        source = io.StringIO(source.read())
    start = source.tell()
    try:
        try:
            return _read_columns(source)
        except BaseLimitError:  # no row shows it
            raise
        except (ValueError, csv.Error):
            source.seek(start)
            _raise_first_row_defect(source)
            raise
    except csv.Error as exc:
        raise TraceError(f"unreadable trace CSV: {exc}") from exc


def _check_header(header: Optional[List[str]]) -> None:
    if header is None or [h.strip() for h in header] != CSV_HEADER:
        raise TraceError(f"trace CSV must start with header {','.join(CSV_HEADER)}")


#: Lines read at a time: a chunk's cells are strings only until its columns
#: are converted, so the strings of the whole file are never held at once.
_CHUNK_ROWS = 1024

_CELL = "[0-9a-z./+-]+"
_ROW = f"[0-9]+,{_CELL},{_CELL},{_CELL}"
#: A chunk of plain rows: on every line an index of ASCII digits and three
#: non-empty cells over characters that hold no quote, blank, ``\r`` or
#: NUL, so each line reads as ``csv.reader`` reads it; the last line may
#: lack its newline.
_PLAIN_ROWS = re.compile(rf"(?:{_ROW}\n)*{_ROW}\n?")


def _read_columns(source: TextIO) -> Trace:
    """The trace in ``source``, read column by column.

    Each chunk of rows becomes four columns of stripped cells
    (``_column_chunks``), and each column is converted in a few passes:
    the indices by one comparison of their joined text with the expected
    one and, where they differ, an ASCII-digit test of the joined column
    and ``int`` (an empty or over-long cell makes ``int`` raise, and the
    row pass reports it through ``_packet_index``), sizes and times by
    ``read_literals`` into ``(base, ticks)``, which ``rebased`` moves to
    one base per quantity before the chunks are joined, each base checked
    against the digit limit first.  Sizes are checked above 0 per chunk,
    the rest on whole columns, so when several fail, the one raised need
    not be the first in the file (``trace_from_csv`` finds that one)."""
    lines = iter(source)
    _check_header(next(csv.reader(lines), None))
    n = missing = 0
    sizes: List[Tuple[int, List[int]]] = []
    emits: List[Tuple[int, List[int]]] = []
    observes: List[Tuple[int, List[Tick]]] = []
    for idx, size, emit, obs in _column_chunks(lines):
        expected = range(n + 1, n + len(idx) + 1)
        if "\n".join(idx) != "\n".join(map(str, expected)):  # a leading 0, or a defect
            digits = "".join(idx)
            if not (digits.isascii() and (digits.isdigit() or not digits)):
                raise TraceError("packet indices must be ASCII digits")
            if list(map(int, idx)) != list(expected):
                raise TraceError("packet indices must be contiguous from 1")
        n += len(idx)
        sizes.append(read_literals(size, finite, "sizes (size_bytes)"))
        if min(sizes[-1][1], default=1) <= 0:  # before a later base refusal
            raise TraceError("packet sizes must be finite and > 0")
        dashes = emit.count("-")
        if dashes == 0:
            emits.append(read_literals(emit, finite, "times (emit_time_s)"))
        missing += dashes
        observes.append(read_literals(obs, exact, "times (observe_time_s)"))
    if 0 < missing < n:
        raise TraceError("emission times must be present for all packets or none")
    size_den, sizes = rebased(*sizes, name="sizes (size_bytes)")
    time_den, times = rebased(*emits, *observes, name="times (emit_time_s, observe_time_s)")
    k, flat = len(emits), chain.from_iterable
    return Trace._from_ticks(size_den, list(flat(sizes)), time_den,
                             list(flat(times[:k])), list(flat(times[k:])))


def _column_chunks(lines: Iterator[str]) -> Iterator[List[List[str]]]:
    """The four columns of cells of each chunk of ``_CHUNK_ROWS`` lines.

    A chunk whose text ``_PLAIN_ROWS`` matches, and which is no longer than
    the field ``csv.reader`` takes, is split on its commas and newlines
    with no per-row step.  From the first chunk that is not plain, the rest
    of the stream goes through one ``csv.reader`` and ``_columns``: a plain
    chunk holds no quote, so no reader state is lost at that boundary."""
    limit = csv.field_size_limit()
    for chunk in iter(lambda: list(islice(lines, _CHUNK_ROWS)), []):
        block = "".join(chunk)
        if len(block) > limit or not _PLAIN_ROWS.fullmatch(block):
            reader = csv.reader(chain(chunk, lines))
            yield from map(_columns, iter(lambda: list(islice(reader, _CHUNK_ROWS)), []))
            return
        cells = block.replace("\n", ",").split(",")
        if block[-1] == "\n":
            cells.pop()  # the "" after the last newline
        yield [cells[0::4], cells[1::4], cells[2::4], cells[3::4]]


def _columns(rows: List[List[str]]) -> List[List[str]]:
    """The four columns of stripped cells of ``rows``, blank rows dropped.

    An empty line reads as ``[]``.  Other blank rows (whitespace only, or
    ``,,,``) are looked for row by row only when some row has other than
    four cells or a blank index cell, so a chunk without them takes no
    per-row Python loop."""
    rows = list(filter(None, rows))
    if set(map(len, rows)) == {4}:
        columns = [list(map(str.strip, col)) for col in zip(*rows)]
        if "" not in columns[0]:
            return columns
    rows = [row for row in rows if any(map(str.strip, row))]
    if any(len(row) != 4 for row in rows):
        raise TraceError("expected 4 columns")
    return [list(map(str.strip, col)) for col in zip(*rows)] or [[], [], [], []]


def _packet_index(cell: str) -> int:
    """The index in a stripped cell of ASCII digits; a sign, ``_`` or any
    other digit is refused."""
    if not (cell.isascii() and cell.isdigit()):
        raise ValueError(f"not a packet index: {cell!r}")
    check_digit_limit(cell)
    return int(cell)


def _raise_first_row_defect(source: TextIO) -> None:
    """Read ``source`` row by row and raise its first defect in file order:
    a row with the wrong number of cells, a cell that does not parse, an
    index below 1 or a size not above 0, then indices that are not
    contiguous.  Returns when there is none; it never builds a trace."""
    rows = csv.reader(source)
    _check_header(next(rows, None))
    indices: List[int] = []
    for lineno, row in enumerate(rows, start=2):
        if not any(map(str.strip, row)):
            continue
        if len(row) != 4:
            raise TraceError(f"line {lineno}: expected 4 columns")
        idx, size, emit, obs = map(str.strip, row)
        index = _packet_index(idx)
        size_value = finite(size)
        if emit != "-":
            finite(emit)
        exact(obs)
        if index < 1:
            raise TraceError("packet indices start at 1")
        if size_value <= 0:
            raise TraceError("packet sizes must be > 0")
        indices.append(index)
    if indices != list(range(1, len(indices) + 1)):
        raise TraceError("packet indices must be contiguous from 1")
