"""The block-at-a-time parsers against the row-at-a-time reference.

``parse_hdd_csv`` and ``parse_ssd_log`` cut a block of lines into cells
with numpy and convert the common cells a column at a time; every other row
goes whole through the per-row grammar. The reference below is the
row-at-a-time loop they replace: ``csv.reader`` over the whole input, one
``_parse_count``/``_parse_flag`` call per cell, one table row per data row.
Both share the table and the duplicate, conflict and quarantine rules that
follow the parse, so any difference comes from cutting or converting cells.

The generated texts hold cells on both sides of the kernel's subset:
padded, fractional, 18- and 19-digit and out-of-range counts, signs,
underscores, non-ASCII digits, NUL, quoted cells holding a comma or a
newline, ``#`` rows after the header, blank lines, extra and missing cells,
and dates the kernel does not take (``20140117``) or that do not exist
(``2014-02-30``).
"""

import csv
import datetime as dt
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drivelife import featurize, ingest
from drivelife.ingest import (HDD_SMART_IDS, SchemaError, _parse_count, _parse_flag,
                              _parse_ssd_row, _SSD_COLUMNS, _SSD_FIELDS, _Table,
                              parse_hdd_csv, parse_ssd_log)

# -- the row-at-a-time reference ---------------------------------------------


def _reader(stream):
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    rows = csv.reader(stream)
    try:
        for row in rows:
            if row and not row[0].startswith("#"):
                yield rows.line_num, row
                break
        yield from ((rows.line_num, row) for row in rows if row)
    except csv.Error as exc:
        raise SchemaError(f"line {rows.line_num}: {exc}") from None


def _header(rows):
    try:
        return [name.strip() for name in next(rows)[1]]
    except StopIteration:
        raise SchemaError("empty input: no header row") from None


def _parse(table, rows, width, parse_row):
    for lineno, row in rows:
        table.data_rows += 1
        try:
            if len(row) != width:
                raise ValueError(f"expected {width} fields, got {len(row)}")
            table.add(lineno, *parse_row(row))
        except ValueError as exc:
            table.rejected.append((lineno, str(exc)))
    table.sort()


def reference_hdd(stream, smart_ids=HDD_SMART_IDS, source="<stream>"):
    rows = _reader(stream)
    header = _header(rows)
    index = {name: i for i, name in enumerate(header)}
    missing = [c for c in ingest._HDD_MANDATORY if c not in index]
    if missing:
        raise SchemaError(f"missing mandatory column(s): {', '.join(missing)}")
    sids = [sid for sid in smart_ids if f"smart_{sid}_raw" in index]
    cols = [index[f"smart_{sid}_raw"] for sid in sids]
    i_date, i_serial, i_model, i_failure = (index[c] for c in ingest._HDD_MANDATORY)

    def parse_row(row):
        day = dt.date.fromisoformat(row[i_date].strip()).toordinal()
        serial = row[i_serial].strip()
        model = row[i_model].strip()
        if not serial:
            raise ValueError("empty serial_number")
        return serial, model, (day, _parse_flag(row[i_failure]),
                               *[_parse_count(row[c]) for c in cols])

    table = _Table(2 + len(cols))
    _parse(table, rows, len(header), parse_row)
    return ingest._hdd_dataset(table, sids, source)


def reference_ssd(stream, source="<stream>"):
    rows = _reader(stream)
    header = _header(rows)
    if header != list(_SSD_COLUMNS):
        missing = [c for c in _SSD_COLUMNS if c not in header]
        raise SchemaError(
            "SSD header mismatch; missing column(s): " + ", ".join(missing)
            if missing else "SSD header mismatch: unexpected column order or extras")
    table = _Table(len(_SSD_FIELDS))
    _parse(table, rows, len(header), _parse_ssd_row)
    return ingest._ssd_dataset(table, source)


# -- generated input -----------------------------------------------------------

HDD_SMART = (5, 9, 187)
HDD_HEADER = ["date", "serial_number", "model", "capacity_bytes", "failure",
              *(f"smart_{sid}_{kind}" for sid in HDD_SMART
                for kind in ("normalized", "raw"))]

#: Cells the kernel takes.
CLEAN = {
    "count": st.one_of(st.sampled_from(["0", "", "007", "9" * 18]),
                       st.integers(0, 10**18 - 1).map(str)),
    "flag": st.sampled_from(["0", "1", ""]),
    "date": st.dates(dt.date(2013, 1, 1), dt.date(2016, 12, 31)).map(str),
    "drive": st.sampled_from(["A", "B", "C-1"]),
    "model": st.sampled_from(["ST-A", "ST-B", ""]),
    "time": st.sampled_from(["0", "86400000000", "172800000000"]),
    "unread": st.sampled_from(["", "100"]),
}
#: Cells the kernel may not take, and a few it takes.
ODD = {
    "count": ["7", "", " 3 ", "12.0", "9" * 18, "9" * 19, str(2**63 - 1),
              str(2**63), "+5", "-1", "1_000", "٣", "3\x00", "\x00", "x", "1,2",
              "4\n5"],
    "flag": ["1", "", "2", " 1", "1.0", "١", "\x00"],
    "date": ["2016-02-29", "20140117", "2014-02-30", "2014-01017", "2014/01/17",
             "2014-1-17", " 2014-01-18", "0000-01-01", "", "bad", "٢014-01-17"],
    "drive": ["é", " C ", "", "Z\x00", "x,y", "q\nr", "D" * 70, "#"],
    "model": ["", " ST-A", "ST é", "\x00"],
    "time": ["", "x", " 0", "12.0", "9" * 19],
    "unread": ["x", " ", "é"],
}
HDD_KINDS = ["date", "drive", "model", "unread", "flag",
             *["unread", "count"] * len(HDD_SMART)]
SSD_KINDS = ["drive", "model", "time", *["count"] * 4, "flag", "flag",
             *["count"] * 12, "flag"]


def _cells(kinds):
    """Rows of cells of the given kinds that the kernel takes, some with
    one cell, of its kind, that it may not take."""
    @st.composite
    def cells(draw):
        row = [draw(CLEAN[k]) for k in kinds]
        if draw(st.booleans()):
            i = draw(st.sampled_from(range(len(kinds))))
            row[i] = draw(st.sampled_from(ODD[kinds[i]]))
        return row
    return cells()


def _quote(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


@st.composite
def texts(draw, header, row):
    """A CSV text: comments and blanks, the header, then rows (some repeated,
    some with a cell too many or too few), blank lines and ``#`` rows. Some
    texts quote some cells of some rows, and some end lines with CRLF."""
    rows = draw(st.lists(row, max_size=14))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=5))
    quoting = draw(st.booleans())
    lines = draw(st.lists(st.sampled_from(["# comment", ""]), max_size=2))
    lines.append(",".join(header))
    for cells in draw(st.permutations(rows)):
        change = draw(st.integers(0, 11))
        if change == 0:
            cells = cells + ["9"]
        elif change == 1:
            cells = cells[:-1]
        if quoting and draw(st.integers(0, 3)) == 0:
            quoted = draw(st.lists(st.booleans(), min_size=len(cells),
                                   max_size=len(cells)))
            cells = [_quote(c) if q else c for c, q in zip(cells, quoted)]
        lines.append(",".join(cells))
        lines += draw(st.lists(st.sampled_from(["", "#2014-01-17,A", " "]),
                               max_size=1))
    end = draw(st.sampled_from(["\n", "\n", "\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def _outcome(parse, stream):
    try:
        ds = parse(stream)
    except SchemaError as exc:
        return "SchemaError", str(exc)
    return ds, ds.provenance


def _inputs(text: str, form: str):
    """The text as a str, a text stream, its lines, or its lines through the
    header and then pieces of 5 characters (each piece is a line to the CSV
    reader, whether it holds a newline or not)."""
    if form == "str":
        return text
    if form == "stream":
        return io.StringIO(text)
    lines = io.StringIO(text).readlines()
    if form == "lines":
        return lines
    header = next((i for i, line in enumerate(lines)
                   if line.strip() and not line.startswith("#")), len(lines))
    rest = "".join(lines[header + 1:])
    return lines[:header + 1] + [rest[i:i + 5] for i in range(0, len(rest), 5)]


def _assert_same(parse, reference, text, form, block):
    expected = _outcome(reference, _inputs(text, form))
    with mock.patch.object(ingest, "_READ_BLOCK", block):
        got = _outcome(parse, _inputs(text, form))
    assert got == expected


FORMS = st.sampled_from(["str", "lines", "stream", "pieces"])
BLOCKS = st.sampled_from([1, 2, 3, 4_096])


@given(texts(HDD_HEADER, _cells(HDD_KINDS)), FORMS, BLOCKS)
@settings(max_examples=80, deadline=None)
def test_hdd_matches_row_at_a_time_reference(text, form, block):
    _assert_same(lambda s: parse_hdd_csv(s, smart_ids=HDD_SMART),
                 lambda s: reference_hdd(s, smart_ids=HDD_SMART), text, form, block)


@given(texts(list(_SSD_COLUMNS), _cells(SSD_KINDS)), FORMS, BLOCKS)
@settings(max_examples=80, deadline=None)
def test_ssd_matches_row_at_a_time_reference(text, form, block):
    _assert_same(parse_ssd_log, reference_ssd, text, form, block)


@given(st.lists(st.text(alphabet=',0123456789-:ab#" \r\n\x00é', max_size=20),
                max_size=10), st.sampled_from(["hdd", "ssd"]), FORMS, BLOCKS)
@settings(max_examples=80, deadline=None)
def test_any_lines_match_the_reference(lines, family, form, block):
    header = ",".join(HDD_HEADER if family == "hdd" else _SSD_COLUMNS)
    parse, reference = {"hdd": (parse_hdd_csv, reference_hdd),
                        "ssd": (parse_ssd_log, reference_ssd)}[family]
    _assert_same(parse, reference, "\n".join([header, *lines]), form, block)


#: One cell of each kind that the kernel takes.
PLAIN = {"count": "12", "flag": "0", "date": "2014-01-17", "drive": "A",
         "model": "ST-A", "time": "0", "unread": ""}


@pytest.mark.parametrize("quoted", [False, True], ids=["raw", "quoted"])
@pytest.mark.parametrize("family", ["hdd", "ssd"])
def test_every_odd_cell_in_every_column_matches_the_reference(family, quoted):
    """One row per (column, odd cell), the rest of the row plain; each row
    its own drive, unless the odd cell is the drive."""
    kinds, header, parse, reference = {
        "hdd": (HDD_KINDS, HDD_HEADER, lambda s: parse_hdd_csv(s, smart_ids=HDD_SMART),
                lambda s: reference_hdd(s, smart_ids=HDD_SMART)),
        "ssd": (SSD_KINDS, list(_SSD_COLUMNS), parse_ssd_log, reference_ssd)}[family]
    lines = [",".join(header)]
    for i, kind in enumerate(kinds):
        for k, cell in enumerate(ODD[kind]):
            row = [PLAIN[k] for k in kinds]
            row[kinds.index("drive")] = f"D{i}-{k}"
            row[i] = _quote(cell) if quoted else cell
            lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    for block in (1, 7, 4_096):
        _assert_same(parse, reference, text, "str", block)


@pytest.mark.parametrize("year", [0, 1, 2, 4, 100, 400, 1600, 1900, 1970, 2000, 2004,
                                  2014, 2100, 2400, 9999, 10000])
def test_date_ordinals_are_datetime_ordinals(year):
    """Every month and day number from 0 to past the end, in common, leap and
    century years and outside ``datetime``'s years."""
    month, day = (a.ravel() for a in np.meshgrid(np.arange(14), np.arange(33)))

    def ordinal(m, d):
        try:
            return dt.date(year, m, d).toordinal()
        except ValueError:
            return 0

    got = ingest._ordinals(np.full(month.size, year), month, day)
    assert got.tolist() == [ordinal(m, d) for m, d in zip(month.tolist(), day.tolist())]


def test_reference_agrees_on_an_overlong_cell():
    text = ",".join(HDD_HEADER) + "\n2014-01-17,A,M,,0,," + "1" * 200_000 + ",,1,,2\n"
    for parse in (parse_hdd_csv, reference_hdd):
        with pytest.raises(SchemaError, match="^line 2: field larger than field limit"):
            parse(text)


# -- block boundaries ----------------------------------------------------------


MIXED = "\n".join([
    "# exported 2014-02-01", "",
    ",".join(HDD_HEADER),
    "2014-01-17,A,ST-A,,0,,1,,100,,0",
    "2014-01-18,A,ST-A,,0,,1,,124,,0",
    "",
    '2014-01-19,"A",ST-A,,0,,1,,148,,"2',
    '3"',
    "2014-01-19,B,ST-B,,1,, 3 ,,12.0,,",
    "#2014-01-20,B,ST-B,,0,,1,,1,,1",
    "2014-01-20,B,ST-B,,0,,1,,1",
    "2014-01-20,B,ST-B,,0,,1,,1,,1,,",
    "2014-02-30,C,ST-B,,0,,1,,1,,1",
    '2014-01-20,"C,D",ST-B,,0,,1,,1,,1',
    "2014-01-20,é,ST-B,,0,,1,,1,,1",
    "2014-01-17,A,ST-A,,0,,1,,100,,0",
    "2014-01-21,C,ST-B,,0,,1,,,," + "9" * 19,
    '"2014-01-22",C,ST-B,,0,,"1",,"\n7\n",,',
    "2014-01-23,C,ST-B,,0,,2,,8,,",
    "20140124,C,ST-B,,0,,2,,9,,",
]) + "\n"


@pytest.mark.parametrize("form", ["str", "file", "lines"])
@pytest.mark.parametrize("block", [1, 2, 3, 5])
def test_small_blocks_parse_as_one_block(form, block, tmp_path, monkeypatch):
    """Blocks of a few lines, some of which cut a quoted record, give the
    one-block parse, line numbers included."""
    path = tmp_path / "hdd.csv"
    path.write_text(MIXED, newline="")

    def parse():
        if form == "file":
            with open(path) as handle:
                return _outcome(lambda s: parse_hdd_csv(s, smart_ids=HDD_SMART), handle)
        stream = MIXED if form == "str" else MIXED.splitlines(keepends=True)
        return _outcome(lambda s: parse_hdd_csv(s, smart_ids=HDD_SMART), stream)

    whole = parse()
    assert whole[1]["data_rows"] == 15
    assert whole[1]["rejected"] == [
        (8, "not a non-negative 64-bit integer: '2\\n3'"),
        (10, "Invalid isoformat string: '#2014-01-20'"),
        (11, "expected 11 fields, got 9"), (12, "expected 11 fields, got 13"),
        (13, "day is out of range for month"),
        (16, "duplicate row for (A, 2014-01-17)"),
        (17, f"not a non-negative 64-bit integer: '{'9' * 19}'")]
    assert (whole[0].drives, whole[0].n_records) == (["A", "B", "C", "C,D", "é"], 8)
    monkeypatch.setattr(ingest, "_READ_BLOCK", block)
    assert parse() == whole
    assert whole == _outcome(lambda s: reference_hdd(s, smart_ids=HDD_SMART), MIXED)


def test_crlf_lines_take_the_comma_split():
    """A carriage return before a line's newline ends the line; any other
    carriage return leaves the block to the CSV reader."""
    cols = range(len(HDD_HEADER))
    crlf = ["2014-01-17,A,ST-A,,0,,1,,100,,0\r\n", "\r\n",
            "2014-01-18,A,ST-A,,0,,1,,124,,\r\n"]
    block = ingest._split(crlf, 1, len(HDD_HEADER), cols)
    assert block is not None
    assert (block.data_rows, block.line.tolist()) == (2, [2, 4])
    assert block.row(1) == "2014-01-18,A,ST-A,,0,,1,,124,,".split(",")
    # The last cells, "0" and "", end before the carriage return.
    assert (block.end - block.start)[-1].tolist() == [1, 0]
    assert ingest._split(["2014-01-17,A\r,ST-A,,0,,1,,100,,0\n"], 1,
                         len(HDD_HEADER), cols) is None


# -- text given as a str -------------------------------------------------------

#: Characters ``str.splitlines`` breaks a line at and the CSV input does not.
NOT_NEWLINES = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@given(st.text(alphabet=["a", ",", '"', "\n", *NOT_NEWLINES], max_size=40))
@settings(max_examples=200, deadline=None)
def test_str_lines_are_the_stringio_lines(text):
    assert list(ingest._lines(text)) == list(io.StringIO(text))


def _examples_outcome(stream):
    try:
        ex = featurize.read_examples_csv(stream)
    except SchemaError as exc:
        return "SchemaError", str(exc)
    return (ex.names, ex.X.tobytes(), ex.y.tobytes(), ex.drive.tobytes(), ex.drive_ids,
            ex.days.tobytes(), ex.partition_key.tobytes())


def _odd_texts(header, row, end, last):
    """Texts of ``row(cell)`` lines whose cell holds each character that is
    not a newline to the CSV input: raw (without the carriage return, which
    the reader refuses there), quoted, and a raw carriage return alone."""
    raw = [row(f"D{i}{c}x") for i, c in enumerate(NOT_NEWLINES[1:])]
    quoted = [row(_quote(f"Q{i}{c}x")) for i, c in enumerate(NOT_NEWLINES)]
    for rows in (raw, quoted, [row("R\rx")], raw + quoted):
        yield end.join([",".join(header), *rows]) + last


@pytest.mark.parametrize("last", ["", "\n"], ids=["open", "closed"])
@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("family", ["hdd", "ssd", "examples"])
def test_str_input_reads_as_its_text_stream(family, end, last):
    if family == "hdd":
        header, outcome = HDD_HEADER, lambda s: _outcome(
            lambda t: parse_hdd_csv(t, smart_ids=HDD_SMART), s)

        def row(cell):
            return f"2014-01-17,{cell},{cell},,0,,1,,100,,0"
    elif family == "ssd":
        header, outcome = list(_SSD_COLUMNS), lambda s: _outcome(parse_ssd_log, s)

        def row(cell):
            cells = [PLAIN[k] for k in SSD_KINDS]
            cells[:2] = [cell, cell]
            return ",".join(cells)
    else:
        header = ["f1", "f2", "label", "drive_id", "day", "partition_key"]
        outcome = _examples_outcome

        def row(cell):
            return f"1.0,2.5,0,{cell},3,3.0"
    for text in _odd_texts(header, row, end, last):
        assert outcome(text) == outcome(io.StringIO(text))
