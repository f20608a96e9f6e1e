"""Parse, validate, and filter raw daily telemetry into a columnar fleet store.

Two device families are supported:

* HDD: Backblaze-style daily snapshot CSV. Columns: ``date, serial_number,
  model, capacity_bytes, failure, smart_<id>_normalized, smart_<id>_raw, ...``.
  Only the ``smart_<id>_raw`` columns are consumed.
* SSD: a canonical CSV defined here (the original logs use a proprietary
  format). Columns: ``drive_id, model, timestamp_us, read_ops, write_ops,
  erase_ops, pe_cycles_cum, dead, read_only, bad_blocks_factory_cum,
  bad_blocks_new_cum, err_<kind> x10, swap_event``. Booleans are 0/1; a day
  with no report is an absent row. Numeric activity cells may be empty on
  bare swap-marker rows (the swap is logged but no performance summary is).

Both parsers skip leading lines starting with ``#`` (artifact metadata
comments), reject malformed rows with a per-row reason, and never impute:
an empty SMART cell is an absent entry, not a zero. They stream the rows
into flat integer tables and hold no per-row objects.

The parsers read ``_READ_BLOCK`` whole lines at a time, so memory is bounded
by a block. A block without quotes is encoded once, and numpy finds every
comma in it, which gives each row's cell count and the (start, end) of
every cell wanted; a carriage return directly before a line's newline ends
the line with it (a block with a quote or any other carriage return is cut
by ``csv.reader`` instead, through the end of its last record). A
row with another cell count than the header's is rejected. The wanted cells
are then checked and converted a column at a time (:func:`_column`), for
the strict common subset of the grammar: counts of 1 to 18 ASCII digits
(right-aligned digits dotted with powers of ten), flags ``0``/``1``/empty,
``YYYY-MM-DD`` dates, and drive ids and models with printable ASCII at both
ends. A row with any other cell goes whole through the per-row parse
(``_parse_count``, ``_parse_flag`` and the family's row function), which
alone defines the grammar, the reject reasons and which cell's reason wins;
the kernel only accepts what it would accept, with the same values. This
finds the structure of a block in bulk before validating its values, as
simdjson does for JSON (Langdale & Lemire, "Parsing Gigabytes of JSON per
Second", VLDB J. 2019).

The writers run the other way, ``_WRITE_BATCH`` rows at a time
(:func:`_format_rows`): each cell's size gives its end by a cumulative sum,
and the batch's text is one byte buffer filled a column and a digit
position at a time. An integer is written as its digits (``-`` first when
negative), an absent cell empty, and an integer-valued float in
[0, 2**53) as its digits and ``.0``, which is its ``repr`` (repr turns to
an exponent only at 1e16, and every such float converts to uint64
exactly). Any other float is written as its ``repr`` and every string as
``csv.writer`` quotes it, once per distinct value in a batch. The text is
``csv.writer``'s, byte for byte. This is the digits-and-offsets idea of
fast number formatting (Adams, "Ryū", PLDI 2018), kept to integers, where
it is exact.

A parsed dataset is stored whole, with a key that says what it was parsed
from, by :func:`write_dataset_npz`, and loaded back equal by
:func:`read_dataset_npz` when the key matches: an uncompressed zip of
arrays in numpy's NPY format (NEP 1), as ``numpy.savez`` writes them.
"""

from __future__ import annotations

import csv
import datetime as dt
import encodings.cp437  # noqa: F401  zipfile decodes member names with it
import io
import json
import re
import zipfile
from array import array
from collections.abc import Mapping, Sequence as SequenceABC
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, repeat
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
import numpy.ma

__all__ = [
    "SchemaError",
    "HDD_SMART_IDS",
    "SSD_ERROR_KINDS",
    "US_PER_DAY",
    "HddDailyRecord",
    "SsdDailyRecord",
    "FleetDataset",
    "parse_hdd_csv",
    "parse_ssd_log",
    "filter_hdd",
    "write_hdd_csv",
    "write_ssd_csv",
    "write_dataset_npz",
    "read_dataset_npz",
]


class SchemaError(ValueError):
    """Input file does not conform to the expected column schema."""


#: SMART ids consumed from HDD snapshots.
HDD_SMART_IDS = (1, 3, 4, 5, 7, 9, 10, 12, 187, 188, 190, 192, 193, 194,
                 197, 198, 199, 240, 241, 242)

#: The ten per-day SSD error counters, in canonical column order.
SSD_ERROR_KINDS = ("correctable", "erase", "final_read", "final_write", "meta",
                   "read", "response", "timeout", "uncorrectable", "write")

US_PER_DAY = 86_400_000_000

_SSD_COLUMNS = (
    "drive_id", "model", "timestamp_us", "read_ops", "write_ops", "erase_ops",
    "pe_cycles_cum", "dead", "read_only", "bad_blocks_factory_cum",
    "bad_blocks_new_cum",
    *(f"err_{kind}" for kind in SSD_ERROR_KINDS),
    "swap_event",
)

_HDD_MANDATORY = ("date", "serial_number", "model", "failure")

#: SSD count fields that may be absent (a bare swap marker has none).
_SSD_COUNT_FIELDS = ("read_ops", "write_ops", "erase_ops", "pe_cycles_cum",
                     "bad_blocks_factory_cum", "bad_blocks_new_cum")

_SSD_ERRORS = tuple(f"err_{kind}" for kind in SSD_ERROR_KINDS)

_FLAGS = {"hdd": ("failed",), "ssd": ("dead", "read_only", "swap_event")}

#: SSD table fields (see _Table), in the order in which the parser checks
#: the cells.
_SSD_FIELDS = ("time", *_SSD_ERRORS, *_SSD_COUNT_FIELDS[:4], "dead", "read_only",
               *_SSD_COUNT_FIELDS[4:], "swap_event")

#: Rows formatted per batch by the writers.
_WRITE_BATCH = 2_048

#: Lines the parsers read, cut into cells and convert per block.
_READ_BLOCK = 2_048

#: Each SSD table field's CSV column, and the grammar of its cells (see
#: _column).
_SSD_CELLS = tuple(_SSD_COLUMNS.index("timestamp_us" if f == "time" else f)
                   for f in _SSD_FIELDS)
_SSD_KINDS = tuple("time" if f == "time" else "error" if f in _SSD_ERRORS
                   else "flag" if f in _FLAGS["ssd"] else "count" for f in _SSD_FIELDS)

#: Powers of ten for the kernel's counts of up to 18 digits (below 2**63).
_POW10 = 10 ** np.arange(17, -1, -1, dtype=np.int64)

#: Longest drive id or model name the kernel takes; a longer one goes to the
#: per-row parse.
_ID_MAX = 64


@dataclass(frozen=True, slots=True)
class HddDailyRecord:
    """One HDD drive-day: identity, failure flag, and raw SMART values.

    ``smart_raw`` is a partial mapping; an id absent from the snapshot is
    absent here too (imputation policy lives in featurize).
    """

    date: dt.date
    serial: str
    model: str
    failed_today: bool
    smart_raw: Mapping[int, int]


@dataclass(frozen=True, slots=True)
class SsdDailyRecord:
    """One SSD drive-day of activity, wear, status, and error counts.

    Activity and cumulative fields are ``None`` when the day's performance
    summary is missing (e.g. a bare swap-marker row). ``errors`` holds the
    day's nonzero counters only; a kind absent from the mapping saw zero
    errors that day.
    """

    drive_id: str
    model: str
    timestamp_us: int
    read_ops: int | None
    write_ops: int | None
    erase_ops: int | None
    pe_cycles_cum: int | None
    dead: bool
    read_only: bool
    bad_blocks_factory_cum: int | None
    bad_blocks_new_cum: int | None
    errors: Mapping[str, int]
    swap_event: bool

    @property
    def day(self) -> int:
        """Drive-age day index (timestamps count from lifetime start)."""
        return self.timestamp_us // US_PER_DAY

    def error_count(self, kind: str) -> int:
        return self.errors.get(kind, 0)


class FleetDataset:
    """One device family's drive-days, stored as columns.

    The layout is the CSR row-offset scheme (Saad, *Iterative Methods for
    Sparse Linear Systems*, ch. 3) with one array per field plus a
    validity mask, as in the Apache Arrow columnar format:

    * ``drives`` are the sorted drive ids; ``drives[i]`` owns rows
      ``starts[i]:starts[i+1]``, in time order, and owns at least one row.
    * ``time``: the SSD ``timestamp_us``, or the HDD date as a day ordinal
      (``datetime.date.toordinal``).
    * per-row model codes behind :meth:`models` and :attr:`model_of`;
    * :meth:`column`: every count field as (int64 values, bool present);
    * :meth:`flag`: SSD ``dead``, ``read_only`` and ``swap_event``, HDD
      ``failed``.

    Every array is read-only. A mask with no absent cell is one shared
    all-true array (Arrow omits such a bitmap), and an HDD SMART id that
    no row reports is not stored.

    Records are an edge, not the store: :meth:`from_records` builds a
    dataset from record sequences, and :attr:`records` builds one
    :class:`HddDailyRecord` or :class:`SsdDailyRecord` when it is indexed.

    ``provenance`` describes where the data came from and what the parser
    did to it (rejected rows, quarantined drives, filters). It is carried
    for reporting and deliberately excluded from equality so round-tripped
    datasets compare equal on content.
    """

    def __init__(self, family: str, names: Sequence[str], drive: np.ndarray,
                 models: Sequence[str], columns: dict, present: dict,
                 provenance: dict | None = None):
        # Datasets come from from_records, the parsers and synth. Rows are
        # in dataset order: ``drive`` is each row's index into the sorted
        # ``names``, and ``columns["model"]`` its index into the sorted
        # ``models``. Names and models without rows are dropped.
        per_drive = np.bincount(drive, minlength=len(names))
        used = np.bincount(columns["model"], minlength=len(models)) > 0
        columns["model"] = (np.cumsum(used, dtype=np.int32) - 1)[columns["model"]]
        self.family = family
        self.drives = [n for n, k in zip(names, per_drive) if k]
        self.starts = np.concatenate(([0], np.cumsum(per_drive[per_drive > 0])))
        self._models = tuple(m for m, u in zip(models, used) if u)
        self._everywhere = np.ones(self.starts[-1], dtype=bool)
        self._columns = {k: v for k, v in columns.items()
                         if family == "ssd" or k not in present or present[k].any()}
        self._present = {k: self._everywhere if mask.all() else mask
                         for k, mask in present.items() if k in self._columns}
        for a in (self.starts, *self._columns.values(), *self._present.values()):
            a.flags.writeable = False
        self.provenance = {} if provenance is None else provenance

    @classmethod
    def from_records(cls, family: str, by_drive: Mapping[str, Sequence],
                     provenance: dict | None = None) -> "FleetDataset":
        """A dataset from each drive's records, sorted by time.

        Drives without records are dropped, as the parsers drop them.
        """
        if family == "hdd":
            sids = sorted({sid for seq in by_drive.values() for r in seq
                           for sid in r.smart_raw})
            fields = ("time", "failed", *(f"smart_{sid}" for sid in sids))

            def cells(r):
                return (r.date.toordinal(), r.failed_today,
                        *[r.smart_raw.get(sid, -1) for sid in sids])
        elif family == "ssd":
            fields = _SSD_FIELDS

            def cells(r):
                return (r.timestamp_us, *[r.errors.get(k, 0) for k in SSD_ERROR_KINDS],
                        *[-1 if v is None else v for v in map(
                            r.__getattribute__, _SSD_FIELDS[1 + len(_SSD_ERRORS):])])
        else:
            raise ValueError(f"unknown family {family!r}")
        table = _Table(len(fields))
        for drive, seq in by_drive.items():
            for r in seq:
                table.add(0, drive, r.model, cells(r))
        table.sort()
        return table.dataset(family, table.order, fields, provenance)

    @property
    def n_drives(self) -> int:
        return len(self.drives)

    @property
    def n_records(self) -> int:
        return int(self.starts[-1])

    @property
    def time(self) -> np.ndarray:
        """Per row: SSD ``timestamp_us``, or the HDD date as a day ordinal."""
        return self._columns["time"]

    def row_drive(self) -> np.ndarray:
        """Per row: the index of its drive in ``drives``."""
        return np.repeat(np.arange(self.n_drives), np.diff(self.starts))

    def column(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """One count field of every row, in ``drives`` then time order.

        Returns the stored (int64 values, bool present); an absent cell
        reads 0. SSD fields: ``read_ops``, ``write_ops``, ``erase_ops``,
        ``pe_cycles_cum``, ``bad_blocks_{factory,new}_cum`` and
        ``err_<kind>`` (a kind the day did not report counts 0 and is
        present). HDD fields: ``smart_<id>`` (an id no row reports is all
        absent) and the ``failed`` flag (bool, always present). Other
        names raise KeyError.
        """
        if self.family == "hdd" and name.startswith("smart_") and name[6:].isdigit():
            name = f"smart_{int(name[6:])}"
            if name not in self._columns:
                return np.zeros(self.n_records, dtype=np.int64), ~self._everywhere
        elif name not in self._present and name not in {
                "ssd": _SSD_ERRORS, "hdd": ("failed",)}[self.family]:
            raise KeyError(f"no column {name!r} in a {self.family} dataset")
        return self._columns[name], self._present.get(name, self._everywhere)

    def flag(self, name: str) -> np.ndarray:
        """One bool flag of every row: SSD ``dead``, ``read_only`` and
        ``swap_event``; HDD ``failed``."""
        if name not in _FLAGS[self.family]:
            raise KeyError(f"no flag {name!r} in a {self.family} dataset")
        return self._columns[name]

    @property
    def drive_models(self) -> tuple[str, ...]:
        """Per drive, in ``drives`` order: the model of its first row."""
        codes = self._columns["model"][self.starts[:-1]].tolist()
        return tuple(self._models[c] for c in codes)

    @property
    def model_of(self) -> dict[str, str]:
        """Drive -> the model of its first row."""
        return dict(zip(self.drives, self.drive_models))

    def models(self) -> list[str]:
        return sorted(set(self.model_of.values()))

    def _take(self, rows: np.ndarray, provenance: dict) -> "FleetDataset":
        """The dataset of the given rows (increasing indexes)."""
        return FleetDataset(
            self.family, self.drives, self.row_drive()[rows], self._models,
            {k: v[rows] for k, v in self._columns.items()},
            {k: v[rows] for k, v in self._present.items()}, provenance)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FleetDataset):
            return NotImplemented
        return (self.family == other.family and self.drives == other.drives
                and self._models == other._models
                and np.array_equal(self.starts, other.starts)
                and all(a.keys() == b.keys()
                        and all(np.array_equal(a[k], b[k]) for k in a)
                        for a, b in ((self._columns, other._columns),
                                     (self._present, other._present))))

    __hash__ = None

    def __repr__(self) -> str:
        return (f"FleetDataset(family={self.family!r}, n_drives={self.n_drives}, "
                f"n_records={self.n_records})")

    @cached_property
    def records(self) -> Mapping[str, Sequence]:
        """Read-only drive -> records view that builds a record when indexed."""
        return MappingProxyType({d: _Records(self, d, range(a, b)) for d, a, b in zip(
            self.drives, self.starts[:-1].tolist(), self.starts[1:].tolist())})

    def _record(self, drive: str, row: int):
        cols, present = self._columns, self._present
        model = self._models[cols["model"][row]]
        if self.family == "hdd":
            smart = {int(k[6:]): int(v[row]) for k, v in cols.items()
                     if k.startswith("smart_") and present[k][row]}
            return HddDailyRecord(dt.date.fromordinal(int(cols["time"][row])),
                                  drive, model, bool(cols["failed"][row]), smart)
        counts = {k: int(cols[k][row]) if present[k][row] else None
                  for k in _SSD_COUNT_FIELDS}
        errors = {kind: int(cols[k][row])
                  for kind, k in zip(SSD_ERROR_KINDS, _SSD_ERRORS) if cols[k][row]}
        return SsdDailyRecord(
            drive_id=drive, model=model, timestamp_us=int(cols["time"][row]),
            dead=bool(cols["dead"][row]), read_only=bool(cols["read_only"][row]),
            errors=errors, swap_event=bool(cols["swap_event"][row]), **counts)


class _Records(SequenceABC):
    """One drive's rows as records, each built when it is indexed."""

    def __init__(self, ds: FleetDataset, drive: str, rows: range):
        self._ds, self._drive, self._rows = ds, drive, rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._ds._record(self._drive, r) for r in self._rows[i]]
        return self._ds._record(self._drive, self._rows[i])


#: Layout version of the files :func:`write_dataset_npz` writes; it is part
#: of every key, so a file of another layout is never read as this one.
_NPZ_FORMAT = 1


def write_dataset_npz(ds: FleetDataset, out, key: dict) -> None:
    """Write ``ds`` to the binary file ``out`` as an uncompressed NPZ archive.

    Each member is one array in numpy's NPY format (NEP 1), in a zip, as
    ``numpy.savez`` writes them: ``starts``, ``column.<name>`` for every
    stored column and ``present.<name>`` for every mask that is not all
    true. The ``meta`` member is UTF-8 JSON: ``key`` (with the layout
    version), the family, drives and models, the names of the columns and
    masks, and the provenance without its ``source``. Every member has the
    zip epoch as its time, so a dataset and key give the same bytes
    wherever they are written.
    """
    meta = {"key": {"format": _NPZ_FORMAT, **key}, "family": ds.family,
            "drives": ds.drives, "models": ds._models, "columns": list(ds._columns),
            "present": list(ds._present),
            "provenance": {k: v for k, v in ds.provenance.items() if k != "source"}}
    members = {"meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
               "starts": ds.starts,
               **{f"column.{k}": v for k, v in ds._columns.items()},
               **{f"present.{k}": v for k, v in ds._present.items()
                  if v is not ds._everywhere}}
    with zipfile.ZipFile(out, "w") as archive:
        for name, array in members.items():
            with archive.open(zipfile.ZipInfo(f"{name}.npy"), "w",
                              force_zip64=True) as member:
                np.lib.format.write_array(member, array, allow_pickle=False)


def read_dataset_npz(path, key: dict, source: str) -> FleetDataset | None:
    """The dataset that :func:`write_dataset_npz` wrote to ``path`` with
    ``key``, its provenance's ``source`` set to ``source``.

    None when ``path`` holds another key, or is missing or unreadable.
    """
    try:
        with zipfile.ZipFile(path) as archive:
            def member(name: str) -> np.ndarray:
                with archive.open(f"{name}.npy") as handle:
                    return np.lib.format.read_array(handle, allow_pickle=False)

            meta = json.loads(member("meta").tobytes())
            if meta["key"] != {"format": _NPZ_FORMAT, **key}:
                return None
            starts = member("starts")
            names = set(archive.namelist())
            columns = {k: member(f"column.{k}") for k in meta["columns"]}
            present = {k: member(f"present.{k}") if f"present.{k}.npy" in names
                       else np.ones(starts[-1], dtype=bool) for k in meta["present"]}
    except (OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile):
        return None  # not written by write_dataset_npz, or damaged
    provenance = {k: [tuple(v) for v in value] if k in ("rejected", "quarantined")
                  else value for k, value in meta["provenance"].items()}
    return FleetDataset(meta["family"], meta["drives"],
                        np.repeat(np.arange(len(meta["drives"])), np.diff(starts)),
                        meta["models"], columns, present,
                        {"source": source, **provenance})


def _last_present(present: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per row: the index of its drive's last present row at or before it, or -1."""
    first = np.repeat(starts[:-1], np.diff(starts))
    last = np.maximum.accumulate(np.where(present, np.arange(present.size), -1))
    return np.where(last >= first, last, -1)


class _PresentScans:
    """The last-present index of masks over one ``starts``, built once per
    distinct mask: a mask that is, or equals, one given before reuses it."""

    def __init__(self, starts: np.ndarray):
        self.starts = starts
        self.firsts = starts[:-1][np.diff(starts) > 0]  # each drive's first row
        self._seen: list[tuple[np.ndarray, np.ndarray]] = []

    def last(self, present: np.ndarray) -> np.ndarray:
        """Per row: the index of its drive's last present row at or before it, or -1."""
        for mask, last in self._seen:
            if mask is present or np.array_equal(mask, present):
                return last
        last = _last_present(present, self.starts)
        self._seen.append((present, last))
        return last

    def previous(self, present: np.ndarray) -> np.ndarray:
        """Per row: the index of its drive's last present row before it, or -1."""
        prev = np.roll(self.last(present), 1)
        prev[self.firsts] = -1
        return prev


def _lines(text: str) -> Iterator[str]:
    """The lines of ``text``, each with its newline, cut at ``"\\n"`` only,
    as ``io.StringIO`` cuts them, without its copy of the text at 4 bytes
    per character."""
    start = 0
    while start < len(text):
        stop = text.find("\n", start) + 1 or len(text)
        yield text[start:stop]
        start = stop


def _header(stream: Iterable[str] | str) -> tuple[list[str], Iterator[str], int]:
    """The header row, the input's lines after it, and the lines read so far.

    Blank lines and the ``#`` lines before the header are skipped, and
    still counted in the line numbers. Text the CSV reader cannot split
    into cells raises SchemaError.
    """
    lines = _lines(stream) if isinstance(stream, str) else iter(stream)
    rows = csv.reader(lines)
    try:
        for row in rows:
            if row and not row[0].startswith("#"):
                return [name.strip() for name in row], lines, rows.line_num
    except csv.Error as exc:
        raise SchemaError(f"line {rows.line_num}: {exc}") from None
    raise SchemaError("empty input: no header row")


@dataclass(frozen=True, slots=True)
class _Block:
    """The data rows of a run of whole input lines, as cell bounds.

    ``line`` holds the physical line number of each row with the header's
    cell count, and ``start``/``end`` (wanted columns x rows) the bounds of
    its wanted cells in ``units``, the code points of one text. ``row(i)``
    gives row i's cells as strings, for the per-row parse. ``rejected``
    lists the other data rows with their reason, and ``n_lines`` counts the
    lines the block read. ``error`` is the (line, message) of text the CSV
    reader could not cut, which ends the input; the block holds the rows
    before it.
    """

    n_lines: int
    data_rows: int
    rejected: list[tuple[int, str]]
    line: np.ndarray
    units: np.ndarray
    start: np.ndarray
    end: np.ndarray
    row: Callable[[int], list[str]]
    error: tuple[int, str] | None = None

    def cells(self, j: int, rows: np.ndarray) -> list[str]:
        """Wanted column j of the given rows, as strings."""
        text = str(self.units, "latin-1" if self.units.itemsize == 1 else "utf-32-le",
                   "surrogatepass")
        return [text[a:b] for a, b in zip(self.start[j, rows].tolist(),
                                          self.end[j, rows].tolist())]


def _units(text: str) -> np.ndarray:
    """The code points of ``text``, which ends with a newline added after the
    last line, so that the position just past the last cell is an index too."""
    if text.isascii():
        return np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")


def _blocks(lines: Iterator[str], line: int, width: int,
            cols: Sequence[int]) -> Iterator[_Block]:
    """The rows after the header, ``_READ_BLOCK`` lines at a time, with the
    bounds of cells ``cols``; ``line`` lines precede them. A block with an
    ``error`` is the last."""
    while chunk := list(islice(lines, _READ_BLOCK)):
        block = _split(chunk, line, width, cols)
        if block is None:
            block = _tokenize(chunk, lines, line, width, cols)
        line += block.n_lines
        yield block
        if block.error:
            return


def _split(chunk: list[str], line: int, width: int,
           cols: Sequence[int]) -> _Block | None:
    """The lines cut at every comma, as the CSV reader cuts unquoted lines.

    A carriage return directly before a line's final newline ends the
    line with it. None when a line needs the reader's own rules: a quote,
    any other carriage return, a newline before the line's end, or a line
    longer than the reader's field size limit.
    """
    text = "".join([*chunk, "\n"])
    size = np.fromiter(map(len, chunk), dtype=np.int64, count=len(chunk))
    if '"' in text or size.max() > csv.field_size_limit():
        return None
    units = _units(text)
    end = np.cumsum(size)
    newline = size > 0
    newline[newline] = units[end[newline] - 1] == 10
    crlf = newline & (size > 1)
    crlf[crlf] = units[end[crlf] - 2] == 13
    if (np.count_nonzero(newline) != np.count_nonzero(units == 10) - 1
            or np.count_nonzero(crlf) != np.count_nonzero(units == 13)):
        return None
    begin, stop = end - size, end - newline - crlf
    commas = np.flatnonzero(units == 44)
    before = np.searchsorted(commas, stop)  # commas before each line's end
    n_cells = np.diff(before, prepend=0) + 1
    data = stop > begin  # the reader gives no cells for an empty line
    rows = np.flatnonzero(data & (n_cells == width))
    wrong = np.flatnonzero(data & (n_cells != width))
    # The comma after cell c of each row; a line's edges bound its first
    # and last cells.
    cols = np.asarray(cols)[:, None]
    after = before[rows] - (width - 1) + cols
    start = commas[after - 1] + 1
    start[cols[:, 0] == 0] = begin[rows]
    end = commas[np.minimum(after, commas.size - 1)]
    end[cols[:, 0] == width - 1] = stop[rows]

    length = (stop - begin)[rows]

    def row(i: int) -> list[str]:
        return chunk[rows[i]][:length[i]].split(",")

    return _Block(
        len(chunk), int(np.count_nonzero(data)),
        [(line + 1 + i, f"expected {width} fields, got {n}")
         for i, n in zip(wrong.tolist(), n_cells[wrong].tolist())],
        line + 1 + rows, units, start, end, row)


def _tokenize(chunk: list[str], lines: Iterator[str], line: int, width: int,
              cols: Sequence[int]) -> _Block:
    """The lines cut by the CSV reader, through the end of the record on the
    last of them, which may continue on the lines after them."""
    reader = csv.reader(chain(chunk, lines))
    found, error = [], None
    try:
        for row in reader:
            if row:
                found.append((line + reader.line_num, row))
            if reader.line_num >= len(chunk):
                break
    except csv.Error as exc:
        error = (line + reader.line_num, str(exc))
    rows = [(n, row) for n, row in found if len(row) == width]
    cells = [row[c] for _, row in rows for c in cols]
    size = np.fromiter(map(len, cells), dtype=np.int64, count=len(cells))
    end = np.cumsum(size)
    return _Block(
        reader.line_num, len(found),
        [(n, f"expected {width} fields, got {len(row)}")
         for n, row in found if len(row) != width],
        np.array([n for n, _ in rows], dtype=np.int64), _units("".join([*cells, "\n"])),
        (end - size).reshape(-1, len(cols)).T, end.reshape(-1, len(cols)).T,
        lambda i: rows[i][1], error)


def _column(kind: str, units: np.ndarray, start: np.ndarray,
            end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Table values of one column of cells, and which cells the kernel took.

    It takes the strict common cells of the grammar: a ``count`` of 1 to 18
    ASCII digits, or empty (absent, -1; an ``error`` count 0; never a
    ``time``), a ``flag`` of ``0``, ``1`` or empty, and a ``date`` written
    ``YYYY-MM-DD``. It reads a count's digits right-aligned and takes their
    dot product with powers of ten, and a date's day ordinal by calendar
    arithmetic (:func:`_ordinals`).
    """
    size = end - start
    if kind == "flag":
        char = units[start] - 48
        return (np.where(size == 1, char, 0),
                (size == 0) | ((size == 1) & (char <= 1)))
    if kind == "date":
        ten = np.flatnonzero(size == 10)
        chars = units[start[ten] + np.arange(10)[:, None]].astype(np.int64) - 48
        digits = chars[[0, 1, 2, 3, 5, 6, 8, 9]]
        shaped = ((chars[[4, 7]] == ord("-") - 48).all(axis=0)
                  & ((digits >= 0) & (digits <= 9)).all(axis=0))
        dates, inverse = np.unique(_POW10[-8:] @ digits, return_inverse=True)
        value = np.zeros(size.size, dtype=np.int64)
        value[ten] = np.where(shaped, _ordinals(dates // 10_000, dates // 100 % 100,
                                                dates % 100)[inverse], 0)
        return value, value > 0
    value, taken = _digits(units, start, end)
    if kind != "time":
        value[size == 0] = 0 if kind == "error" else -1
        taken |= size == 0
    return value, taken


def _digits(units: np.ndarray, start: np.ndarray,
            end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values of cells of 1 to 18 ASCII digits, and which cells are such.

    Digit i of every cell, right-aligned, is one row, so numpy's inner
    loops run along the cells; the value is the digits' dot product with
    powers of ten, exact in int64.
    """
    size = end - start
    width = int(min(size.max(initial=0), 18))
    offsets = np.arange(-width, 0)[:, None]
    digit = units.take(end + offsets) - 48  # a unit below "0" wraps past 9
    digit *= offsets >= -size
    return (_POW10[18 - width:] @ digit,
            (size > 0) & (size <= 18) & (digit.max(axis=0, initial=0) <= 9))


#: Days in each month, and days before it, in a year that is not a leap year.
_MONTH_DAYS = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
_MONTH_START = np.cumsum(_MONTH_DAYS) - _MONTH_DAYS


def _ordinals(year: np.ndarray, month: np.ndarray, day: np.ndarray) -> np.ndarray:
    """The day ordinals (``datetime.date.toordinal``) of year, month and day
    numbers; 0 where there is no such day. The proleptic Gregorian count of
    ``datetime``: the days of the years before, of the months before, and
    the day."""
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    m = np.clip(month, 1, 12) - 1
    valid = ((year >= 1) & (year <= 9999) & (month >= 1) & (month <= 12)
             & (day >= 1) & (day <= _MONTH_DAYS[m] + (leap & (m == 1))))
    y = year - 1
    return np.where(valid, y * 365 + y // 4 - y // 100 + y // 400 + _MONTH_START[m]
                    + (leap & (m > 1)) + day, 0)


#: A count is ASCII digits, optionally with a fraction of zeros ("12.0"), and
#: below 2**63, because counts end up in int64 and float64 arrays.
_COUNT = re.compile(r"([0-9]+)(?:\.0+)?")
_COUNT_MAX = 2**63 - 1


def _parse_count(cell: str) -> int:
    """Parse a non-negative 64-bit integer count; '' is absent (-1); bad cells raise."""
    cell = cell.strip()
    if cell.isascii() and cell.isdigit() and len(cell) < 19:
        return int(cell)
    if cell == "":
        return -1
    match = _COUNT.fullmatch(cell)
    if match is None or int(match[1]) > _COUNT_MAX:
        raise ValueError(f"not a non-negative 64-bit integer: {cell!r}")
    return int(match[1])


def _parse_flag(cell: str) -> bool:
    cell = cell.strip()
    if cell in ("", "0"):
        return False
    if cell == "1":
        return True
    raise ValueError(f"not a 0/1 flag: {cell!r}")


def _codes(names: dict[str, int], units: np.ndarray, start: np.ndarray,
           end: np.ndarray, empty: bool) -> tuple[np.ndarray, np.ndarray]:
    """Codes of a column of names (drive ids or model names) in ``names``, a
    new name getting the next code, and which cells the kernel took: up to
    ``_ID_MAX`` code points with printable, non-blank ASCII at both ends,
    or, when ``empty``, an empty cell. A cell not taken has code -1."""
    size = end - start
    edges = units[np.stack([start, end - 1])]
    taken = (size > 0) & (size <= _ID_MAX) & ((edges > 32) & (edges < 127)).all(axis=0)
    if empty:
        taken |= size == 0
    rows = np.flatnonzero(taken)
    width = max(int(size[rows].max(initial=0)), 1)
    offsets = np.arange(width)
    chars = units.take(np.minimum(start[rows, None] + offsets, units.size - 1))
    chars[offsets >= size[rows, None]] = 0
    # A run of cells repeating a name is looked up once.
    head = np.ones(rows.size, dtype=bool)
    head[1:] = (chars[1:] != chars[:-1]).any(axis=1)
    keys, inverse = np.unique(chars[head].view(
        f"S{width}" if units.itemsize == 1 else f"<U{width}")[:, 0], return_inverse=True)
    codes = np.array([names.setdefault(k.decode("ascii") if isinstance(k, bytes) else k,
                                       len(names)) for k in keys.tolist()],
                     dtype=np.int64)
    value = np.full(size.size, -1, dtype=np.int64)
    value[rows] = codes[inverse][np.cumsum(head) - 1]
    return value, taken


def _sorted_codes(index: dict[str, int]) -> tuple[list[str], np.ndarray]:
    """The names of a name -> code map, sorted, and each code's rank among them."""
    names = sorted(index)
    rank = np.empty(len(names), dtype=np.int64)
    rank[[index[n] for n in names]] = np.arange(len(names))
    return names, rank


class _Table:
    """Rows as one int64 matrix ``t``, built a block or a row at a time, then sorted.

    Columns: a physical line number, the drive code and the model code
    (values of ``drives`` and ``models``), the time (HDD day ordinal or SSD
    timestamp), then the family's other fields, an absent count as -1.
    After :meth:`sort`, ``order`` sorts the rows by drive name, time and
    line, and ``same_key`` marks, in that order, a row with the previous
    row's drive and time.
    """

    def __init__(self, n_fields: int):
        self.width = 3 + n_fields
        self.cells = array("q")
        self.drives: dict[str, int] = {}
        self.models: dict[str, int] = {}
        self.rejected: list[tuple[int, str]] = []
        self.data_rows = 0

    def add(self, line: int, drive: str, model: str, fields: tuple) -> None:
        self.cells.extend((line, self.drives.setdefault(drive, len(self.drives)),
                           self.models.setdefault(model, len(self.models)), *fields))

    def parse(self, blocks: Iterator[_Block], kinds: Sequence[str], parse_row) -> None:
        """Add every row that ``parse_row`` accepts; reject the others.

        Each block's cells ``drive, model, *fields`` are converted a column
        at a time (``kinds`` name the fields' grammar, see :func:`_column`).
        A row with any cell the kernel did not take goes whole through
        ``parse_row``, which alone decides what to reject and why.
        """
        for block in blocks:
            if block.error:
                raise SchemaError("line {}: {}".format(*block.error))
            self.data_rows += block.data_rows
            self.rejected += block.rejected
            rows = np.empty((block.line.size, self.width), dtype=np.int64)
            rows[:, 0] = block.line
            taken = np.ones(block.line.size, dtype=bool)
            for j, kind in enumerate(("drive", "model", *kinds)):
                cells = block.units, block.start[j], block.end[j]
                rows[:, 1 + j], ok = (
                    _codes(self.drives, *cells, empty=False) if kind == "drive"
                    else _codes(self.models, *cells, empty=True) if kind == "model"
                    else _column(kind, *cells))
                taken &= ok
            kept = taken.copy()
            for i in np.flatnonzero(~taken).tolist():
                try:
                    drive, model, fields = parse_row(block.row(i))
                except ValueError as exc:
                    self.rejected.append((int(block.line[i]), str(exc)))
                    continue
                rows[i, 1:] = (self.drives.setdefault(drive, len(self.drives)),
                               self.models.setdefault(model, len(self.models)), *fields)
                kept[i] = True
            rows = rows if kept.all() else rows[kept]
            self.cells.frombytes(rows.view(np.uint8).ravel())  # no bytes copy
        self.sort()

    def sort(self, t: np.ndarray | None = None) -> None:
        """Sort the added rows, or the table ``t`` (whose codes are ``drives``
        and ``models``)."""
        self.t = (np.frombuffer(self.cells, dtype=np.int64).reshape(-1, self.width)
                  if t is None else t)
        self.names, rank = _sorted_codes(self.drives)
        self.model_names, self.model_rank = _sorted_codes(self.models)
        self.drive = rank[self.t[:, 1]]
        self.order = np.lexsort((self.t[:, 3], self.drive))  # stable: line order
        drive, time = self.drive[self.order], self.t[self.order, 3]
        self.same_key = np.zeros(self.order.size, dtype=bool)
        self.same_key[1:] = (drive[1:] == drive[:-1]) & (time[1:] == time[:-1])

    def conflicts(self) -> np.ndarray:
        """In sorted order: a row of the previous row's key with other content.

        Only the rows whose (drive, time) key repeats the previous row's
        (``same_key``) are compared with that row, over every field but the
        line; every other row is no conflict, so a table without a repeated
        key compares nothing.
        """
        pos = np.flatnonzero(self.same_key)
        conflict = np.zeros(self.order.size, dtype=bool)
        conflict[pos] = (self.t[self.order[pos], 1:]
                         != self.t[self.order[pos - 1], 1:]).any(axis=1)
        return conflict

    def at(self, pos: int) -> tuple[int, str, int]:
        """Line, drive id and time of the row at a sorted position."""
        row = self.order[pos]
        return int(self.t[row, 0]), self.names[self.drive[row]], int(self.t[row, 3])

    def provenance(self, **extra) -> dict:
        return {**extra, "rejected": sorted(self.rejected),
                "rejected_count": len(self.rejected), "data_rows": self.data_rows}

    def dataset(self, family: str, rows: np.ndarray, fields: Sequence[str],
                provenance: dict | None) -> FleetDataset:
        """The dataset of the given rows; ``fields`` names columns 3, 4, ..."""
        columns = {"model": self.model_rank[self.t[:, 2].take(rows)].astype(np.int32)}
        present: dict = {}
        for col, name in enumerate(fields, start=3):
            cells = self.t[:, col].take(rows)
            if name in _FLAGS[family]:
                cells = cells.astype(bool)
            elif name in _SSD_COUNT_FIELDS or name.startswith("smart_"):
                present[name] = cells >= 0
                np.maximum(cells, 0, out=cells)  # an absent count reads 0
            columns[name] = cells
        return FleetDataset(family, self.names, self.drive[rows], self.model_names,
                            columns, present, provenance)


def parse_hdd_csv(stream: Iterable[str] | str,
                  smart_ids: Sequence[int] = HDD_SMART_IDS,
                  source: str = "<stream>") -> FleetDataset:
    """Parse a Backblaze-style daily snapshot CSV into an HDD FleetDataset.

    Only ``smart_<id>_raw`` columns for ``smart_ids`` are consumed; empty
    cells become absent entries. Malformed rows (bad date, bad failure flag,
    negative or non-integer SMART cell, more or fewer cells than the header)
    are counted and skipped, and listed with their physical line numbers in
    ``provenance["rejected"]``. Duplicate (serial, date) rows are
    deduplicated when byte-identical and all rejected when conflicting, so
    parsing is insensitive to row order.

    Raises SchemaError if a mandatory column (date, serial_number, model,
    failure) is missing from the header.
    """
    header, lines, line = _header(stream)
    index = {name: i for i, name in enumerate(header)}
    missing = [c for c in _HDD_MANDATORY if c not in index]
    if missing:
        raise SchemaError(f"missing mandatory column(s): {', '.join(missing)}")
    sids = [sid for sid in smart_ids if f"smart_{sid}_raw" in index]
    cols = [index[f"smart_{sid}_raw"] for sid in sids]
    i_date, i_serial, i_model, i_failure = (index[c] for c in _HDD_MANDATORY)

    def parse_row(row):
        day = dt.date.fromisoformat(row[i_date].strip()).toordinal()
        serial = row[i_serial].strip()
        model = row[i_model].strip()
        if not serial:
            raise ValueError("empty serial_number")
        return serial, model, (day, _parse_flag(row[i_failure]),
                               *[_parse_count(row[c]) for c in cols])

    table = _Table(2 + len(cols))
    table.parse(_blocks(lines, line, len(header),
                        (i_serial, i_model, i_date, i_failure, *cols)),
                ("date", "flag", *repeat("count", len(cols))), parse_row)
    return _hdd_dataset(table, sids, source)


def _hdd_dataset(table: _Table, sids: Sequence[int], source: str) -> FleetDataset:
    """The parsed HDD table's dataset. A (serial, date) key is kept once when
    all its rows are identical, and all its rows are rejected when any two
    differ."""
    group = np.cumsum(~table.same_key)
    conflict = np.isin(group, group[table.conflicts()])
    for pos in np.flatnonzero(table.same_key | conflict).tolist():
        line, serial, day = table.at(pos)
        what = "conflicting rows" if conflict[pos] else "duplicate row"
        table.rejected.append(
            (line, f"{what} for ({serial}, {dt.date.fromordinal(day)})"))
    return table.dataset(
        "hdd", table.order[~table.same_key & ~conflict],
        ("time", "failed", *(f"smart_{sid}" for sid in sids)),
        table.provenance(source=source, filters=[]))


def _parse_ssd_row(row: list[str]) -> tuple[str, str, tuple]:
    (drive, model, ts, read_ops, write_ops, erase_ops, pe_cycles_cum,
     dead, read_only, bad_blocks_factory_cum, bad_blocks_new_cum,
     *error_cells, swap_event) = row
    drive = drive.strip()
    if not drive:
        raise ValueError("empty drive_id")
    ts = _parse_count(ts)
    if ts < 0:
        raise ValueError("empty timestamp_us")
    # An empty error cell counts 0 errors.
    return drive, model.strip(), (
        ts, *[max(_parse_count(c), 0) for c in error_cells],
        _parse_count(read_ops), _parse_count(write_ops), _parse_count(erase_ops),
        _parse_count(pe_cycles_cum), _parse_flag(dead), _parse_flag(read_only),
        _parse_count(bad_blocks_factory_cum), _parse_count(bad_blocks_new_cum),
        _parse_flag(swap_event))


def parse_ssd_log(stream: Iterable[str] | str, source: str = "<stream>") -> FleetDataset:
    """Parse the canonical SSD CSV into an SSD FleetDataset.

    Per-drive sequences are sorted by ``timestamp_us``. Drives violating the
    internal-consistency invariants (a decreasing cumulative counter, or
    conflicting rows at one timestamp) are quarantined: excluded from the
    dataset and listed in ``provenance["quarantined"]`` with one reason each,
    the conflict if the drive has one, else a decrease (the rule is
    :func:`_ssd_dataset`'s). Malformed rows are counted and skipped as in
    :func:`parse_hdd_csv`.
    """
    header, lines, line = _header(stream)
    if header != list(_SSD_COLUMNS):
        missing = [c for c in _SSD_COLUMNS if c not in header]
        raise SchemaError(
            "SSD header mismatch; missing column(s): " + ", ".join(missing)
            if missing else "SSD header mismatch: unexpected column order or extras")

    table = _Table(len(_SSD_FIELDS))
    table.parse(_blocks(lines, line, len(header), (0, 1, *_SSD_CELLS)),
                _SSD_KINDS, _parse_ssd_row)
    return _ssd_dataset(table, source)


def _ssd_dataset(table: _Table, source: str) -> FleetDataset:
    """The parsed SSD table's dataset, each drive's rows in time order.

    A row equal to the previous one at its timestamp is a rejected duplicate,
    up to the drive's first conflicting row: one that differs from the
    previous row at its timestamp. That row quarantines the drive, and its
    rows from there on are neither rejected nor checked. A cumulative
    counter that decreases quarantines the drive as well, but the check of
    its rows goes on, so a later duplicate is still rejected. The reason
    kept is the conflict, when there is one; else the first decrease in time
    of the first of ``pe_cycles_cum``, ``bad_blocks_factory_cum`` and
    ``bad_blocks_new_cum``, in that order, that decreases at all.
    """
    conflict = table.conflicts()
    drive = table.drive[table.order]
    seen = np.concatenate(([0], np.cumsum(conflict)))
    seen = seen[1:] - seen[np.searchsorted(drive, drive)]  # in the drive, so far
    reasons = {table.drive[table.order[pos]]: (
        f"conflicting rows at timestamp_us={table.at(pos)[2]}")
        for pos in np.flatnonzero(conflict & (seen == 1)).tolist()}
    for pos in np.flatnonzero(table.same_key & (seen == 0)).tolist():
        line, name, ts = table.at(pos)
        table.rejected.append((line, f"duplicate row for ({name}, ts={ts})"))
    walked = table.order[~table.same_key & (seen == 0)]
    scans = _PresentScans(
        np.searchsorted(table.drive[walked], np.arange(len(table.names) + 1)))
    for name in ("pe_cycles_cum", "bad_blocks_factory_cum", "bad_blocks_new_cum"):
        values = table.t[walked, 3 + _SSD_FIELDS.index(name)]
        present = values >= 0
        prev = scans.previous(present)
        bad = np.flatnonzero(present & (prev >= 0) & (values < values[prev]))
        for pos in bad.tolist():
            reasons.setdefault(table.drive[walked[pos]], (
                f"{name} decreases ({values[prev[pos]]} -> {values[pos]})"))
    kept = walked[~np.isin(table.drive[walked], list(reasons))]
    return table.dataset("ssd", kept, _SSD_FIELDS, table.provenance(
        source=source, filters=[],
        quarantined=[(table.names[d], reasons[d]) for d in sorted(reasons)]))


def filter_hdd(ds: FleetDataset, models: Iterable[str],
               date_from: dt.date, date_to: dt.date) -> FleetDataset:
    """Restrict an HDD dataset to the given models and inclusive date window.

    Drives left with zero records are dropped. Raises ValueError if
    ``date_from > date_to``; requires an HDD dataset.
    """
    if ds.family != "hdd":
        raise ValueError(f"filter_hdd needs an HDD dataset, got family={ds.family!r}")
    if date_from > date_to:
        raise ValueError(f"empty date window: {date_from} > {date_to}")
    models = set(models)
    wanted = np.array([m in models for m in ds._models] + [False])
    rows = np.flatnonzero(wanted[ds._columns["model"]]
                          & (ds.time >= date_from.toordinal())
                          & (ds.time <= date_to.toordinal()))
    provenance = dict(ds.provenance)
    provenance["filters"] = list(provenance.get("filters", ())) + [
        {"models": sorted(models), "from": str(date_from), "to": str(date_to)}]
    return ds._take(rows, provenance)


def _cells(ds: FleetDataset, name: str, rows: slice) -> np.ndarray:
    """A flag or count column of a batch of rows; an absent count is masked."""
    if name in _FLAGS[ds.family]:
        return ds.flag(name)[rows]
    values, present = ds.column(name)
    return np.ma.MaskedArray(values[rows], mask=~present[rows])


def _write_csv(out, header: Sequence[str], rows: Iterable,
               comment: str | None = None) -> None:
    """The one CSV framing of every artifact: the ``# comment`` line, when
    given (the only ``#`` lines ``_header`` skips), the header, then the rows,
    each line ending in LF alone. A None cell is written empty, a float as
    its repr."""
    if comment:
        out.write(f"# {comment}\n")
    w = csv.writer(out, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)


def _write_columns(out, header: Sequence[str], n: int,
                   columns: Callable[[slice], Sequence],
                   comment: str | None = None) -> None:
    """Rows 0..n-1 framed by :func:`_write_csv`, ``_WRITE_BATCH`` at a time:
    ``columns(rows)`` gives a batch's cells (see :func:`_format_rows`)."""
    _write_csv(out, header, (), comment)
    for lo in range(0, n, _WRITE_BATCH):
        text, _ = _format_rows(columns(slice(lo, lo + _WRITE_BATCH)))
        out.write(str(text, "utf-8", "surrogatepass"))


#: Integer-valued floats below this are written as their digits and ".0",
#: which is their repr: repr turns to an exponent only at 1e16.
_FLOAT_DIGITS_BELOW = 2.0**53


def _format_rows(blocks: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """CSV text of a batch of rows, built a column at a time as one byte buffer,
    and the offset in it of each cell's end (the comma or newline after it),
    row by row.

    ``blocks`` are cell blocks of one length n, each one of:

    * an int or bool array: each cell is its digits, with ``-`` when negative;
    * a masked int array: a masked cell is empty;
    * a float array, 1-D or (n, k) for k columns: an integer-valued float in
      [0, 2**53) is its digits and ``.0``, any other its ``repr``;
    * ``(names, codes)``: each cell is the string ``names[code]``.

    Decoded as UTF-8 (surrogates passed through), the text equals what
    ``csv.writer(out, lineterminator="\\n").writerows`` writes for the cells'
    Python values, character for character.
    """
    strs: list[str] = []  # the batch's strings; text code 0 is the empty cell

    def strings(new: Iterable[str]) -> np.ndarray:
        first = len(strs)
        strs.extend(new)
        return np.arange(first + 1, len(strs) + 1)

    widths = [1 if isinstance(b, tuple) or b.ndim == 1 else b.shape[1] for b in blocks]
    n = len(blocks[0][1] if isinstance(blocks[0], tuple) else blocks[0])
    # Per cell: its magnitude, sign and ".0", or the code of its text
    # (-1: the cell is its number).
    mag = np.zeros((n, sum(widths)), dtype=np.uint64)
    neg = np.zeros(mag.shape, dtype=bool)
    dot = np.zeros(mag.shape, dtype=bool)
    code = np.full(mag.shape, -1, dtype=np.int64)
    for block, lo, hi in zip(blocks, np.cumsum([0, *widths]), np.cumsum(widths)):
        cols = np.s_[:, lo:hi]
        if isinstance(block, tuple):
            names, codes = block
            used, inverse = np.unique(codes, return_inverse=True)
            code[cols] = strings(names[c] for c in used.tolist())[inverse].reshape(n, 1)
            continue
        values = np.ma.getdata(block).reshape(n, -1)
        present = ~np.ma.getmaskarray(block).reshape(n, -1)
        code[cols][~present] = 0
        if values.dtype.kind == "f":
            # In range, the cast to uint64 is exact just for integers.
            digits = ~np.signbit(values) & (values < _FLOAT_DIGITS_BELOW) & present
            np.copyto(mag[cols], values, casting="unsafe", where=digits)
            digits &= mag[cols] == values
            other = ~digits & present
            mag[cols][other] = 0
            code[cols][other] = strings(map(repr, values[other].tolist()))
            dot[cols] = digits
        else:
            neg[cols] = (values < 0) & present
            # Two's complement: a negative's magnitude is its uint64 negation.
            np.copyto(mag[cols], values, casting="unsafe", where=present)
            np.negative(mag[cols], out=mag[cols], where=neg[cols])
    return _format(mag.ravel(), neg.ravel(), dot.ravel(), code.ravel(), _texts(strs),
                   code.shape[1])


def _texts(strs: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSV cells of strings, as UTF-8: (bytes, start of each, size of
    each), with text 0 the empty cell before them.

    ``csv.writer`` quotes them all as one row. When it adds no character,
    every cell is its string; otherwise the row is cut knowing that a
    quoted cell starts with a quote and is its string with the quotes
    doubled, in quotes.
    """
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow((*strs, ""))
    text = line.getvalue()
    size = np.fromiter(map(len, chain([""], strs)), dtype=np.int64, count=len(strs) + 1)
    if text.isascii() and len(text) == size.sum() + len(strs) + 1:
        blob = text.encode("ascii")
    else:
        cells, at = [], 0
        for t in strs:
            n = len(t) + 2 + t.count('"') if text[at] == '"' else len(t)
            cells.append(text[at:at + n].encode("utf-8", "surrogatepass"))
            at += n + 1
        blob = b",".join(cells)
        size[1:] = np.fromiter(map(len, cells), dtype=np.int64, count=len(cells))
    start = np.cumsum(size + 1) - size - 2  # text 0 starts before the first
    return np.frombuffer(blob, dtype=np.uint8), start, size


def _format(mag: np.ndarray, neg: np.ndarray, dot: np.ndarray, code: np.ndarray,
            texts: tuple[np.ndarray, np.ndarray, np.ndarray], width: int
            ) -> tuple[np.ndarray, np.ndarray]:
    """The UTF-8 text of cells in row-major order, ``width`` per row, and
    the offset of each cell's separator: cell i is
    text ``code[i]`` of ``texts`` (see :func:`_texts`), or when ``code[i]``
    is -1 its number: ``-`` if ``neg[i]``, the digits of ``mag[i]``, and
    ``.0`` if ``dot[i]``.

    The buffer starts as all ``0``, so a zero and the ``0`` after a dot
    need no write. The other digits are taken last first, one pass per
    digit position over the numbers that still have digits. Each cell ends
    at the ``cumsum`` of the sizes up to it, and each pass is one scatter.
    Work arrays are updated in place: at 2,048 rows they span many pages.
    """
    blob, origin, lens = texts
    lens = np.append(lens, 0)  # code -1 reads the last, 0
    sep = lens[code]  # the cell's size, then the position of its separator
    sep += code < 0
    sep += neg
    sep += dot
    sep += dot
    sep += 1
    nonzero = np.flatnonzero(mag != 0)  # a text's mag is 0
    digits = []  # per pass: which nonzero numbers have a digit there, and the digit
    live, value = np.arange(nonzero.size), mag[nonzero]
    while live.size:
        high = value // 10
        digits.append((live, (value - high * 10).astype(np.uint8) + ord("0")))
        more = high != 0
        live, value = live[more], high[more]
    more_digits = np.zeros(nonzero.size, dtype=np.int64)
    for place, (live, _) in enumerate(digits[1:], start=1):
        more_digits[live] = place
    sep[nonzero] += more_digits
    np.cumsum(sep, out=sep)
    sep -= 1
    buf = np.full(sep[-1] + 1 if sep.size else 0, ord("0"), dtype=np.uint8)
    buf[sep] = ord(",")
    buf[sep[width - 1::width]] = ord("\n")
    dotted = sep[dot]
    dotted -= 2
    buf[dotted] = ord(".")
    last = sep[nonzero] - 1 - 2 * dot[nonzero]
    for place, (live, digit) in enumerate(digits):
        buf[last[live] - place] = digit
    minus = neg[nonzero]
    buf[last[minus] - more_digits[minus] - 1] = ord("-")
    # The texts, copied byte by byte.
    cells = np.flatnonzero(code > 0)
    length = lens[code[cells]]
    step = np.arange(length.sum()) - np.repeat(np.cumsum(length) - length, length)
    buf[np.repeat(sep[cells] - length, length) + step] = blob[
        np.repeat(origin[code[cells]], length) + step]
    return buf, sep


def write_ssd_csv(ds: FleetDataset, out, header_comment: str | None = None) -> None:
    """Write an SSD dataset in the canonical CSV format (round-trips exactly)."""
    if ds.family != "ssd":
        raise ValueError("write_ssd_csv needs an SSD dataset")
    drive, model = ds.row_drive(), ds._columns["model"]
    _write_columns(out, _SSD_COLUMNS, ds.n_records, lambda rows: (
        (ds.drives, drive[rows]), (ds._models, model[rows]), ds.time[rows],
        *(_cells(ds, name, rows) for name in _SSD_COLUMNS[3:])), header_comment)


def write_hdd_csv(ds: FleetDataset, out,
                  smart_ids: Sequence[int] = HDD_SMART_IDS,
                  header_comment: str | None = None) -> None:
    """Write an HDD dataset as a Backblaze-style CSV (raw columns only filled)."""
    if ds.family != "hdd":
        raise ValueError("write_hdd_csv needs an HDD dataset")
    header = ["date", "serial_number", "model", "capacity_bytes", "failure"]
    for sid in smart_ids:
        header += [f"smart_{sid}_normalized", f"smart_{sid}_raw"]
    days, day = np.unique(ds.time, return_inverse=True)
    dates = [dt.date.fromordinal(d).isoformat() for d in days.tolist()]
    drive, model = ds.row_drive(), ds._columns["model"]

    def columns(rows):
        blank = np.ma.masked_all(day[rows].size, dtype=np.int64)
        cells = [(dates, day[rows]), (ds.drives, drive[rows]), (ds._models, model[rows]),
                 blank, _cells(ds, "failed", rows)]
        for sid in smart_ids:
            cells += [blank, _cells(ds, f"smart_{sid}", rows)]
        return cells

    _write_columns(out, header, ds.n_records, columns, header_comment)
