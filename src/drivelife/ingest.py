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
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import re
from array import array
from collections.abc import Mapping, Sequence as SequenceABC
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from types import MappingProxyType
from typing import Iterable, Iterator, Sequence

import numpy as np

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
_WRITE_BATCH = 65_536


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
    def model_of(self) -> dict[str, str]:
        """Drive -> the model of its first row."""
        codes = self._columns["model"][self.starts[:-1]].tolist()
        return {d: self._models[c] for d, c in zip(self.drives, codes)}

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


def _last_present(present: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per row: the index of its drive's last present row at or before it, or -1."""
    first = np.repeat(starts[:-1], np.diff(starts))
    last = np.maximum.accumulate(np.where(present, np.arange(present.size), -1))
    return np.where(last >= first, last, -1)


def _previous_present(present: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per row: the index of its drive's last present row before it, or -1."""
    prev = np.roll(_last_present(present, starts), 1)
    prev[starts[:-1][np.diff(starts) > 0]] = -1
    return prev


def _reader(stream: Iterable[str] | str) -> Iterator[tuple[int, list[str]]]:
    """(physical line number, row) pairs of the CSV rows.

    Blank lines and the ``#`` lines before the header are skipped, and
    still counted in the line numbers. Text the CSV reader cannot split
    into cells (a carriage return inside an unquoted cell, an overlong
    cell) raises SchemaError.
    """
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


def _sorted_codes(index: dict[str, int]) -> tuple[list[str], np.ndarray]:
    """The names of a name -> code map, sorted, and each code's rank among them."""
    names = sorted(index)
    rank = np.empty(len(names), dtype=np.int64)
    rank[[index[n] for n in names]] = np.arange(len(names))
    return names, rank


class _Table:
    """Rows as one int64 matrix ``t``, built row by row, then sorted.

    Columns: a physical line number, the drive code and the model code
    (codes in first-seen order), the time (HDD day ordinal or SSD
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

    def parse(self, rows: Iterator[tuple[int, list[str]]], width: int,
              parse_row) -> None:
        """Add every CSV row that ``parse_row`` accepts; reject the others."""
        for lineno, row in rows:
            self.data_rows += 1
            try:
                if len(row) != width:
                    raise ValueError(f"expected {width} fields, got {len(row)}")
                self.add(lineno, *parse_row(row))
            except ValueError as exc:
                self.rejected.append((lineno, str(exc)))
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
        """In sorted order: a row of the previous row's key with other content."""
        fields = self.t[self.order, 1:]
        same = np.ones(self.order.size, dtype=bool)
        same[1:] = (fields[1:] == fields[:-1]).all(axis=1)
        return self.same_key & ~same

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
        columns = {"model": self.model_rank[self.t[rows, 2]].astype(np.int32)}
        present: dict = {}
        for col, name in enumerate(fields, start=3):
            cells = self.t[rows, col]
            if name in _FLAGS[family]:
                columns[name] = cells.astype(bool)
            elif name in _SSD_COUNT_FIELDS or name.startswith("smart_"):
                columns[name], present[name] = np.maximum(cells, 0), cells >= 0
            else:
                columns[name] = cells
        return FleetDataset(family, self.names, self.drive[rows], self.model_names,
                            columns, present, provenance)


def _header(rows: Iterator[tuple[int, list[str]]]) -> list[str]:
    try:
        return [name.strip() for name in next(rows)[1]]
    except StopIteration:
        raise SchemaError("empty input: no header row") from None


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
    rows = _reader(stream)
    header = _header(rows)
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
    table.parse(rows, len(header), parse_row)
    # A (serial, date) key is kept once when all its rows are identical,
    # and all its rows are rejected when any two differ.
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
    dataset and listed in ``provenance["quarantined"]`` with reasons.
    Malformed rows are counted and skipped as in :func:`parse_hdd_csv`.
    """
    rows = _reader(stream)
    header = _header(rows)
    if header != list(_SSD_COLUMNS):
        missing = [c for c in _SSD_COLUMNS if c not in header]
        raise SchemaError(
            "SSD header mismatch; missing column(s): " + ", ".join(missing)
            if missing else "SSD header mismatch: unexpected column order or extras")

    table = _Table(len(_SSD_FIELDS))
    table.parse(rows, len(header), _parse_ssd_row)
    # Each drive's rows are walked in time order. A row equal to the
    # previous one at its timestamp is a rejected duplicate; the first row
    # that differs from it quarantines the drive and ends the walk.
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
    starts = np.searchsorted(table.drive[walked], np.arange(len(table.names) + 1))
    for name in ("pe_cycles_cum", "bad_blocks_factory_cum", "bad_blocks_new_cum"):
        values = table.t[walked, 3 + _SSD_FIELDS.index(name)]
        prev = _previous_present(values >= 0, starts)
        bad = np.flatnonzero((values >= 0) & (prev >= 0) & (values < values[prev]))
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


def _cells(ds: FleetDataset, name: str, rows: slice) -> list:
    """A flag (0/1) or count column of a batch of rows as CSV cells; absent is ''."""
    if name in _FLAGS[ds.family]:
        return ds.flag(name)[rows].view(np.uint8).tolist()
    values, present = ds.column(name)
    cells = values[rows].tolist()
    for i in np.flatnonzero(~present[rows]).tolist():
        cells[i] = ""
    return cells


def _write(ds: FleetDataset, out, header: Sequence[str],
           header_comment: str | None, columns) -> None:
    """Write the header, then the rows in batches: ``columns(rows)`` gives a
    batch's cells, one iterable per CSV column."""
    if header_comment:
        out.write(f"# {header_comment}\n")
    w = csv.writer(out, lineterminator="\n")
    w.writerow(header)
    drives = np.repeat(np.array(ds.drives, dtype=object), np.diff(ds.starts))
    models = np.array(ds._models, dtype=object)[ds._columns["model"]]
    for lo in range(0, ds.n_records, _WRITE_BATCH):
        rows = slice(lo, lo + _WRITE_BATCH)
        w.writerows(zip(*columns(rows, drives[rows], models[rows])))


def write_ssd_csv(ds: FleetDataset, out, header_comment: str | None = None) -> None:
    """Write an SSD dataset in the canonical CSV format (round-trips exactly)."""
    if ds.family != "ssd":
        raise ValueError("write_ssd_csv needs an SSD dataset")
    _write(ds, out, _SSD_COLUMNS, header_comment, lambda rows, drives, models: (
        drives, models, ds.time[rows].tolist(),
        *(_cells(ds, name, rows) for name in _SSD_COLUMNS[3:])))


def write_hdd_csv(ds: FleetDataset, out,
                  smart_ids: Sequence[int] = HDD_SMART_IDS,
                  header_comment: str | None = None) -> None:
    """Write an HDD dataset as a Backblaze-style CSV (raw columns only filled)."""
    if ds.family != "hdd":
        raise ValueError("write_hdd_csv needs an HDD dataset")
    header = ["date", "serial_number", "model", "capacity_bytes", "failure"]
    for sid in smart_ids:
        header += [f"smart_{sid}_normalized", f"smart_{sid}_raw"]
    iso = {day: dt.date.fromordinal(day).isoformat()
           for day in np.unique(ds.time).tolist()}

    def columns(rows, drives, models):
        cells = [map(iso.__getitem__, ds.time[rows].tolist()), drives, models,
                 repeat(""), _cells(ds, "failed", rows)]
        for sid in smart_ids:
            cells += [repeat(""), _cells(ds, f"smart_{sid}", rows)]
        return cells

    _write(ds, out, header, header_comment, columns)
