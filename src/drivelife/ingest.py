"""Parse, validate, and filter raw daily telemetry into canonical per-drive-day records.

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
an empty SMART cell is an absent entry, not a zero.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import re
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Sequence

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

#: SSD record fields that hold a count or None (absent).
_SSD_COUNT_FIELDS = ("read_ops", "write_ops", "erase_ops", "pe_cycles_cum",
                     "bad_blocks_factory_cum", "bad_blocks_new_cum")


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


@dataclass
class FleetDataset:
    """Per-drive, time-sorted daily records for one device family.

    ``provenance`` describes where the data came from and what the parser
    did to it (rejected rows, quarantined drives, filters). It is carried
    for reporting and deliberately excluded from equality so round-tripped
    datasets compare equal on content.
    """

    family: str  # "hdd" | "ssd"
    records: dict[str, list]
    provenance: dict = field(default_factory=dict, compare=False)

    @property
    def drives(self) -> list[str]:
        return sorted(self.records)

    @property
    def n_drives(self) -> int:
        return len(self.records)

    @property
    def n_records(self) -> int:
        return sum(len(seq) for seq in self.records.values())

    def iter_records(self) -> Iterator:
        for drive in self.drives:
            yield from self.records[drive]

    @property
    def starts(self) -> np.ndarray:
        """CSR offsets: ``drives[i]`` owns column rows ``starts[i]:starts[i+1]``."""
        lengths = [len(self.records[d]) for d in self.drives]
        return np.cumsum([0, *lengths], dtype=np.int64)

    def column(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """One field of every record, in ``drives`` then record order.

        Returns (int64 values, bool present); an absent cell reads 0. SSD
        fields: ``read_ops``, ``write_ops``, ``erase_ops``, ``pe_cycles_cum``,
        ``bad_blocks_{factory,new}_cum`` and ``err_<kind>`` (a kind the day
        did not report counts 0 and is present). HDD fields: ``smart_<id>``
        and ``failed`` (0/1). Other names raise KeyError.
        """
        rows = list(self.iter_records())
        # -1 marks an absent cell: every count the parsers accept is >= 0.
        if self.family == "ssd" and name in _SSD_COUNT_FIELDS:
            cells = [-1 if v is None else v for v in map(attrgetter(name), rows)]
        elif (self.family == "ssd" and name.startswith("err_")
              and name[4:] in SSD_ERROR_KINDS):
            kind = name[4:]
            cells = [r.errors.get(kind, 0) for r in rows]
        elif self.family == "hdd" and name == "failed":
            cells = [r.failed_today for r in rows]
        elif (self.family == "hdd" and name.startswith("smart_")
              and name[6:].isdigit()):
            sid = int(name[6:])
            cells = [r.smart_raw.get(sid, -1) for r in rows]
        else:
            raise KeyError(f"no column {name!r} in a {self.family} dataset")
        values = np.array(cells, dtype=np.int64)
        present = values >= 0
        return np.maximum(values, 0), present

    def models(self) -> list[str]:
        seen = {seq[0].model for seq in self.records.values() if seq}
        return sorted(seen)


def _reader(stream: Iterable[str] | str) -> Iterator[tuple[int, list[str]]]:
    """(physical line number, row) pairs of the CSV rows.

    Blank lines and the ``#`` lines before the header are skipped, and
    still counted in the line numbers.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    rows = csv.reader(stream)
    for row in rows:
        if row and not row[0].startswith("#"):
            yield rows.line_num, row
            break
    yield from ((rows.line_num, row) for row in rows if row)


#: A count is ASCII digits, optionally with a fraction of zeros ("12.0"), and
#: below 2**63, because counts end up in int64 and float64 arrays.
_COUNT = re.compile(r"([0-9]+)(?:\.0+)?")
_COUNT_MAX = 2**63 - 1


def _parse_count(cell: str) -> int | None:
    """Parse a non-negative 64-bit integer count; '' means absent; bad values raise."""
    cell = cell.strip()
    if cell.isascii() and cell.isdigit() and len(cell) < 19:
        return int(cell)
    if cell == "":
        return None
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
    try:
        _, header = next(rows)
    except StopIteration:
        raise SchemaError("empty input: no header row")
    index = {name.strip(): i for i, name in enumerate(header)}
    missing = [c for c in _HDD_MANDATORY if c not in index]
    if missing:
        raise SchemaError(f"missing mandatory column(s): {', '.join(missing)}")
    smart_cols = [(sid, index[f"smart_{sid}_raw"])
                  for sid in smart_ids if f"smart_{sid}_raw" in index]

    by_key: dict[tuple[str, dt.date], list] = {}
    rejected: list[tuple[int, str]] = []
    data_rows = 0
    for lineno, row in rows:
        data_rows += 1
        try:
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(row)}")
            date = dt.date.fromisoformat(row[index["date"]].strip())
            serial = row[index["serial_number"]].strip()
            model = row[index["model"]].strip()
            if not serial:
                raise ValueError("empty serial_number")
            failed = _parse_flag(row[index["failure"]])
            smart_raw = {}
            for sid, col in smart_cols:
                value = _parse_count(row[col])
                if value is not None:
                    smart_raw[sid] = value
            rec = HddDailyRecord(date, serial, model, failed, smart_raw)
        except ValueError as exc:
            rejected.append((lineno, str(exc)))
            continue
        by_key.setdefault((serial, date), []).append((lineno, rec))

    records: dict[str, list] = {}
    for (serial, date), entries in by_key.items():
        unique = []
        for _, rec in entries:
            if rec not in unique:
                unique.append(rec)
        if len(unique) == 1:
            records.setdefault(serial, []).append(unique[0])
            for lineno, _ in entries[1:]:
                rejected.append((lineno, f"duplicate row for ({serial}, {date})"))
        else:
            for lineno, _ in entries:
                rejected.append((lineno, f"conflicting rows for ({serial}, {date})"))
    for serial in records:
        records[serial].sort(key=lambda r: r.date)

    rejected.sort()
    provenance = {
        "source": source,
        "filters": [],
        "rejected": rejected,
        "rejected_count": len(rejected),
        "data_rows": data_rows,
    }
    return FleetDataset("hdd", records, provenance)


def parse_ssd_log(stream: Iterable[str] | str, source: str = "<stream>") -> FleetDataset:
    """Parse the canonical SSD CSV into an SSD FleetDataset.

    Per-drive sequences are sorted by ``timestamp_us``. Drives violating the
    internal-consistency invariants (a decreasing cumulative counter, or
    conflicting rows at one timestamp) are quarantined: excluded from the
    dataset and listed in ``provenance["quarantined"]`` with reasons.
    Malformed rows are counted and skipped as in :func:`parse_hdd_csv`.
    """
    rows = _reader(stream)
    try:
        _, header = next(rows)
    except StopIteration:
        raise SchemaError("empty input: no header row")
    header = [name.strip() for name in header]
    if header != list(_SSD_COLUMNS):
        missing = [c for c in _SSD_COLUMNS if c not in header]
        raise SchemaError(
            "SSD header mismatch; missing column(s): " + ", ".join(missing)
            if missing else "SSD header mismatch: unexpected column order or extras")

    per_drive_rows: dict[str, list[tuple[int, SsdDailyRecord]]] = {}
    rejected: list[tuple[int, str]] = []
    data_rows = 0
    for lineno, row in rows:
        data_rows += 1
        try:
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(row)}")
            (drive, model, ts, read_ops, write_ops, erase_ops, pe_cycles_cum,
             dead, read_only, bad_blocks_factory_cum, bad_blocks_new_cum,
             *error_cells, swap_event) = row
            drive = drive.strip()
            if not drive:
                raise ValueError("empty drive_id")
            ts = _parse_count(ts)
            if ts is None:
                raise ValueError("empty timestamp_us")
            errors = {}
            for kind, cell in zip(SSD_ERROR_KINDS, error_cells):
                value = _parse_count(cell)
                if value:
                    errors[kind] = value
            rec = SsdDailyRecord(
                drive_id=drive,
                model=model.strip(),
                timestamp_us=ts,
                read_ops=_parse_count(read_ops),
                write_ops=_parse_count(write_ops),
                erase_ops=_parse_count(erase_ops),
                pe_cycles_cum=_parse_count(pe_cycles_cum),
                dead=_parse_flag(dead),
                read_only=_parse_flag(read_only),
                bad_blocks_factory_cum=_parse_count(bad_blocks_factory_cum),
                bad_blocks_new_cum=_parse_count(bad_blocks_new_cum),
                errors=errors,
                swap_event=_parse_flag(swap_event),
            )
        except ValueError as exc:
            rejected.append((lineno, str(exc)))
            continue
        per_drive_rows.setdefault(drive, []).append((lineno, rec))

    records: dict[str, list] = {}
    quarantined: list[tuple[str, str]] = []
    for drive in sorted(per_drive_rows):
        entries = sorted(per_drive_rows[drive], key=lambda e: (e[1].timestamp_us, e[0]))
        seq: list[SsdDailyRecord] = []
        reason = None
        for lineno, rec in entries:
            if seq and rec.timestamp_us == seq[-1].timestamp_us:
                if rec == seq[-1]:
                    rejected.append((lineno, f"duplicate row for ({drive}, ts={rec.timestamp_us})"))
                    continue
                reason = f"conflicting rows at timestamp_us={rec.timestamp_us}"
                break
            seq.append(rec)
        if reason is None:
            reason = _ssd_consistency_violation(seq)
        if reason is not None:
            quarantined.append((drive, reason))
        else:
            records[drive] = seq

    rejected.sort()
    provenance = {
        "source": source,
        "filters": [],
        "rejected": rejected,
        "rejected_count": len(rejected),
        "data_rows": data_rows,
        "quarantined": quarantined,
    }
    return FleetDataset("ssd", records, provenance)


def _ssd_consistency_violation(seq: list[SsdDailyRecord]) -> str | None:
    """Return a reason string if a cumulative counter decreases, else None."""
    for name in ("pe_cycles_cum", "bad_blocks_factory_cum", "bad_blocks_new_cum"):
        last = None
        for rec in seq:
            value = getattr(rec, name)
            if value is None:
                continue
            if last is not None and value < last:
                return f"{name} decreases ({last} -> {value})"
            last = value
    return None


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
    out: dict[str, list] = {}
    for serial, seq in ds.records.items():
        kept = [r for r in seq
                if r.model in models and date_from <= r.date <= date_to]
        if kept:
            out[serial] = kept
    provenance = dict(ds.provenance)
    provenance["filters"] = list(provenance.get("filters", ())) + [
        {"models": sorted(models), "from": str(date_from), "to": str(date_to)}]
    return FleetDataset("hdd", out, provenance)


def _fmt(value: int | None) -> str:
    return "" if value is None else str(value)


def write_ssd_csv(ds: FleetDataset, out, header_comment: str | None = None) -> None:
    """Write an SSD dataset in the canonical CSV format (round-trips exactly)."""
    if ds.family != "ssd":
        raise ValueError("write_ssd_csv needs an SSD dataset")
    if header_comment:
        out.write(f"# {header_comment}\n")
    w = csv.writer(out, lineterminator="\n")
    w.writerow(_SSD_COLUMNS)
    for drive in ds.drives:
        for r in ds.records[drive]:
            w.writerow([
                r.drive_id, r.model, r.timestamp_us,
                _fmt(r.read_ops), _fmt(r.write_ops), _fmt(r.erase_ops),
                _fmt(r.pe_cycles_cum), int(r.dead), int(r.read_only),
                _fmt(r.bad_blocks_factory_cum), _fmt(r.bad_blocks_new_cum),
                *(r.error_count(kind) for kind in SSD_ERROR_KINDS),
                int(r.swap_event),
            ])


def write_hdd_csv(ds: FleetDataset, out,
                  smart_ids: Sequence[int] = HDD_SMART_IDS,
                  header_comment: str | None = None) -> None:
    """Write an HDD dataset as a Backblaze-style CSV (raw columns only filled)."""
    if ds.family != "hdd":
        raise ValueError("write_hdd_csv needs an HDD dataset")
    if header_comment:
        out.write(f"# {header_comment}\n")
    w = csv.writer(out, lineterminator="\n")
    header = ["date", "serial_number", "model", "capacity_bytes", "failure"]
    for sid in smart_ids:
        header += [f"smart_{sid}_normalized", f"smart_{sid}_raw"]
    w.writerow(header)
    for serial in ds.drives:
        for r in ds.records[serial]:
            row = [r.date.isoformat(), r.serial, r.model, "", int(r.failed_today)]
            for sid in smart_ids:
                row += ["", _fmt(r.smart_raw.get(sid))]
            w.writerow(row)
