"""Properties of both parsers on generated input.

* Any text parses or raises SchemaError, and nothing else.
* Every data row is accounted for: kept + rejected == data_rows, with
  duplicate rows among the rejected ones. An SSD row can also belong to a
  quarantined drive; those rows are counted from the input.
* parse -> write -> parse gives an equal dataset.
* The duplicate, conflict and quarantine rules give what a reference gives
  that compares every sorted neighbour pair over all fields and builds
  every present-row index afresh, at any block size.
"""

import io
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from drivelife import ingest
from drivelife.ingest import (SchemaError, parse_hdd_csv, parse_ssd_log,
                              write_hdd_csv, write_ssd_csv)

HDD_SMART = (5, 9, 187)
HDD_HEADER = ("date,serial_number,model,capacity_bytes,failure,"
              + ",".join(f"smart_{sid}_normalized,smart_{sid}_raw"
                         for sid in HDD_SMART))
SSD_HEADER = ("drive_id,model,timestamp_us,read_ops,write_ops,erase_ops,"
              "pe_cycles_cum,dead,read_only,bad_blocks_factory_cum,"
              "bad_blocks_new_cum,err_correctable,err_erase,err_final_read,"
              "err_final_write,err_meta,err_read,err_response,err_timeout,"
              "err_uncorrectable,err_write,swap_event")

#: Count cells: mostly valid, some absent, some malformed.
COUNTS = st.sampled_from(["0", "1", "7", "12.0", " 3 ", "", "", "250",
                          str(2**63 - 1), "x", "-1", "1e3", str(2**63)])
FLAGS = st.sampled_from(["0", "1", "", "0", "2"])


def _rows(row):
    """Rows, some repeated byte for byte, in any order, some with a cell too many."""
    @st.composite
    def rows(draw):
        out = draw(st.lists(row, max_size=20))
        if out:
            out += draw(st.lists(st.sampled_from(out), max_size=8))
        out = draw(st.permutations(out))
        return [r + ",extra" if draw(st.integers(0, 19)) == 0 else r for r in out]
    return rows()


HDD_ROWS = _rows(st.builds(
    lambda date, serial, model, failed, cells: ",".join(
        [date, serial, model, "", failed] + [c for cell in cells for c in ("", cell)]),
    st.sampled_from(["2014-01-17", "2014-01-18", "2014-01-20", "2014-1-17", "bad"]),
    st.sampled_from(["A", "B", " C ", ""]),
    st.sampled_from(["ST-A", "ST-B"]), FLAGS,
    st.lists(COUNTS, min_size=len(HDD_SMART), max_size=len(HDD_SMART))))

SSD_ROWS = _rows(st.builds(
    lambda drive, model, ts, cells, flags: ",".join(
        [drive, model, ts, *cells[:4], *flags[:2], *cells[4:], flags[2]]),
    st.sampled_from(["a", "b", " c", ""]), st.sampled_from(["MLC-A", "MLC-B"]),
    st.sampled_from(["0", "86400000000", "172800000000", "", "x"]),
    st.lists(COUNTS, min_size=16, max_size=16),
    st.lists(FLAGS, min_size=3, max_size=3)))

FAMILIES = {"hdd": (parse_hdd_csv, write_hdd_csv, HDD_HEADER, HDD_ROWS),
            "ssd": (parse_ssd_log, write_ssd_csv, SSD_HEADER, SSD_ROWS)}


def _parse_or_schema_error(parse, text):
    try:
        parse(text)
    except SchemaError:
        pass


@given(st.text(), st.sampled_from(sorted(FAMILIES)))
@settings(max_examples=150, deadline=None)
def test_any_text_raises_only_schema_error(text, family):
    _parse_or_schema_error(FAMILIES[family][0], text)


@given(st.lists(st.text(alphabet=',0123456789.-:ab#" \r\n\t\x00', max_size=30),
                max_size=12), st.sampled_from(sorted(FAMILIES)))
@settings(max_examples=150, deadline=None)
def test_any_lines_under_a_header_raise_only_schema_error(lines, family):
    parse, _, header, _ = FAMILIES[family]
    _parse_or_schema_error(parse, "\n".join([header, *lines]))


@given(HDD_ROWS)
@settings(max_examples=120, deadline=None)
def test_hdd_rows_are_kept_or_rejected(rows):
    ds = parse_hdd_csv("\n".join([HDD_HEADER, *rows]) + "\n")
    prov = ds.provenance
    assert prov["data_rows"] == len(rows)
    assert ds.n_records + prov["rejected_count"] == prov["data_rows"]


@given(SSD_ROWS)
@settings(max_examples=120, deadline=None)
def test_ssd_rows_are_kept_rejected_or_quarantined(rows):
    ds = parse_ssd_log("\n".join([SSD_HEADER, *rows]) + "\n")
    prov = ds.provenance
    rejected = {line for line, _ in prov["rejected"]}
    quarantined = {drive for drive, _ in prov["quarantined"]}
    held_back = sum(1 for line, row in enumerate(rows, start=2)
                    if line not in rejected
                    and row.split(",")[0].strip() in quarantined)
    assert prov["data_rows"] == len(rows)
    assert ds.n_records + prov["rejected_count"] + held_back == prov["data_rows"]
    assert quarantined.isdisjoint(ds.drives)


@given(st.sampled_from(sorted(FAMILIES)), st.data())
@settings(max_examples=120, deadline=None)
def test_parse_write_parse_round_trips(family, data):
    parse, write, header, rows = FAMILIES[family]
    ds = parse("\n".join([header, *data.draw(rows)]) + "\n")
    out = io.StringIO()
    write(ds, out)
    again = parse(out.getvalue())
    assert again == ds
    assert again.provenance["rejected_count"] == 0
    assert again.provenance.get("quarantined", []) == []


# -- duplicates, conflicts and quarantines against a reference ---------------


def _conflicts_everywhere(table):
    """Every sorted row against the row before it, over all fields but the line."""
    fields = table.t[table.order, 1:]
    same = np.ones(table.order.size, dtype=bool)
    same[1:] = (fields[1:] == fields[:-1]).all(axis=1)
    return table.same_key & ~same


class _FreshScans(ingest._PresentScans):
    """Present-row indexes built anew for every mask, none reused."""

    def last(self, present):
        self._seen.clear()
        return super().last(present)


def _outcome(parse, text):
    ds = parse(text)
    prov = ds.provenance
    return ds, prov["data_rows"], prov["rejected"], prov.get("quarantined")


#: Few keys and few values, so that rows repeat a key often: exact copies,
#: rows of one key with other content, and, for SSD drives, cumulative
#: counters that are absent on some rows and decrease on others.
KEYED = {
    "hdd": (parse_hdd_csv, HDD_HEADER, _rows(st.builds(
        lambda date, serial, model, failed, cells: ",".join(
            [date, serial, model, "", failed]
            + [c for cell in cells for c in ("", cell)]),
        st.sampled_from(["2014-01-17", "2014-01-18"]), st.sampled_from(["A", "B"]),
        st.sampled_from(["ST-A", "ST-B"]), st.sampled_from(["0", "1"]),
        st.lists(st.sampled_from(["", "3", "4"]), min_size=len(HDD_SMART),
                 max_size=len(HDD_SMART))))),
    "ssd": (parse_ssd_log, SSD_HEADER, _rows(st.builds(
        lambda drive, ts, cells, flags: ",".join(
            [drive, "MLC-A", ts, *cells[:4], *flags[:2], *cells[4:], flags[2]]),
        st.sampled_from(["a", "b"]),
        st.sampled_from(["0", "86400000000", "172800000000"]),
        st.lists(st.sampled_from(["", "1", "2"]), min_size=16, max_size=16),
        st.lists(st.sampled_from(["0", "1"]), min_size=3, max_size=3)))),
}


@given(st.sampled_from(sorted(KEYED)), st.data())
@settings(max_examples=150, deadline=None)
def test_repeated_keys_match_the_all_pairs_reference(family, data):
    parse, header, rows = KEYED[family]
    text = "\n".join([header, *data.draw(rows)]) + "\n"
    with mock.patch.object(ingest._Table, "conflicts", _conflicts_everywhere), \
            mock.patch.object(ingest, "_PresentScans", _FreshScans):
        want = _outcome(parse, text)
    for block in (1, 3, ingest._READ_BLOCK):
        with mock.patch.object(ingest, "_READ_BLOCK", block):
            assert _outcome(parse, text) == want
