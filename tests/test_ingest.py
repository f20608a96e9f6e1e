import datetime as dt
import io
import random

import pytest

from drivelife.ingest import (SchemaError, filter_hdd, parse_hdd_csv,
                              parse_ssd_log, write_hdd_csv, write_ssd_csv)

from conftest import hdd_dataset, hdd_rec, ssd_dataset, ssd_rec

HDD_HEADER = ("date,serial_number,model,capacity_bytes,failure,"
              "smart_1_normalized,smart_1_raw,smart_5_normalized,smart_5_raw")

SSD_HEADER = ("drive_id,model,timestamp_us,read_ops,write_ops,erase_ops,"
              "pe_cycles_cum,dead,read_only,bad_blocks_factory_cum,"
              "bad_blocks_new_cum,err_correctable,err_erase,err_final_read,"
              "err_final_write,err_meta,err_read,err_response,err_timeout,"
              "err_uncorrectable,err_write,swap_event")


def ssd_row(drive="s1", ts=0, reads=10, writes=5, erases=1, pe=1, swap=0,
            uncorrectable=0):
    return (f"{drive},MLC-A,{ts},{reads},{writes},{erases},{pe},0,0,2,0,"
            f"0,0,0,0,0,0,0,0,{uncorrectable},0,{swap}")


class TestParseHdd:
    def test_empty_cells_are_absent_not_zero(self):
        text = HDD_HEADER + "\n2014-01-17,Z1,ST4000DM000,,0,,,,5\n"
        ds = parse_hdd_csv(text)
        rec = ds.records["Z1"][0]
        assert rec.smart_raw == {5: 5}
        assert 1 not in rec.smart_raw

    def test_failure_flag(self):
        text = HDD_HEADER + "\n2014-01-17,Z1,ST4000DM000,,1,,,,\n"
        ds = parse_hdd_csv(text)
        assert ds.records["Z1"][0].failed_today is True

    def test_malformed_rows_counted_and_skipped(self):
        rows = [f"2014-01-{17 + i:02d},Z1,M,,0,,{i},,{i}" for i in range(8)]
        rows.insert(3, "not-a-date,Z1,M,,0,,1,,1")
        rows.insert(7, "2014-02-01,Z1,M,,7,,1,,1")  # bad failure flag
        ds = parse_hdd_csv(HDD_HEADER + "\n" + "\n".join(rows) + "\n")
        assert ds.n_records == 8
        assert ds.provenance["rejected_count"] == 2
        lines = [line for line, _ in ds.provenance["rejected"]]
        assert lines == [5, 9]

    def test_accounting_identity(self):
        rows = ["2014-01-17,A,M,,0,,1,,1", "bogus,A,M,,0,,1,,1",
                "2014-01-18,B,M,,1,,,,2", "2014-01-18,B,M,,0,,,,3"]
        ds = parse_hdd_csv(HDD_HEADER + "\n" + "\n".join(rows) + "\n")
        assert ds.n_records + ds.provenance["rejected_count"] == len(rows)

    def test_hash_row_after_header_is_data(self):
        rows = ["#2014-01-17,A,M,,0,,1,,1", "2014-01-18,B,M,,0,,,,2"]
        ds = parse_hdd_csv("# leading comment\n" + HDD_HEADER + "\n"
                           + "\n".join(rows) + "\n")
        prov = ds.provenance
        assert (prov["data_rows"], prov["rejected_count"]) == (2, 1)
        assert ds.drives == ["B"]

    @pytest.mark.parametrize("cell", ["1E400", "1e-1", "1_000", "+5", "12.",
                                      ".0", "1.5", "0x10", "\u0661",
                                      str(2**63)])
    def test_count_grammar_rejects(self, cell):
        rows = [f"2014-01-17,A,M,,0,,1,,{cell}", "2014-01-18,A,M,,0,,1,,2"]
        ds = parse_hdd_csv(HDD_HEADER + "\n" + "\n".join(rows) + "\n")
        prov = ds.provenance
        assert (prov["data_rows"], prov["rejected_count"], ds.n_records) == (2, 1, 1)
        for bad in (ssd_row(reads=cell), ssd_row(ts=cell)):
            ssd = parse_ssd_log(SSD_HEADER + "\n" + bad + "\n"
                                + ssd_row(ts=86_400_000_000) + "\n")
            prov = ssd.provenance
            assert (prov["data_rows"], prov["rejected_count"],
                    ssd.n_records) == (2, 1, 1)

    @pytest.mark.parametrize("cell,value", [("12", 12), ("12.0", 12),
                                            ("0.000", 0), (" 7 ", 7),
                                            (str(2**63 - 1), 2**63 - 1)])
    def test_count_grammar_accepts(self, cell, value):
        ds = parse_hdd_csv(HDD_HEADER + f"\n2014-01-17,A,M,,0,,1,,{cell}\n")
        assert ds.records["A"][0].smart_raw[5] == value

    def test_missing_mandatory_column(self):
        with pytest.raises(SchemaError, match="serial_number"):
            parse_hdd_csv("date,model,failure\n2014-01-17,M,0\n")

    def test_negative_smart_rejected(self):
        text = HDD_HEADER + "\n2014-01-17,Z1,M,,0,,-3,,\n"
        ds = parse_hdd_csv(text)
        assert ds.n_records == 0
        assert ds.provenance["rejected_count"] == 1

    def test_order_insensitive(self):
        rows = [f"2014-01-{d:02d},{serial},M,,0,,{d},,"
                for serial in ("A", "B") for d in range(10, 20)]
        shuffled = rows[:]
        random.Random(5).shuffle(shuffled)
        ds1 = parse_hdd_csv(HDD_HEADER + "\n" + "\n".join(rows) + "\n")
        ds2 = parse_hdd_csv(HDD_HEADER + "\n" + "\n".join(shuffled) + "\n")
        assert ds1 == ds2

    def test_identical_duplicates_deduped_conflicts_dropped(self):
        rows = ["2014-01-17,A,M,,0,,1,,", "2014-01-17,A,M,,0,,1,,",
                "2014-01-18,A,M,,0,,1,,", "2014-01-18,A,M,,0,,2,,"]
        ds = parse_hdd_csv(HDD_HEADER + "\n" + "\n".join(rows) + "\n")
        assert [r.date.day for r in ds.records["A"]] == [17]
        assert ds.provenance["rejected_count"] == 3


class TestParseSsd:
    def test_monotone_cumulative_accepted(self):
        rows = [ssd_row(ts=0, pe=10), ssd_row(ts=86400000000, pe=10),
                ssd_row(ts=2 * 86400000000, pe=12)]
        ds = parse_ssd_log(SSD_HEADER + "\n" + "\n".join(rows) + "\n")
        assert len(ds.records["s1"]) == 3
        assert not ds.provenance["quarantined"]

    def test_decreasing_cumulative_quarantined(self):
        rows = [ssd_row(ts=0, pe=10), ssd_row(ts=86400000000, pe=9)]
        ds = parse_ssd_log(SSD_HEADER + "\n" + "\n".join(rows) + "\n")
        assert "s1" not in ds.records
        (drive, reason), = ds.provenance["quarantined"]
        assert drive == "s1" and "pe_cycles_cum" in reason

    def test_three_drive_fixture_day_counts(self):
        rows = []
        for drive, days in (("a", 4), ("b", 2), ("c", 7)):
            rows += [ssd_row(drive=drive, ts=d * 86400000000, pe=d + 1)
                     for d in range(days)]
        ds = parse_ssd_log(SSD_HEADER + "\n" + "\n".join(rows) + "\n")
        assert {d: len(ds.records[d]) for d in ds.drives} == {"a": 4, "b": 2, "c": 7}

    def test_bare_swap_row_with_absent_counts(self):
        bare = "s1,MLC-A,172800000000,,,,,1,1,,,0,0,0,0,0,0,0,0,0,0,1"
        rows = [ssd_row(ts=0, pe=5), bare]
        ds = parse_ssd_log(SSD_HEADER + "\n" + "\n".join(rows) + "\n")
        swap = ds.records["s1"][1]
        assert swap.swap_event and swap.read_ops is None
        assert swap.pe_cycles_cum is None

    def test_header_mismatch(self):
        with pytest.raises(SchemaError):
            parse_ssd_log("drive_id,timestamp_us\na,0\n")

    def test_order_insensitive(self):
        rows = [ssd_row(drive=d, ts=t * 86400000000, pe=t + 1)
                for d in ("x", "y") for t in range(6)]
        shuffled = rows[:]
        random.Random(9).shuffle(shuffled)
        ds1 = parse_ssd_log(SSD_HEADER + "\n" + "\n".join(rows) + "\n")
        ds2 = parse_ssd_log(SSD_HEADER + "\n" + "\n".join(shuffled) + "\n")
        assert ds1 == ds2


# family -> (parser, header, a good row, a malformed row)
FAMILIES = {
    "hdd": (parse_hdd_csv, HDD_HEADER, "2014-01-17,A,M,,0,,1,,2",
            "bogus,A,M,,0,,1,,2"),
    "ssd": (parse_ssd_log, SSD_HEADER, ssd_row(),
            ssd_row(ts=86_400_000_000, reads="x")),
}


class TestRejectedRows:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_line_numbers_count_comment_and_blank_lines(self, family):
        parse, header, good, bad = FAMILIES[family]
        lines = ["# comment", "", header, good, "", "# data row", bad]
        ds = parse("\n".join(lines) + "\n")
        assert [line for line, _ in ds.provenance["rejected"]] == [6, 7]
        assert (ds.provenance["data_rows"], ds.n_records) == (3, 1)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_extra_cell_rejected(self, family):
        parse, header, good, _ = FAMILIES[family]
        width = header.count(",") + 1
        ds = parse(header + "\n" + good + ",EXTRA\n")
        assert ds.n_records == 0
        assert ds.provenance["rejected"] == [
            (2, f"expected {width} fields, got {width + 1}")]


class TestFilterHdd:
    @pytest.fixture
    def mixed(self):
        return hdd_dataset({
            "A": [hdd_rec("A", dt.date(2013, 12, 31)),
                  hdd_rec("A", dt.date(2014, 1, 17))],
            "B": [hdd_rec("B", dt.date(2015, 6, 1), model="ST8000DM002")],
        })

    def test_model_filter(self, mixed):
        out = filter_hdd(mixed, {"ST4000DM000"}, dt.date(2013, 1, 1),
                         dt.date(2019, 12, 31))
        assert out.drives == ["A"]

    def test_empty_model_set(self, mixed):
        out = filter_hdd(mixed, set(), dt.date(2013, 1, 1), dt.date(2019, 12, 31))
        assert out.n_drives == 0

    def test_inclusive_bounds(self, mixed):
        out = filter_hdd(mixed, {"ST4000DM000"}, dt.date(2014, 1, 17),
                         dt.date(2019, 12, 31))
        assert [r.date for r in out.records["A"]] == [dt.date(2014, 1, 17)]

    def test_bad_window(self, mixed):
        with pytest.raises(ValueError):
            filter_hdd(mixed, {"ST4000DM000"}, dt.date(2015, 1, 1),
                       dt.date(2014, 1, 1))

    def test_wrong_family(self):
        ds = ssd_dataset({"s": [ssd_rec("s", 0)]})
        with pytest.raises(ValueError):
            filter_hdd(ds, set(), dt.date(2014, 1, 1), dt.date(2015, 1, 1))


class TestRoundTrip:
    def test_ssd_round_trip(self):
        ds = ssd_dataset({
            "d1": [ssd_rec("d1", 0, errors={"uncorrectable": 3}),
                   ssd_rec("d1", 1, reads=0, writes=0),
                   ssd_rec("d1", 4, swap=True, dead=True, pe=9)],
            "d2": [ssd_rec("d2", 2, pe=7)],
        })
        buf = io.StringIO()
        write_ssd_csv(ds, buf)
        again = parse_ssd_log(buf.getvalue())
        assert again == ds

    def test_hdd_round_trip(self):
        ds = hdd_dataset({
            "A": [hdd_rec("A", 0, smart={9: 240, 5: 1}),
                  hdd_rec("A", 1, failed=True, smart={9: 264})],
            "B": [hdd_rec("B", 5)],
        })
        buf = io.StringIO()
        write_hdd_csv(ds, buf)
        again = parse_hdd_csv(buf.getvalue())
        assert again == ds

    def test_comment_line_skipped(self):
        ds = ssd_dataset({"d": [ssd_rec("d", 0)]})
        buf = io.StringIO()
        write_ssd_csv(ds, buf, header_comment="drivelife test artifact")
        assert buf.getvalue().startswith("# ")
        assert parse_ssd_log(buf.getvalue()) == ds
