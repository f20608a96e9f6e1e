import csv
import io
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drivelife import charstats, ingest
from drivelife.ingest import HDD_SMART_IDS, SchemaError, _last_present, parse_hdd_csv
from drivelife.featurize import (HDD_DIFF_IDS, PartitionRule, carry_forward,
                                 counter_increments, label_lookahead,
                                 make_features_hdd,
                                 make_features_ssd, partition_dataset,
                                 read_examples_csv, write_examples_csv)
from drivelife.lifecycle import (FailureEvent, detect_failures,
                                 extract_operational_periods)

from conftest import (drive_names, hdd_dataset, hdd_rec, labeled_examples,
                      ssd_dataset, ssd_rec, table_of)


class TestSsdFeatures:
    def test_running_sum(self):
        recs = [ssd_rec("d", 0, reads=10), ssd_rec("d", 1, reads=5)]
        feats = make_features_ssd(ssd_dataset({"d": recs}))
        col = feats.names.index("read_ops")
        cum = feats.names.index("read_ops_cum")
        assert feats.X[1, col] == 5
        assert feats.X[1, cum] == 15

    def test_first_day_cum_equals_daily(self):
        recs = [ssd_rec("d", 0, reads=7, writes=3, erases=2,
                        errors={"uncorrectable": 4})]
        feats = make_features_ssd(ssd_dataset({"d": recs}))
        for base in ("read_ops", "write_ops", "erase_ops", "err_uncorrectable"):
            i = feats.names.index(base)
            j = feats.names.index(base + "_cum")
            assert feats.X[0, i] == feats.X[0, j]

    def test_three_day_hand_matrix(self):
        recs = [ssd_rec("d", 0, reads=1, writes=2, erases=0, pe=10,
                        errors={"read": 1}),
                ssd_rec("d", 1, reads=3, writes=0, erases=1, pe=12),
                ssd_rec("d", 2, reads=0, writes=5, erases=0, pe=12,
                        errors={"read": 2})]
        feats = make_features_ssd(ssd_dataset({"d": recs}))

        def col(name):
            return list(feats.X[:, feats.names.index(name)])

        assert col("read_ops") == [1, 3, 0]
        assert col("read_ops_cum") == [1, 4, 4]
        assert col("err_read") == [1, 0, 2]
        assert col("err_read_cum") == [1, 1, 3]
        assert col("pe_cycles_cum") == [10, 12, 12]
        assert col("age_days") == [0, 1, 2]

    def test_absent_counts_imputed_and_carried(self):
        bare = ssd_rec("d", 3, reads=None, writes=None, erases=None, pe=None,
                       swap=True, bbf=None, bbn=None)
        recs = [ssd_rec("d", 0, pe=5, bbn=1), bare]
        feats = make_features_ssd(ssd_dataset({"d": recs}))
        assert feats.X[1, feats.names.index("read_ops")] == 0
        assert feats.X[1, feats.names.index("pe_cycles_cum")] == 5
        assert feats.X[1, feats.names.index("bad_blocks_new_cum")] == 1
        assert np.isfinite(feats.X).all()

    def test_daily_sum_equals_final_cumulative(self):
        rng = random.Random(2)
        recs = [ssd_rec("d", day, reads=rng.randint(0, 9),
                        writes=rng.randint(0, 9),
                        errors={"write": rng.randint(0, 3)})
                for day in range(25)]
        feats = make_features_ssd(ssd_dataset({"d": recs}))
        for base in ("read_ops", "write_ops", "err_write"):
            daily = feats.X[:, feats.names.index(base)]
            cum = feats.X[:, feats.names.index(base + "_cum")]
            assert daily.sum() == cum[-1]


class TestHddFeatures:
    def test_diff_rule(self):
        recs = [hdd_rec("A", 0, smart={9: 100}), hdd_rec("A", 1, smart={9: 124})]
        feats = make_features_hdd(hdd_dataset({"A": recs}))
        diff = feats.X[:, feats.names.index("smart_9_diff")]
        assert list(diff) == [0, 24]

    def test_diff_against_last_present_value(self):
        recs = [hdd_rec("A", 0, smart={241: 50}), hdd_rec("A", 1, smart={}),
                hdd_rec("A", 2, smart={241: 80})]
        feats = make_features_hdd(hdd_dataset({"A": recs}))
        raw = feats.X[:, feats.names.index("smart_241")]
        diff = feats.X[:, feats.names.index("smart_241_diff")]
        assert list(raw) == [50, 50, 80]  # carry-forward
        assert list(diff) == [0, 0, 30]

    def test_first_present_value_diffs_to_zero(self):
        # smart_5 cells ",7,9,9": the absent first cell is not an observation.
        recs = [hdd_rec("A", day, smart=smart)
                for day, smart in enumerate([{}, {5: 7}, {5: 9}, {5: 9}])]
        ds = hdd_dataset({"A": recs})
        feats = make_features_hdd(ds)
        assert list(feats.X[:, feats.names.index("smart_5_diff")]) == [0, 0, 2, 0]
        assert list(feats.X[:, feats.names.index("smart_5")]) == [0, 7, 9, 9]
        _, counts, _, days = charstats._daily_error_series(ds, "smart_5")
        assert list(counts) == [2] and list(days) == [0, 1, 2, 3]

    def test_counter_reset_clamped_and_flagged(self):
        recs = [hdd_rec("A", 0, smart={12: 40}), hdd_rec("A", 1, smart={12: 3})]
        feats = make_features_hdd(hdd_dataset({"A": recs}))
        diff = feats.X[:, feats.names.index("smart_12_diff")]
        flag = feats.X[:, feats.names.index("counter_reset")]
        assert list(diff) == [0, 0]
        assert list(flag) == [0, 1]

    def test_smart_187_cum_carried_across_gaps(self):
        recs = [hdd_rec("A", 0, smart={187: 2}), hdd_rec("A", 1, smart={}),
                hdd_rec("A", 2, smart={187: 5})]
        feats = make_features_hdd(hdd_dataset({"A": recs}))
        cum = feats.X[:, feats.names.index("smart_187_cum")]
        assert list(cum) == [2, 2, 5]

    def test_never_observed_imputes_zero(self):
        feats = make_features_hdd(hdd_dataset({"A": [hdd_rec("A", 0)]}))
        assert np.isfinite(feats.X).all()
        assert feats.X[0, feats.names.index("smart_5")] == 0

    def test_hfh_max_to_date(self):
        recs = [hdd_rec("A", 0, smart={240: 10}), hdd_rec("A", 1, smart={240: 8}),
                hdd_rec("A", 2, smart={240: 30})]
        feats = make_features_hdd(hdd_dataset({"A": recs}))
        assert list(feats.hfh_max) == [10, 10, 30]


def general_carry(values, present, starts):
    """carry_forward by its general formula: a gather at the last-present scan."""
    last = _last_present(present, starts)
    return np.where(last >= 0, values[last], 0)


def general_increments(values, present, starts):
    """counter_increments by its general formula: a difference from the value
    at the previous-present scan."""
    prev = np.roll(_last_present(present, starts), 1)
    prev[starts[:-1][np.diff(starts) > 0]] = -1
    diff = np.where(present & (prev >= 0), values - values[prev], 0)
    return np.maximum(diff, 0), diff < 0


def assert_bit_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


#: Counts near 0 and near 2**62, so that a drive's counter can reset and
#: differences are large.
COUNTS = st.one_of(st.integers(0, 9), st.integers(2**62 - 3, 2**62 + 3))


class TestAllTrueKernels:
    """An all-true mask takes no scan; its results are the general formula's."""

    @given(st.lists(st.lists(COUNTS, min_size=1, max_size=5), max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_all_true_mask_equals_the_general_formula(self, drives):
        starts = np.cumsum([0] + [len(d) for d in drives])
        values = np.array([v for d in drives for v in d], dtype=np.int64)
        present = np.ones(values.size, dtype=bool)
        carried = carry_forward(values, present, starts)
        assert_bit_equal(carried, general_carry(values, present, starts))
        assert not np.shares_memory(carried, values)
        for got, want in zip(counter_increments(values, present, starts),
                             general_increments(values, present, starts)):
            assert_bit_equal(got, want)

    def test_single_rows_resets_and_zero_rows(self):
        starts = np.array([0, 1, 2, 5])
        values = np.array([7, 2**62, 2**62 + 1, 3, 2**62], dtype=np.int64)
        diff, reset = counter_increments(values, np.ones(5, dtype=bool), starts)
        assert diff.tolist() == [0, 0, 0, 0, 2**62 - 3]
        assert reset.tolist() == [False, False, False, True, False]
        empty = np.zeros(0, dtype=np.int64)
        for got in (carry_forward(empty, empty > 0, np.array([0])),
                    *counter_increments(empty, empty > 0, np.array([0]))):
            assert got.size == 0

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_hdd_features_equal_a_per_column_reference(self, data):
        """Fully reported, partly absent and never reported SMART ids, the
        last both as an all-empty column and as no column."""
        full, partial, empty = (9, 187, 241), (5, 12, 240), (197,)
        cells = st.one_of(COUNTS.map(str), st.just(""))
        lines = ["date,serial_number,model,failure,"
                 + ",".join(f"smart_{sid}_raw" for sid in full + partial + empty)]
        for drive in range(data.draw(st.integers(1, 4))):
            for day in range(data.draw(st.integers(1, 5))):
                row = [str(data.draw(COUNTS)) for _ in full]
                row += [data.draw(cells) for _ in partial] + ["" for _ in empty]
                lines.append(f"2015-01-0{day + 1},S{drive},M,0," + ",".join(row))
        ds = parse_hdd_csv("\n".join(lines) + "\n")
        columns = {}
        reset = np.zeros(ds.n_records, dtype=bool)
        for sid in HDD_SMART_IDS:
            values, present = ds.column(f"smart_{sid}")
            columns[f"smart_{sid}"] = general_carry(values, present, ds.starts)
            if sid in HDD_DIFF_IDS:
                diff, flag = general_increments(values, present, ds.starts)
                columns[f"smart_{sid}_diff"] = diff
                reset |= flag
        columns["smart_187_cum"] = columns["smart_187"]
        columns["counter_reset"] = reset
        feats = make_features_hdd(ds)
        want = np.column_stack([columns[name] for name in feats.names]).astype(float)
        assert_bit_equal(feats.X, want)

    def test_ssd_carried_counters_equal_the_general_formula(self):
        """Bare swap-marker rows leave the three carried counters absent on
        the same rows, in masks that are equal but not one object."""
        recs = {"a": [ssd_rec("a", 0, pe=4, bbf=2, bbn=1),
                      ssd_rec("a", 1, reads=None, writes=None, erases=None, pe=None,
                              bbf=None, bbn=None, swap=True),
                      ssd_rec("a", 2, pe=6, bbf=2, bbn=3)],
                "b": [ssd_rec("b", 0, reads=None, writes=None, erases=None, pe=None,
                              bbf=None, bbn=None, swap=True),
                      ssd_rec("b", 1, pe=1, bbf=5, bbn=0)]}
        ds = ssd_dataset(recs)
        feats = make_features_ssd(ds)
        for name in ("pe_cycles_cum", "bad_blocks_factory_cum", "bad_blocks_new_cum"):
            want = general_carry(*ds.column(name), ds.starts).astype(float)
            assert_bit_equal(feats.X[:, feats.names.index(name)].copy(), want)


class TestLabeling:
    def _feats(self, days=12):
        recs = [ssd_rec("d", day) for day in range(days)]
        return make_features_ssd(ssd_dataset({"d": recs}))

    def test_n0_labels_only_failure_day(self):
        examples = label_lookahead(self._feats(), table_of([FailureEvent("d", 8, 1, "ssd")]), 0)
        assert examples.y.sum() == 1
        assert examples.days[examples.y][0] == 8

    def test_n2_labels_window(self):
        examples = label_lookahead(self._feats(), table_of([FailureEvent("d", 8, 1, "ssd")]), 2)
        positive_days = sorted(examples.days[examples.y])
        assert positive_days == [6, 7, 8]
        assert 5 not in positive_days

    def test_no_failures_all_negative(self):
        examples = label_lookahead(self._feats(), table_of([]), 7)
        assert examples.y.sum() == 0

    def test_positive_counts_monotone_in_lookahead(self):
        failures = table_of([FailureEvent("d", 8, 1, "ssd")])
        counts = [label_lookahead(self._feats(), failures, n).n_positive
                  for n in (0, 1, 2, 7)]
        assert counts == sorted(counts)

    def test_gap_days_produce_no_examples(self, simple_ssd):
        failures = detect_failures(simple_ssd)
        periods = extract_operational_periods(simple_ssd, failures)
        feats = make_features_ssd(simple_ssd)
        examples = label_lookahead(feats, failures, 0, periods)
        # days 8-10 (inactive) and 13 (swap) fall outside every period
        assert set(examples.days) == set(range(1, 8))
        assert examples.n_positive == 1

    def test_partition_key_sources(self):
        recs = [hdd_rec("A", 0, smart={240: 7}), hdd_rec("A", 1, smart={240: 9})]
        feats = make_features_hdd(hdd_dataset({"A": recs}))
        by_age = label_lookahead(feats, table_of([]), 0, partition_attr="age")
        by_hfh = label_lookahead(feats, table_of([]), 0, partition_attr="hfh")
        assert list(by_age.partition_key) == [0, 1]
        assert list(by_hfh.partition_key) == [7, 9]


class TestPartition:
    def _examples(self, keys):
        feats = self._feats_for(len(keys))
        examples = label_lookahead(feats, table_of([]), 0)
        examples.partition_key = np.asarray(keys, dtype=float)
        return examples

    def _feats_for(self, n):
        recs = [ssd_rec("d", day) for day in range(n)]
        return make_features_ssd(ssd_dataset({"d": recs}))

    def test_boundary_goes_below(self):
        below, above = partition_dataset(self._examples([90.0, 90.5]),
                                         PartitionRule("age", 90))
        assert below.n == 1 and above.n == 1
        assert below.partition_key[0] == 90.0

    def test_hfh_split(self):
        below, above = partition_dataset(self._examples([10, 50_000]),
                                         PartitionRule("hfh", 40_000))
        assert below.n == 1 and above.n == 1

    @given(st.lists(st.floats(0, 200, allow_nan=False), min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_disjoint_exhaustive_ordered(self, keys):
        examples = self._examples(keys)
        below, above = partition_dataset(examples, PartitionRule("age", 90))
        assert below.n + above.n == examples.n
        assert all(k <= 90 for k in below.partition_key)
        assert all(k > 90 for k in above.partition_key)
        merged = sorted(list(below.days) + list(above.days))
        assert merged == sorted(examples.days)
        assert list(below.days) == sorted(below.days)  # stable order

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            PartitionRule("age", 0)
        for threshold in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                PartitionRule("age", threshold)
        with pytest.raises(ValueError):
            PartitionRule("wear", 10)


def row_at_a_time_examples_csv(examples, out, header_comment=None):
    """The row-at-a-time examples writer that the column-batch writer
    replaced, kept as its reference."""
    if header_comment:
        out.write(f"# {header_comment}\n")
    w = csv.writer(out, lineterminator="\n")
    w.writerow([*examples.names, "label", "drive_id", "day", "partition_key"])
    drives = drive_names(examples)
    for i in range(examples.n):
        w.writerow([*(repr(float(v)) for v in examples.X[i]), int(examples.y[i]),
                    drives[i], int(examples.days[i]),
                    repr(float(examples.partition_key[i]))])


#: Drive ids the CSV must quote or that are not ASCII; floats at the edges
#: of repr (signed zero, the least subnormal, huge, infinite) and of the
#: writer's digits (2**53, and 1e16, where repr turns to an exponent);
#: days at the ends of int64.
EDGE_DRIVES = ("C,D", 'a"b', "é", "nul\x00", "plain")
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, 1 / 3,
               float("inf"), float("-inf"), 7.0, 2.0**53 - 1, 2.0**53, 2.0**53 + 2,
               1e16 - 2, 1e16, -1.0, 123.0)
EDGE_DAYS = (-1, 0, 2, 10**15, 10**18, 2**63 - 1, -7, -2**63)


def edge_examples(n: int):
    rng = random.Random(n)
    drives = [rng.choice(EDGE_DRIVES) for _ in range(n)]
    X = np.array([[rng.choice(EDGE_FLOATS) for _ in range(3)] for _ in range(n)],
                 dtype=float).reshape(n, 3)
    return labeled_examples(
        ("a", "b_cum", "c"), X, np.array([rng.random() < 0.5 for _ in range(n)],
                                         dtype=bool),
        drives, np.array([rng.choice(EDGE_DAYS) for _ in range(n)], dtype=np.int64),
        np.array([rng.choice(EDGE_FLOATS) for _ in range(n)], dtype=float), 2)


def row_at_a_time_read(stream, lookahead=0):
    """The row-at-a-time examples reader that the column-batch reader
    replaced, kept as its reference."""
    header, lines, line = ingest._header(stream)
    if header[-4:] != ["label", "drive_id", "day", "partition_key"]:
        raise SchemaError("not an examples CSV: trailing columns mismatch")
    names = tuple(header[:-4])
    X, y, drives, days, keys = [], [], [], [], []
    reader = csv.reader(lines)
    try:
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(row)}")
            X.extend(map(float, row[:len(names)]))
            y.append(bool(int(row[-4])))
            drives.append(row[-3])
            days.append(int(row[-2]))
            keys.append(float(row[-1]))
    except (ValueError, csv.Error) as exc:
        raise SchemaError(f"examples line {line + reader.line_num}: {exc}") from None
    return labeled_examples(names, np.array(X, dtype=float).reshape(len(y), len(names)),
                            np.array(y, dtype=bool), drives,
                            np.array(days, dtype=np.int64), np.array(keys), lookahead)


def assert_same_read(text):
    """The reader gives the reference's examples, or its SchemaError text."""
    try:
        expected = row_at_a_time_read(text)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as got:
            read_examples_csv(text)
        assert str(got.value) == str(exc)
        return
    got = read_examples_csv(text)
    assert got.names == expected.names
    for field in ("X", "y", "days", "partition_key"):
        a, b = getattr(got, field), getattr(expected, field)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a.view(np.uint8), b.view(np.uint8)), field  # -0.0, nan
    assert list(drive_names(got)) == list(drive_names(expected))
    assert list(got.drive_ids) == sorted(set(got.drive_ids))


#: Cells the reader's kernel must leave to float() or int(), which accept
#: or reject them: signs, blanks, underscores, more zeros, exponents,
#: non-ASCII digits, more digits than the kernel takes.
ODD_NUMBER_CELLS = ("+1.0", " 1.0", "1.0 ", "1_0.0", "1.00", "007.0", "1e3", "١.0", "10", "100",
                    "-1.0", "-0.0", "nan", "-inf", "1.5", ".0", "1.", "x", "",
                    "1.0.0", "0x1.0", "1234567890123456.0", "123456789012345.0")
ODD_INT_CELLS = ("+1", " 1", "1_0", "١", "-3", "0", "00", "2", "x", "", "1.0",
                 "9" * 18, "9" * 19, str(2**63 - 1), str(-2**63))


#: Drive id cells that ingest's name kernel does not take (empty, blank or
#: unprintable at an edge, longer than ``ingest._ID_MAX``, not ASCII at an
#: edge, quoted) and cells it takes.
ODD_DRIVE_IDS = ("", " d", "d ", "\td", "d\x7f", "x" * 64, "x" * 65, "é", "dé", "éd",
                 "d é d", '"q,d"', '"d"', "d", "d2", "~!")


def examples_text(examples, writer=None, comment="meta") -> str:
    buf = io.StringIO()
    (writer or write_examples_csv)(examples, buf, header_comment=comment)
    return buf.getvalue()


class TestExamplesCsv:
    @pytest.mark.parametrize("batch", [1, 3, ingest._WRITE_BATCH])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7, 40])
    def test_equals_row_at_a_time_writer(self, monkeypatch, n, batch):
        examples = edge_examples(n)
        expected = examples_text(examples, row_at_a_time_examples_csv)
        monkeypatch.setattr(ingest, "_WRITE_BATCH", batch)
        assert examples_text(examples) == expected
        assert examples_text(examples, comment=None) == \
            examples_text(examples, row_at_a_time_examples_csv, comment=None)

    @pytest.mark.parametrize("n", [0, 1, 7, 40])
    def test_write_read_write_is_byte_identical(self, monkeypatch, n):
        monkeypatch.setattr(ingest, "_WRITE_BATCH", 3)
        monkeypatch.setattr(ingest, "_READ_BLOCK", 3)
        text = examples_text(edge_examples(n))
        assert_same_read(text)
        again = read_examples_csv(text, lookahead=2)
        assert sorted(again.drive_ids) == list(again.drive_ids)
        assert examples_text(again) == text

    def test_round_trip(self):
        recs = [ssd_rec("d", day, reads=day * 3 + 1,
                        errors={"read": day % 2}) for day in range(6)]
        feats = make_features_ssd(ssd_dataset({"d": recs}))
        examples = label_lookahead(feats, table_of([FailureEvent("d", 5, 1, "ssd")]), 1)
        buf = io.StringIO()
        write_examples_csv(examples, buf, header_comment="meta")
        again = read_examples_csv(buf.getvalue(), lookahead=1)
        assert again.names == examples.names
        assert np.array_equal(again.X, examples.X)
        assert np.array_equal(again.y, examples.y)
        assert list(drive_names(again)) == list(drive_names(examples))
        assert np.array_equal(again.partition_key, examples.partition_key)

    @pytest.mark.parametrize("column", ["a", "b", "label", "day", "partition_key"])
    def test_odd_cells_read_as_the_row_parser_reads_them(self, column):
        cells = ODD_INT_CELLS if column in ("label", "day") else ODD_NUMBER_CELLS
        header = "a,b,label,drive_id,day,partition_key"
        base = {"a": "3.0", "b": "12.0", "label": "1", "drive_id": "d", "day": "4",
                "partition_key": "4.0"}
        for cell in cells:
            rows = [",".join({**base, column: cell}.values()) if i == 2
                    else ",".join(base.values()) for i in range(4)]
            text = "# meta\n" + header + "\n" + "\n".join(rows) + "\n"
            if column == "day" and cell == "9" * 19:  # the reference overflows
                with pytest.raises(SchemaError, match=f"line 5: day outside int64: '{cell}'"):
                    read_examples_csv(text)
                continue
            assert_same_read(text)

    @pytest.mark.parametrize("block", [1, 3, ingest._READ_BLOCK])
    def test_odd_drive_ids_read_as_the_row_parser_reads_them(self, monkeypatch, block):
        # ids that ingest's name kernel leaves to the cell text beside ids it
        # takes, in blocks of ASCII text and of wider code points alike
        monkeypatch.setattr(ingest, "_READ_BLOCK", block)
        rng = random.Random(block)
        cells = [rng.choice(ODD_DRIVE_IDS) for _ in range(80)]
        text = "a,label,drive_id,day,partition_key\n" + "".join(
            f"1.0,0,{cell},3,3.0\n" for cell in cells)
        assert_same_read(text)
        assert (list(read_examples_csv(text).drive_ids)
                == list(row_at_a_time_read(text).drive_ids))

    @pytest.mark.parametrize("block", [1, 2, 3, ingest._READ_BLOCK])
    def test_first_bad_row_by_line(self, monkeypatch, block):
        monkeypatch.setattr(ingest, "_READ_BLOCK", block)
        good = "1.0,0,d,3,3.0"
        bad = {"value": "x,0,d,3,3.0", "short": "1.0,0,d", "label": "1.0,y,d,3,3.0",
               "quoted": '"1.0",1,"d,e",3,3.0', "overlong": "1.0,0," + "d" * 80 + ",3,3.0"}
        limit = csv.field_size_limit(40)
        try:
            for first, second in (("value", "short"), ("short", "value"),
                                  ("label", "overlong"), ("overlong", "value"),
                                  ("quoted", "value"), ("value", "quoted")):
                rows = [good] * 6
                rows[2], rows[4] = bad[first], bad[second]
                assert_same_read("a,label,drive_id,day,partition_key\n"
                                 + "\n".join(rows) + "\n")
        finally:
            csv.field_size_limit(limit)

    @pytest.mark.parametrize("text, line", [
        ("", None),
        ("a,b\n1,2\n", None),
        ("# meta\na,label,drive_id,day,partition_key\n1.0,1,d,3\n", 3),
        ("a,label,drive_id,day,partition_key\n1.0,0,d,3,3.0\nx,1,d,4,4.0\n", 3),
        ("a,label,drive_id,day,partition_key\n1.0,0,d,3,3.0\n1.0,0,d,4,4.0\n"
         "#2.0,1,b,1,1.0\n", 4),
        ('a,label,drive_id,day,partition_key\n"",,,,\n', 2),
    ], ids=["empty", "foreign_header", "short_row", "bad_value", "comment_after_header",
            "empty_quoted_cells"])
    def test_malformed_input_is_schema_error(self, text, line):
        with pytest.raises(SchemaError) as exc:
            read_examples_csv(text)
        if line is not None:
            assert f"line {line}:" in str(exc.value)

