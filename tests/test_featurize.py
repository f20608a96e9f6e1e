import io
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drivelife.featurize import (PartitionRule, label_lookahead,
                                 make_features_hdd,
                                 make_features_ssd, partition_dataset,
                                 read_examples_csv, write_examples_csv)
from drivelife.lifecycle import (FailureEvent, detect_ssd_failures,
                                 extract_operational_periods)

from conftest import hdd_dataset, hdd_rec, ssd_dataset, ssd_rec


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


class TestLabeling:
    def _feats(self, days=12):
        recs = [ssd_rec("d", day) for day in range(days)]
        return make_features_ssd(ssd_dataset({"d": recs}))

    def test_n0_labels_only_failure_day(self):
        examples = label_lookahead(self._feats(), [FailureEvent("d", 8, 1, "ssd")], 0)
        assert examples.y.sum() == 1
        assert examples.days[examples.y][0] == 8

    def test_n2_labels_window(self):
        examples = label_lookahead(self._feats(), [FailureEvent("d", 8, 1, "ssd")], 2)
        positive_days = sorted(examples.days[examples.y])
        assert positive_days == [6, 7, 8]
        assert 5 not in positive_days

    def test_no_failures_all_negative(self):
        examples = label_lookahead(self._feats(), [], 7)
        assert examples.y.sum() == 0

    def test_positive_counts_monotone_in_lookahead(self):
        failures = [FailureEvent("d", 8, 1, "ssd")]
        counts = [label_lookahead(self._feats(), failures, n).n_positive
                  for n in (0, 1, 2, 7)]
        assert counts == sorted(counts)

    def test_gap_days_produce_no_examples(self, simple_ssd):
        failures = detect_ssd_failures(simple_ssd)
        periods = extract_operational_periods(simple_ssd, failures)
        feats = make_features_ssd(simple_ssd)
        examples = label_lookahead(feats, failures, 0, periods)
        # days 8-10 (inactive) and 13 (swap) fall outside every period
        assert set(examples.days) == set(range(1, 8))
        assert examples.n_positive == 1

    def test_partition_key_sources(self):
        recs = [hdd_rec("A", 0, smart={240: 7}), hdd_rec("A", 1, smart={240: 9})]
        feats = make_features_hdd(hdd_dataset({"A": recs}))
        by_age = label_lookahead(feats, [], 0, partition_attr="age")
        by_hfh = label_lookahead(feats, [], 0, partition_attr="hfh")
        assert list(by_age.partition_key) == [0, 1]
        assert list(by_hfh.partition_key) == [7, 9]


class TestPartition:
    def _examples(self, keys):
        feats = self._feats_for(len(keys))
        examples = label_lookahead(feats, [], 0)
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
        with pytest.raises(ValueError):
            PartitionRule("wear", 10)


class TestExamplesCsv:
    def test_round_trip(self):
        recs = [ssd_rec("d", day, reads=day * 3 + 1,
                        errors={"read": day % 2}) for day in range(6)]
        feats = make_features_ssd(ssd_dataset({"d": recs}))
        examples = label_lookahead(feats, [FailureEvent("d", 5, 1, "ssd")], 1)
        buf = io.StringIO()
        write_examples_csv(examples, buf, header_comment="meta")
        again = read_examples_csv(buf.getvalue(), lookahead=1)
        assert again.names == examples.names
        assert np.array_equal(again.X, examples.X)
        assert np.array_equal(again.y, examples.y)
        assert list(again.drives) == list(examples.drives)
        assert np.array_equal(again.partition_key, examples.partition_key)
