import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mslidar.errors import DataError
from mslidar.evaluation import (
    ConfusionMatrix, ablation_to_json, best, confusion, error_rate_above, evaluate,
    error_las, metrics, report_to_csv, report_to_json,
)
from mslidar.features import FeatureConfig
from mslidar.lasio import read_las, write_las
from mslidar.pipeline import load_config

from conftest import brute_confusion, random_cloud


class TestConfusion:
    def test_perfect_prediction_counts(self):
        truth = np.array([0] * 6 + [1] * 4)
        cm = confusion(truth, truth)
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (4, 6, 0, 0)

    def test_inverted_prediction(self):
        truth = np.array([0] * 6 + [1] * 4)
        cm = confusion(1 - truth, truth)
        assert (cm.tp, cm.tn) == (0, 0)
        assert (cm.fp, cm.fn) == (6, 4)

    def test_matches_brute_tally_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(10, 1000))
            pred = rng.integers(0, 2, n)
            truth = rng.integers(0, 2, n)
            cm = confusion(pred, truth)
            assert (cm.tp, cm.fp, cm.fn, cm.tn) == brute_confusion(pred, truth)
            assert cm.total == n

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError, match="differ"):
            confusion(np.zeros(3), np.zeros(4))

    def test_non_binary_rejected(self):
        with pytest.raises(DataError, match="binary"):
            confusion(np.array([0, 2]), np.array([0, 1]))


class TestMetrics:
    def test_perfect_prediction_all_hundred(self):
        rep = metrics(ConfusionMatrix(tp=40, fp=0, fn=0, tn=60))
        for v in (rep.iou_tree, rep.iou_nontree, rep.miou, rep.macc, rep.oa):
            assert v == 100.0

    def test_benchmark_shape_example(self):
        # TP=7754, FP=1020, FN=1226: IoU_tree = 7754/10000 = 77.54%
        rep = metrics(ConfusionMatrix(tp=7754, fp=1020, fn=1226, tn=20000))
        assert rep.iou_tree == pytest.approx(77.54, abs=0.01)

    def test_degenerate_no_tree_points_warns(self, caplog):
        with caplog.at_level("WARNING"):
            rep = metrics(ConfusionMatrix(tp=0, fp=0, fn=0, tn=10))
        assert rep.iou_tree == 0.0
        assert rep.oa == 100.0
        assert any("IoU_tree" in r.message for r in caplog.records)

    def test_empty_matrix_rejected(self):
        with pytest.raises(DataError, match="empty"):
            metrics(ConfusionMatrix(0, 0, 0, 0))

    def test_miou_is_mean_of_ious(self):
        rep = metrics(ConfusionMatrix(tp=50, fp=10, fn=5, tn=100))
        assert rep.miou == pytest.approx((rep.iou_tree + rep.iou_nontree) / 2)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        pred = rng.integers(0, 2, 500)
        truth = rng.integers(0, 2, 500)
        perm = rng.permutation(500)
        a = metrics(confusion(pred, truth))
        b = metrics(confusion(pred[perm], truth[perm]))
        assert a == b

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 500), st.integers(0, 500),
           st.integers(0, 500), st.integers(0, 500))
    def test_bounds_and_recall_dominance(self, tp, fp, fn, tn):
        cm = ConfusionMatrix(tp, fp, fn, tn)
        if cm.total == 0:
            return
        rep = metrics(cm)
        for v in (rep.iou_tree, rep.iou_nontree, rep.miou, rep.macc, rep.oa):
            assert 0.0 <= v <= 100.0
        recall_tree = 100.0 * tp / (tp + fn) if tp + fn else 0.0
        recall_non = 100.0 * tn / (tn + fp) if tn + fp else 0.0
        # each IoU can never exceed its class recall
        assert rep.iou_tree <= recall_tree + 1e-9
        assert rep.iou_nontree <= recall_non + 1e-9
        if tp + fn and tn + fp:
            assert min(recall_tree, recall_non) - 1e-9 <= rep.oa <= max(
                recall_tree, recall_non) + 1e-9


class TestErrorRateAbove:
    def test_all_points_below_threshold_is_undefined(self):
        out = error_rate_above(
            np.array([0, 1]), np.array([0, 1]), np.array([0.5, 1.0]), threshold=2.0)
        assert out is None

    def test_counting_example(self):
        pred = np.array([1] * 10)
        truth = np.array([1] * 7 + [0] * 3)
        h = np.full(10, 5.0)
        assert error_rate_above(pred, truth, h, threshold=2.0) == pytest.approx(30.0)

    def test_perfect_prediction_is_zero(self):
        truth = np.array([0, 1, 1])
        assert error_rate_above(truth, truth, np.full(3, 9.0)) == 0.0

    def test_t0_equals_complement_of_oa_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(5, 2000))
            pred = rng.integers(0, 2, n)
            truth = rng.integers(0, 2, n)
            h = rng.uniform(0.001, 10, n)
            rep = metrics(confusion(pred, truth))
            rate = error_rate_above(pred, truth, h, threshold=0.0)
            assert rate == 100.0 - rep.oa  # bit-exact by construction

    def test_predicted_tree_only_denominator(self):
        pred = np.array([1, 1, 0, 0, 1])
        truth = np.array([1, 0, 0, 1, 1])
        h = np.full(5, 3.0)
        # predicted trees above t: ids 0, 1, 4; one of them (id 1) is wrong
        out = error_rate_above(pred, truth, h, threshold=2.0, predicted_tree_only=True)
        assert out == pytest.approx(100.0 / 3.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError, match="equal lengths"):
            error_rate_above(np.zeros(2), np.zeros(2), np.zeros(3))

    @pytest.mark.parametrize("threshold", [1e39, -1e39, 1e300, -1e300])
    def test_threshold_beyond_float32_range(self, threshold):
        """float32 heights compare with such a threshold as with +-inf, without
        a numpy overflow warning."""
        pred, truth = np.array([1, 1, 0]), np.array([1, 0, 0])
        h = np.array([-3e38, 0.5, 3e38], np.float32)
        rate = error_rate_above(pred, truth, h, threshold=threshold)
        assert rate == (None if threshold > 0 else pytest.approx(100.0 / 3.0))


class TestEvaluateAndExport:
    def make_report(self):
        rng = np.random.default_rng(3)
        cloud = random_cloud(rng, n=300)
        cloud = cloud.with_column("h_norm", rng.uniform(0, 6, 300).astype(np.float32))
        pred = cloud.label.copy()
        pred[rng.random(300) < 0.1] ^= 1
        return evaluate(pred, cloud, load_config(),
                        manifest={"feature_config": "XYZ", "seed": 0})

    def test_evaluate_bundles_error_rate(self):
        rep = self.make_report()
        assert rep.threshold == 2.0
        assert rep.error_rate_above is not None
        assert 0.0 <= rep.error_rate_above <= 100.0

    def test_cloud_without_h_norm_has_no_error_rate(self):
        """The rate needs h_norm; the report still carries the configured
        threshold, and the table writes N/A for the missing rate."""
        cloud = random_cloud(np.random.default_rng(6), n=50)
        rep = evaluate(cloud.label, cloud, load_config(overrides={"evaluate.threshold": 1.5}))
        assert (rep.error_rate_above, rep.threshold, rep.oa) == (None, 1.5, 100.0)
        assert report_to_csv({"-": rep}).splitlines()[1].endswith(",N/A")

    def test_json_roundtrip(self):
        rep = self.make_report()
        back = json.loads(report_to_json(rep))
        assert back["miou"] == rep.miou
        assert back["oa"] == rep.oa
        assert back["counts"]["tp"] == rep.counts.tp
        assert back["manifest"]["seed"] == 0

    def test_csv_columns_match_table_layout(self):
        rep = self.make_report()
        lines = report_to_csv({"XYZ": rep}).strip().splitlines()
        assert lines[0] == "config,IoU_nontree,IoU_tree,mIoU,mAcc,OA,error_rate_above"
        assert lines[1].startswith("XYZ,")

    def test_csv_rounds_to_two_decimals(self):
        rep = self.make_report()
        cells = report_to_csv({"XYZ": rep}).strip().splitlines()[1].split(",")
        for cell in cells[1:6]:
            assert len(cell.split(".")[-1]) <= 2

    def test_ablation_json_and_best(self):
        rep_a = self.make_report()
        cm = ConfusionMatrix(tp=10, fp=40, fn=40, tn=10)
        rep_b = metrics(cm)
        reports = {FeatureConfig.XYZ: rep_b, FeatureConfig.XYZ_PNDVI: rep_a}
        assert best(reports)["mIoU"] is FeatureConfig.XYZ_PNDVI
        payload = json.loads(ablation_to_json(reports))
        assert set(payload["reports"]) == {"XYZ", "XYZ_PNDVI"}
        assert payload["best"]["mIoU"] == "XYZ_PNDVI"
        rows = report_to_csv({c.name: r for c, r in reports.items()}).splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["XYZ", "XYZ_PNDVI"]

    def test_error_las_flags_misclassified(self, tmp_path):
        from conftest import random_cloud
        rng = np.random.default_rng(4)
        cloud = random_cloud(rng, n=30)
        pred = cloud.label.copy()
        pred[:7] ^= 1
        path = tmp_path / "err.las"
        labelled, extra = error_las(cloud, pred)
        write_las(labelled, path, extra=extra)
        back = read_las(path, reflectance_source="error", channel="scanner",
                        label_source="classification")
        assert int(back.reflectance_db.sum()) == 7
        np.testing.assert_array_equal(back.label, pred)

    def test_imported_truth_scores_all_hundred(self, tmp_path):
        from mslidar.columnar import check_label_count, read_labels, write_labels
        from conftest import random_cloud
        rng = np.random.default_rng(5)
        cloud = random_cloud(rng, n=40)
        path = tmp_path / "labels.txt"
        write_labels(cloud.label, path)
        labels = check_label_count(read_labels(path), cloud.count, path)
        rep = metrics(confusion(labels, cloud.label))
        assert rep.oa == 100.0 and rep.miou == 100.0
