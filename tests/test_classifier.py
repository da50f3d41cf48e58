import dataclasses
import struct
import weakref

import numpy as np
import pytest

from mslidar import classifier
from mslidar import cloud as cloud_module
from mslidar.classifier import (
    Model, classify, compute_class_weights, fit, height_threshold_postprocess, load_checkpoint,
    neighborhood_graph, neighborhood_stats, predict, save_checkpoint,
)
from mslidar.cloud import QUERY_ROWS, Label, PointCloud, build_index
from mslidar.columnar import check_label_count, read_labels
from mslidar.errors import DataError, NumericError
from mslidar.evaluation import run_ablation
from mslidar.features import (
    ALL_CONFIGS, FeatureConfig, add_pndvi, assemble_features, fit_config_normalization,
)
from mslidar.mlp import DTYPE, Mlp, TrainConfig, train
from mslidar.pipeline import load_config

from conftest import (
    as_v2_checkpoint, brute_radius, peak_traced_bytes, random_cloud, tied_cloud,
)


class TestClassWeights:
    def test_balancedigns_unit_weights(self):
        labels = np.array([0, 1] * 25)
        np.testing.assert_allclose(compute_class_weights(labels), [1.0, 1.0])

    def test_dataset_imbalance_closed_form(self):
        # 82/18 split: w_c = N/(2 N_c) normalized to mean 1 reduces to
        # w_c = 2 (1 - f_c), so exactly (0.36, 1.64)
        labels = np.concatenate((np.zeros(82, np.uint8), np.ones(18, np.uint8)))
        w = compute_class_weights(labels)
        np.testing.assert_allclose(w, [0.36, 1.64], rtol=0, atol=1e-12)
        assert w.mean() == pytest.approx(1.0, abs=1e-12)

    def test_weight_ratio_is_inverse_frequency_ratio(self):
        labels = np.concatenate((np.zeros(99, np.uint8), np.ones(1, np.uint8)))
        w = compute_class_weights(labels)
        assert w[1] / w[0] == pytest.approx(99.0, rel=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(DataError, match="both classes"):
            compute_class_weights(np.zeros(10, np.uint8))


def separable_toy(n=200, seed=0):
    rng = np.random.default_rng(seed)
    y = (np.arange(n) % 2).astype(np.uint8)
    x = np.column_stack((
        np.where(y == 1, 2.0, -2.0) + rng.normal(0, 0.3, n),
        rng.normal(0, 1.0, n),
    ))
    return x, y


class TestTraining:
    def test_separable_toy_reaches_full_accuracy(self):
        x, y = separable_toy()
        cfg = TrainConfig(epochs=50, learning_rate=0.01, batch_size=32,
                          hidden=(16,), seed=0)
        net, loss_curve = train(x, y, (1.0, 1.0), cfg)
        assert (predict(x.astype(np.float32), net) == y).mean() == 1.0
        assert loss_curve[-1] <= loss_curve[0]
        assert len(loss_curve) == cfg.epochs + 1

    def test_deterministic_given_seed(self):
        x, y = separable_toy()
        cfg = TrainConfig(epochs=5, hidden=(8,), seed=3)
        net_a, curve_a = train(x, y, (1.0, 1.0), cfg)
        net_b, curve_b = train(x, y, (1.0, 1.0), cfg)
        assert curve_a == curve_b
        for wa, wb in zip(net_a.parameters(), net_b.parameters()):
            np.testing.assert_array_equal(wa, wb)

    def test_zero_epochs_returns_initialized_params(self):
        x, y = separable_toy()
        cfg = TrainConfig(epochs=0, hidden=(8,), seed=5)
        net, loss_curve = train(x, y, (1.0, 1.0), cfg)
        fresh = Mlp(2, (8,), seed=5, dtype=DTYPE)
        for got, want in zip(net.parameters(), fresh.parameters()):
            np.testing.assert_array_equal(got, want)
        assert len(loss_curve) == 1

    def test_label_flip_with_swapped_weights_mirrors_exactly(self):
        x, y = separable_toy(n=120, seed=2)
        cfg = TrainConfig(epochs=8, learning_rate=0.01, batch_size=32,
                          hidden=(8,), seed=1)
        base, base_curve = train(x, y, (0.36, 1.64), cfg)
        flipped, flipped_curve = train(x, (1 - y).astype(np.uint8), (1.64, 0.36), cfg)
        zb = base.margins(x.astype(np.float32))
        zf = flipped.margins(x.astype(np.float32))
        np.testing.assert_array_equal(zf, -zb)
        assert base_curve == flipped_curve
        # the head negates exactly; the hidden layers are the same bits
        (*hidden_b, vb, cb), (*hidden_f, vf, cf) = (
            net.parameters() for net in (base, flipped))
        assert vb.any() and cb.any()
        np.testing.assert_array_equal(vf.view(np.uint32), (-vb).view(np.uint32))
        np.testing.assert_array_equal(cf.view(np.uint32), (-cb).view(np.uint32))
        for a, b in zip(hidden_b, hidden_f):
            np.testing.assert_array_equal(a.view(np.uint32), b.view(np.uint32))

    def test_unit_weights_equal_unweighted_cross_entropy(self):
        x, y = separable_toy(n=40, seed=4)
        model = Mlp(2, (8,), seed=0, dtype=np.float64)
        # a nonzero head, so the margins differ per row
        w0, b0, v, c = model.parameters()
        v[:, 0] = np.linspace(-0.5, 0.5, 8)
        c[0] = 0.2
        loss, _ = model.loss_and_grads(x, y, (1.0, 1.0))
        # the logistic loss of the margin, straight from the parameters:
        # softplus(-z) for class 1, softplus(z) for class 0
        z = np.maximum(x @ w0 + b0, 0.0) @ v[:, 0] + c[0]
        plain = float(np.where(y == 1, np.logaddexp(0.0, -z), np.logaddexp(0.0, z)).mean())
        assert loss == pytest.approx(plain, rel=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_divergence_aborts_with_diagnostics(self):
        x, y = separable_toy(n=64, seed=6)
        cfg = TrainConfig(epochs=10, learning_rate=1e20, batch_size=64,
                          hidden=(8, 8), seed=0)
        with pytest.raises(NumericError, match="learning rate"):
            train(x, y, (1.0, 1.0), cfg)

    def test_fit_trains_on_the_stats_matrix_without_a_copy(self, monkeypatch):
        rng = np.random.default_rng(26)
        cloud = random_cloud(rng, n=300).with_column(
            "h_norm", rng.uniform(0, 5, 300).astype(np.float32))
        handed, trained = [], []
        loss = Mlp.loss

        def spy_train(features, *args, **kwargs):
            handed.append(features)
            return train(features, *args, **kwargs)

        def spy_loss(model, x, *args, **kwargs):
            trained.append(x)
            return loss(model, x, *args, **kwargs)

        monkeypatch.setattr(classifier, "train", spy_train)
        monkeypatch.setattr(Mlp, "loss", spy_loss)  # train's full-set loss
        fit(cloud, [FeatureConfig.XYZ], load_config(overrides={"train.epochs": 1}))
        (features,), (x,) = handed, trained
        assert features.dtype == DTYPE
        assert np.shares_memory(x, features)

    def test_input_validation(self):
        x, y = separable_toy(n=20)
        with pytest.raises(DataError, match="binary"):
            train(x, y + 3, (1, 1), TrainConfig(epochs=1))
        with pytest.raises(DataError, match="both classes"):
            train(x, np.zeros(20, np.uint8), (1, 1), TrainConfig(epochs=1))
        with pytest.raises(DataError, match="point count"):
            train(x, y[:-1], (1, 1), TrainConfig(epochs=1))


def numeric_grads(model, x, y, cw, eps=1e-6):
    grads = []
    for p in model.parameters():
        g = np.zeros(p.shape, dtype=np.float64)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + eps
            lp, _ = model.loss_and_grads(x, y, cw)
            p[idx] = orig - eps
            lm, _ = model.loss_and_grads(x, y, cw)
            p[idx] = orig
            g[idx] = (lp - lm) / (2.0 * eps)
        grads.append(g)
    return grads


class TestGradientCheck:
    @pytest.mark.parametrize("class_weights", [(1.0, 1.0), (0.36, 1.64)])
    def test_analytic_matches_central_differences(self, class_weights):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(10, 4))
        y = rng.integers(0, 2, 10)
        model = Mlp(4, (8,), seed=1, dtype=np.float64)
        # the head starts at zero, where the hidden gradients vanish; one
        # step moves it off, so the check covers a generic parameter point
        _, g0 = model.loss_and_grads(x, y, class_weights)
        for p, g in zip(model.parameters(), g0):
            p -= 0.05 * g
        _, analytic = model.loss_and_grads(x, y, class_weights)
        numeric = numeric_grads(model, x, y, class_weights)
        for a, n in zip(analytic, numeric):
            tol = 1e-4 * np.maximum(1e-3, np.maximum(np.abs(a), np.abs(n)))
            assert np.all(np.abs(a - n) <= tol)


class TestPredict:
    def test_duplicate_rows_identical_outputs(self):
        model = Mlp(3, (8,), seed=0)
        x = np.tile(np.array([[0.3, -1.0, 2.0]], np.float32), (5, 1))
        z = model.margins(x)
        assert np.all(z == z[0])
        labels = predict(x, model)
        assert np.all(labels == labels[0])

    def test_zero_weight_model_ties_to_nontree(self):
        model = Mlp(3, (4,), seed=0)
        for p in model.parameters():
            p[:] = 0
        x = np.random.default_rng(0).normal(size=(6, 3)).astype(np.float32)
        assert np.all(predict(x, model) == int(Label.NON_TREE))

    def test_labels_are_the_margin_sign(self):
        model = Mlp(4, (8,), seed=2)
        x = np.random.default_rng(1).normal(size=(50, 4)).astype(np.float32)
        # give the zero head a weight vector, then centre the margins so
        # that both classes occur
        model.weights[-1][:, 0] = np.linspace(-1.0, 1.0, 8, dtype=np.float32)
        model.biases[-1][0] -= np.median(model.margins(x))
        z = model.margins(x)
        labels = predict(x, model)
        assert labels.dtype == np.uint8
        assert 0 < labels.sum() < len(labels)
        np.testing.assert_array_equal(labels, z > 0)

    def test_empty_input_gives_empty_prediction(self):
        labels = predict(np.zeros((0, 3), np.float32), Mlp(3, (8,), seed=0))
        assert labels.shape == (0,) and labels.dtype == np.uint8

    def test_dimension_mismatch_rejected(self):
        model = Mlp(4, (8,), seed=0)
        with pytest.raises(DataError, match="expects 4 features"):
            predict(np.zeros((3, 5), np.float32), model)


def whole_graph(cloud, **neighborhood) -> np.ndarray:
    """The blocks of neighborhood_graph, concatenated into one matrix."""
    return np.concatenate([ids for _, ids in neighborhood_graph(cloud, **neighborhood)])


class TestNeighborhood:
    def test_graph_matches_brute_radius(self):
        rng = np.random.default_rng(19)
        cloud = random_cloud(rng, n=150, extent=6.0)
        graph = whole_graph(cloud, k=16, radius=2.0)
        assert graph.shape == (150, 16)
        for i in range(0, 150, 7):
            ids, _ = brute_radius(cloud.xyz, cloud.xyz[i], 2.0, k_max=16)
            got = graph[i][graph[i] >= 0]
            np.testing.assert_array_equal(got, ids)

    def test_graph_matches_brute_radius_on_quantized_cloud(self):
        rng = np.random.default_rng(22)
        cloud = tied_cloud(rng, n=500, extent=2.0)
        graph = whole_graph(cloud, k=16, radius=0.3)
        for i, q in enumerate(cloud.xyz):
            ids, _ = brute_radius(cloud.xyz, q, 0.3, k_max=16)
            np.testing.assert_array_equal(graph[i, : ids.size], ids)
            assert np.all(graph[i, ids.size :] == -1)

    def test_every_row_contains_self(self):
        rng = np.random.default_rng(20)
        cloud = random_cloud(rng, n=80, extent=8.0)
        graph = whole_graph(cloud)
        assert all((graph[i] == i).any() for i in range(cloud.count))

    def test_stats_against_loop_oracle(self):
        rng = np.random.default_rng(21)
        n = 60
        # [h_norm, green, nir]
        values = np.column_stack((rng.uniform(0, 5, n), rng.random(n), rng.random(n)))
        graph = np.full((n, 4), -1, dtype=np.int64)
        for i in range(n):
            members = [(i + j) % n for j in range(rng.integers(1, 5))]
            graph[i, : len(members)] = members
        out = neighborhood_stats(values, [(slice(0, n), graph)])
        # inputs, then mean/std per spectral column, h_norm range, count,
        # each computed in float64 and rounded once to the model dtype
        want = np.empty((n, 3 + 4 + 2))
        want[:, :3] = values
        for i in range(n):
            members = graph[i][graph[i] >= 0]
            for off, ci in enumerate((1, 2)):
                vals = values[members, ci]
                want[i, 3 + 2 * off] = vals.mean()
                want[i, 4 + 2 * off] = vals.std()
            h = values[members, 0]
            want[i, 7] = h.max() - h.min()
            want[i, 8] = len(members)
        assert out.dtype == DTYPE
        np.testing.assert_array_equal(out, want.astype(DTYPE))

    def test_blocked_stats_equal_one_block_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(23)
        n = 103
        cloud = random_cloud(rng, n=n, extent=4.0)
        graph = whole_graph(cloud, k=8, radius=1.5)
        values = np.column_stack((rng.uniform(0, 5, n), rng.random(n), rng.random(n)))
        whole = neighborhood_stats(values, [(slice(0, n), graph)])
        # every row differs, so a block written to other rows shows
        assert np.unique(whole, axis=0).shape[0] == n
        monkeypatch.setattr(cloud_module, "QUERY_ROWS", 5)
        blocked = neighborhood_stats(values, neighborhood_graph(cloud, k=8, radius=1.5))
        np.testing.assert_array_equal(blocked.view(np.uint32), whole.view(np.uint32))

    @pytest.mark.parametrize("neighbor_pass", ["knn_batch", "neighborhood_stats"])
    def test_passes_allocate_block_sized_memory(self, neighbor_pass):
        """Besides its output, the kernel on one block, and the graph and
        stats together over n = 4 blocks, allocate less than five (block, k)
        float64 arrays; one (n, k) array is four of them."""
        k = 16
        n = 4 * QUERY_ROWS
        rng = np.random.default_rng(24)
        side = (n / 4.0) ** (1 / 3)  # about 4 points per cubic meter
        cloud = PointCloud(
            x=rng.uniform(0, side, n), y=rng.uniform(0, side, n),
            z=rng.uniform(0, side, n), channel=np.zeros(n, np.uint8),
        )
        if neighbor_pass == "knn_batch":
            index = build_index(cloud.xyz)
            block = cloud.xyz[:QUERY_ROWS]
            extra = peak_traced_bytes(lambda: index.knn_batch(block, k, radius=2.0))
        else:
            values = np.column_stack((rng.uniform(0, 5, n), rng.random(n), rng.random(n)))
            extra = peak_traced_bytes(
                lambda: neighborhood_stats(values, neighborhood_graph(cloud, k, radius=2.0)))
        assert extra < 5 * QUERY_ROWS * k * 8

    def test_stats_point_count_mismatch_rejected(self):
        with pytest.raises(DataError, match="disagree"):
            neighborhood_stats(np.zeros((5, 1)), [(slice(0, 4), np.zeros((4, 2), np.int64))])

    def test_fit_never_holds_an_n_by_k_id_array(self, monkeypatch):
        """fit on a cloud of four query blocks asks the kernel for one block
        of ids at a time, and each block is dropped before the next query,
        so no (n, k) id array ever exists, as a whole or as kept blocks."""
        n = 4 * QUERY_ROWS
        rng = np.random.default_rng(25)
        cloud = random_cloud(rng, n=n, extent=(4.0 * n) ** (1 / 3))
        cloud = cloud.with_column("h_norm", rng.uniform(0, 5, n).astype(np.float32))
        kernel = cloud_module.SpatialIndex.knn_batch
        blocks, held = [], []  # weak references to the id blocks; live ones at each query

        def spy(index, qs, *args, **kwargs):
            held.append(sum(ref() is not None for ref in blocks))
            ids = kernel(index, qs, *args, **kwargs)
            blocks.append(weakref.ref(ids))
            return ids

        monkeypatch.setattr(cloud_module.SpatialIndex, "knn_batch", spy)
        fit(cloud, [FeatureConfig.XYZ], load_config(overrides={"train.epochs": 1}))
        assert len(blocks) == 4
        assert max(held) <= 1


def labelled_cloud(rng, n, spectral=False):
    """random_cloud with h_norm, and with green, NIR and pndvi columns,
    a few of them missing (NaN), when spectral."""
    cloud = random_cloud(rng, n=n, extent=(4.0 * n) ** (1 / 3))
    cloud = cloud.with_column("h_norm", rng.uniform(0, 5, n).astype(np.float32))
    if not spectral:
        return cloud
    for name, mean in (("refl_green_db", -12.0), ("refl_nir_db", -7.0)):
        values = rng.normal(mean, 2.0, n).astype(np.float32)
        values[rng.integers(0, n, n // 20)] = np.nan
        cloud = cloud.with_column(name, values)
    return add_pndvi(cloud)


class TestSharedPass:
    """fit and classify make one neighbourhood pass per cloud for every
    config, and give each config its columns of that one matrix."""

    @pytest.mark.parametrize("fconfigs", [
        ALL_CONFIGS,
        (FeatureConfig.XYZ_PNDVI, FeatureConfig.XYZ_PNDVI),
        (FeatureConfig.XYZ_NIR, FeatureConfig.XYZ_GREEN_NIR),
        (FeatureConfig.XYZ_GREEN, FeatureConfig.XYZ_PNDVI),
    ], ids=["all", "repeated", "non-canonical", "union-not-a-config"])
    def test_each_recipe_gets_its_lone_matrix_bit_for_bit(self, monkeypatch, fconfigs):
        rng = np.random.default_rng(27)
        train_cloud, test_cloud = (labelled_cloud(rng, n, spectral=True) for n in (240, 90))
        cfg = load_config(overrides={"train.epochs": 1})
        trained, predicted = [], []

        def spy_train(features, *args, **kwargs):
            trained.append(features.copy())
            return train(features, *args, **kwargs)

        def spy_predict(features, *args, **kwargs):
            predicted.append(features.copy())
            return predict(features, *args, **kwargs)

        def spy_fit(cloud, columns, **kwargs):
            fitted.append(columns)
            return fit_config_normalization(cloud, columns, **kwargs)

        fitted = []
        monkeypatch.setattr(classifier, "train", spy_train)
        monkeypatch.setattr(classifier, "predict", spy_predict)
        monkeypatch.setattr(classifier, "fit_config_normalization", spy_fit)
        models = [model for model, _ in fit(train_cloud, fconfigs, cfg)]
        classify(test_cloud, models, cfg)
        assert [m.feature_config for m in models] == list(fconfigs)
        # one fit over the union of the spectral columns, in canonical order
        union = {c for fconfig in fconfigs for c in fconfig.spectral_columns}
        assert fitted == [tuple(c for c in FeatureConfig.XYZ_GREEN_NIR_PNDVI.spectral_columns
                                if c in union)]
        lone = {fconfig: fit_config_normalization(train_cloud, fconfig.spectral_columns,
                                                  p_low=1.0, p_high=99.0)
                for fconfig in fconfigs if fconfig.spectral_columns}
        for model in models:
            params = lone.get(model.feature_config)
            assert (model.normalization is None) == (params is None)
            if params is not None:
                assert model.normalization.columns == params.columns
                for name in ("lo", "hi", "impute"):
                    np.testing.assert_array_equal(getattr(model.normalization, name),
                                                  getattr(params, name))
        for cloud, got in ((train_cloud, trained), (test_cloud, predicted)):
            assert len(got) == len(fconfigs)
            for fconfig, matrix in zip(fconfigs, got):
                params = lone.get(fconfig)
                alone = neighborhood_stats(assemble_features(cloud, params),
                                           neighborhood_graph(cloud, **cfg["neighborhood"]))
                assert matrix.shape == alone.shape
                np.testing.assert_array_equal(matrix.view(np.uint32), alone.view(np.uint32))

    def test_ablation_queries_each_cloud_once_one_block_at_a_time(self, monkeypatch):
        """Two configs over a train cloud of four query blocks and a test
        cloud of two: six kernel calls, each block dropped before the next
        query, so the ablation holds no cloud's id blocks."""
        rng = np.random.default_rng(28)
        train_cloud = labelled_cloud(rng, 4 * QUERY_ROWS).with_column(
            "pndvi", rng.uniform(-1, 1, 4 * QUERY_ROWS).astype(np.float32))
        test_cloud = labelled_cloud(rng, 2 * QUERY_ROWS).with_column(
            "pndvi", rng.uniform(-1, 1, 2 * QUERY_ROWS).astype(np.float32))
        kernel = cloud_module.SpatialIndex.knn_batch
        blocks, held = [], []  # weak references to the id blocks; live ones at each query

        def spy(index, qs, *args, **kwargs):
            held.append(sum(ref() is not None for ref in blocks))
            ids = kernel(index, qs, *args, **kwargs)
            blocks.append(weakref.ref(ids))
            return ids

        monkeypatch.setattr(cloud_module.SpatialIndex, "knn_batch", spy)
        reports = run_ablation(train_cloud, test_cloud,
                               (FeatureConfig.XYZ, FeatureConfig.XYZ_PNDVI),
                               load_config(overrides={"train.epochs": 1}))
        assert list(reports) == [FeatureConfig.XYZ, FeatureConfig.XYZ_PNDVI]
        assert len(blocks) == 6
        assert max(held) <= 1

    def test_no_configs_train_and_classify_nothing(self):
        rng = np.random.default_rng(29)
        cloud = labelled_cloud(rng, 60)
        cfg = load_config()
        assert fit(cloud, [], cfg) == []
        assert classify(cloud, [], cfg) == []
        assert run_ablation(cloud, cloud, (), cfg) == {}

    def test_models_of_different_neighborhoods_rejected(self):
        rng = np.random.default_rng(30)
        cloud = labelled_cloud(rng, 60)
        cfg = load_config(overrides={"train.epochs": 1})
        ((model, _),) = fit(cloud, [FeatureConfig.XYZ], cfg)
        other = dataclasses.replace(model, neighborhood={"k": 8, "radius": 2.0})
        assert classify(cloud, [other], cfg)[0].shape == (60,)
        with pytest.raises(DataError, match="neighborhood"):
            classify(cloud, [model, other], cfg)

    def test_models_of_different_scalings_rejected(self):
        rng = np.random.default_rng(31)
        cloud = labelled_cloud(rng, 60, spectral=True)
        cfg = load_config(overrides={"train.epochs": 1})
        (a, _), (b, _) = fit(cloud, [FeatureConfig.XYZ_NIR, FeatureConfig.XYZ_GREEN_NIR], cfg)
        params = b.normalization
        shifted = dataclasses.replace(params, hi=params.hi + 1.0)
        with pytest.raises(DataError, match="refl_nir_db"):
            classify(cloud, [a, dataclasses.replace(b, normalization=shifted)], cfg)


class TestImportAndPostprocess:
    def make_cloud(self, h):
        h = np.asarray(h, np.float32)
        n = len(h)
        return PointCloud(
            x=np.arange(n, dtype=float), y=np.zeros(n), z=np.zeros(n),
            channel=np.zeros(n, np.uint8), h_norm=h,
        )

    def test_import_all_ones(self, tmp_path):
        cloud = self.make_cloud([1, 2, 3])
        path = tmp_path / "pred.txt"
        path.write_text("1\n1\n1\n")
        labels = check_label_count(read_labels(path), cloud.count, path)
        assert labels.dtype == np.uint8 and np.all(labels == int(Label.TREE))

    def test_import_count_mismatch(self, tmp_path):
        cloud = self.make_cloud([1, 2, 3])
        path = tmp_path / "pred.txt"
        path.write_text("1\n0\n")
        with pytest.raises(DataError, match="2 labels for 3 points"):
            check_label_count(read_labels(path), cloud.count, path)

    def test_import_rejects_non_binary(self, tmp_path):
        cloud = self.make_cloud([1, 2, 3])
        path = tmp_path / "pred.txt"
        path.write_text("1\n0\n2\n")
        with pytest.raises(DataError, match="pred.txt:3: label 2 is not 0 or 1"):
            check_label_count(read_labels(path), cloud.count, path)

    def test_postprocess_demotes_low_trees_only(self):
        cloud = self.make_cloud([0.5, 10.0, 0.5, 3.0])
        labels = np.array([1, 1, 0, 1], np.uint8)
        out = height_threshold_postprocess(labels, cloud, threshold=2.0)
        assert out.tolist() == [0, 1, 0, 1]
        # the input array stays as it was
        assert labels.tolist() == [1, 1, 0, 1]

    def test_postprocess_t0_is_identity(self):
        cloud = self.make_cloud([0.0, 5.0])
        labels = np.array([1, 1], np.uint8)
        out = height_threshold_postprocess(labels, cloud, threshold=0.0)
        np.testing.assert_array_equal(out, labels)

    def test_postprocess_requires_h_norm(self):
        cloud = PointCloud(
            x=np.zeros(1), y=np.zeros(1), z=np.zeros(1),
            channel=np.zeros(1, np.uint8),
        )
        with pytest.raises(DataError, match="h_norm"):
            height_threshold_postprocess(np.zeros(1, np.uint8), cloud)

    @pytest.mark.parametrize("threshold", [1e39, -1e39, 1e300, -1e300])
    def test_postprocess_threshold_beyond_float32_range(self, threshold):
        """h_norm is float32: such a threshold compares as +-inf, without a
        numpy overflow warning."""
        cloud = self.make_cloud([-3e38, 0.5, 3e38])
        labels = np.ones(3, np.uint8)
        out = height_threshold_postprocess(labels, cloud, threshold=threshold)
        assert out.tolist() == ([0, 0, 0] if threshold > 0 else [1, 1, 1])


NEIGHBORHOOD = {"k": 16, "radius": 2.0}


def spectral_params(rng, columns, **percentiles):
    """The scaling fitted on 100 normal values per named column."""
    cloud = random_cloud(rng, n=100)
    for name in columns:
        cloud = cloud.with_column(name, rng.normal(size=100).astype(np.float32))
    return fit_config_normalization(cloud, columns, **percentiles)


def pndvi_params():
    return spectral_params(np.random.default_rng(4), ("pndvi",))


def pndvi_model(net):
    return Model(net, FeatureConfig.XYZ_PNDVI, pndvi_params(), NEIGHBORHOOD, (0.36, 1.64), 0)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        x, y = separable_toy(n=50, seed=8)
        net, _ = train(x, y, (0.36, 1.64), TrainConfig(epochs=2, hidden=(8, 4), seed=9))
        path = tmp_path / "model.mstm"
        params = pndvi_params()
        save_checkpoint(path, Model(net, FeatureConfig.XYZ_PNDVI, params,
                                    {"k": 8, "radius": 1.5}, (0.36, 1.64), 9))
        model = load_checkpoint(path)
        assert model.net.sizes == net.sizes
        for got, want in zip(model.net.parameters(), net.parameters()):
            np.testing.assert_array_equal(got, want.astype(np.float32))
        assert model.feature_config is FeatureConfig.XYZ_PNDVI
        np.testing.assert_allclose(model.class_weights, [0.36, 1.64])
        assert model.seed == 9
        assert model.neighborhood == {"k": 8, "radius": 1.5}
        back = model.normalization
        assert back.columns == ("pndvi",)
        assert (back.p_low, back.p_high) == (params.p_low, params.p_high)
        for field in ("lo", "hi", "impute"):
            np.testing.assert_array_equal(getattr(back, field), getattr(params, field))

    def test_geometry_only_config_has_no_normalization(self, tmp_path):
        path = tmp_path / "model.mstm"
        save_checkpoint(path, Model(Mlp(3, (8,), seed=0), FeatureConfig.XYZ, None,
                                    NEIGHBORHOOD, (1.0, 1.0), 0))
        assert load_checkpoint(path).normalization is None

    def test_bytes_deterministic(self, tmp_path):
        model = Model(Mlp(4, (8,), seed=0), FeatureConfig.XYZ, None, NEIGHBORHOOD, (1.0, 1.0), 0)
        p1, p2 = tmp_path / "a.mstm", tmp_path / "b.mstm"
        save_checkpoint(p1, model)
        save_checkpoint(p2, model)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("fconfig", ALL_CONFIGS, ids=lambda c: c.name)
    def test_resaving_a_loaded_checkpoint_gives_the_same_bytes(self, tmp_path, fconfig):
        columns = fconfig.spectral_columns
        params = None
        if columns:
            params = spectral_params(np.random.default_rng(5), columns, p_low=2.5, p_high=97.0)
        first, again = tmp_path / "first.mstm", tmp_path / "again.mstm"
        save_checkpoint(first, Model(Mlp(7, (6, 5), seed=3), fconfig, params,
                                     {"k": 9, "radius": 1.25}, (0.7, 1.3), 11))
        save_checkpoint(again, load_checkpoint(first))
        assert again.read_bytes() == first.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.mstm"
        path.write_bytes(b"AAAA" + b"\x00" * 30)
        with pytest.raises(DataError, match="checkpoint"):
            load_checkpoint(path)

    @staticmethod
    def saved(tmp_path):
        model = Mlp(4, (8, 3), seed=0)
        path = tmp_path / "model.mstm"
        save_checkpoint(path, pndvi_model(model))
        # section ends: magic, header, config name, class weights,
        # neighborhood, normalization percentiles, normalization lo/hi/impute
        # (one column), layer count, layer sizes, then W/b per layer
        ends = [4, 16, 16 + len("XYZ_PNDVI")]
        ends += [ends[-1] + 16, ends[-1] + 28, ends[-1] + 44, ends[-1] + 68]
        ends += [ends[-1] + 2, ends[-1] + 2 + 4 * 4]
        for w, b in zip(model.weights, model.biases):
            ends += [ends[-1] + 4 * w.size, ends[-1] + 4 * w.size + 4 * b.size]
        raw = path.read_bytes()
        assert ends[-1] == len(raw)
        return path, raw, ends

    def test_truncation_at_every_section_boundary_is_data_error(self, tmp_path):
        path, raw, ends = self.saved(tmp_path)
        for end in ends[:-1]:
            for cut in (end - 1, end):
                path.write_bytes(raw[:cut])
                with pytest.raises(DataError, match="checkpoint"):
                    load_checkpoint(path)

    def test_head_of_other_than_one_unit_is_data_error(self, tmp_path):
        # the last layer size (a u32 after the layer count) becomes 2
        path, raw, ends = self.saved(tmp_path)
        sizes_end = ends[8]
        path.write_bytes(raw[:sizes_end - 4] + struct.pack("<I", 2) + raw[sizes_end:])
        with pytest.raises(DataError, match="invalid layer sizes"):
            load_checkpoint(path)

    def test_trailing_bytes_are_data_error(self, tmp_path):
        path, raw, _ = self.saved(tmp_path)
        path.write_bytes(raw + b"\x00")
        with pytest.raises(DataError, match="trailing"):
            load_checkpoint(path)

    def test_unknown_feature_config_name_is_data_error(self, tmp_path):
        path, raw, _ = self.saved(tmp_path)
        path.write_bytes(raw.replace(b"XYZ_PNDVI", b"XYZ_PNDVX"))
        with pytest.raises(DataError, match="metadata"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [1, 2, 0xFFFF])
    def test_other_version_is_data_error(self, tmp_path, version):
        path, raw, _ = self.saved(tmp_path)
        path.write_bytes(raw[:4] + struct.pack("<H", version) + raw[6:])
        with pytest.raises(DataError, match=f"version {version} .*retrain"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_version_file_is_data_error(self, tmp_path, version):
        path = tmp_path / f"v{version}.mstm"
        if version == 1:
            # a sidecar reference where later versions hold the recipe,
            # then a two-unit head of 3 -> 4 -> 2
            path.write_bytes(
                b"MSTM" + struct.pack("<HqH", 1, 0, 3) + b"XYZ" + struct.pack("<H", 0)
                + struct.pack("<2d", 1.0, 1.0) + struct.pack("<H3I", 3, 3, 4, 2)
                + np.zeros(3 * 4 + 4 + 4 * 2 + 2, "<f4").tobytes()
            )
        else:
            model = Mlp(4, (8, 3), seed=0)
            model.weights[-1][:, 0] = (0.5, -1.0, 2.0)
            save_checkpoint(path, pndvi_model(model))
            path.write_bytes(as_v2_checkpoint(path.read_bytes(), model.sizes))
        with pytest.raises(DataError, match=f"version {version} .*retrain"):
            load_checkpoint(path)

    # (field, struct format, value) of each value the loader must reject
    BAD_VALUES = {
        "k-zero": ("k", "<I", 0),
        "radius-zero": ("radius", "<d", 0.0),
        "radius-negative": ("radius", "<d", -1.0),
        "radius-nan": ("radius", "<d", np.nan),
        "p_low-negative": ("p_low", "<d", -1.0),
        "p_high-above-100": ("p_high", "<d", 200.0),
        "p_low-above-p_high": ("p_low", "<d", 99.5),
        "lo-nan": ("lo", "<d", np.nan),
        "hi-inf": ("hi", "<d", np.inf),
        "impute-nan": ("impute", "<d", np.nan),
        "lo-above-hi": ("lo", "<d", 1e9),
        "weight-nan": ("weight", "<f", np.nan),
        "bias-inf": ("bias", "<f", np.inf),
    }

    @pytest.mark.parametrize("case", BAD_VALUES, ids=list(BAD_VALUES))
    def test_bad_value_is_data_error(self, tmp_path, case):
        path, raw, ends = self.saved(tmp_path)
        field, fmt, value = self.BAD_VALUES[case]
        at = {
            "k": ends[3], "radius": ends[3] + 4,
            "p_low": ends[4], "p_high": ends[4] + 8,
            "lo": ends[5], "hi": ends[5] + 8, "impute": ends[5] + 16,
            "weight": ends[8], "bias": ends[9],
        }[field]
        packed = struct.pack(fmt, value)
        path.write_bytes(raw[:at] + packed + raw[at + len(packed):])
        with pytest.raises(DataError, match="model.mstm: "):
            load_checkpoint(path)

    def test_loaded_parameters_are_views_of_the_flat_vector(self, tmp_path):
        path, _, _ = self.saved(tmp_path)
        net = load_checkpoint(path).net
        for p in net.parameters():
            assert np.shares_memory(p, net.flat)
