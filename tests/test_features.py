import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mslidar.cloud import PointCloud
from mslidar.errors import DataError, NumericError
from mslidar.features import (
    ALL_CONFIGS, FeatureConfig, add_pndvi,
    apply_normalization, assemble_features, db_to_linear,
    fit_config_normalization, fit_normalization, linear_to_db, pndvi,
)

finite_db = st.floats(-60.0, 30.0)


class TestDbConversion:
    def test_hand_values(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)
        assert db_to_linear(-30.0) == pytest.approx(0.001, rel=1e-15)

    def test_scalar_in_scalar_out(self):
        assert isinstance(db_to_linear(3.0), float)
        assert isinstance(linear_to_db(2.0), float)

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NumericError):
                db_to_linear(bad)

    def test_roundtrip(self):
        vals = np.linspace(-40, 20, 101)
        np.testing.assert_allclose(linear_to_db(db_to_linear(vals)), vals,
                                   rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(finite_db, finite_db)
    def test_monotone_and_positive(self, a, b):
        fa, fb = db_to_linear(a), db_to_linear(b)
        assert fa > 0 and fb > 0
        # non-strict: inputs closer than an ulp of the exponent saturate
        if a < b:
            assert fa <= fb
        if a + 1e-9 < b:
            assert fa < fb


class TestPndvi:
    def test_equal_channels_give_zero(self):
        assert pndvi(-7.0, -7.0) == 0.0

    def test_hand_value(self):
        assert pndvi(0.0, -10.0) == pytest.approx(0.9 / 1.1, rel=1e-15)

    def test_antisymmetry_hand_value(self):
        assert pndvi(-10.0, 0.0) == pytest.approx(-0.9 / 1.1, rel=1e-15)

    def test_nan_passes_through(self):
        out = pndvi(np.array([0.0, np.nan]), np.array([np.nan, -3.0]))
        assert np.isnan(out).all()

    def test_infinite_rejected(self):
        with pytest.raises(NumericError):
            pndvi(np.inf, 0.0)

    @settings(max_examples=80, deadline=None)
    @given(finite_db, finite_db)
    def test_antisymmetry(self, a, b):
        assert pndvi(a, b) == pytest.approx(-pndvi(b, a), rel=1e-12, abs=1e-15)

    @settings(max_examples=80, deadline=None)
    @given(finite_db, finite_db, st.floats(-20.0, 20.0))
    def test_common_offset_cancels(self, a, b, c):
        assert pndvi(a + c, b + c) == pytest.approx(
            pndvi(a, b), rel=1e-12, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(finite_db, finite_db)
    def test_open_interval(self, a, b):
        v = pndvi(a, b)
        assert -1.0 < v < 1.0

    def test_add_pndvi_column(self):
        cloud = PointCloud(
            x=np.zeros(2), y=np.zeros(2), z=np.zeros(2),
            channel=np.zeros(2, np.uint8),
            refl_green_db=np.array([-10.0, np.nan], np.float32),
            refl_nir_db=np.array([0.0, -5.0], np.float32),
        )
        out = add_pndvi(cloud)
        assert out.pndvi[0] == pytest.approx(0.9 / 1.1, rel=1e-6)
        assert np.isnan(out.pndvi[1])


class TestNormalization:
    def test_percentile_endpoints_map_to_unit_interval(self):
        rng = np.random.default_rng(0)
        col = rng.normal(size=(5000, 1))
        params = fit_normalization(col, ("a",))
        out = apply_normalization(np.array([[params.lo[0]], [params.hi[0]]]), params)
        assert out[0, 0] == 0.0 and out[1, 0] == 1.0

    def test_values_below_p1_clip_to_zero(self):
        rng = np.random.default_rng(1)
        params = fit_normalization(rng.normal(size=(1000, 1)), ("a",))
        out = apply_normalization(np.array([[-1e9]]), params)
        assert out[0, 0] == 0.0

    def test_uniform_midpoint(self):
        rng = np.random.default_rng(2)
        params = fit_normalization(rng.uniform(0, 100, size=(20000, 1)), ("a",))
        out = apply_normalization(np.array([[50.0]]), params)
        assert out[0, 0] == pytest.approx(0.5, abs=0.02)

    def test_constant_column_warns_and_maps_to_half(self, caplog):
        col = np.full((10, 1), 3.0)
        with caplog.at_level("WARNING"):
            params = fit_normalization(col, ("flat",))
        assert any("flat" in r.message for r in caplog.records)
        out = apply_normalization(col, params)
        assert np.all(out == 0.5)

    def test_train_data_lands_in_unit_interval(self):
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(500, 3)) * [1, 10, 100]
        params = fit_normalization(feats, ("a", "b", "c"))
        out = apply_normalization(feats, params)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_unseen_data_still_clipped_to_unit_interval(self):
        rng = np.random.default_rng(4)
        params = fit_normalization(rng.normal(size=(500, 2)), ("a", "b"))
        out = apply_normalization(rng.normal(size=(200, 2)) * 50, params)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_nan_imputed_with_training_median(self):
        col = np.arange(101, dtype=float)[:, None]
        params = fit_normalization(col, ("a",))
        assert params.impute[0] == 50.0
        got = apply_normalization(np.array([[np.nan]]), params)
        want = apply_normalization(np.array([[50.0]]), params)
        assert got[0, 0] == want[0, 0]

    def test_nan_excluded_from_percentiles(self):
        col = np.arange(101, dtype=float)
        with_nan = np.concatenate((col, [np.nan] * 50))[:, None]
        a = fit_normalization(col[:, None], ("a",))
        b = fit_normalization(with_nan, ("a",))
        assert a.lo[0] == b.lo[0] and a.hi[0] == b.hi[0]

    def test_all_nan_column_rejected(self):
        col = np.full((10, 1), np.nan)
        with pytest.raises(DataError, match="no observed values"):
            fit_normalization(col, ("a",))

    def test_column_count_mismatch_rejected(self):
        params = fit_normalization(np.random.default_rng(6).normal(size=(50, 2)), ("a", "b"))
        with pytest.raises(DataError, match="does not match"):
            apply_normalization(np.zeros((3, 3)), params)


def spectral_cloud(n=50, seed=0):
    rng = np.random.default_rng(seed)
    return PointCloud(
        x=rng.uniform(0, 10, n), y=rng.uniform(0, 10, n),
        z=rng.uniform(0, 5, n), channel=np.zeros(n, np.uint8),
        refl_green_db=rng.normal(-12, 2, n).astype(np.float32),
        refl_nir_db=rng.normal(-7, 2, n).astype(np.float32),
        h_norm=rng.uniform(0, 5, n).astype(np.float32),
    )


class TestAssembleFeatures:
    def test_xyz_dimension(self):
        # geometry alone is h_norm: no absolute position
        cloud = spectral_cloud()
        fm = assemble_features(cloud, None)
        np.testing.assert_array_equal(fm, cloud.h_norm.astype(np.float64)[:, None])

    def test_full_config_dimension(self):
        cloud = add_pndvi(spectral_cloud())
        cfg = FeatureConfig.XYZ_GREEN_NIR_PNDVI
        params = fit_config_normalization(cloud, cfg.spectral_columns, p_low=1.0, p_high=99.0)
        fm = assemble_features(cloud, params)
        assert fm.shape == (cloud.count, 4)

    def test_all_config_dimensions(self):
        cloud = add_pndvi(spectral_cloud())
        widths = []
        for cfg in ALL_CONFIGS:
            params = (fit_config_normalization(cloud, cfg.spectral_columns, p_low=1.0, p_high=99.0)
                      if cfg.spectral_columns else None)
            widths.append(assemble_features(cloud, params).shape[1])
        assert sorted(widths) == [1, 2, 2, 2, 3, 4]

    def test_missing_pndvi_column_named_in_error(self):
        cloud = spectral_cloud()
        cfg = FeatureConfig.XYZ_PNDVI
        with pytest.raises(DataError, match="pndvi"):
            fit_config_normalization(cloud, cfg.spectral_columns, p_low=1.0, p_high=99.0)

    def test_spectral_columns_normalized(self):
        cloud = spectral_cloud()
        cfg = FeatureConfig.XYZ_GREEN_NIR
        params = fit_config_normalization(cloud, cfg.spectral_columns, p_low=1.0, p_high=99.0)
        fm = assemble_features(cloud, params)
        assert fm[:, 1:].min() >= 0.0
        assert fm[:, 1:].max() <= 1.0

    def test_missing_h_norm_rejected(self):
        cloud = spectral_cloud()
        bare = PointCloud(
            x=cloud.x, y=cloud.y, z=cloud.z, channel=cloud.channel)
        with pytest.raises(DataError, match="h_norm"):
            assemble_features(bare, None)

    def test_nan_spectral_imputed_not_propagated(self):
        cloud = spectral_cloud()
        refl = cloud.refl_green_db.copy()
        refl[:5] = np.nan
        cloud = cloud.with_column("refl_green_db", refl)
        cfg = FeatureConfig.XYZ_GREEN
        params = fit_config_normalization(cloud, cfg.spectral_columns, p_low=1.0, p_high=99.0)
        fm = assemble_features(cloud, params)
        assert np.isfinite(fm).all()

    def test_config_from_name(self):
        assert FeatureConfig.from_name("xyz") is FeatureConfig.XYZ
        assert FeatureConfig.from_name("XYZ+pNDVI") is FeatureConfig.XYZ_PNDVI
        assert FeatureConfig.from_name("xyz-green-nir") is FeatureConfig.XYZ_GREEN_NIR
        # a name is the full name: no XYZ_ prefix is added
        for name in ("bogus", "XYZ_KRYPTON", "", "  ", "pndvi", "green-nir"):
            with pytest.raises(DataError, match="unknown feature config"):
                FeatureConfig.from_name(name)
