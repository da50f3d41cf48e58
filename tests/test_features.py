import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mslidar.cloud import PointCloud
from mslidar.errors import ConfigError, DataError, NumericError
from mslidar.features import (
    ALL_CONFIGS, FeatureConfig, add_pndvi, assemble_features, db_to_linear,
    fit_config_normalization, linear_to_db, pndvi,
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


def columns_cloud(**columns):
    """A cloud at the origin holding the named spectral columns, as float32,
    and h_norm = 0."""
    n = len(next(iter(columns.values())))
    cols = {name: np.asarray(v, dtype=np.float32) for name, v in columns.items()}
    return PointCloud(x=np.zeros(n), y=np.zeros(n), z=np.zeros(n),
                      channel=np.zeros(n, np.uint8), h_norm=np.zeros(n, np.float32), **cols)


def scaled(params, **columns):
    """The scaled spectral columns of a cloud holding `columns`."""
    return assemble_features(columns_cloud(**columns), params)[:, 1:]


class TestNormalization:
    # spectral columns are float32: the values below are exact in it
    def test_percentile_endpoints_map_to_unit_interval(self):
        # the percentiles of 0..100 are whole numbers
        col = np.random.default_rng(0).permutation(101)
        params = fit_config_normalization(columns_cloud(pndvi=col), ("pndvi",))
        out = scaled(params, pndvi=[params.lo[0], params.hi[0]])
        assert out[0, 0] == 0.0 and out[1, 0] == 1.0

    def test_values_below_p1_clip_to_zero(self):
        rng = np.random.default_rng(1)
        params = fit_config_normalization(columns_cloud(pndvi=rng.normal(size=1000)), ("pndvi",))
        assert scaled(params, pndvi=[-1e9])[0, 0] == 0.0

    def test_uniform_midpoint(self):
        rng = np.random.default_rng(2)
        cloud = columns_cloud(pndvi=rng.uniform(0, 100, size=20000))
        params = fit_config_normalization(cloud, ("pndvi",))
        assert scaled(params, pndvi=[50.0])[0, 0] == pytest.approx(0.5, abs=0.02)

    def test_constant_column_warns_and_maps_to_half(self, caplog):
        col = np.full(10, 3.0)
        with caplog.at_level("WARNING"):
            params = fit_config_normalization(columns_cloud(pndvi=col), ("pndvi",))
        assert any("pndvi" in r.message for r in caplog.records)
        assert np.all(scaled(params, pndvi=col) == 0.5)

    def test_train_data_lands_in_unit_interval(self):
        rng = np.random.default_rng(3)
        names = ("refl_green_db", "refl_nir_db", "pndvi")
        cols = dict(zip(names, rng.normal(size=(3, 500)) * [[1], [10], [100]]))
        params = fit_config_normalization(columns_cloud(**cols), names)
        out = scaled(params, **cols)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_unseen_data_still_clipped_to_unit_interval(self):
        rng = np.random.default_rng(4)
        names = ("refl_green_db", "refl_nir_db")
        train = columns_cloud(**dict(zip(names, rng.normal(size=(2, 500)))))
        params = fit_config_normalization(train, names)
        out = scaled(params, **dict(zip(names, rng.normal(size=(2, 200)) * 50)))
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_nan_imputed_with_training_median(self):
        params = fit_config_normalization(columns_cloud(pndvi=np.arange(101)), ("pndvi",))
        assert params.impute[0] == 50.0
        assert scaled(params, pndvi=[np.nan])[0, 0] == scaled(params, pndvi=[50.0])[0, 0]

    def test_nan_excluded_from_percentiles(self):
        col = np.arange(101, dtype=float)
        with_nan = np.concatenate((col, [np.nan] * 50))
        a = fit_config_normalization(columns_cloud(pndvi=col), ("pndvi",))
        b = fit_config_normalization(columns_cloud(pndvi=with_nan), ("pndvi",))
        assert a.lo[0] == b.lo[0] and a.hi[0] == b.hi[0]

    def test_all_nan_column_rejected(self):
        cloud = columns_cloud(refl_nir_db=np.zeros(10), pndvi=np.full(10, np.nan))
        with pytest.raises(DataError, match="'pndvi' holds no observed values"):
            fit_config_normalization(cloud, ("refl_nir_db", "pndvi"))

    @pytest.mark.parametrize("p_low, p_high", [(-1.0, 99.0), (1.0, 100.5), (50.0, 50.0)])
    def test_bad_percentiles_are_config_errors(self, p_low, p_high):
        # checked first: a cloud without the column, or one numpy would reject
        with pytest.raises(ConfigError, match="p_low < p_high"):
            fit_config_normalization(columns_cloud(pndvi=[1.0]), ("refl_green_db",),
                                     p_low=p_low, p_high=p_high)

    def test_matches_per_element_oracle(self):
        """Each scaled value is the Python float arithmetic of one element:
        NaN imputed, clipped, scaled, a constant column 0.5; bit for bit."""
        rng = np.random.default_rng(5)
        names = ("refl_green_db", "refl_nir_db", "pndvi")

        def spectral(n):
            cols = dict(zip(names, rng.normal(-8, 4, size=(3, n)).astype(np.float32)))
            cols["pndvi"][:] = 0.375  # constant on the training split
            for col in cols.values():
                col[rng.random(n) < 0.3] = np.nan
            return cols

        params = fit_config_normalization(columns_cloud(**spectral(400)), names)
        cols = spectral(300)
        cols["refl_green_db"][:3] = (-1e6, 1e6, np.nan)
        cloud = columns_cloud(**cols).with_column("h_norm", rng.uniform(0, 30, 300))
        want = np.empty((300, 4))
        want[:, 0] = cloud.h_norm
        for j, name in enumerate(names):
            lo, hi, impute = (float(a[j]) for a in (params.lo, params.hi, params.impute))
            for i, v in enumerate(map(float, getattr(cloud, name))):
                v = impute if v != v else v
                want[i, 1 + j] = (min(max(v, lo), hi) - lo) / (hi - lo) if hi > lo else 0.5
        got = assemble_features(cloud, params)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


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
            with pytest.raises(ConfigError, match="unknown feature config"):
                FeatureConfig.from_name(name)
