import dataclasses

import numpy as np
import pytest

from mslidar.cloud import Label
from mslidar.errors import BYTE_LIMIT, ConfigError
from mslidar.synth import (
    SCENE_BYTES, SyntheticSceneConfig, _terrain, generate_scene, scaled_config,
)

CFG = SyntheticSceneConfig(
    extent=50.0, density=6.0, n_trees=12, n_buildings=2, n_cables=1,
    n_low_veg=3, n_crown_decoys=2, seed=11,
)


def test_per_channel_count_is_exact(tiny_scene):
    target = round(CFG.extent * CFG.extent * CFG.density)
    for chan in (0, 1):
        assert int((tiny_scene.channel == chan).sum()) == target


def test_identical_config_gives_identical_scene(tiny_scene):
    again = generate_scene(dataclasses.replace(CFG))
    np.testing.assert_array_equal(again.xyz, tiny_scene.xyz)
    np.testing.assert_array_equal(again.reflectance_db, tiny_scene.reflectance_db)
    np.testing.assert_array_equal(again.label, tiny_scene.label)


def test_seed_changes_scene(tiny_scene):
    other = generate_scene(dataclasses.replace(CFG, seed=12))
    assert not np.array_equal(other.xyz, tiny_scene.xyz)


def test_labels_are_binary_and_both_present(tiny_scene):
    values = set(np.unique(tiny_scene.label).tolist())
    assert values == {int(Label.NON_TREE), int(Label.TREE)}


def test_tree_points_lie_inside_tree_primitives(tiny_scene):
    # Tree returns are sampled inside their primitive with no position
    # noise, so membership must hold exactly.
    cloud, prims = generate_scene(dataclasses.replace(CFG), return_primitives=True)
    np.testing.assert_array_equal(cloud.xyz, tiny_scene.xyz)
    tree = cloud.take(cloud.label == int(Label.TREE))
    covered = np.zeros(tree.count, dtype=bool)
    eps = 1e-9
    for (cx, cy, zb, trunk_r, trunk_h, crown_a, crown_c) in prims["trees"]:
        dx, dy = tree.x - cx, tree.y - cy
        cz = zb + trunk_h + 0.6 * crown_c
        in_crown = (
            (dx / crown_a) ** 2 + (dy / crown_a) ** 2
            + ((tree.z - cz) / crown_c) ** 2
        ) <= 1.0 + eps
        in_trunk = (
            (np.hypot(dx, dy) <= trunk_r + eps)
            & (tree.z >= zb - eps) & (tree.z <= zb + trunk_h + eps)
        )
        covered |= in_crown | in_trunk
    assert covered.all()
    assert len(prims["trees"]) == CFG.n_trees


def test_buildings_exclude_trees_and_ground(tiny_scene):
    cloud, prims = generate_scene(dataclasses.replace(CFG), return_primitives=True)
    assert len(prims["buildings"]) == CFG.n_buildings
    tree = cloud.label == int(Label.TREE)
    ground = cloud.ground_flag
    for (x0, y0, x1, y1, _h) in prims["buildings"]:
        inside = (
            (cloud.x > x0) & (cloud.x < x1) & (cloud.y > y0) & (cloud.y < y1)
        )
        assert not np.any(inside & tree)
        assert not np.any(inside & ground)


def test_ground_points_follow_terrain(tiny_scene):
    g = tiny_scene.take(tiny_scene.ground_flag)
    assert g.count > 1000
    dz = g.z - _terrain(g.x, g.y, CFG)
    assert float(np.abs(dz).max()) < 6.0 * CFG.noise_sigma
    assert np.all(tiny_scene.label[tiny_scene.ground_flag] == int(Label.NON_TREE))


def test_class_spectra_match_configured_means(tiny_scene):
    tree = tiny_scene.label == int(Label.TREE)
    for chan, mean in ((0, -15.0), (1, -5.0)):
        sel = tree & (tiny_scene.channel == chan)
        assert sel.sum() > 500
        assert abs(float(tiny_scene.reflectance_db[sel].mean()) - mean) < 0.2


def test_object_load_beyond_density_target_raises():
    cfg = SyntheticSceneConfig(
        extent=20.0, density=0.2, n_trees=40, n_buildings=0, n_cables=0,
        n_low_veg=0, n_crown_decoys=0, seed=0,
    )
    with pytest.raises(ConfigError, match="density target"):
        generate_scene(cfg)


def test_config_validation():
    with pytest.raises(ConfigError, match="density"):
        SyntheticSceneConfig(density=0.0).validate()
    with pytest.raises(ConfigError, match="extent"):
        SyntheticSceneConfig(extent=-1.0).validate()
    cfg = SyntheticSceneConfig()
    del cfg.spectra["cable"]
    with pytest.raises(ConfigError, match="cable"):
        cfg.validate()


def test_scaled_config_hits_point_target():
    cfg = scaled_config(60000, seed=3)
    cloud = generate_scene(cfg)
    assert abs(cloud.count - 60000) <= 2
    assert cfg.seed == 3


def test_scaled_config_refuses_a_scene_over_the_byte_limit():
    """A 4M-point scene is accepted; the limit sits at BYTE_LIMIT //
    SCENE_BYTES points, checked before anything is generated."""
    most = BYTE_LIMIT // SCENE_BYTES
    for points in (4_000_000, most):
        scaled_config(points)
    with pytest.raises(ConfigError, match=f"synth.target_points {most + 1} is too large"):
        scaled_config(most + 1)
