"""Output bytes depend neither on the query block size nor on how the
k-d tree is built.

Every per-point pass (neighbour queries, SOR, merge, the cloth floor and
ground flags, the DTM, height normalization, and the voxel survivor
search and label votes of `subsample`) walks `cloud.row_blocks`, so
patching `cloud.QUERY_ROWS` re-blocks all of them at once. Every
neighbour query goes through `cloud.build_index`, the only place a tree
is built, so patching the tree class it builds changes the tree under
all of them. The 11 geometry stages, per-channel LAS in and LAS out,
must write the same bytes, manifests included, with blocks of 257 rows
and with median-split trees (scipy's `balanced_tree=True`) as with the
defaults, whose trees are built by the sliding-midpoint rule.
"""

from pathlib import Path

import numpy as np
import pytest
from scipy import spatial

from mslidar import cloud as cloud_module
from mslidar.cli import main
from mslidar.cloud import Channel
from mslidar.columnar import read_columnar
from mslidar.lasio import write_las

STAGES = (
    ["ingest", "--las", "{inputs}/green.las", "--channel", "green",
     "--reflectance-source", "reflectance", "--out", "{out}/green.mst"],
    ["ingest", "--las", "{inputs}/nir.las", "--channel", "nir",
     "--reflectance-source", "reflectance", "--out", "{out}/nir.mst"],
    ["denoise", "--in", "{out}/green.mst", "--out", "{out}/green_dn.mst"],
    ["denoise", "--in", "{out}/nir.mst", "--out", "{out}/nir_dn.mst"],
    ["merge", "--green", "{out}/green_dn.mst", "--nir", "{out}/nir_dn.mst",
     "--out", "{out}/merged.mst"],
    ["ground", "--in", "{out}/merged.mst", "--out", "{out}/grounded.mst"],
    ["normalize-height", "--in", "{out}/grounded.mst", "--out", "{out}/hnorm.mst"],
    ["features", "--in", "{out}/hnorm.mst", "--out", "{out}/feat.mst"],
    ["subsample", "--in", "{out}/feat.mst", "--out", "{out}/sub.mst"],
    ["split", "--in", "{out}/sub.mst", "--out-dir", "{out}/splits"],
    ["export", "--cloud", "{out}/splits/test.mst", "--las", "{out}/test.las"],
)


@pytest.fixture(scope="module")
def channel_las(tmp_path_factory):
    """The 20k-point CLI test scene as one LAS file per channel."""
    root = tmp_path_factory.mktemp("blocks")
    assert main(["synth", "--out", str(root / "scene.mst"), "--target-points", "20000",
                 "--seed", "11"]) == 0
    scene = read_columnar(root / "scene.mst")
    for name, chan in (("green", Channel.GREEN_532), ("nir", Channel.NIR_1064)):
        write_las(scene.take(scene.channel == int(chan)), root / f"{name}.las", scale=0.001)
    return root


def _geometry_chain(inputs: Path, out: Path) -> dict[str, bytes]:
    out.mkdir()
    for argv in STAGES:
        argv = [a.format(inputs=inputs, out=out) for a in argv]
        assert main(argv) == 0, f"stage failed: {argv[0]}"
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file()}


@pytest.fixture(scope="module")
def default_chain(channel_las):
    """The chain's output files with the default blocks and tree build."""
    return _geometry_chain(channel_las, channel_las / "default")


def query_rows_257(monkeypatch):
    monkeypatch.setattr(cloud_module, "QUERY_ROWS", 257)


def balanced_tree(monkeypatch):
    tree = spatial.cKDTree
    # balanced_tree=True over the keyword build_index passes
    monkeypatch.setattr(spatial, "cKDTree", lambda pts, **kwargs: tree(
        pts, **{**kwargs, "balanced_tree": True}))
    # the patch reaches build_index, and its trees order the points otherwise
    pts = np.random.default_rng(0).uniform(0.0, 1.0, (1000, 3))
    assert not np.array_equal(cloud_module.build_index(pts).tree.indices,
                              tree(pts, balanced_tree=False).indices)


@pytest.mark.parametrize("variant", [query_rows_257, balanced_tree],
                         ids=lambda variant: variant.__name__)
def test_geometry_chain_bytes_do_not_depend_on(variant, channel_las, default_chain,
                                               monkeypatch):
    variant(monkeypatch)
    out = channel_las / variant.__name__
    varied = _geometry_chain(channel_las, out)
    assert sorted(varied) == sorted(default_chain)
    assert sum(name.endswith("manifest.json") for name in default_chain) == 11
    assert [name for name in default_chain if varied[name] != default_chain[name]] == []
