"""Shared fixtures and brute-force reference implementations.

The oracles here are deliberately naive O(n^2) scans; production code
must match them exactly, including tie handling.
"""

import dataclasses
import struct
import tracemalloc

import numpy as np
import pytest

from mslidar.cloud import PointCloud
from mslidar import csf, dtm, features, mlp, preprocess, synth
from mslidar.mlp import BETA1, BETA2, EPS, SHARD_ROWS, one_blas_thread


def brute_knn(points: np.ndarray, q: np.ndarray, k: int):
    """k nearest by (distance, id) lexicographic order."""
    d = np.sqrt(((points - q) ** 2).sum(axis=1))
    order = np.lexsort((np.arange(len(points)), d))[:k]
    return order, d[order]


def brute_radius(points: np.ndarray, q: np.ndarray, r: float, k_max=None):
    """All points with distance <= r, sorted by (distance, id)."""
    d = np.sqrt(((points - q) ** 2).sum(axis=1))
    ids = np.nonzero(d <= r)[0]
    order = np.lexsort((ids, d[ids]))
    ids = ids[order]
    dd = d[ids]
    if k_max is not None:
        ids, dd = ids[:k_max], dd[:k_max]
    return ids, dd


def brute_idw(ground_xy: np.ndarray, gz: np.ndarray, centers: np.ndarray, k: int,
              far: float) -> np.ndarray:
    """Inverse-distance (power 2) heights at the centers from the k nearest
    ground points by (distance, id), summed nearest first; a ground point
    on a center gives its z directly, and NaN marks centers farther than
    `far` from every ground point."""
    ids, d = map(np.array, zip(*(brute_knn(ground_xy, c, k) for c in centers)))
    values = np.full(len(centers), np.nan)
    exact = d[:, 0] < 1e-12
    values[exact] = gz[ids[exact, 0]]
    rest = ~exact & (d[:, 0] <= far)
    wgt = 1.0 / np.square(d[rest])
    values[rest] = (wgt * gz[ids[rest]]).sum(axis=1) / wgt.sum(axis=1)
    return values


def brute_bilinear(grid: np.ndarray, gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Bilinear values of `grid` at row and column positions (gy, gx), one
    position at a time in Python floats: the position clamped to the
    border nodes, the stencil's first node at most the second to last,
    and the four weighted nodes summed in row-major order."""
    h, w = grid.shape
    out = np.empty(len(gx))
    for n, (x, y) in enumerate(zip(gx.tolist(), gy.tolist())):
        x, y = min(max(x, 0.0), w - 1.0), min(max(y, 0.0), h - 1.0)
        j0, i0 = min(int(x), max(w - 2, 0)), min(int(y), max(h - 2, 0))
        j1, i1 = min(j0 + 1, w - 1), min(i0 + 1, h - 1)
        fx, fy = x - j0, y - i0
        g00, g01 = float(grid[i0, j0]), float(grid[i0, j1])
        g10, g11 = float(grid[i1, j0]), float(grid[i1, j1])
        out[n] = (g00 * (1 - fx) * (1 - fy) + g01 * fx * (1 - fy)
                  + g10 * (1 - fx) * fy + g11 * fx * fy)
    return out


def brute_sor_removed(points: np.ndarray, k: int, n_sigma: float) -> np.ndarray:
    """Ids removed by the SOR rule, via full pairwise distances."""
    n = len(points)
    d = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    np.fill_diagonal(d, np.inf)
    mean_d = np.sort(d, axis=1)[:, :k].mean(axis=1)
    thr = mean_d.mean() + n_sigma * mean_d.std()
    return np.nonzero(mean_d > thr)[0]


def peak_traced_bytes(fn) -> int:
    """Peak bytes tracemalloc sees while fn() runs, less its result's nbytes."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - getattr(result, "nbytes", 0)


def brute_confusion(pred: np.ndarray, truth: np.ndarray):
    tp = fp = fn = tn = 0
    for p, t in zip(pred, truth):
        if p == 1 and t == 1:
            tp += 1
        elif p == 1 and t == 0:
            fp += 1
        elif p == 0 and t == 1:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


def brute_voxel(cloud: PointCloud, grid: float):
    """(kept ids, vote labels) per voxel, by the documented rules."""
    keys = {}
    for i in range(cloud.count):
        key = (
            int(np.floor(cloud.x[i] / grid)),
            int(np.floor(cloud.y[i] / grid)),
            int(np.floor(cloud.z[i] / grid)),
        )
        keys.setdefault(key, []).append(i)
    kept, votes = [], []
    for members in keys.values():
        pts = np.column_stack(
            (cloud.x[members], cloud.y[members], cloud.z[members])
        )
        centroid = pts.mean(axis=0)
        d = ((pts - centroid) ** 2).sum(axis=1)
        best = members[int(np.lexsort((members, d))[0])]
        kept.append(best)
        if cloud.has("label"):
            labs = cloud.label[members]
            n_tree = int((labs == 1).sum())
            n_non = int((labs == 0).sum())
            if n_tree >= n_non and n_tree > 0:
                votes.append(1)
            elif n_non > 0:
                votes.append(0)
            else:
                votes.append(int(cloud.label[best]))
    order = np.argsort(kept)
    kept = np.asarray(kept)[order]
    votes = np.asarray(votes)[order] if votes else None
    return kept, votes


def random_cloud(rng, n=200, extent=10.0, with_label=True) -> PointCloud:
    cols = {}
    if with_label:
        cols["label"] = rng.integers(0, 2, n).astype(np.uint8)
    return PointCloud(
        x=rng.uniform(0, extent, n),
        y=rng.uniform(0, extent, n),
        z=rng.uniform(0, extent / 2, n),
        channel=rng.integers(0, 2, n).astype(np.uint8),
        reflectance_db=rng.normal(-10, 3, n).astype(np.float32),
        **cols,
    )


def tied_cloud(rng, n=200, extent=10.0, step=0.05, with_label=True) -> PointCloud:
    """random_cloud with distance ties: coordinates rounded to a `step`
    lattice, as LAS ingest quantizes them (left continuous when step is
    None), and about 5% of the points copied onto other points."""
    cloud = random_cloud(rng, n=n, extent=extent, with_label=with_label)
    xyz = cloud.xyz
    if step is not None:
        xyz = np.round(xyz / step) * step
    twins = rng.integers(0, n, max(n // 20, 1))
    xyz[twins] = xyz[rng.integers(0, n, twins.size)]
    return dataclasses.replace(cloud, x=xyz[:, 0], y=xyz[:, 1], z=xyz[:, 2])


@pytest.fixture(scope="session")
def tiny_scene():
    cfg = synth.SyntheticSceneConfig(
        extent=50.0, density=6.0, n_trees=12, n_buildings=2, n_cables=1,
        n_low_veg=3, n_crown_decoys=2, seed=11,
    )
    return synth.generate_scene(cfg)


@pytest.fixture(scope="session")
def prepared_scene(tiny_scene):
    """Tiny scene taken through the full preprocessing chain."""
    cloud = tiny_scene
    g = cloud.take(cloud.channel == 0)
    n = cloud.take(cloud.channel == 1)
    gk = g.take(preprocess.sor_filter(g.xyz)[0])
    nk = n.take(preprocess.sor_filter(n.xyz)[0])
    merged = preprocess.merge_channels(gk, nk)
    merged = merged.with_column("ground_flag", csf.csf_ground(merged, csf.CsfParams()))
    grid = dtm.build_dtm(merged)
    merged = dtm.normalize_height(merged, grid)
    merged = features.add_pndvi(merged)
    return preprocess.voxel_subsample(merged)


def as_v2_checkpoint(raw: bytes, sizes: tuple) -> bytes:
    """An MSTM v3 file's model as MSTM v2 stored it: version 2 and a
    two-unit head whose columns are (0, v) and biases (0, c), the same
    margins."""
    n_params = sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))
    params_at = len(raw) - 4 * n_params
    head_at = len(raw) - 4 * (sizes[-2] + 1)
    head = np.frombuffer(raw[head_at:], "<f4")
    w = np.zeros((sizes[-2], 2), "<f4")
    w[:, 1] = head[:-1]
    return (raw[:4] + struct.pack("<H", 2) + raw[6 : params_at - 4] + struct.pack("<I", 2)
            + raw[params_at:head_at] + w.tobytes() + np.array([0.0, head[-1]], "<f4").tobytes())


class ReferenceMlp:
    """The plain allocating network the production Mlp must match bit for bit:
    fresh arrays for every activation and delta, the same margin-head
    arithmetic and row shards, and a full backward pass for the initial
    loss."""

    def __init__(self, d_in, hidden=(64, 64), seed=0, dtype=np.float32):
        self.sizes = (int(d_in),) + tuple(int(h) for h in hidden) + (1,)
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(seed)
        self.weights, self.biases = [], []
        for fan_in, fan_out in zip(self.sizes[:-2], self.sizes[1:-1]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
            self.weights.append(w.astype(self.dtype))
            self.biases.append(np.zeros(fan_out, dtype=self.dtype))
        # the head: one zero weight column and a zero bias, no draws
        self.weights.append(np.zeros((self.sizes[-2], 1), dtype=self.dtype))
        self.biases.append(np.zeros(1, dtype=self.dtype))

    def parameters(self):
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def shard_margins(self, x):
        """One shard's margins z = h.v + c and its activations, x first."""
        acts = [x]
        h = x
        for i in range(len(self.weights) - 1):
            h = np.maximum(h @ self.weights[i] + self.biases[i], 0.0)
            acts.append(h)
        return h @ self.weights[-1][:, 0] + self.biases[-1][0], acts

    def margins(self, x):
        """The margins of every row of x, shard by shard."""
        x = np.asarray(x, dtype=self.dtype)
        with one_blas_thread():
            return np.concatenate([self.shard_margins(x[lo : lo + SHARD_ROWS])[0]
                                   for lo in range(0, len(x), SHARD_ROWS)])

    def shard_loss_and_grads(self, x, y, scale):
        """One shard's weighted loss sum and gradients, through the margin
        z = h.v + c; `scale` holds the two row weights."""
        z, acts = self.shard_margins(x)
        v = self.weights[-1][:, 0]

        # class 1 costs softplus(-z), class 0 softplus(z)
        sign = np.where(y == 1, -1, 1).astype(self.dtype)
        t = sign * z
        e = np.exp(-np.abs(t))
        ce = np.log1p(e) + np.maximum(t, 0)
        w = scale[y]
        g = np.where(t >= 0, 1, e) / (1 + e) * (sign * w)
        loss = float(np.dot(w, ce))

        last = len(self.weights) - 1
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        grads_w[last] = (acts[last].T @ g)[:, None]
        grads_b[last] = np.array([g.sum()])
        delta = g[:, None] * v
        for i in range(last - 1, -1, -1):
            delta = delta * (acts[i + 1] > 0)
            grads_w[i] = acts[i].T @ delta
            grads_b[i] = np.ones(len(x), self.dtype) @ delta
            if i > 0:
                delta = delta @ self.weights[i].T
        grads = []
        for gw, gb in zip(grads_w, grads_b):
            grads.extend((gw, gb))
        return loss, grads

    def loss_and_grads(self, x, y, class_weights):
        """Shard losses and gradients summed in shard order; each row
        weighted by its class weight over the batch's summed weight."""
        x = np.asarray(x, dtype=self.dtype)
        y = np.asarray(y)
        cw = np.asarray(class_weights, dtype=np.float64)
        n1 = int((y == 1).sum())
        scale = (cw / ((len(y) - n1) * cw[0] + n1 * cw[1])).astype(self.dtype)
        losses, total = [], None
        with one_blas_thread():
            for lo in range(0, len(x), SHARD_ROWS):
                loss, grads = self.shard_loss_and_grads(
                    x[lo : lo + SHARD_ROWS], y[lo : lo + SHARD_ROWS], scale)
                losses.append(loss)
                total = grads if total is None else [a + b for a, b in zip(total, grads)]
        return sum(losses), total


def reference_train(features, labels, class_weights, config):
    """The per-parameter AdamW loop over fancy-indexed batches, in the
    dtype `mlp.DTYPE` holds when it is called.

    Returns (parameters, loss_curve)."""
    dtype = mlp.DTYPE
    x = np.ascontiguousarray(features, dtype=dtype)
    y = np.ascontiguousarray(labels).astype(np.int64)
    model = ReferenceMlp(x.shape[1], config.hidden, seed=config.seed, dtype=dtype)
    params = model.parameters()
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    lr = config.learning_rate
    b1, b2, eps = BETA1, BETA2, EPS
    decayed = [i % 2 == 0 for i in range(len(params))]

    loss0, _ = model.loss_and_grads(x, y, class_weights)
    curve = [loss0]
    rng = np.random.default_rng(config.seed)
    t = 0
    n = x.shape[0]
    bs = max(int(config.batch_size), 1)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        epoch_weight = 0.0
        for start in range(0, n, bs):
            sel = order[start : start + bs]
            loss, grads = model.loss_and_grads(x[sel], y[sel], class_weights)
            t += 1
            bc1 = 1.0 - b1**t
            bc2 = 1.0 - b2**t
            for i, (p, g) in enumerate(zip(params, grads)):
                m[i] = b1 * m[i] + (1 - b1) * g
                v[i] = b2 * v[i] + (1 - b2) * np.square(g)
                update = (m[i] / bc1) / (np.sqrt(v[i] / bc2) + eps)
                if decayed[i]:
                    p -= dtype(lr * config.weight_decay) * p
                p -= dtype(lr) * update
            epoch_loss += loss * sel.shape[0]
            epoch_weight += sel.shape[0]
        curve.append(epoch_loss / epoch_weight)
    return params, curve
