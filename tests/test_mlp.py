"""The sharded, workspace-based Mlp against the plain allocating reference
loop and an unsharded float64 logistic loss."""

from pathlib import Path

import numpy as np
import pytest

from mslidar import mlp
from mslidar.mlp import (SHARD_ROWS, Mlp, TrainConfig, _openblas_threads, _Workspace, crew,
                         one_blas_thread, train)

from conftest import ReferenceMlp, peak_traced_bytes, reference_train


def toy(n=1000, d=6, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = (x[:, 0] + 0.5 * rng.normal(size=n) > 0.3).astype(np.uint8)
    return x, y


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "class_weights, learning_rate",
    [((1.0, 1.0), 1e-2), ((0.7, 1.3), 1e-2), ((0.7, 1.3), 0.05)],
    ids=["unit-weights", "unequal-weights", "larger-step"],
)
def test_train_matches_reference_bit_for_bit(dtype, class_weights, learning_rate,
                                            monkeypatch):
    # 1000 rows in batches of 128: the last batch of each epoch has 104
    monkeypatch.setattr(mlp, "DTYPE", dtype)
    x, y = toy()
    cfg = TrainConfig(epochs=12, learning_rate=learning_rate, batch_size=128,
                      hidden=(64, 64), seed=3)
    net, loss_curve = train(x, y, class_weights, cfg)
    params, curve = reference_train(x, y, class_weights, cfg)
    assert loss_curve == curve
    for got, want in zip(net.parameters(), params):
        assert got.dtype == want.dtype == dtype
        np.testing.assert_array_equal(got, want)


# Worker counts besides the default one (no pool): two, and three, more
# than the shards of the short batches and of the last round of the
# longer passes.
MORE_WORKERS = [2, 3]


def test_train_with_multi_shard_batches_matches_reference():
    _check_multi_shard_train_against_reference(1)


@pytest.mark.parametrize("workers", MORE_WORKERS)
def test_train_with_multi_shard_batches_matches_reference_at_more_workers(workers):
    _check_multi_shard_train_against_reference(workers)


def _check_multi_shard_train_against_reference(workers):
    # batches of 2.2 shards, the last batch of each epoch of one
    x, y = toy(n=2 * SHARD_ROWS + 2 * SHARD_ROWS // 5 + 300, d=5, seed=6)
    cfg = TrainConfig(epochs=3, learning_rate=1e-2, batch_size=2 * SHARD_ROWS + 400,
                      hidden=(16, 8), seed=2)
    net, loss_curve = train(x, y, (0.8, 1.2), cfg, workers=workers)
    params, curve = reference_train(x, y, (0.8, 1.2), cfg)
    assert loss_curve == curve
    for got, want in zip(net.parameters(), params):
        np.testing.assert_array_equal(got, want)


def test_loss_and_grads_match_reference():
    _check_loss_and_grads_against_reference(300, 1)


def test_multi_shard_loss_and_grads_match_reference():
    _check_loss_and_grads_against_reference(2 * SHARD_ROWS + 77, 1)


@pytest.mark.parametrize("workers", MORE_WORKERS)
@pytest.mark.parametrize("n", [300, 2 * SHARD_ROWS + 77])
def test_loss_and_grads_match_reference_at_more_workers(n, workers):
    _check_loss_and_grads_against_reference(n, workers)


def _check_loss_and_grads_against_reference(n, workers):
    x, y = toy(n=n)
    model = Mlp(6, (64, 64), seed=1)
    ref = ReferenceMlp(6, (64, 64), seed=1)
    loss, grads = model.loss_and_grads(x, y, (0.36, 1.64), workers=workers)
    ref_loss, ref_grads = ref.loss_and_grads(x, y, (0.36, 1.64))
    assert loss == ref_loss
    assert model.loss(x, y, (0.36, 1.64), workers=workers) == ref_loss
    for got, want in zip(grads, ref_grads):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("workers", [1, *MORE_WORKERS])
@pytest.mark.parametrize("n", [300, 4 * SHARD_ROWS + 77])
def test_margins_match_reference(n, workers):
    x, _ = toy(n=n)
    model = Mlp(6, (64, 64), seed=1)
    ref = ReferenceMlp(6, (64, 64), seed=1)
    rng = np.random.default_rng(5)
    for p, q in zip(model.parameters(), ref.parameters()):
        p[...] = q[...] = rng.normal(size=p.shape)   # a head that is not zero
    np.testing.assert_array_equal(model.margins(x, workers=workers), ref.margins(x))


@pytest.mark.parametrize("workers", [1, 2])
def test_columns_read_as_a_copy_of_them(workers):
    """train, loss and margins on some columns of a wider float32 matrix
    give the bits of the same calls on a copy of those columns."""
    x, y = toy(n=2 * SHARD_ROWS + 77, d=8, seed=7)
    x = x.astype(np.float32)
    cols = np.array([0, 5, 2, 7])
    copy = x[:, cols].copy()
    cfg = TrainConfig(epochs=2, learning_rate=1e-2, batch_size=SHARD_ROWS + 300,
                      hidden=(16, 8), seed=4)
    net, curve = train(x, y, (0.8, 1.2), cfg, workers=workers, columns=cols)
    want, want_curve = train(copy, y, (0.8, 1.2), cfg, workers=workers)
    assert net.d_in == len(cols) and curve == want_curve
    np.testing.assert_array_equal(net.flat.view(np.uint32), want.flat.view(np.uint32))
    loss = net.loss(x, y, (0.8, 1.2), workers=workers, columns=cols)
    assert loss == net.loss(copy, y, (0.8, 1.2))
    np.testing.assert_array_equal(net.margins(x, workers=workers, columns=cols).view(np.uint32),
                                  net.margins(copy).view(np.uint32))


def test_parameters_are_views_of_one_flat_vector():
    model = Mlp(5, (8, 4), seed=0)
    assert model.flat.size == sum(p.size for p in model.parameters())
    for p in model.parameters():
        assert np.shares_memory(p, model.flat)
    # weight matrices first, so weight decay covers a prefix
    n_w = sum(w.size for w in model.weights)
    assert model.n_weights == n_w
    np.testing.assert_array_equal(
        model.flat[:n_w], np.concatenate([w.ravel() for w in model.weights])
    )


def test_workspace_reuse_gives_fresh_model_outputs():
    x, y = toy(n=500)
    small_x, small_y = x[:37], y[:37]
    used = Mlp(6, (64, 64), seed=4)
    with crew(used.sizes, used.dtype, 1) as team:   # one call's workspace
        used.loss_and_grads(x, y, (1.0, 1.0), workers=team)   # large batch first
        loss, grads = used.loss_and_grads(small_x, small_y, (1.0, 1.0), workers=team)
        logits, _ = used.forward(small_x.astype(np.float32), team.spaces[0])
    fresh = Mlp(6, (64, 64), seed=4)
    fresh_loss, fresh_grads = fresh.loss_and_grads(small_x, small_y, (1.0, 1.0))
    assert loss == fresh_loss
    for got, want in zip(grads, fresh_grads):
        np.testing.assert_array_equal(got, want)
    fresh_logits, _ = fresh.forward(small_x.astype(np.float32),
                                    _Workspace(fresh.sizes, fresh.dtype))
    np.testing.assert_array_equal(logits, fresh_logits)


def test_grads_do_not_alias_across_calls():
    x, y = toy(n=200)
    model = Mlp(6, (16, 16), seed=2)
    _, first = model.loss_and_grads(x, y, (1.0, 1.0))
    kept = [g.copy() for g in first]
    _, second = model.loss_and_grads(x[:50], y[:50], (0.5, 1.5))
    for a, b, k in zip(first, second, kept):
        assert not np.shares_memory(a, b)
        np.testing.assert_array_equal(a, k)


def test_numpys_bundled_openblas_is_pinned():
    # numpy 2 wheels bundle scipy-openblas, numpy 1.x wheels their own
    # OpenBLAS build: whichever ships with numpy, the pin must find it
    pkg = Path(np.__file__).parent
    bundled = [*pkg.parent.glob("numpy.libs/*openblas*"), *pkg.glob(".dylibs/*openblas*")]
    threads = _openblas_threads()
    if not bundled:
        pytest.skip("numpy links a BLAS it does not bundle")
    assert threads is not None, f"no thread-count calls found in {bundled}"
    get, set_ = threads
    before = get()
    set_(2)
    try:
        with one_blas_thread():
            assert get() == 1
        assert get() == 2
    finally:
        set_(before)


def logistic_loss_and_grads(model, x, y, class_weights):
    """Weighted two-class softmax cross-entropy and its gradients over all
    rows at once, in float64, written directly as the logistic loss of the
    margin z: softplus(-z) for class 1, softplus(z) for class 0."""
    acts = [x]
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        acts.append(np.maximum(acts[-1] @ w + b, 0.0))
    z = acts[-1] @ model.weights[-1][:, 0] + model.biases[-1][0]
    ce = np.where(y == 1, np.logaddexp(0.0, -z), np.logaddexp(0.0, z))
    w = np.asarray(class_weights)[y]
    w = w / w.sum()
    delta = (w * (np.exp(-np.logaddexp(0.0, -z)) - y))[:, None]   # sigmoid(z) - y
    grads = []
    for i in range(len(model.weights) - 1, -1, -1):
        grads[:0] = [acts[i].T @ delta, delta.sum(axis=0)]
        delta = (delta @ model.weights[i].T) * (acts[i] > 0)
    return float((w * ce).sum()), grads


def test_sharded_margin_head_equals_unsharded_softmax():
    x, y = toy(n=2 * SHARD_ROWS + 301, seed=10)
    model = Mlp(6, (16, 8), seed=7, dtype=np.float64)
    rng = np.random.default_rng(1)
    model.weights[-1][...] = rng.normal(size=model.weights[-1].shape)
    model.biases[-1][...] = 0.3
    loss, grads = model.loss_and_grads(x, y, (0.36, 1.64))
    want_loss, want = logistic_loss_and_grads(model, x, y, (0.36, 1.64))
    assert loss == pytest.approx(want_loss, rel=1e-12)
    for got, ref in zip(grads, want):
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-15)


@pytest.mark.parametrize("full_set_pass, workers", [
    ("margins", 1), ("loss", 1), ("margins", 2), ("loss", 2),
], ids=["margins", "loss", "margins-2-workers", "loss-2-workers"])
def test_full_set_passes_allocate_shard_sized_memory(full_set_pass, workers):
    """Besides its output, a pass over n rows allocates memory that
    depends on the shard size and the worker count, not on n."""
    rng = np.random.default_rng(3)
    peaks = []
    for n in (4 * SHARD_ROWS, 32 * SHARD_ROWS):
        model = Mlp(12, (64, 64), seed=0)
        x = rng.normal(size=(n, 12)).astype(np.float32)
        y = rng.integers(0, 2, n)
        if full_set_pass == "loss":
            peaks.append(peak_traced_bytes(
                lambda: model.loss(x, y, (0.7, 1.3), workers=workers)))
        else:
            peaks.append(peak_traced_bytes(lambda: model.margins(x, workers=workers)))
    # each worker's workspace: activations, deltas and byte masks of two
    # hidden layers of 64 units, about 4.5 shard-sized float32 buffers
    shard_bytes = SHARD_ROWS * 64 * 4
    assert max(peaks) <= 5 * shard_bytes * workers
    assert peaks[1] <= peaks[0] + shard_bytes // 8


def test_other_dtype_input_gives_the_bits_of_its_cast():
    # a float64 input is converted once, as its float32 cast would be
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2 * SHARD_ROWS + 5, 12))
    y = rng.integers(0, 2, x.shape[0])
    model = Mlp(12, (16,), seed=0)
    model.weights[-1][:, 0] = rng.normal(size=16)  # a nonzero head
    x32 = x.astype(np.float32)
    np.testing.assert_array_equal(model.margins(x).view(np.uint32),
                                  model.margins(x32).view(np.uint32))
    loss, grads = model.loss_and_grads(x, y, (0.7, 1.3))
    loss32, grads32 = model.loss_and_grads(x32, y, (0.7, 1.3))
    assert loss == loss32
    for got, want in zip(grads, grads32):
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


def test_a_pass_holds_no_more_workspaces_than_shards():
    # 100 rows are one shard: 16 workers would hold 15 idle workspaces
    model = Mlp(12, (64, 64), seed=0)
    x = np.random.default_rng(5).normal(size=(100, 12))
    one, many = (peak_traced_bytes(lambda: model.margins(x, workers=w)) for w in (1, 16))
    assert many <= 1.2 * one


def test_train_crew_holds_at_most_the_shards_of_one_batch(monkeypatch):
    sizes, real = [], mlp.crew
    monkeypatch.setattr(mlp, "crew",
                        lambda s, d, workers: sizes.append(workers) or real(s, d, workers))
    x, y = toy(n=3 * SHARD_ROWS)
    train(x, y, (1.0, 1.0), TrainConfig(epochs=1, batch_size=SHARD_ROWS + 1, hidden=(4,)),
          workers=16)
    assert sizes == [2]


def test_train_holds_less_than_a_copy_of_its_features():
    """An epoch gathers each batch's rows by its permutation and the
    labels are held as uint8, so beside its inputs `train` holds less
    than one more feature matrix; a shuffled copy of the set held three."""
    rng = np.random.default_rng(8)
    x = rng.normal(size=(200_000, 12)).astype(np.float32)
    y = rng.integers(0, 2, x.shape[0])
    cfg = TrainConfig(epochs=1, hidden=(64, 64))
    assert peak_traced_bytes(lambda: train(x, y, (0.7, 1.3), cfg)) < x.nbytes


def test_head_starts_at_zero_after_the_hidden_glorot_draws():
    # the hidden layers are the generator's Glorot draws, in order; the
    # head is exactly zero, so every first margin is 0
    model = Mlp(4, (8, 5), seed=3)
    rng = np.random.default_rng(3)
    for w, (fan_in, fan_out) in zip(model.weights[:-1], [(4, 8), (8, 5)]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        np.testing.assert_array_equal(
            w, rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(np.float32))
    assert model.sizes == (4, 8, 5, 1)
    assert model.weights[-1].shape == (5, 1)
    assert not model.weights[-1].any()
    for b in model.biases:
        assert not b.any()
    z = model.margins(np.random.default_rng(0).normal(size=(50, 4)))
    np.testing.assert_array_equal(z, np.zeros(50, np.float32))
