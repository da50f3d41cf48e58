"""The workspace-based Mlp against the plain allocating reference loop."""

import numpy as np
import pytest

from mslidar.mlp import Mlp, TrainConfig, train

from conftest import ReferenceMlp, reference_train


def toy(n=1000, d=6, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = (x[:, 0] + 0.5 * rng.normal(size=n) > 0.3).astype(np.uint8)
    return x, y


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "class_weights, learning_rate, patience",
    [((1.0, 1.0), 1e-2, None), ((0.7, 1.3), 1e-2, None), ((0.7, 1.3), 0.05, 1)],
    ids=["unit-weights", "unequal-weights", "patience-stop"],
)
def test_train_matches_reference_bit_for_bit(dtype, class_weights, learning_rate, patience):
    # 1000 rows in batches of 128: the last batch of each epoch has 104
    x, y = toy()
    cfg = TrainConfig(epochs=12, learning_rate=learning_rate, batch_size=128,
                      hidden=(64, 64), seed=3, dtype=dtype, patience=patience)
    result = train(x, y, class_weights, cfg)
    params, curve, stopped = reference_train(x, y, class_weights, cfg)
    assert result.loss_curve == curve
    assert result.stopped_epoch == stopped
    if patience is not None:
        assert stopped is not None and stopped < cfg.epochs - 1
    for got, want in zip(result.model.parameters(), params):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_loss_and_grads_match_reference():
    x, y = toy(n=300)
    model = Mlp(6, (64, 64), 2, seed=1)
    ref = ReferenceMlp(6, (64, 64), 2, seed=1)
    loss, grads = model.loss_and_grads(x, y, (0.36, 1.64))
    ref_loss, ref_grads = ref.loss_and_grads(x, y, (0.36, 1.64))
    assert loss == ref_loss
    assert model.loss(x, y, (0.36, 1.64)) == ref_loss
    for got, want in zip(grads, ref_grads):
        np.testing.assert_array_equal(got, want)


def test_parameters_are_views_of_one_flat_vector():
    model = Mlp(5, (8, 4), 2, seed=0)
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
    used = Mlp(6, (64, 64), 2, seed=4)
    used.loss_and_grads(x, y, (1.0, 1.0))          # large batch first
    loss, grads = used.loss_and_grads(small_x, small_y, (1.0, 1.0))
    fresh = Mlp(6, (64, 64), 2, seed=4)
    fresh_loss, fresh_grads = fresh.loss_and_grads(small_x, small_y, (1.0, 1.0))
    assert loss == fresh_loss
    for got, want in zip(grads, fresh_grads):
        np.testing.assert_array_equal(got, want)
    logits, _ = used.forward(small_x.astype(np.float32))
    fresh_logits, _ = fresh.forward(small_x.astype(np.float32))
    np.testing.assert_array_equal(logits, fresh_logits)


def test_grads_do_not_alias_across_calls():
    x, y = toy(n=200)
    model = Mlp(6, (16, 16), 2, seed=2)
    _, first = model.loss_and_grads(x, y, (1.0, 1.0))
    kept = [g.copy() for g in first]
    _, second = model.loss_and_grads(x[:50], y[:50], (0.5, 1.5))
    for a, b, k in zip(first, second, kept):
        assert not np.shares_memory(a, b)
        np.testing.assert_array_equal(a, k)
