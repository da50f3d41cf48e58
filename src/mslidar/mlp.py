"""Small feed-forward network trained with weighted cross-entropy.

Plain numpy, no autograd: the backward pass is written out so the
gradient can be checked against finite differences. Everything is
deterministic given the seed: Glorot-uniform init from a seeded
generator, seeded permutation shuffling, and fixed-order batch sums.

The two output units are initialized with identical weight rows. Class
gradients split them from the first step on, and the symmetry makes
label flipping an exact mirror: training on 1-y with swapped class
weights yields exactly swapped output units.

A training step allocates no (batch x hidden) temporaries. Each model
keeps a workspace of activation, backward-delta and ReLU-mask buffers
sized to the largest batch seen; shorter batches use row slices of it.
The arrays `forward` returns are views of that workspace and are valid
until the next `forward`, `loss`, `loss_and_grads` or `predict_proba`
call on the same model. Gradients are fresh arrays on every call.

All parameters live in one flat vector, weight matrices first and then
the biases, and `weights`/`biases` are views of it, so AdamW is a few
whole-vector in-place operations and weight decay covers a prefix.

None of this changes a trained bit: every BLAS call keeps the shapes
and operand order of the plain allocating loop, each element-wise step
does the same rounded operations in the same order, and the batch sums
keep their reduction order. `tests/conftest.py` holds that loop as a
reference, and the tests check parameters and loss curves against it
bit for bit.

loss_curve[0] is one forward over the full training set, without the
backward pass that a gradient call would add. It stays one full-size
call: a row-chunked matrix product rounds differently, so chunking it
would change the reported loss.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericError


@dataclass
class TrainConfig:
    epochs: int = 300
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    batch_size: int = 8192
    hidden: tuple[int, ...] = (64, 64)
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    patience: int | None = None   # early stop on training loss; off by default
    dtype: type = np.float32

    def __post_init__(self):
        if self.epochs < 0:
            raise DataError(f"epochs must be >= 0, got {self.epochs!r}")
        for name in ("learning_rate", "weight_decay"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise DataError(f"{name} must be >= 0 and finite, got {getattr(self, name)!r}")
        if self.patience is not None and self.patience < 1:
            raise DataError(f"patience must be >= 1 or null, got {self.patience!r}")
        if self.batch_size < 1:
            raise DataError(f"batch_size must be >= 1, got {self.batch_size!r}")
        if any(h < 1 for h in self.hidden):
            raise DataError(f"hidden layer sizes must be >= 1, got {list(self.hidden)}")


class Mlp:
    """d_in -> hidden... -> 2 with ReLU activations."""

    def __init__(self, d_in: int, hidden: tuple[int, ...],
                 n_out: int = 2, seed: int = 0, dtype=np.float32):
        self.sizes = (int(d_in),) + tuple(int(h) for h in hidden) + (int(n_out),)
        self.dtype = np.dtype(dtype)
        self.seed = seed
        shapes = list(zip(self.sizes[:-1], self.sizes[1:]))
        self.n_weights = sum(a * b for a, b in shapes)
        self.flat = np.zeros(self.n_weights + sum(self.sizes[1:]), dtype=self.dtype)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        rng = np.random.default_rng(seed)
        w_off, b_off = 0, self.n_weights
        for li, (fan_in, fan_out) in enumerate(shapes):
            w = self.flat[w_off : w_off + fan_in * fan_out].reshape(fan_in, fan_out)
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            # the output layer draws one column and repeats it per class
            cols = 1 if li == len(shapes) - 1 else fan_out
            w[...] = rng.uniform(-bound, bound, size=(fan_in, cols))
            self.weights.append(w)
            self.biases.append(self.flat[b_off : b_off + fan_out])
            w_off += fan_in * fan_out
            b_off += fan_out
        self._workspace: dict[str, list[np.ndarray]] = {}

    @property
    def d_in(self) -> int:
        return self.sizes[0]

    def parameters(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def _buffers(self, name: str, rows: int, widths, dtype=None) -> list[np.ndarray]:
        """Row views of the named workspace buffers; grown, never shrunk."""
        bufs = self._workspace.get(name)
        if bufs is None or (bufs and bufs[0].shape[0] < rows):
            bufs = [np.empty((rows, w), dtype or self.dtype) for w in widths]
            self._workspace[name] = bufs
        return [b[:rows] for b in bufs]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Logits plus the post-ReLU activations needed for backward."""
        *hidden, logits = self._buffers("forward", x.shape[0], self.sizes[1:])
        acts = [x]
        h = x
        for w, b, out in zip(self.weights, self.biases, hidden):
            np.matmul(h, w, out=out)
            out += b
            h = np.maximum(out, 0.0, out=out)
            acts.append(h)
        np.matmul(h, self.weights[-1], out=logits)
        logits += self.biases[-1]
        return logits, acts

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        logits, _ = self.forward(np.asarray(x, dtype=self.dtype))
        _, _, e, s = _shifted_exp(logits)
        self._workspace.clear()   # a prediction set is not a batch to keep
        return e / s[:, None]

    def _weighted_ce(self, logits, y, class_weights):
        """Weighted cross-entropy plus the pieces the softmax gradient reuses.

        Returns (loss, e, s, w) with e and s as :func:`_shifted_exp` gives
        them and w the per-row weights normalized to sum to 1.
        """
        cw = np.asarray(class_weights, dtype=self.dtype)
        logits64, peak, e, s = _shifted_exp(logits)
        ce = np.log(s) + peak - logits64[np.arange(y.shape[0]), y]
        w = cw[y].astype(np.float64)
        w_sum = w.sum()
        loss = float((w * ce).sum() / w_sum)
        return loss, e, s, w / w_sum

    def loss(self, x, y, class_weights) -> float:
        """The weighted cross-entropy of loss_and_grads, forward pass only."""
        x = np.asarray(x, dtype=self.dtype)
        logits, _ = self.forward(x)
        return self._weighted_ce(logits, np.asarray(y), class_weights)[0]

    def loss_and_grads(self, x, y, class_weights):
        """Weighted cross-entropy and its gradients.

        loss = sum_i w_{y_i} * ce_i / sum_i w_{y_i}, so with unit class
        weights it reduces to the plain mean cross-entropy exactly.
        """
        x = np.asarray(x, dtype=self.dtype)
        y = np.asarray(y)
        logits, acts = self.forward(x)
        loss, p, s, w = self._weighted_ce(logits, y, class_weights)
        p /= s[:, None]
        p[np.arange(y.shape[0]), y] -= 1.0
        p *= w[:, None]
        delta = p.astype(self.dtype)

        rows = x.shape[0]
        widths = self.sizes[1:-1]
        deltas = self._buffers("delta", rows, widths)
        masks = self._buffers("mask", rows, widths, bool)
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            grads_w[i] = acts[i].T @ delta
            grads_b[i] = delta.sum(axis=0)
            if i > 0:
                back = deltas[i - 1]
                if i == last and delta.shape[1] == 2:
                    # summed per class as rounded products, not via BLAS:
                    # its fused multiply-add makes the 2-term dot depend on
                    # class order and would break the label-flip mirror
                    w = self.weights[i]
                    (tmp,) = self._buffers("tmp", rows, widths[-1:])
                    np.multiply(delta[:, :1], w[:, 0], out=back)
                    np.multiply(delta[:, 1:], w[:, 1], out=tmp)
                    back += tmp
                else:
                    np.matmul(delta, self.weights[i].T, out=back)
                np.greater(acts[i], 0, out=masks[i - 1])
                back *= masks[i - 1]
                delta = back
        grads = []
        for gw, gb in zip(grads_w, grads_b):
            grads.extend((gw, gb))
        return loss, grads


def _shifted_exp(logits: np.ndarray) -> tuple[np.ndarray, ...]:
    """The softmax in pieces, in float64: (logits, row max, e = exp(logits
    - row max), row sums of e). e / s is the softmax."""
    z = logits.astype(np.float64)
    peak = np.maximum(z[:, 0], z[:, 1]) if z.shape[1] == 2 else z.max(axis=1)
    e = np.exp(z - peak[:, None])
    return z, peak, e, e.sum(axis=1)


@dataclass
class TrainResult:
    model: Mlp
    loss_curve: list[float] = field(default_factory=list)
    stopped_epoch: int | None = None


def train(
    features: np.ndarray,
    labels: np.ndarray,
    class_weights,
    config: TrainConfig = TrainConfig(),
) -> TrainResult:
    """Train with AdamW (decoupled weight decay on the weight matrices).

    loss_curve[0] is the pre-training loss over the full set; entry e+1
    is the running weighted mean over epoch e's batches. Bit-identical
    results for identical inputs, seed, and dtype.
    """
    x = np.ascontiguousarray(features, dtype=config.dtype)
    y = np.ascontiguousarray(labels).astype(np.int64)
    if x.ndim != 2:
        raise DataError("features must be an (n, d) matrix")
    if y.shape[0] != x.shape[0]:
        raise DataError("labels and features disagree on point count")
    if not np.all((y == 0) | (y == 1)):
        raise DataError("training labels must be binary 0/1")
    if np.unique(y).size < 2:
        raise DataError("training set must contain both classes")

    model = Mlp(x.shape[1], config.hidden, 2, seed=config.seed, dtype=config.dtype)
    # AdamW on the flat parameter vector; decay covers the weight prefix
    params = model.flat
    decayed = params[: model.n_weights]
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    g = np.empty_like(params)
    step = np.empty_like(params)
    scratch = np.empty_like(params)
    scratch_w = scratch[: model.n_weights]
    lr = config.learning_rate
    lr_t = config.dtype(lr)
    decay_t = config.dtype(lr * config.weight_decay)
    b1, b2, eps = config.beta1, config.beta2, config.eps

    loss0 = model.loss(x, y, class_weights)
    model._workspace.clear()   # full-set sized; batches need far less
    curve = [loss0]
    rng = np.random.default_rng(config.seed)
    t = 0
    best = loss0
    since_best = 0
    stopped = None
    n = x.shape[0]
    bs = config.batch_size
    xs = np.empty_like(x)
    ys = np.empty_like(y)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        np.take(x, order, axis=0, out=xs)
        np.take(y, order, out=ys)
        epoch_loss = 0.0
        epoch_weight = 0.0
        for start in range(0, n, bs):
            xb = xs[start : start + bs]
            loss, grads = model.loss_and_grads(xb, ys[start : start + bs], class_weights)
            if not np.isfinite(loss):
                raise NumericError(
                    f"loss became non-finite at epoch {epoch}, batch "
                    f"{start // bs}; the learning rate is likely too high "
                    f"(lr={lr}, last finite loss {curve[-1]:.6g})"
                )
            np.concatenate([gi.ravel() for gi in grads[0::2] + grads[1::2]], out=g)
            t += 1
            bc1 = 1.0 - b1**t
            bc2 = 1.0 - b2**t
            m *= b1
            np.multiply(g, 1 - b1, out=scratch)
            m += scratch
            v *= b2
            np.square(g, out=scratch)
            scratch *= 1 - b2
            v += scratch
            np.divide(v, bc2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += eps
            np.divide(m, bc1, out=step)
            step /= scratch
            np.multiply(decayed, decay_t, out=scratch_w)
            decayed -= scratch_w
            step *= lr_t
            params -= step
            epoch_loss += loss * xb.shape[0]
            epoch_weight += xb.shape[0]
        curve.append(epoch_loss / epoch_weight)
        if config.patience is not None:
            if curve[-1] < best - 1e-12:
                best = curve[-1]
                since_best = 0
            else:
                since_best += 1
                if since_best >= config.patience:
                    stopped = epoch
                    break
    model._workspace.clear()
    return TrainResult(model=model, loss_curve=curve, stopped_epoch=stopped)
