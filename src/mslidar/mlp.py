"""Small feed-forward network trained with weighted cross-entropy.

Plain numpy, no autograd: the backward pass is written out so the
gradient can be checked against finite differences. Everything is
deterministic given the seed: Glorot-uniform init from a seeded
generator, seeded permutation shuffling, and fixed-order sums.

The head is one weight vector v and one bias c (the one-unit output
layer, `weights[-1][:, 0]` and `biases[-1][0]`). The margin z = h.v + c
is the tree-vs-non-tree logit difference: the two-class softmax
cross-entropy of a point of class 1 is softplus(-z), of class 0
softplus(z). Loss and gradient are computed from z in the model dtype.
The per-row margin gradient g reaches the head as h.T@g and sum(g) and
the last hidden layer as the rank-1 product outer(g, v). A prediction
needs only the sign of z: `margins` gives z for every row, and class 1
wins exactly where z > 0.

The head starts at exactly zero and draws nothing from the generator,
so the first margin is 0 on every row. Label flipping is an exact
mirror: training on 1-y with swapped class weights negates z, g, v and
c exactly and leaves the hidden layers bit for bit as they were, since
floating-point negation is exact.

Every pass (a training batch, the initial full-set loss, the margins a
prediction reads) runs in row shards of SHARD_ROWS, a constant, in one
loop, :meth:`Crew.deal`: it deals the shards to the call's workers one
round at a time, one shard per worker, and hands back each round's
results in shard order. The calling thread is worker 0; the others run
on a thread pool that lives for the call. Shard losses and gradients are
summed in shard order by the calling thread, and numpy's BLAS is pinned
to one thread for the whole call, so trained bits depend neither on the
worker count nor on OPENBLAS_NUM_THREADS.
A pass reads its input in the model dtype and takes each shard as a view
of it: the float32 feature matrix that `train` and a prediction receive
is used as it is, and an input of another dtype is converted once, on
entry. `train` gathers each batch's rows from it by the epoch's
permutation, so a batch, not the whole set, is what an epoch copies.
A network may read only some columns of that matrix (`columns`: a
feature config's columns of the classifier's one shared matrix); each
batch or shard then gathers its rows and, of those, the columns, the
same bits as the rows of a copy of the columns, which nothing makes.
Each worker has its own workspace of activation, backward-delta,
ReLU-mask and gradient buffers of SHARD_ROWS rows, so a pass allocates no
(rows x hidden) temporaries and, on input in the model dtype, its
memory does not grow with its row count. A call has no more workers than its passes have shards (for
`train`, the shards of one batch), so no workspace sits idle. The
workspaces belong to the call, not to the model. The arrays `forward`
returns are views of the workspace it is given.

All parameters live in one flat vector, weight matrices first and then
the biases, and `weights`/`biases` are views of it; gradients use the
same layout. An AdamW step is four whole-vector expressions and weight
decay covers a prefix.
"""

import ctypes
import functools
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BYTE_LIMIT, ConfigError, DataError, NumericError

# Rows per shard. A constant, never derived from a thread count: the
# shard boundaries fix the rounding of every sum, so they fix the bits.
SHARD_ROWS = 2048
DTYPE = np.float32  # the dtype `train` fits in, as checkpoints store it

# AdamW's moment decay rates and denominator guard.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class TrainConfig:
    epochs: int = 300
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    batch_size: int = 8192
    hidden: tuple[int, ...] = (64, 64)
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError(f"train.epochs must be >= 0, got {self.epochs!r}")
        for name in ("learning_rate", "weight_decay"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ConfigError(
                    f"train.{name} must be >= 0 and finite, got {getattr(self, name)!r}")
        if self.batch_size < 1:
            raise ConfigError(f"train.batch_size must be >= 1, got {self.batch_size!r}")
        if any(h < 1 for h in self.hidden):
            raise ConfigError(f"train.hidden layer sizes must be >= 1, got {list(self.hidden)}")


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy, or
    None when numpy links another BLAS. numpy 2 wheels bundle scipy-openblas
    (scipy_openblas_*_num_threads64_), numpy 1.x wheels an OpenBLAS with
    openblas_*_num_threads64_ (no 64_ on 32-bit builds). Loaded on first use."""
    pkg = Path(np.__file__).parent
    for lib in sorted((*pkg.parent.glob("numpy.libs/*openblas*"),
                       *pkg.glob(".dylibs/*openblas*"))):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    get = getattr(handle, f"{prefix}_get_num_threads{suffix}")
                    set_ = getattr(handle, f"{prefix}_set_num_threads{suffix}")
                except AttributeError:
                    continue
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def one_blas_thread():
    """numpy's BLAS on one thread for the duration, then as it was."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


class _Workspace:
    """The buffers of one worker's shard: post-ReLU activations and the
    margin of `forward`, backward deltas and ReLU masks, a row of ones that
    sums a delta's columns as one BLAS call, and the shard's gradient in the
    flat parameter layout. The shard's input rows are a view of the pass's
    input, never copied here."""

    def __init__(self, sizes, dtype):
        widths = sizes[1:-1]
        self.acts = [np.empty((SHARD_ROWS, w), dtype) for w in widths]
        self.deltas = [np.empty((SHARD_ROWS, w), dtype) for w in widths]
        self.masks = [np.empty((SHARD_ROWS, w), bool) for w in widths]
        self.z = np.empty(SHARD_ROWS, dtype)
        self.ones = np.ones(SHARD_ROWS, dtype)
        self.grad = np.empty(sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:])), dtype)


class Crew:
    """The workers of one call: a workspace each, and a thread pool for all
    but worker 0, the calling thread (None with one worker)."""

    def __init__(self, spaces: list[_Workspace], pool: ThreadPoolExecutor | None):
        self.spaces = spaces
        self.pool = pool

    def deal(self, n: int, work):
        """work(workspace, lo) for the shard of rows [lo, lo + SHARD_ROWS) of
        each of n rows, dealt in rounds of one shard per worker; yields the
        results in shard order. A round starts when the caller has taken
        every result of the one before, so a result may be a view of its
        worker's workspace."""
        starts = range(0, n, SHARD_ROWS)
        for r in range(0, len(starts), len(self.spaces)):
            lows = starts[r : r + len(self.spaces)]
            rest = [self.pool.submit(work, ws, lo) for ws, lo in zip(self.spaces[1:], lows[1:])]
            yield work(self.spaces[0], lows[0])
            for future in rest:
                yield future.result()


def _shards(rows: int) -> int:
    """The shards of a pass over `rows` rows, at least one."""
    return max(1, -(-rows // SHARD_ROWS))


@contextmanager
def crew(sizes, dtype, workers: int):
    """A Crew of `workers` workers for networks of the given layer sizes,
    with numpy's BLAS on one thread until it ends; no thread outlives it."""
    spaces = [_Workspace(sizes, dtype) for _ in range(workers)]
    with (one_blas_thread(),
          ThreadPoolExecutor(workers - 1) if workers > 1 else nullcontext() as pool):
        yield Crew(spaces, pool)


class Mlp:
    """d_in -> hidden... -> 1 with ReLU activations; the one output is the
    margin z."""

    def __init__(self, d_in: int, hidden: tuple[int, ...], seed: int = 0,
                 dtype=DTYPE):
        self.sizes = (int(d_in),) + tuple(int(h) for h in hidden) + (1,)
        self.dtype = np.dtype(dtype)
        self.n_weights = sum(a * b for a, b in zip(self.sizes[:-1], self.sizes[1:]))
        self.flat = np.zeros(self.n_weights + sum(self.sizes[1:]), dtype=self.dtype)
        self.weights, self.biases = self._views(self.flat)
        rng = np.random.default_rng(seed)
        for w in self.weights[:-1]:   # the head stays at zero
            fan_in, fan_out = w.shape
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            w[...] = rng.uniform(-bound, bound, size=(fan_in, fan_out))

    @property
    def d_in(self) -> int:
        return self.sizes[0]

    def _views(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Weight matrices and bias vectors as views of a flat vector."""
        weights, biases = [], []
        w_off, b_off = 0, self.n_weights
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            weights.append(flat[w_off : w_off + fan_in * fan_out].reshape(fan_in, fan_out))
            biases.append(flat[b_off : b_off + fan_out])
            w_off += fan_in * fan_out
            b_off += fan_out
        return weights, biases

    def parameters(self) -> list[np.ndarray]:
        return _interleave(self.weights, self.biases)

    def forward(self, x: np.ndarray, ws: _Workspace):
        """Margin z and the post-ReLU activations (x first) of one shard of
        at most SHARD_ROWS rows, in the workspace ws."""
        rows = x.shape[0]
        acts = [x]
        h = x
        for w, b, out in zip(self.weights, self.biases, ws.acts):
            out = out[:rows]
            np.matmul(h, w, out=out)
            out += b
            h = np.maximum(out, 0.0, out=out)
            acts.append(h)
        z = np.matmul(h, self.weights[-1][:, 0], out=ws.z[:rows])
        z += self.biases[-1][0]
        return z, acts

    def _crew(self, workers: "int | Crew", rows: int):
        """`workers` itself when it is the Crew of an enclosing call, else a
        crew of that many workers for this call's `rows` rows, at most one
        per shard."""
        if isinstance(workers, Crew):
            return nullcontext(workers)
        return crew(self.sizes, self.dtype, min(workers, _shards(rows)))

    def margins(self, x: np.ndarray, workers: "int | Crew" = 1,
                columns: np.ndarray | None = None) -> np.ndarray:
        """The margin z of every row of x, in the model dtype: class 1 (tree)
        scores higher than class 0 exactly where z > 0. The model reads the
        `columns` of x (None: every column), gathered a shard at a time. An
        x of another dtype is converted to the model dtype once, before the
        first shard."""
        x = np.asarray(x, dtype=self.dtype)
        z = np.empty(x.shape[0], self.dtype)

        def work(ws, lo):
            shard = _gather(x, slice(lo, lo + SHARD_ROWS), columns)
            z[lo : lo + SHARD_ROWS] = self.forward(shard, ws)[0]

        with self._crew(workers, x.shape[0]) as team:
            for _ in team.deal(x.shape[0], work):
                pass
        return z

    def _row_weights(self, y: np.ndarray, class_weights) -> np.ndarray:
        """The two class weights divided by the rows' summed weight, so that
        the loss sum_i w_{y_i} ce_i / sum_i w_{y_i} is a plain weighted sum."""
        cw = np.asarray(class_weights, dtype=np.float64)
        n1 = int(np.count_nonzero(y))
        return (cw / ((y.shape[0] - n1) * cw[0] + n1 * cw[1])).astype(self.dtype)

    def _pass(self, x, y, class_weights, grad, team: Crew, columns=None) -> float:
        """The loss over all rows of (x, y), the model reading the `columns`
        of x, and, into the flat vector `grad` when one is given, its
        gradient, each summed over the shards in shard order."""
        x = np.asarray(x, dtype=self.dtype)
        y = np.asarray(y)
        scale = self._row_weights(y, class_weights)

        def work(ws, lo):
            z, acts = self.forward(_gather(x, slice(lo, lo + SHARD_ROWS), columns), ws)
            loss, g = _margin_loss(z, y[lo : lo + SHARD_ROWS], scale)
            if grad is None:
                return loss, None
            # the first shard's gradient starts the sum; later ones add to it
            part = grad if lo == 0 else ws.grad
            self._backward(acts, g, part, ws)
            return loss, part

        total = 0.0
        for loss, part in team.deal(x.shape[0], work):
            total += loss
            if part is not None and part is not grad:
                grad += part
        return total

    def loss(self, x, y, class_weights, workers: "int | Crew" = 1, columns=None) -> float:
        """The weighted cross-entropy of loss_and_grads, forward passes only,
        over the `columns` of x (None: every column), gathered a shard at a
        time."""
        with self._crew(workers, len(x)) as team:
            return self._pass(x, y, class_weights, None, team, columns)

    def loss_and_grads(self, x, y, class_weights, out=None, workers: "int | Crew" = 1):
        """Weighted cross-entropy and its gradients.

        loss = sum_i w_{y_i} * ce_i / sum_i w_{y_i}, so with unit class
        weights it reduces to the plain mean cross-entropy exactly. The
        gradients are views, in `parameters()` order, of `out` (a flat
        vector in `flat`'s layout) or else of a fresh one. `workers` is a
        worker count or the Crew of an enclosing call; the bits do not
        depend on it.
        """
        if out is None:
            out = np.empty_like(self.flat)
        with self._crew(workers, len(x)) as team:
            loss = self._pass(x, y, class_weights, out, team)
        return loss, _interleave(*self._views(out))

    def _backward(self, acts, g: np.ndarray, grad: np.ndarray, ws: _Workspace) -> None:
        """One shard's gradient into the flat vector `grad`, from its
        activations and its per-row margin gradient g, in the workspace ws."""
        grads_w, grads_b = self._views(grad)
        rows = g.shape[0]
        last = len(self.weights) - 1
        np.matmul(acts[last].T, g, out=grads_w[last][:, 0])
        grads_b[last][0] = g.sum()
        if last == 0:
            return
        delta = ws.deltas[last - 1][:rows]
        np.multiply(g[:, None], self.weights[last][:, 0], out=delta)
        for i in range(last - 1, -1, -1):
            mask = ws.masks[i][:rows]
            np.greater(acts[i + 1], 0, out=mask)
            delta *= mask
            np.matmul(acts[i].T, delta, out=grads_w[i])
            np.matmul(ws.ones[:rows], delta, out=grads_b[i])
            if i > 0:
                back = ws.deltas[i - 1][:rows]
                np.matmul(delta, self.weights[i].T, out=back)
                delta = back


def _margin_loss(z: np.ndarray, y: np.ndarray, scale: np.ndarray) -> tuple[float, np.ndarray]:
    """A shard's weighted loss sum_i scale[y_i] * softplus(t_i), t = z for
    class 0 and -z for class 1, and its gradient g with respect to z."""
    sign = np.where(y == 1, -1, 1).astype(z.dtype)
    t = sign * z
    e = np.exp(-np.abs(t))
    ce = np.log1p(e)
    ce += np.maximum(t, 0)
    w = scale[y]
    g = np.where(t >= 0, 1, e)   # sigmoid(t) = g / (1 + e)
    g /= 1 + e
    g *= sign * w
    return float(np.dot(w, ce)), g


def _train_bytes(sizes, workers: int) -> int:
    """Bytes `train` holds for a network of these layer sizes: the flat
    parameter vector, its two AdamW moments and its gradient, and for each
    worker a gradient and SHARD_ROWS rows of activations, deltas and masks."""
    n_params = sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))
    item = np.dtype(DTYPE).itemsize
    workspace = n_params * item + SHARD_ROWS * sum(sizes[1:-1]) * (2 * item + 1)
    return 4 * n_params * item + workers * workspace


def _gather(x: np.ndarray, rows, columns: np.ndarray | None) -> np.ndarray:
    """The `rows` (a slice or row ids) of x, and of those the `columns`
    (None: every column): a view for a slice of every column, else one
    C-contiguous matrix, the bits of the same rows of a copy of those
    columns."""
    # numpy's take gathers rows faster than x[rows]
    part = x[rows] if isinstance(rows, slice) else x.take(rows, axis=0)
    return part if columns is None else part.take(columns, axis=1)


def _interleave(weights, biases) -> list[np.ndarray]:
    return [a for pair in zip(weights, biases) for a in pair]


def train(
    features: np.ndarray,
    labels: np.ndarray,
    class_weights,
    config: TrainConfig = TrainConfig(),
    workers: int = 1,
    columns: np.ndarray | None = None,
) -> tuple[Mlp, list[float]]:
    """Train with AdamW (decoupled weight decay on the weight matrices);
    returns the network and its loss curve.

    loss_curve[0] is the pre-training loss over the full set; entry e+1
    is the running weighted mean over epoch e's batches. Every pass runs
    on one crew of at most `workers` workers, one per shard of a batch.
    The network reads the `columns` of `features` (None: every column).
    A C-contiguous DTYPE `features` matrix, as `neighborhood_stats` makes
    and `fit` hands every feature config, is trained on as it is, with
    no copy; other input is converted once. The labels are checked as
    given and held as uint8. Each batch's rows, and of those its
    columns, are gathered from the epoch's permutation as it is trained
    on (`_gather`), so neither an epoch nor a feature config copies
    the whole set.
    A network that would hold more than BYTE_LIMIT bytes (_train_bytes)
    is refused with a ConfigError naming train.hidden.
    Bit-identical results for identical inputs and seed, whatever the
    worker count and the BLAS thread count.
    """
    x = np.ascontiguousarray(features, dtype=DTYPE)
    y = np.asarray(labels)
    if x.ndim != 2:
        raise DataError("features must be an (n, d) matrix")
    d = x.shape[1] if columns is None else len(columns)
    if y.shape[0] != x.shape[0]:
        raise DataError("labels and features disagree on point count")
    if not np.all((y == 0) | (y == 1)):
        raise DataError("training labels must be binary 0/1")
    y = y.astype(np.uint8, copy=False)
    if not 0 < np.count_nonzero(y) < y.size:
        raise DataError("training set must contain both classes")
    n, bs = x.shape[0], config.batch_size
    workers = min(workers, _shards(min(n, bs)))
    need = _train_bytes((d, *config.hidden, 1), workers)
    if need > BYTE_LIMIT:
        raise ConfigError(
            f"train.hidden {list(config.hidden)} is too wide: training it on {d} "
            f"features with {workers} workers would hold {need / 2**30:.1f} GiB, over the "
            f"limit of {BYTE_LIMIT / 2**30:g} GiB")

    model = Mlp(d, config.hidden, seed=config.seed, dtype=DTYPE)
    # AdamW on the flat parameter vector; decay covers the weight prefix
    params = model.flat
    decayed = params[: model.n_weights]
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    g = np.empty_like(params)
    lr = config.learning_rate
    lr_t = DTYPE(lr)
    decay_t = DTYPE(lr * config.weight_decay)

    with crew(model.sizes, model.dtype, workers) as team:
        curve = [model.loss(x, y, class_weights, workers=team, columns=columns)]
        rng = np.random.default_rng(config.seed)
        t = 0
        for epoch in range(config.epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            epoch_weight = 0.0
            for start in range(0, n, bs):
                rows = order[start : start + bs]
                xb = _gather(x, rows, columns)
                loss, _ = model.loss_and_grads(xb, y.take(rows), class_weights, out=g,
                                               workers=team)
                if not np.isfinite(loss):
                    raise NumericError(
                        f"loss became non-finite at epoch {epoch}, batch "
                        f"{start // bs}; the learning rate is likely too high "
                        f"(lr={lr}, last finite loss {curve[-1]:.6g})"
                    )
                t += 1
                bc1 = 1.0 - BETA1**t
                bc2 = 1.0 - BETA2**t
                m = BETA1 * m + (1 - BETA1) * g
                v = BETA2 * v + (1 - BETA2) * np.square(g)
                decayed -= decay_t * decayed
                params -= lr_t * (m / bc1 / (np.sqrt(v / bc2) + EPS))
                epoch_loss += loss * xb.shape[0]
                epoch_weight += xb.shape[0]
            curve.append(epoch_loss / epoch_weight)
    return model, curve
