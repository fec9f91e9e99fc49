"""Dense-tensor math with hand-written backward passes and the Adam optimizer.

There is one layer type, ``DenseLayer``, which carries its parameters as
plain numpy arrays; a same-padded 3x3 convolution is a dense layer applied
to each grid cell's 3x3 neighbourhood (``conv2d_forward``).  A dense layer
computes in the dtype of its weights: ``dense_forward`` and
``dense_backward`` cast their input and upstream gradient to it.  Models,
their files, Adam and every evaluation path are 64-bit.  The MCAE and
baseline trainers follow mixed-precision training (Micikevicius et al.,
"Mixed Precision Training", arXiv 1710.03740): each step runs forward and
backward on a float32 mirror of the float64 master weights, and
``adam_step`` applies the float32 gradients to the masters.  Gradients are
computed analytically and can be cross-checked against ``finite_diff_grad``
(the test oracle used throughout the suite), in float64.

Every trainer gives its optimiser one contiguous parameter vector:
``param_vector`` concatenates a stack's ``mlp_params`` and rebinds each
layer's ``weights`` and ``bias`` as views of it, and ``param_views`` cuts
any vector of that length (a gradient, the float32 mirror) into views in
the same order.  Adam and ``fit`` take that vector and one gradient of
its shape, Adam's state is two vectors and a step count, the mirror is
refreshed by one ``np.copyto`` a step, and a step's gradients go into
views of one zeroed vector.  ``dense_forward`` and ``dense_backward``
work in place on their own buffers; the tests check their activation
forms bit for bit against the plain numpy expressions.
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("tanh", "sigmoid", "leaky_relu", "linear")
LEAKY_SLOPE = 0.01  # leaky_relu's slope below zero, the same for every layer

# Adam's moment decay rates and denominator guard (Kingma & Ba, "Adam", 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

FD_STEP = 1e-5  # the finite-difference oracle's central-difference step
FD_ATOL = 1e-6  # max_relative_error's denominator floor, for elements near zero


def derive_seed(root_seed, name):
    """Derive a named 63-bit sub-stream seed from a root seed.

    Sub-streams are independent per name, so adding a consumer never
    perturbs another consumer's random stream.
    """
    digest = hashlib.sha256(f"{root_seed}/{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _check_activation(name):
    if name not in ACTIVATIONS:
        raise ValueError(f"unknown activation {name!r}; expected one of {ACTIVATIONS}")


def _activate_in_place(name, pre):
    """The activation of ``pre``, written over it and returned."""
    if name == "tanh":
        return np.tanh(pre, out=pre)
    if name == "sigmoid":
        np.negative(pre, out=pre)
        np.exp(pre, out=pre)
        pre += 1.0
        return np.divide(1.0, pre, out=pre)
    if name == "leaky_relu":
        # max(pre, slope * pre) is pre for pre >= 0 (-0.0 included) and slope * pre below
        return np.maximum(pre, pre * LEAKY_SLOPE, out=pre)
    return pre


def _times_derivative(name, upstream, out):
    """``upstream`` times the activation's derivative, computed from its output ``out``, in
    one new buffer (``upstream`` itself for ``linear``)."""
    if name == "tanh":
        dpre = np.multiply(out, out)
        np.subtract(1.0, dpre, out=dpre)
    elif name == "sigmoid":
        dpre = np.subtract(1.0, out)
        dpre *= out
    elif name == "leaky_relu":
        # max(1.0 or 0.0, slope) is the derivative, NaN outputs taking the slope as in the
        # reference, built without the branches of a masked select
        dpre = (out >= 0.0).astype(out.dtype)
        np.maximum(dpre, LEAKY_SLOPE, out=dpre)
    else:
        return upstream
    dpre *= upstream
    return dpre


@dataclass
class DenseLayer:
    """Fully connected layer: activation(x @ W.T + b)."""

    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str = "linear"

    def __post_init__(self):
        _check_activation(self.activation)
        if self.weights.ndim != 2 or self.bias.ndim != 1:
            raise ValueError("weights must be 2-d and bias 1-d")
        if self.weights.shape[0] != self.bias.shape[0]:
            raise ValueError(
                f"bias length {self.bias.shape[0]} does not match "
                f"{self.weights.shape[0]} output units"
            )

    @property
    def n_in(self):
        return self.weights.shape[1]

    @property
    def n_out(self):
        return self.weights.shape[0]


def glorot_uniform(n_out, n_in, rng, receptive=1):
    limit = np.sqrt(6.0 / ((n_in + n_out) * receptive))
    return rng.uniform(-limit, limit, size=(n_out, n_in * receptive))


def dense_init(n_in, n_out, activation, rng):
    """Glorot-uniform weights, zero bias, from the given generator."""
    weights = glorot_uniform(n_out, n_in, rng)
    return DenseLayer(weights, np.zeros(n_out), activation)


def dense_forward(layer, x):
    """Forward map for a batch (batch, in) -> (batch, out), in the weights' dtype."""
    x = np.asarray(x, dtype=layer.weights.dtype)
    if x.ndim != 2:
        raise ValueError(f"expected a batch of row vectors, got ndim={x.ndim}")
    if x.shape[1] != layer.n_in:
        raise ValueError(
            f"input dimension {x.shape[1]} does not match layer input {layer.n_in}"
        )
    pre = x @ layer.weights.T
    pre += layer.bias
    return _activate_in_place(layer.activation, pre)


def dense_backward(layer, x, upstream, out, params=True, inputs=True):
    """Analytic gradients of ``dense_forward`` w.r.t. parameters and input.

    ``upstream`` is dLoss/dOutput and ``out`` the cached forward output
    ``dense_forward(layer, x)``; the two share one shape.  Returns
    ``([dW, db], input gradient)`` in the weights' dtype, the pair in
    ``mlp_params`` order; ``params=False`` or ``inputs=False`` skips that
    part and returns None in its place.
    """
    dtype = layer.weights.dtype
    x = np.asarray(x, dtype=dtype)
    upstream = np.asarray(upstream, dtype=dtype)
    if upstream.shape != out.shape:
        raise ValueError(
            f"upstream gradient shape {upstream.shape} does not match output {out.shape}"
        )
    dpre = _times_derivative(layer.activation, upstream, out)
    grads = [dpre.T @ x, np.add.reduce(dpre, axis=0)] if params else None
    return grads, dpre @ layer.weights if inputs else None


def _neighbourhoods(grids):
    """(batch, h, w, C) grids -> (batch*h*w, C*9) rows: each cell's 3x3 neighbourhood.

    The grids are zero-padded by one cell, so every cell has nine neighbours.
    Columns are channel-major, column ``9*c + 3*i + j`` holding channel c at
    offset (i - 1, j - 1): the order in which a (C, 3, 3) kernel flattens.
    """
    b, h, w, c = grids.shape
    padded = np.pad(grids, ((0, 0), (1, 1), (1, 1), (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (3, 3), axis=(1, 2))
    return windows.reshape(b * h * w, c * 9)  # (b, h, w, c, 3, 3), copied in row order


def conv2d_forward(layer, grids):
    """Same-padded 3x3 convolution of (batch, h, w, C) grids by a DenseLayer of C*9 inputs.

    Returns the (batch, h, w, out) output and the neighbourhood rows that
    ``conv2d_backward`` reuses.
    """
    grids = np.asarray(grids)
    if grids.ndim != 4:
        raise ValueError("expected grids of shape (batch, h, w, channels)")
    if 9 * grids.shape[3] != layer.n_in:
        raise ValueError(f"input has {grids.shape[3]} channels, layer takes {layer.n_in} "
                         "inputs, not 9 per channel")
    rows = _neighbourhoods(grids)
    return dense_forward(layer, rows).reshape(*grids.shape[:3], layer.n_out), rows


def conv2d_backward(layer, rows, upstream, out, inputs=True):
    """Analytic gradients of ``conv2d_forward`` from its rows and cached output.

    Returns ``([dW, db], grid gradient)``; ``inputs=False`` skips the grid
    gradient and returns None in its place.
    """
    b, h, w, n_out = out.shape
    grads, drows = dense_backward(layer, rows, np.reshape(upstream, (-1, n_out)),
                                  out.reshape(-1, n_out), inputs=inputs)
    if drows is None:
        return grads, None
    drows = drows.reshape(b, h, w, -1, 3, 3)
    dpadded = np.zeros((b, h + 2, w + 2, drows.shape[3]), drows.dtype)
    for i in range(3):
        for j in range(3):
            dpadded[:, i : i + h, j : j + w] += drows[..., i, j]
    return grads, dpadded[:, 1:-1, 1:-1]


ADAM_BLOCK = 1 << 14  # elements per pass of an Adam update: its scratch stays cache-sized


@dataclass
class AdamState:
    """Adam optimizer state for one parameter vector."""

    learning_rate: float
    first_moment: np.ndarray
    second_moment: np.ndarray
    scratch: np.ndarray  # two float64 rows of up to ADAM_BLOCK elements
    step_count: int = 0


def _check_vector(vector):
    """Adam walks one 1-d C-contiguous float64 vector in flat blocks, which must be views."""
    array = isinstance(vector, np.ndarray)
    if not (array and vector.ndim == 1 and vector.flags.c_contiguous
            and vector.dtype == np.float64):
        layout = f", dtype {vector.dtype}, strides {vector.strides}" if array else ""
        raise ValueError("Adam takes one 1-d C-contiguous float64 vector, not a "
                         f"{type(vector).__name__} of shape {np.shape(vector)}{layout}")


def adam_init(vector, learning_rate):
    """Adam state with zero moments for the parameter vector ``vector``."""
    _check_vector(vector)
    if learning_rate <= 0:
        raise ValueError("learning_rate must be positive")
    return AdamState(learning_rate, np.zeros_like(vector), np.zeros_like(vector),
                     np.empty((2, min(ADAM_BLOCK, vector.size))))


def adam_step(state, vector, grad, epoch):
    """One Adam update with bias correction of the parameter vector, in place.

    ``grad``, float64 or float32 in the vector's shape, is checked before any
    state changes, so a step that raises leaves the vector, the moments and
    the step count as they were.  ``epoch`` is the caller's training epoch,
    named in the non-finite error with the flat index of the first non-finite
    element.  The update walks the vector in blocks of at most ``ADAM_BLOCK``
    elements; it is elementwise, so the blocks do not change its bits.
    """
    _check_vector(vector)
    grad = np.asarray(grad)
    if not grad.shape == vector.shape == state.first_moment.shape:
        raise ValueError(f"gradient of shape {grad.shape} and vector of shape {vector.shape} "
                         f"do not match Adam's {state.first_moment.shape}")
    t = state.step_count + 1
    finite = np.isfinite(grad)
    if not finite.all():
        first = int(np.flatnonzero(~finite)[0])
        raise ValueError(f"non-finite gradient: first at flat index {first}, step {t}, "
                         f"epoch {epoch}")
    state.step_count = t
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for start in range(0, vector.size, ADAM_BLOCK):
        block = slice(start, start + ADAM_BLOCK)
        _adam_block(vector[block], grad[block], state.first_moment[block],
                    state.second_moment[block], bc1, bc2, state.learning_rate, state.scratch)


def _adam_block(p, g, m, v, bc1, bc2, learning_rate, scratch):
    term, denom = (buf[:p.size] for buf in scratch)
    # the gradient is read as float64, and the operations keep the order of
    # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), so the bits are the expression's
    m *= ADAM_BETA1
    np.multiply(g, 1.0 - ADAM_BETA1, out=term, dtype=np.float64)
    m += term
    v *= ADAM_BETA2
    np.multiply(g, g, out=term, dtype=np.float64)
    term *= 1.0 - ADAM_BETA2
    v += term
    np.divide(v, bc2, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPSILON
    np.divide(m, bc1, out=term)
    term *= learning_rate
    term /= denom
    p -= term


def finite_diff_grad(f, x, indices=None):
    """Central-difference gradient of a scalar function, at step ``FD_STEP``: the test oracle.

    ``indices`` restricts the differences to those flat positions (default:
    every element); the gradient stays zero elsewhere.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size) if indices is None else indices:
        orig = flat[i]
        flat[i] = orig + FD_STEP
        fp = f(x)
        flat[i] = orig - FD_STEP
        fm = f(x)
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError("function not finite at perturbed point")
        gflat[i] = (fp - fm) / (2.0 * FD_STEP)
    return grad


def max_relative_error(analytic, numeric):
    """max |a - n| / max(FD_ATOL, |a|, |n|) over all elements."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(FD_ATOL, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0


# --- the MLP core, auto-encoder channel and minibatch/Adam loop shared by the models ---


def mlp_forward(layers, x, caches=None):
    """Run a DenseLayer stack; optionally collect (input, output) caches."""
    out = x
    for layer in layers:
        y = dense_forward(layer, out)
        if caches is not None:
            caches.append((out, y))
        out = y
    return out


def mlp_backward(layers, caches, upstream, grads=None, input_grad=True):
    """Backprop through a DenseLayer stack given forward caches.

    Returns the input gradient, or None with ``input_grad=False``.  When
    ``grads`` is given (a flat list aligned with ``mlp_params(layers)``),
    parameter gradients are added into it; otherwise they are not computed.
    """
    d = upstream
    for idx in range(len(layers) - 1, -1, -1):
        x, out = caches[idx]
        layer_grads, d = dense_backward(
            layers[idx], x, d, out, params=grads is not None, inputs=idx > 0 or input_grad
        )
        if grads is not None:
            grads[2 * idx] += layer_grads[0]
            grads[2 * idx + 1] += layer_grads[1]
    return d


def mlp_params(layers):
    """Flat parameter list [W0, b0, W1, b1, ...] for optimizer plumbing."""
    out = []
    for layer in layers:
        out.append(layer.weights)
        out.append(layer.bias)
    return out


def param_views(layers, vector=None):
    """Views of ``vector`` in ``mlp_params(layers)`` order and shapes: [W0, b0, W1, ...].

    ``vector`` is 1-d with the parameters' total size; by default it is a new
    zeroed vector of their dtype, into which gradients can be added.
    """
    params = mlp_params(layers)
    sizes = [p.size for p in params]
    if vector is None:
        vector = np.zeros(sum(sizes), params[0].dtype)
    if vector.shape != (sum(sizes),):
        raise ValueError(f"vector of shape {vector.shape} does not hold {sum(sizes)} parameters")
    bounds = np.cumsum([0] + sizes)
    return [vector[a:b].reshape(p.shape) for a, b, p in zip(bounds[:-1], bounds[1:], params)]


def layers_on(layers, vector):
    """DenseLayers shaped like ``layers``, with their activations, whose parameters are
    views of ``vector`` (in ``mlp_params`` order)."""
    views = param_views(layers, vector)
    return [DenseLayer(w, b, layer.activation)
            for layer, w, b in zip(layers, views[0::2], views[1::2])]


def param_vector(layers):
    """Concatenate ``mlp_params(layers)`` into one vector of their dtype and rebind each
    layer's ``weights`` and ``bias`` as views of it; returns the vector.

    The values do not change; arrays taken from the layers before are no longer theirs.
    """
    vector = np.concatenate([p.reshape(-1) for p in mlp_params(layers)])
    for layer, bound in zip(layers, layers_on(layers, vector)):
        layer.weights, layer.bias = bound.weights, bound.bias
    return vector


def autoencoder_init(rng, input_dim, hidden_dim, feature_dim):
    """One auto-encoder channel as (encoder, decoder) DenseLayer stacks.

    The encoder is tanh input-hidden-feature, the decoder tanh then sigmoid
    feature-hidden-input; the four layers draw from ``rng`` in that order.
    """
    encoder = [
        dense_init(input_dim, hidden_dim, "tanh", rng),
        dense_init(hidden_dim, feature_dim, "tanh", rng),
    ]
    decoder = [
        dense_init(feature_dim, hidden_dim, "tanh", rng),
        dense_init(hidden_dim, input_dim, "sigmoid", rng),
    ]
    return encoder, decoder


@dataclass
class FeatureExtractor:
    """A frozen encoder behind its model's patch preprocessing.

    ``preprocess`` maps raw byte-valued patch rows to encoder input;
    ``frozen`` lists the fixed arrays it reads, so that ``param_arrays``
    (and any checksum of them) covers everything the features depend on.
    """

    layers: list
    preprocess: object
    frozen: list = field(default_factory=list)

    def encode_patches(self, raw_patches):
        return mlp_forward(self.layers, self.preprocess(raw_patches))

    def param_arrays(self):
        return mlp_params(self.layers) + list(self.frozen)

    @property
    def feature_dim(self):
        return self.layers[-1].n_out


def minibatches(n, batch, seed, tag):
    """Index arrays for one shuffled pass over range(n); the last may be short.

    The order is drawn from the named sub-stream ``derive_seed(seed, tag)``.
    """
    if batch < 1:
        raise ValueError(f"batch must be at least 1, got {batch}")
    order = np.random.default_rng(derive_seed(seed, tag)).permutation(n)
    return (order[start : start + batch] for start in range(0, n, batch))


def fit(vector, learning_rate, n, batch, epochs, seed, tag, step, end_epoch=None):
    """Adam on shuffled minibatches of ``range(n)``; returns the per-epoch log.

    Epoch e draws ``minibatches(n, batch, seed, f"{tag}-{e}")``.  For each
    index array ``step(idx)`` returns the minibatch's losses, a dict of
    floats, and the gradient of ``vector`` (see ``param_vector``), which Adam
    updates in place.  A log entry holds each loss as its mean over the ``n``
    samples (minibatch values weighted by their size), their ``total``, and
    the entries of the dict ``end_epoch(epoch)`` returns, if it returns one.
    """
    adam = adam_init(vector, learning_rate)
    log = []
    for epoch in range(1, epochs + 1):
        sums = {}
        for idx in minibatches(n, batch, seed, f"{tag}-{epoch}"):
            losses, grad = step(idx)
            adam_step(adam, vector, grad, epoch)
            for key, value in losses.items():
                sums[key] = sums.get(key, 0.0) + value * len(idx)
        losses = {key: value / n for key, value in sums.items()}
        entry = {"epoch": epoch, "losses": losses, "total": sum(losses.values())}
        if end_epoch is not None:
            entry.update(end_epoch(epoch) or {})
        log.append(entry)
    return log


def param_checksum(arrays):
    """SHA-256 over the raw bytes of an ordered list of arrays."""
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return digest.hexdigest()
