"""Dense-tensor math with hand-written backward passes and the Adam optimizer.

Layers carry their parameters as plain numpy arrays, and a dense layer
computes in the dtype of its weights: ``dense_forward`` and
``dense_backward`` cast their input and upstream gradient to it.  Models,
their files, Adam and every evaluation path are 64-bit.  The MCAE and
baseline trainers follow mixed-precision training (Micikevicius et al.,
"Mixed Precision Training", arXiv 1710.03740): each step runs forward and
backward on a ``float32_layers`` copy of the float64 master weights, and
``adam_step`` applies the float32 gradients to the masters.  Gradients are
computed analytically and can be cross-checked against ``finite_diff_grad``
(the test oracle used throughout the suite), in float64.
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


def apply_activation(name, pre):
    if name == "tanh":
        return np.tanh(pre)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-pre))
    if name == "leaky_relu":
        return np.where(pre >= 0.0, pre, LEAKY_SLOPE * pre)
    if name == "linear":
        return pre
    _check_activation(name)


def activation_derivative(name, out):
    """d activation / d pre-activation, elementwise, from the activation output."""
    if name == "tanh":
        return 1.0 - out * out
    if name == "sigmoid":
        return out * (1.0 - out)
    if name == "leaky_relu":
        return np.where(out >= 0.0, out.dtype.type(1.0), out.dtype.type(LEAKY_SLOPE))
    if name == "linear":
        return np.ones_like(out)
    _check_activation(name)


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


def float32_layers(layers):
    """A float32 copy of a DenseLayer stack, for one mixed-precision training step."""
    return [
        DenseLayer(layer.weights.astype(np.float32), layer.bias.astype(np.float32),
                   layer.activation)
        for layer in layers
    ]


def dense_forward(layer, x):
    """Forward map for a batch (batch, in) -> (batch, out), in the weights' dtype."""
    x = np.asarray(x, dtype=layer.weights.dtype)
    if x.ndim != 2:
        raise ValueError(f"expected a batch of row vectors, got ndim={x.ndim}")
    if x.shape[1] != layer.n_in:
        raise ValueError(
            f"input dimension {x.shape[1]} does not match layer input {layer.n_in}"
        )
    pre = x @ layer.weights.T + layer.bias
    return apply_activation(layer.activation, pre)


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
    dpre = upstream * activation_derivative(layer.activation, out)
    grads = [dpre.T @ x, dpre.sum(axis=0)] if params else None
    return grads, dpre @ layer.weights if inputs else None


@dataclass
class Conv2dLayer:
    """2-d cross-correlation layer over (batch, channels, H, W) maps."""

    kernels: np.ndarray  # (out_ch, in_ch, k, k)
    bias: np.ndarray  # (out_ch,)
    padding: int = 0
    activation: str = "linear"

    def __post_init__(self):
        _check_activation(self.activation)
        if self.kernels.ndim != 4 or self.kernels.shape[2] != self.kernels.shape[3]:
            raise ValueError("kernels must have shape (out_ch, in_ch, k, k)")
        if self.kernels.shape[2] % 2 != 1:
            raise ValueError("kernel size must be odd")
        if self.bias.shape != (self.kernels.shape[0],):
            raise ValueError("bias length must equal out_ch")
        if self.padding < 0:
            raise ValueError("padding must be non-negative")

    @property
    def k(self):
        return self.kernels.shape[2]


def conv2d_init(in_ch, out_ch, k, rng, padding=None, activation="linear"):
    """Glorot-initialised convolution; padding defaults to 'same' ((k-1)/2)."""
    if padding is None:
        padding = (k - 1) // 2
    kernels = glorot_uniform(out_ch, in_ch, rng, receptive=k * k).reshape(
        out_ch, in_ch, k, k
    )
    return Conv2dLayer(kernels, np.zeros(out_ch), padding, activation)


def _im2col(x, k, padding):
    # x: (B, C, H, W) -> columns (B, H'*W', C*k*k) with H' = H+2p-k+1
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    b, c, out_h, out_w = windows.shape[:4]
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(b, out_h * out_w, c * k * k)
    return np.ascontiguousarray(cols), out_h, out_w


def _col2im(dcols, x_shape, k, padding):
    b, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    out_h, out_w = hp - k + 1, wp - k + 1
    dx = np.zeros((b, c, hp, wp))
    d6 = dcols.reshape(b, out_h, out_w, c, k, k)
    for i in range(k):
        for j in range(k):
            dx[:, :, i : i + out_h, j : j + out_w] += d6[:, :, :, :, i, j].transpose(
                0, 3, 1, 2
            )
    return dx[:, :, padding : padding + h, padding : padding + w]


def conv2d_forward(layer, x):
    """Cross-correlation with the layer's padding, then activation.

    Returns the output and the im2col matrix that ``conv2d_backward`` reuses.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ValueError("expected input of shape (batch, channels, H, W)")
    out_ch, in_ch, k, _ = layer.kernels.shape
    if x.shape[1] != in_ch:
        raise ValueError(f"input has {x.shape[1]} channels, layer expects {in_ch}")
    if x.shape[2] + 2 * layer.padding < k or x.shape[3] + 2 * layer.padding < k:
        raise ValueError("spatial dims (after padding) smaller than the kernel")
    cols, out_h, out_w = _im2col(x, k, layer.padding)
    pre = cols @ layer.kernels.reshape(out_ch, -1).T + layer.bias
    pre = pre.transpose(0, 2, 1).reshape(x.shape[0], out_ch, out_h, out_w)
    return apply_activation(layer.activation, pre), cols


def conv2d_backward(layer, x, upstream, out, cols):
    """Analytic gradients of ``conv2d_forward`` from its cached output and cols.

    Returns ``([dkernels, dbias], input gradient)``.
    """
    x = np.asarray(x, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != out.shape:
        raise ValueError(
            f"upstream gradient shape {upstream.shape} does not match output {out.shape}"
        )
    out_ch, in_ch, k, _ = layer.kernels.shape
    dpre = upstream * activation_derivative(layer.activation, out)
    b = x.shape[0]
    dpre_cols = dpre.reshape(b, out_ch, -1).transpose(0, 2, 1)  # (B, H'W', out_ch)
    dkern = np.einsum("bpo,bpc->oc", dpre_cols, cols).reshape(layer.kernels.shape)
    dbias = dpre_cols.sum(axis=(0, 1))
    dcols = dpre_cols @ layer.kernels.reshape(out_ch, -1)
    dx = _col2im(dcols, x.shape, k, layer.padding)
    return [dkern, dbias], dx


@dataclass
class AdamState:
    """Adam optimizer state for an ordered list of parameter arrays."""

    learning_rate: float
    step_count: int = 0
    first_moment: list = field(default_factory=list)
    second_moment: list = field(default_factory=list)
    scratch: list = field(default_factory=list)  # per parameter, two float64 arrays of its shape

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


def adam_init(params, learning_rate):
    """Adam state with zero moments for each array of the list ``params``."""
    state = AdamState(learning_rate)
    state.first_moment = [np.zeros_like(p) for p in params]
    state.second_moment = [np.zeros_like(p) for p in params]
    # the scratch arrays are views of two shared buffers, as large as the largest parameter
    buffers = [np.empty(max((p.size for p in params), default=0)) for _ in range(2)]
    state.scratch = [[buf[:p.size].reshape(p.shape) for buf in buffers] for p in params]
    return state


def adam_step(state, params, grads, epoch):
    """One Adam update with bias correction; the listed parameters are updated in place.

    Every gradient is checked before any state changes, so a step that raises
    leaves the parameters, the moments and the step count as they were.
    ``epoch`` is the caller's training epoch, named in the non-finite error.
    """
    if not len(params) == len(grads) == len(state.first_moment):
        raise ValueError("params, grads and the Adam moments must pair up")
    t = state.step_count + 1
    grads = [np.asarray(g) for g in grads]
    for i, (p, g) in enumerate(zip(params, grads)):
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {p.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError(
                f"non-finite gradient: parameter {i}, shape {p.shape}, step {t}, epoch {epoch}"
            )
    state.step_count = t
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for p, g, m, v, (term, denom) in zip(params, grads, state.first_moment, state.second_moment,
                                         state.scratch):
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
        term *= state.learning_rate
        term /= denom
        p -= term


def finite_diff_grad(f, x, h=1e-5, indices=None):
    """Central-difference gradient of a scalar function: the test oracle.

    ``indices`` restricts the differences to those flat positions (default:
    every element); the gradient stays zero elsewhere.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size) if indices is None else indices:
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError("function not finite at perturbed point")
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def max_relative_error(analytic, numeric, atol=1e-6):
    """max |a - n| / max(atol, |a|, |n|) over all elements."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(atol, np.maximum(np.abs(analytic), np.abs(numeric)))
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


def zero_grads(params):
    return [np.zeros_like(p) for p in params]


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


def fit(params, learning_rate, n, batch, epochs, seed, tag, step, end_epoch=None):
    """Adam on shuffled minibatches of ``range(n)``; returns the per-epoch log.

    Epoch e draws ``minibatches(n, batch, seed, f"{tag}-{e}")``.  For each
    index array ``step(idx)`` returns the minibatch's losses, a dict of
    floats, and gradients aligned with ``params``, which Adam updates in
    place.  A log entry holds each loss as its mean over the ``n`` samples
    (minibatch values weighted by their size), their ``total``, and the
    entries of the dict ``end_epoch(epoch)`` returns, if it returns one.
    """
    adam = adam_init(params, learning_rate)
    log = []
    for epoch in range(1, epochs + 1):
        sums = {}
        for idx in minibatches(n, batch, seed, f"{tag}-{epoch}"):
            losses, grads = step(idx)
            adam_step(adam, params, grads, epoch)
            del grads  # free this step's gradients before the next step makes its own
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
