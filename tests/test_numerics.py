import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from staininv.numerics import (
    ACTIVATIONS,
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_BLOCK,
    ADAM_EPSILON,
    LEAKY_SLOPE,
    DenseLayer,
    _activate_in_place,
    _times_derivative,
    adam_init,
    adam_step,
    conv2d_backward,
    conv2d_forward,
    dense_backward,
    dense_forward,
    dense_init,
    derive_seed,
    finite_diff_grad,
    fit,
    layers_on,
    max_relative_error,
    minibatches,
    mlp_backward,
    mlp_forward,
    mlp_params,
    param_vector,
    param_views,
)
from staininv.persist import layer_from_record, layer_record

GRAD_RTOL = 1e-4


def apply_activation(name, pre):
    """The reference form that ``_activate_in_place`` matches bit for bit."""
    if name == "tanh":
        return np.tanh(pre)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-pre))
    if name == "leaky_relu":
        return np.where(pre >= 0.0, pre, LEAKY_SLOPE * pre)
    if name == "linear":
        return pre
    raise ValueError(f"unknown activation {name!r}")


def activation_derivative(name, out):
    """d activation / d pre-activation, elementwise, from the activation output: the
    reference form that ``_times_derivative`` multiplies by, bit for bit."""
    if name == "tanh":
        return 1.0 - out * out
    if name == "sigmoid":
        return out * (1.0 - out)
    if name == "leaky_relu":
        return np.where(out >= 0.0, out.dtype.type(1.0), out.dtype.type(LEAKY_SLOPE))
    if name == "linear":
        return np.ones_like(out)
    raise ValueError(f"unknown activation {name!r}")


# --- the finite-difference oracle itself, against analytic gradients ---


def test_finite_diff_sum_of_squares():
    grad = finite_diff_grad(lambda v: float((v**2).sum()), np.array([1.0, 2.0]))
    assert np.allclose(grad, [2.0, 4.0], atol=1e-8)


def test_finite_diff_constant_function():
    grad = finite_diff_grad(lambda v: 3.5, np.array([0.3, -0.7, 2.0]))
    assert np.all(grad == 0.0)


def test_finite_diff_product():
    grad = finite_diff_grad(lambda v: float(v[0] * v[1]), np.array([3.0, 5.0]))
    assert np.allclose(grad, [5.0, 3.0], atol=1e-8)


def test_finite_diff_rejects_non_finite():
    with pytest.raises(ValueError):
        finite_diff_grad(lambda v: float("nan"), np.array([1.0]))


def test_derive_seed_stable_and_distinct():
    assert derive_seed(7, "a") == derive_seed(7, "a")
    assert derive_seed(7, "a") != derive_seed(7, "b")
    assert derive_seed(8, "a") != derive_seed(7, "a")


# --- dense layer ---


def test_dense_zero_input_zero_bias_tanh():
    layer = DenseLayer(np.ones((3, 4)), np.zeros(3), "tanh")
    out = dense_forward(layer, np.zeros((2, 4)))
    assert np.all(out == 0.0)


def test_dense_1x1_linear():
    layer = DenseLayer(np.array([[2.0]]), np.array([1.0]), "linear")
    assert dense_forward(layer, np.array([[3.0]]))[0, 0] == 7.0


def test_dense_sigmoid_range():
    # strict (0, 1) bounds; inputs kept below the float64 saturation point
    rng = np.random.default_rng(1)
    layer = dense_init(5, 4, "sigmoid", rng)
    out = dense_forward(layer, rng.uniform(-8.0, 8.0, size=(10, 5)))
    assert np.all(out > 0.0) and np.all(out < 1.0)


def test_dense_shape_mismatch():
    layer = DenseLayer(np.ones((2, 3)), np.zeros(2), "linear")
    with pytest.raises(ValueError):
        dense_forward(layer, np.ones((1, 4)))
    with pytest.raises(ValueError):
        x = np.ones((1, 3))
        dense_backward(layer, x, np.ones((1, 3)), out=dense_forward(layer, x))


def test_dense_backward_zero_upstream():
    rng = np.random.default_rng(2)
    layer = dense_init(4, 3, "tanh", rng)
    x = rng.normal(size=(5, 4))
    grads, dx = dense_backward(layer, x, np.zeros((5, 3)), out=dense_forward(layer, x))
    assert np.all(grads[0] == 0) and np.all(grads[1] == 0) and np.all(dx == 0)


def test_dense_backward_linear_outer_product():
    rng = np.random.default_rng(3)
    layer = dense_init(4, 3, "linear", rng)
    x = rng.normal(size=(1, 4))
    upstream = rng.normal(size=(1, 3))
    grads, _ = dense_backward(layer, x, upstream, out=dense_forward(layer, x))
    assert np.allclose(grads[0], np.outer(upstream[0], x[0]), atol=1e-12)


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_dense_backward_matches_finite_differences(activation):
    rng = np.random.default_rng(abs(hash(activation)) % 2**32)
    layer = dense_init(6, 4, activation, rng)
    x = rng.normal(size=(3, 6))
    weight = rng.normal(size=(3, 4))  # random projection to make a scalar loss

    # finite_diff_grad perturbs the passed array in place, so re-evaluating
    # the closure sees each perturbation
    def loss():
        return float((dense_forward(layer, x) * weight).sum())

    grads, dx = dense_backward(layer, x, weight, out=dense_forward(layer, x))
    for param, analytic in zip((layer.weights, layer.bias), grads):
        numeric = finite_diff_grad(lambda _v: loss(), param)
        assert max_relative_error(analytic, numeric) < GRAD_RTOL
    numeric = finite_diff_grad(lambda _v: loss(), x)
    assert max_relative_error(dx, numeric) < GRAD_RTOL


def test_activation_ranges_and_slope():
    rng = np.random.default_rng(4)
    x = rng.uniform(-8.0, 8.0, size=(20, 3))
    tanh_layer = DenseLayer(np.eye(3), np.zeros(3), "tanh")
    out = dense_forward(tanh_layer, x)
    assert np.all(out > -1.0) and np.all(out < 1.0)
    assert LEAKY_SLOPE == 0.01
    leaky = DenseLayer(np.eye(3), np.zeros(3), "leaky_relu")
    out = dense_forward(leaky, x)
    assert np.array_equal(out, np.where(x >= 0, x, LEAKY_SLOPE * x))


def test_leaky_slope_validation():
    # the slope is LEAKY_SLOPE for every layer: a layer record may restate it, no more
    record = layer_record(DenseLayer(np.eye(2), np.zeros(2), "leaky_relu"))
    assert isinstance(layer_from_record(record), DenseLayer)
    with pytest.raises(ValueError, match="leaky_slope"):
        layer_from_record({**record, "leaky_slope": 1.5})


# --- conv2d: a dense layer over each grid cell's 3x3 neighbourhood ---


def _conv(kernels, bias, activation="linear"):
    """The DenseLayer of (out, C, 3, 3) kernels, flattened channel-major."""
    return DenseLayer(kernels.reshape(kernels.shape[0], -1), bias, activation)


def test_conv2d_identity_kernel():
    kernel = np.zeros((1, 1, 3, 3))
    kernel[0, 0, 1, 1] = 1.0
    layer = _conv(kernel, np.zeros(1))
    x = np.random.default_rng(5).normal(size=(2, 6, 7, 1))
    assert np.allclose(conv2d_forward(layer, x)[0], x, atol=1e-12)


def test_conv2d_ones_kernel_counts_in_grid_taps():
    # zero padding: a corner cell sees 4 taps inside the grid, an edge cell 6, the rest 9
    out = conv2d_forward(_conv(np.ones((1, 1, 3, 3)), np.zeros(1)), np.ones((1, 5, 5, 1)))[0]
    expected = np.full((5, 5), 9.0)
    expected[[0, -1], :] = 6.0
    expected[:, [0, -1]] = 6.0
    expected[[0, 0, -1, -1], [0, -1, 0, -1]] = 4.0
    assert out.shape == (1, 5, 5, 1)
    assert np.array_equal(out[0, :, :, 0], expected)


def test_conv2d_matches_brute_force_loop_over_offsets():
    # each of the 9 offsets of the zero-padded grid meets its (C, 3, 3) kernel tap,
    # which pins the channel-major column order of the neighbourhood rows
    rng = np.random.default_rng(11)
    kernels, bias = rng.normal(size=(4, 3, 3, 3)), rng.normal(size=4)
    x = rng.normal(size=(2, 5, 6, 3))
    padded = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    expected = np.broadcast_to(bias, (2, 5, 6, 4)).copy()
    for i in range(3):
        for j in range(3):
            expected += padded[:, i : i + 5, j : j + 6] @ kernels[:, :, i, j].T
    out, rows = conv2d_forward(_conv(kernels, bias), x)
    assert np.max(np.abs(out - expected)) < 1e-12
    assert rows.shape == (2 * 5 * 6, 3 * 9)


def test_conv2d_channel_mismatch():
    layer = dense_init(2 * 9, 3, "linear", np.random.default_rng(6))
    with pytest.raises(ValueError, match="channels"):
        conv2d_forward(layer, np.ones((1, 5, 5, 4)))


@pytest.mark.parametrize("activation", ["linear", "leaky_relu", "tanh"])
def test_conv2d_backward_matches_finite_differences(activation):
    rng = np.random.default_rng(7)
    layer = dense_init(2 * 9, 3, activation, rng)
    x = rng.normal(size=(2, 4, 5, 2))
    weight = rng.normal(size=(2, 4, 5, 3))

    def loss():
        return float((conv2d_forward(layer, x)[0] * weight).sum())

    out, rows = conv2d_forward(layer, x)
    grads, dx = conv2d_backward(layer, rows, weight, out)
    numeric = finite_diff_grad(lambda _v: loss(), layer.weights)
    assert max_relative_error(grads[0], numeric) < GRAD_RTOL
    numeric = finite_diff_grad(lambda _v: loss(), layer.bias)
    assert max_relative_error(grads[1], numeric) < GRAD_RTOL
    numeric = finite_diff_grad(lambda _v: loss(), x)
    assert max_relative_error(dx, numeric) < GRAD_RTOL
    assert conv2d_backward(layer, rows, weight, out, inputs=False)[1] is None


def test_conv2d_validation():
    with pytest.raises(ValueError):
        _conv(np.ones((1, 1, 3, 3)), np.zeros(2))  # bias length
    with pytest.raises(ValueError, match="9 per channel"):
        conv2d_forward(DenseLayer(np.ones((1, 10)), np.zeros(1)), np.ones((1, 4, 4, 1)))
    with pytest.raises(ValueError, match="batch, h, w"):
        conv2d_forward(_conv(np.ones((1, 1, 3, 3)), np.zeros(1)), np.ones((4, 4, 1)))


# --- adam ---


def test_adam_zero_gradient_is_fixed_point():
    vector = np.array([1.0, -2.0, 3.0])
    state = adam_init(vector, learning_rate=0.1)
    for _ in range(5):
        adam_step(state, vector, np.zeros(3), 1)
    assert vector.tolist() == [1.0, -2.0, 3.0]
    assert state.step_count == 5


def test_adam_first_step_size():
    # with g = 1, m_hat / (sqrt(v_hat) + eps) == 1 / (1 + eps) on step one
    assert ADAM_EPSILON == 1e-8
    vector = np.array([0.5])
    state = adam_init(vector, learning_rate=0.1)
    adam_step(state, vector, np.array([1.0]), 1)
    assert vector[0] == pytest.approx(0.5 - 0.1, abs=1e-8)


def test_adam_constant_gradient_monotone():
    vector = np.array([1.0])
    state = adam_init(vector, learning_rate=0.05)
    values = [vector[0]]
    for _ in range(3):
        adam_step(state, vector, np.array([2.0]), 1)
        values.append(vector[0])
    assert values[0] > values[1] > values[2] > values[3]


def test_adam_rejects_non_finite_and_mismatched():
    vector = np.array([1.0])
    state = adam_init(vector, learning_rate=0.1)
    with pytest.raises(ValueError, match="non-finite"):
        adam_step(state, vector, np.array([float("nan")]), 1)
    with pytest.raises(ValueError, match=r"gradient of shape \(2,\)"):
        adam_step(state, vector, np.array([1.0, 2.0]), 1)
    with pytest.raises(ValueError, match="learning_rate must be positive"):
        adam_init(vector, learning_rate=0.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(ACTIVATIONS))
def test_property_dense_gradient_check(seed, activation):
    rng = np.random.default_rng(seed)
    layer = dense_init(3, 2, activation, rng)
    x = rng.normal(size=(2, 3))
    if activation == "leaky_relu":
        # keep pre-activations away from the kink, where central differences
        # do not estimate the one-sided derivative
        assume(np.abs(x @ layer.weights.T + layer.bias).min() > 1e-3)
    weight = rng.normal(size=(2, 2))
    grads, _ = dense_backward(layer, x, weight, out=dense_forward(layer, x))
    numeric = finite_diff_grad(
        lambda _v: float((dense_forward(layer, x) * weight).sum()), layer.weights
    )
    assert max_relative_error(grads[0], numeric) < GRAD_RTOL


# --- the shared MLP core and minibatch iterator ---


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_mlp_backward_accumulates_finite_difference_gradients(activation):
    # two backward calls add into one flat grads list, as CycleGAN relies on
    rng = np.random.default_rng(21)
    layers = [dense_init(4, 3, activation, rng), dense_init(3, 2, activation, rng)]
    batches = [(rng.normal(size=(3, 4)), rng.normal(size=(3, 2))),
               (rng.normal(size=(2, 4)), rng.normal(size=(2, 2)))]

    def loss(_v=None):
        return sum(float((mlp_forward(layers, x) * w).sum()) for x, w in batches)

    params = mlp_params(layers)
    grads = param_views(layers)
    for x, w in batches:
        caches = []
        mlp_forward(layers, x, caches)
        dx = mlp_backward(layers, caches, w, grads)
    for param, grad in zip(params, grads):
        numeric = finite_diff_grad(loss, param)
        assert max_relative_error(grad, numeric) < GRAD_RTOL
    x_last, w_last = batches[-1]
    numeric = finite_diff_grad(
        lambda v: float((mlp_forward(layers, v) * w_last).sum()), x_last
    )
    assert max_relative_error(dx, numeric) < GRAD_RTOL

    caches = []
    mlp_forward(layers, x_last, caches)
    assert np.array_equal(mlp_backward(layers, caches, w_last), dx)


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_mlp_backward_skips_only_discarded_work(activation):
    rng = np.random.default_rng(22)
    layers = [dense_init(4, 3, activation, rng), dense_init(3, 2, activation, rng)]
    x, w = rng.normal(size=(5, 4)), rng.normal(size=(5, 2))
    caches = []
    mlp_forward(layers, x, caches)
    full = param_views(layers)
    dx = mlp_backward(layers, caches, w, full)
    params_only = param_views(layers)
    assert mlp_backward(layers, caches, w, params_only, input_grad=False) is None
    assert all(np.array_equal(a, b) for a, b in zip(full, params_only))
    assert np.array_equal(mlp_backward(layers, caches, w), dx)
    grads, d_input = dense_backward(layers[0], x, np.ones((5, 3)), caches[0][1],
                                    params=False, inputs=False)
    assert grads is None and d_input is None


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_dense_layer_computes_in_its_weights_dtype(activation):
    rng = np.random.default_rng(23)
    master = [dense_init(4, 3, activation, rng), dense_init(3, 2, activation, rng)]
    before = [p.copy() for p in mlp_params(master)]
    vector = param_vector(master)
    mirror = vector.astype(np.float32)
    layers = layers_on(master, mirror)
    assert all(p.dtype == np.float32 for p in mlp_params(layers))
    assert all(np.array_equal(p, q.astype(np.float32)) for p, q in zip(mlp_params(layers), before))
    layers[0].weights += 1.0  # a copy: the float64 masters do not move
    assert all(np.array_equal(p, q) for p, q in zip(mlp_params(master), before))
    np.copyto(mirror, vector)  # one copy refreshes every layer of the mirror
    assert all(np.array_equal(p, q.astype(np.float32)) for p, q in zip(mlp_params(layers), before))

    x, w = rng.normal(size=(5, 4)), rng.normal(size=(5, 2))  # float64 in, float32 out
    caches = []
    out = mlp_forward(layers, x, caches)
    grads = param_views(layers)
    dx = mlp_backward(layers, caches, w, grads)
    assert out.dtype == dx.dtype == np.float32
    assert all(g.dtype == np.float32 for g in grads)
    assert np.allclose(out, mlp_forward(master, x), rtol=1e-5, atol=1e-6)


def test_leaky_relu_derivative_is_one_at_signed_zero():
    out = apply_activation("leaky_relu", np.array([0.0, -0.0]))
    assert np.array_equal(activation_derivative("leaky_relu", out), [1.0, 1.0])


def test_minibatches_partition_with_short_last_batch():
    batches = list(minibatches(10, 4, seed=5, tag="shuffle-1"))
    assert [len(b) for b in batches] == [4, 4, 2]
    assert sorted(np.concatenate(batches).tolist()) == list(range(10))
    again = np.concatenate(list(minibatches(10, 4, seed=5, tag="shuffle-1")))
    assert np.array_equal(np.concatenate(batches), again)
    other = np.concatenate(list(minibatches(10, 4, seed=5, tag="shuffle-2")))
    assert not np.array_equal(again, other)


@pytest.mark.parametrize("batch", [0, -3])
def test_minibatches_reject_non_positive_batch(batch):
    with pytest.raises(ValueError, match="batch"):
        minibatches(10, batch, seed=0, tag="shuffle-1")


def test_fit_weights_losses_by_batch_size_and_steps_once_per_batch():
    vector = np.array([1.0])
    sizes = []

    def step(idx):
        sizes.append(len(idx))
        return {"mean_index": float(np.mean(idx)), "one": 1.0}, np.ones(1)

    log = fit(vector, 0.1, n=5, batch=2, epochs=2, seed=3, tag="t", step=step,
              end_epoch=lambda epoch: {"extra": 10 * epoch} if epoch == 1 else None)
    assert sizes == [2, 2, 1, 2, 2, 1]
    # the short last batch weighs one sample, not two: (0 + 1 + 2 + 3 + 4) / 5
    assert log == [
        {"epoch": 1, "losses": {"mean_index": 2.0, "one": 1.0}, "total": 3.0, "extra": 10},
        {"epoch": 2, "losses": {"mean_index": 2.0, "one": 1.0}, "total": 3.0},
    ]
    # one Adam step per minibatch, six in all
    expected = np.array([1.0])
    adam = adam_init(expected, 0.1)
    for epoch in (1, 1, 1, 2, 2, 2):
        adam_step(adam, expected, np.ones(1), epoch)
    assert vector[0] == expected[0] == pytest.approx(1.0 - 6 * 0.1)


def test_fit_with_no_epochs_leaves_parameters_alone():
    vector = np.array([1.0, 2.0])

    def never(_):
        raise AssertionError("called without an epoch")

    assert fit(vector, 0.1, 5, 2, 0, 0, "t", never, end_epoch=never) == []
    assert vector.tolist() == [1.0, 2.0]


def test_adam_failed_step_changes_no_state():
    # the first three gradient elements are fine, a later one is not: nothing may move
    vector = np.arange(9.0)
    state = adam_init(vector, learning_rate=0.1)
    adam_step(state, vector, np.full(9, 0.5), 1)
    snapshot = [a.copy() for a in (vector, state.first_moment, state.second_moment)]
    bad = np.ones(9)
    bad[7] = np.nan
    for grad in (bad, np.ones(4), np.ones((3, 3))):
        with pytest.raises(ValueError):
            adam_step(state, vector, grad, 2)
        assert state.step_count == 1
        for before, after in zip(snapshot, (vector, state.first_moment, state.second_moment)):
            assert np.array_equal(before, after)


def test_adam_step_matches_the_update_expression_bit_for_bit():
    rng = np.random.default_rng(3)
    vector = rng.normal(size=44)
    expected, m, v = vector.copy(), np.zeros(44), np.zeros(44)
    state = adam_init(vector, learning_rate=0.003)
    for t in range(1, 6):
        # float32 gradients, as the mixed-precision trainers pass them, and float64 ones
        dtype = np.float32 if t % 2 else np.float64
        grad = rng.normal(scale=10.0 ** -t, size=44).astype(dtype)
        adam_step(state, vector, grad, 1)
        bc1, bc2 = 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t
        g = np.asarray(grad, dtype=np.float64)
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        expected -= 0.003 * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPSILON)
    for actual, reference in zip((vector, state.first_moment, state.second_moment),
                                 (expected, m, v)):
        assert actual.tobytes() == reference.tobytes()


def test_adam_non_finite_error_names_the_epoch():
    vector = np.zeros(2)
    state = adam_init(vector, learning_rate=0.1)
    adam_step(state, vector, np.ones(2), 6)
    with pytest.raises(ValueError, match=r"step 2, epoch 7$"):
        adam_step(state, vector, np.array([1.0, np.nan]), 7)


# --- the in-place dense core against the reference forms ---


def _edge_inputs(dtype):
    """Signed zeros, saturating and tiny magnitudes, and ordinary values, in ``dtype``."""
    big = 0.5 * np.finfo(dtype).max
    tiny = np.finfo(dtype).tiny
    values = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 20.0, -20.0, 100.0, -100.0, 1e4, -1e4,
              big, -big, tiny, -tiny, tiny / 4, -tiny / 4, np.inf, -np.inf]
    rng = np.random.default_rng(31)
    return np.concatenate([np.array(values), rng.normal(scale=3.0, size=44)]).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_in_place_activation_forms_match_the_reference_bit_for_bit(activation, dtype):
    pre = _edge_inputs(dtype).reshape(8, 8)
    with np.errstate(over="ignore"):  # exp(-pre) overflows at the saturating inputs
        reference = apply_activation(activation, pre)
        out = _activate_in_place(activation, pre.copy())
    assert out.dtype == reference.dtype == dtype
    assert out.tobytes() == reference.tobytes()

    upstream = np.roll(_edge_inputs(dtype), 3)[:64].reshape(8, 8)
    upstream = np.where(np.isfinite(upstream), upstream, 2.0).astype(dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = upstream * activation_derivative(activation, reference)
        dpre = _times_derivative(activation, upstream, reference)
    assert dpre.dtype == expected.dtype == dtype
    assert dpre.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_dense_forward_and_backward_match_the_reference_expressions(activation, dtype):
    rng = np.random.default_rng(32)
    layer = dense_init(6, 5, activation, rng)
    layer = DenseLayer(layer.weights.astype(dtype), rng.normal(size=5).astype(dtype), activation)
    x = rng.normal(scale=4.0, size=(7, 6)).astype(dtype)
    upstream = rng.normal(size=(7, 5)).astype(dtype)
    out = dense_forward(layer, x)
    assert out.tobytes() == apply_activation(activation, x @ layer.weights.T + layer.bias).tobytes()
    (dw, db), dx = dense_backward(layer, x, upstream, out)
    dpre = upstream * activation_derivative(activation, out)
    for actual, expected in ((dw, dpre.T @ x), (db, dpre.sum(axis=0)), (dx, dpre @ layer.weights)):
        assert actual.dtype == dtype
        assert actual.tobytes() == expected.tobytes()


# --- one parameter vector per optimiser ---


def test_param_vector_rebinds_each_layer_as_views_of_one_vector():
    rng = np.random.default_rng(33)
    layers = [dense_init(4, 3, "tanh", rng), dense_init(3, 2, "sigmoid", rng)]
    before = [p.copy() for p in mlp_params(layers)]
    vector = param_vector(layers)
    assert vector.shape == (sum(p.size for p in before),) and vector.dtype == np.float64
    assert np.array_equal(vector, np.concatenate([p.reshape(-1) for p in before]))
    for param, old in zip(mlp_params(layers), before):
        assert np.shares_memory(param, vector) and np.array_equal(param, old)
    vector -= 1.0  # an update of the vector is an update of the layers
    assert np.array_equal(layers[1].bias, before[3] - 1.0)

    grad = np.arange(vector.size, dtype=np.float32)
    views = param_views(layers, grad)
    assert [v.shape for v in views] == [p.shape for p in before]
    assert all(v.dtype == np.float32 and np.shares_memory(v, grad) for v in views)
    assert np.array_equal(np.concatenate([v.reshape(-1) for v in views]), grad)
    fresh = param_views(layers)
    assert all(v.dtype == np.float64 and not v.any() for v in fresh)
    with pytest.raises(ValueError, match="does not hold"):
        param_views(layers, grad[1:])


def test_adam_walks_a_vector_longer_than_its_block_bit_for_bit():
    # blocks of ADAM_BLOCK elements and a short last one give the whole-array expression's bits
    rng = np.random.default_rng(34)
    size = 2 * ADAM_BLOCK + 7
    vector = rng.normal(size=size)
    expected, m, v = vector.copy(), np.zeros(size), np.zeros(size)
    state = adam_init(vector, learning_rate=0.002)
    assert all(buf.size == ADAM_BLOCK for buf in state.scratch)
    for t in range(1, 4):
        grad = rng.normal(scale=10.0 ** -t, size=size).astype(np.float32)
        adam_step(state, vector, grad, 1)
        g = grad.astype(np.float64)
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
        bc1, bc2 = 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t
        expected -= 0.002 * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPSILON)
    assert vector.tobytes() == expected.tobytes()
    assert state.first_moment.tobytes() == m.tobytes()
    assert state.second_moment.tobytes() == v.tobytes()


def test_adam_non_finite_error_names_the_flat_index_of_the_first_fault():
    # a whole model is one vector: the index says where in it the fault is
    vector = np.zeros(3 * ADAM_BLOCK)
    state = adam_init(vector, learning_rate=0.1)
    grad = np.ones(vector.size, np.float32)
    grad[ADAM_BLOCK + 5] = np.nan
    grad[2 * ADAM_BLOCK] = np.inf
    with pytest.raises(ValueError,
                       match=rf"first at flat index {ADAM_BLOCK + 5}, step 1, epoch 4$"):
        adam_step(state, vector, grad, 4)
    assert state.step_count == 0 and not vector.any()


def test_adam_refuses_a_parameter_it_cannot_walk_in_place():
    # a strided view cannot be walked in flat blocks that are views of it
    vector = np.zeros(6)
    state = adam_init(vector, learning_rate=0.1)
    strided = np.zeros(12)[::2]
    named = r"float64 vector, not a ndarray of shape \(6,\), dtype float64, strides \(16,\)$"
    with pytest.raises(ValueError, match=named):
        adam_init(strided, learning_rate=0.1)
    with pytest.raises(ValueError, match=named):
        adam_step(state, strided, np.ones(6), 1)
    assert state.step_count == 0 and not strided.any()


def test_adam_takes_one_vector_and_names_the_shape_of_anything_else():
    # a list of arrays, a 2-d array and a float32 vector are each refused
    vector = np.zeros(6)
    state = adam_init(vector, learning_rate=0.1)
    for bad, named in (
        ([vector], r"list of shape \(1, 6\)$"),
        (vector.reshape(2, 3), r"ndarray of shape \(2, 3\), dtype float64"),
        (vector.astype(np.float32), r"ndarray of shape \(6,\), dtype float32"),
    ):
        with pytest.raises(ValueError, match="C-contiguous float64 vector, not a " + named):
            adam_init(bad, learning_rate=0.1)
        with pytest.raises(ValueError, match="C-contiguous float64 vector, not a " + named):
            adam_step(state, bad, np.ones(6), 1)
    assert state.step_count == 0 and not vector.any()
