import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from staininv.numerics import (
    ACTIVATIONS,
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    LEAKY_SLOPE,
    Conv2dLayer,
    DenseLayer,
    adam_init,
    activation_derivative,
    adam_step,
    apply_activation,
    conv2d_backward,
    conv2d_forward,
    conv2d_init,
    dense_backward,
    dense_forward,
    dense_init,
    derive_seed,
    finite_diff_grad,
    fit,
    float32_layers,
    max_relative_error,
    minibatches,
    mlp_backward,
    mlp_forward,
    mlp_params,
    zero_grads,
)
from staininv.persist import layer_from_record, layer_record

GRAD_RTOL = 1e-4
GRAD_ATOL = 1e-6


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
        assert max_relative_error(analytic, numeric, GRAD_ATOL) < GRAD_RTOL
    numeric = finite_diff_grad(lambda _v: loss(), x)
    assert max_relative_error(dx, numeric, GRAD_ATOL) < GRAD_RTOL


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


# --- conv2d ---


def test_conv2d_identity_kernel():
    kernel = np.zeros((1, 1, 3, 3))
    kernel[0, 0, 1, 1] = 1.0
    layer = Conv2dLayer(kernel, np.zeros(1), padding=1, activation="linear")
    x = np.random.default_rng(5).normal(size=(2, 1, 6, 7))
    assert np.allclose(conv2d_forward(layer, x)[0], x, atol=1e-12)


def test_conv2d_ones_kernel_valid():
    layer = Conv2dLayer(np.ones((1, 1, 3, 3)), np.zeros(1), padding=0, activation="linear")
    out = conv2d_forward(layer, np.ones((1, 1, 5, 5)))[0]
    assert out.shape == (1, 1, 3, 3)
    assert np.all(out == 9.0)


def test_conv2d_channel_mismatch():
    rng = np.random.default_rng(6)
    layer = conv2d_init(2, 3, 3, rng)
    with pytest.raises(ValueError):
        conv2d_forward(layer, np.ones((1, 4, 5, 5)))


@pytest.mark.parametrize("activation", ["linear", "leaky_relu", "tanh"])
def test_conv2d_backward_matches_finite_differences(activation):
    rng = np.random.default_rng(7)
    layer = conv2d_init(2, 3, 3, rng, padding=1, activation=activation)
    x = rng.normal(size=(2, 2, 4, 5))
    weight = rng.normal(size=(2, 3, 4, 5))

    def loss():
        return float((conv2d_forward(layer, x)[0] * weight).sum())

    out, cols = conv2d_forward(layer, x)
    grads, dx = conv2d_backward(layer, x, weight, out=out, cols=cols)
    numeric = finite_diff_grad(lambda _v: loss(), layer.kernels)
    assert max_relative_error(grads[0], numeric, GRAD_ATOL) < GRAD_RTOL
    numeric = finite_diff_grad(lambda _v: loss(), layer.bias)
    assert max_relative_error(grads[1], numeric, GRAD_ATOL) < GRAD_RTOL
    numeric = finite_diff_grad(lambda _v: loss(), x)
    assert max_relative_error(dx, numeric, GRAD_ATOL) < GRAD_RTOL


def test_conv2d_validation():
    with pytest.raises(ValueError):
        Conv2dLayer(np.ones((1, 1, 2, 2)), np.zeros(1))  # even kernel
    with pytest.raises(ValueError):
        Conv2dLayer(np.ones((1, 1, 3, 3)), np.zeros(2))  # bias length


# --- adam ---


def test_adam_zero_gradient_is_fixed_point():
    params = [np.array([1.0, -2.0, 3.0])]
    state = adam_init(params, learning_rate=0.1)
    before = params[0].copy()
    for _ in range(5):
        adam_step(state, params, [np.zeros(3)], 1)
    assert np.all(params[0] == before)
    assert state.step_count == 5


def test_adam_first_step_size():
    # with g = 1, m_hat / (sqrt(v_hat) + eps) == 1 / (1 + eps) on step one
    assert ADAM_EPSILON == 1e-8
    param = np.array([0.5])
    state = adam_init([param], learning_rate=0.1)
    adam_step(state, [param], [np.array([1.0])], 1)
    assert param[0] == pytest.approx(0.5 - 0.1, abs=1e-8)


def test_adam_constant_gradient_monotone():
    param = np.array([1.0])
    state = adam_init([param], learning_rate=0.05)
    values = [param[0]]
    for _ in range(3):
        adam_step(state, [param], [np.array([2.0])], 1)
        values.append(param[0])
    assert values[0] > values[1] > values[2] > values[3]


def test_adam_rejects_non_finite_and_mismatched():
    param = np.array([1.0])
    state = adam_init([param], learning_rate=0.1)
    with pytest.raises(ValueError):
        adam_step(state, [param], [np.array([float("nan")])], 1)
    with pytest.raises(ValueError):
        adam_step(state, [param], [np.array([1.0, 2.0])], 1)


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
    assert max_relative_error(grads[0], numeric, GRAD_ATOL) < GRAD_RTOL


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
    grads = zero_grads(params)
    for x, w in batches:
        caches = []
        mlp_forward(layers, x, caches)
        dx = mlp_backward(layers, caches, w, grads)
    for param, grad in zip(params, grads):
        numeric = finite_diff_grad(loss, param)
        assert max_relative_error(grad, numeric, GRAD_ATOL) < GRAD_RTOL
    x_last, w_last = batches[-1]
    numeric = finite_diff_grad(
        lambda v: float((mlp_forward(layers, v) * w_last).sum()), x_last
    )
    assert max_relative_error(dx, numeric, GRAD_ATOL) < GRAD_RTOL

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
    full = zero_grads(mlp_params(layers))
    dx = mlp_backward(layers, caches, w, full)
    params_only = zero_grads(mlp_params(layers))
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
    layers = float32_layers(master)
    assert all(p.dtype == np.float32 for p in mlp_params(layers))
    assert all(np.array_equal(p, q.astype(np.float32)) for p, q in zip(mlp_params(layers), before))
    layers[0].weights += 1.0  # a copy: the float64 masters do not move
    assert all(np.array_equal(p, q) for p, q in zip(mlp_params(master), before))
    layers = float32_layers(master)

    x, w = rng.normal(size=(5, 4)), rng.normal(size=(5, 2))  # float64 in, float32 out
    caches = []
    out = mlp_forward(layers, x, caches)
    grads = zero_grads(mlp_params(layers))
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
    param = np.array([1.0])
    sizes = []

    def step(idx):
        sizes.append(len(idx))
        return {"mean_index": float(np.mean(idx)), "one": 1.0}, [np.ones(1)]

    log = fit([param], 0.1, n=5, batch=2, epochs=2, seed=3, tag="t", step=step,
              end_epoch=lambda epoch: {"extra": 10 * epoch} if epoch == 1 else None)
    assert sizes == [2, 2, 1, 2, 2, 1]
    # the short last batch weighs one sample, not two: (0 + 1 + 2 + 3 + 4) / 5
    assert log == [
        {"epoch": 1, "losses": {"mean_index": 2.0, "one": 1.0}, "total": 3.0, "extra": 10},
        {"epoch": 2, "losses": {"mean_index": 2.0, "one": 1.0}, "total": 3.0},
    ]
    # one Adam step per minibatch, six in all
    expected = np.array([1.0])
    adam = adam_init([expected], 0.1)
    for epoch in (1, 1, 1, 2, 2, 2):
        adam_step(adam, [expected], [np.ones(1)], epoch)
    assert param[0] == expected[0] == pytest.approx(1.0 - 6 * 0.1)


def test_fit_with_no_epochs_leaves_parameters_alone():
    param = np.array([1.0, 2.0])

    def never(_):
        raise AssertionError("called without an epoch")

    assert fit([param], 0.1, 5, 2, 0, 0, "t", never, end_epoch=never) == []
    assert param.tolist() == [1.0, 2.0]


def test_adam_non_finite_error_names_parameter_shape_and_step():
    params = [np.zeros(3), np.zeros((2, 3))]
    state = adam_init(params, learning_rate=0.1)
    adam_step(state, params, [np.ones(3), np.ones((2, 3))], 1)
    bad = np.ones((2, 3))
    bad[1, 2] = np.inf
    with pytest.raises(ValueError, match=r"parameter 1, shape \(2, 3\), step 2"):
        adam_step(state, params, [np.ones(3), bad], 1)


def test_adam_failed_step_changes_no_state():
    # parameter 0's gradient is fine, parameter 1's is not: nothing may move
    params = [np.arange(3.0), np.ones((2, 3))]
    state = adam_init(params, learning_rate=0.1)
    adam_step(state, params, [np.ones(3), np.full((2, 3), 0.5)], 1)
    snapshot = [a.copy() for a in params + state.first_moment + state.second_moment]
    bad = np.ones((2, 3))
    bad[0, 1] = np.nan
    for grads in ([np.ones(3), bad], [np.ones(3), np.ones(4)]):
        with pytest.raises(ValueError):
            adam_step(state, params, grads, 2)
        assert state.step_count == 1
        for before, after in zip(snapshot, params + state.first_moment + state.second_moment):
            assert np.array_equal(before, after)


def test_adam_step_matches_the_update_expression_bit_for_bit():
    rng = np.random.default_rng(3)
    params = [rng.normal(size=(7, 5)), rng.normal(size=5), rng.normal(size=(2, 2))]
    expected = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    state = adam_init(params, learning_rate=0.003)
    for t in range(1, 6):
        # float32 gradients, as the mixed-precision trainers pass them, and float64 ones
        dtype = np.float32 if t % 2 else np.float64
        grads = [rng.normal(scale=10.0 ** -t, size=p.shape).astype(dtype) for p in params]
        adam_step(state, params, grads, 1)
        bc1, bc2 = 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t
        for p, g, mi, vi in zip(expected, grads, m, v):
            g = np.asarray(g, dtype=np.float64)
            mi *= ADAM_BETA1
            mi += (1.0 - ADAM_BETA1) * g
            vi *= ADAM_BETA2
            vi += (1.0 - ADAM_BETA2) * (g * g)
            p -= 0.003 * (mi / bc1) / (np.sqrt(vi / bc2) + ADAM_EPSILON)
    for actual, reference in zip(params + state.first_moment + state.second_moment,
                                 expected + m + v):
        assert actual.tobytes() == reference.tobytes()


def test_adam_non_finite_error_names_the_epoch():
    param = np.zeros(2)
    state = adam_init([param], learning_rate=0.1)
    adam_step(state, [param], [np.ones(2)], 6)
    with pytest.raises(ValueError, match=r"step 2, epoch 7$"):
        adam_step(state, [param], [np.array([1.0, np.nan])], 7)
