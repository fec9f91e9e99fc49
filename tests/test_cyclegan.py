import math

import numpy as np
import pytest

from staininv.cyclegan import (
    LAMBDA1,
    LAMBDA2,
    CycleGanConfig,
    _discriminator_pass,
    _generator_pass,
    cycle_loss,
    discriminate,
    discriminator_init,
    full_objective,
    gan_loss,
    generator_init,
    identity_loss,
    train_cyclegan,
)
from staininv.numerics import (
    DenseLayer,
    adam_init,
    adam_step,
    dense_init,
    finite_diff_grad,
    max_relative_error,
    mlp_forward,
    mlp_params,
    param_vector,
    param_views,
)


def _identity_generator(dim):
    # one linear layer wired to the identity map
    return [DenseLayer(np.eye(dim), np.zeros(dim), "linear")]


# --- loss values ---


def test_gan_loss_supremum_near_zero():
    assert gan_loss([1.0 - 1e-9] * 4, [1e-9] * 4) == pytest.approx(0.0, abs=1e-8)


def test_gan_loss_at_half():
    assert gan_loss([0.5, 0.5], [0.5, 0.5]) == pytest.approx(2.0 * math.log(0.5), rel=1e-12)


def test_gan_loss_batch_order_invariant():
    rng = np.random.default_rng(0)
    real, fake = rng.uniform(0.1, 0.9, 8), rng.uniform(0.1, 0.9, 8)
    perm = rng.permutation(8)
    assert gan_loss(real, fake) == pytest.approx(gan_loss(real[perm], fake[perm]), rel=1e-12)


def test_gan_loss_rejects_out_of_range():
    with pytest.raises(ValueError):
        gan_loss([0.5, 1.2], [0.5])
    with pytest.raises(ValueError):
        gan_loss([0.5], [-0.1])


def test_gan_loss_bounded_above_by_zero():
    rng = np.random.default_rng(1)
    for _ in range(20):
        assert gan_loss(rng.uniform(0, 1, 5), rng.uniform(0, 1, 5)) <= 0.0


def test_identity_loss_zero_for_identity_generators():
    f, g = _identity_generator(6), _identity_generator(6)
    rng = np.random.default_rng(2)
    assert identity_loss(f, g, rng.uniform(0, 1, (4, 6)), rng.uniform(0, 1, (4, 6))) == 0.0


def test_identity_loss_offset_generator():
    dim = 48
    g = [DenseLayer(np.eye(dim), np.full(dim, 0.1), "linear")]
    f = _identity_generator(dim)
    rng = np.random.default_rng(3)
    a, b = rng.uniform(0, 1, (5, dim)), rng.uniform(0, 1, (5, dim))
    # G(a) = a + 0.1 elementwise: per-sample l1 sum is 4.8; F is ideal on b
    assert identity_loss(f, g, a, b) == pytest.approx(4.8, rel=1e-12)


def test_identity_loss_non_negative():
    rng = np.random.default_rng(4)
    f = generator_init(6, rng)
    g = generator_init(6, rng)
    assert identity_loss(f, g, rng.uniform(0, 1, (3, 6)), rng.uniform(0, 1, (3, 6))) >= 0.0


def test_cycle_loss_zero_for_mutual_inverses():
    f, g = _identity_generator(5), _identity_generator(5)
    rng = np.random.default_rng(5)
    assert cycle_loss(f, g, rng.uniform(0, 1, (3, 5)), rng.uniform(0, 1, (3, 5))) == 0.0


def test_cycle_loss_two_point_hand_composition():
    # F doubles, G halves on one axis: cycles are exact, so only compose once
    dim = 2
    f = [DenseLayer(2.0 * np.eye(dim), np.zeros(dim), "linear")]
    g = [DenseLayer(np.eye(dim), np.full(dim, 0.25), "linear")]
    a = np.array([[0.2, 0.4]])
    b = np.array([[0.6, 0.8]])
    # G(F(a)) = 2a + 0.25 -> |a + 0.25|_1 = sum(a) + 0.5
    # F(G(b)) = 2b + 0.5 -> |b + 0.5|_1 = sum(b) + 1.0
    expected = (0.2 + 0.4 + 0.5) + (0.6 + 0.8 + 1.0)
    assert cycle_loss(f, g, a, b) == pytest.approx(expected, rel=1e-12)


def test_full_objective_weighting():
    # Zhu et al.'s weights: identity 5, cycle 10
    assert (LAMBDA1, LAMBDA2) == (5.0, 10.0)
    losses = {"gan_f": -1.0, "gan_g": -2.0, "identity": 3.0, "cycle": 4.0}
    assert full_objective(losses) == -1.0 - 2.0 + 5.0 * 3.0 + 10.0 * 4.0
    assert full_objective({**losses, "identity": 0.0, "cycle": 0.0}) == -3.0


def test_losses_batch_permutation_invariant():
    rng = np.random.default_rng(7)
    f = generator_init(5, rng)
    g = generator_init(5, rng)
    a, b = rng.uniform(0, 1, (6, 5)), rng.uniform(0, 1, (6, 5))
    perm = rng.permutation(6)
    assert identity_loss(f, g, a[perm], b[perm]) == pytest.approx(
        identity_loss(f, g, a, b), rel=1e-12
    )
    assert cycle_loss(f, g, a[perm], b[perm]) == pytest.approx(
        cycle_loss(f, g, a, b), rel=1e-12
    )


# --- gradients ---


def _gen_objective(f, g, d_a, d_b, a, b):
    """The objective the generator phase descends, recomputed from scratch."""
    l_id = identity_loss(f, g, a, b)
    l_cyc = cycle_loss(f, g, a, b)
    fake_b_scores = np.clip(discriminate(d_b, mlp_forward(f, a)), 1e-9, 1 - 1e-9)
    fake_a_scores = np.clip(discriminate(d_a, mlp_forward(g, b)), 1e-9, 1 - 1e-9)
    adv = float(-np.mean(np.log(fake_b_scores)) - np.mean(np.log(fake_a_scores)))
    return LAMBDA1 * l_id + LAMBDA2 * l_cyc + adv


def test_generator_gradients_match_finite_differences():
    dim = 6
    rng = np.random.default_rng(8)
    f = generator_init(dim, rng, hidden=5)
    g = generator_init(dim, rng, hidden=5)
    d_a = discriminator_init(dim, rng, hidden=4)
    d_b = discriminator_init(dim, rng, hidden=4)
    a = rng.uniform(0.1, 0.9, (2, dim))
    b = rng.uniform(0.1, 0.9, (2, dim))
    _, analytic = _generator_pass(f, g, d_a, d_b, a, b)
    params = mlp_params(f + g)
    for param, grad in zip(params, analytic):
        numeric = finite_diff_grad(
            lambda _v: _gen_objective(f, g, d_a, d_b, a, b), param
        )
        assert max_relative_error(grad, numeric) < 1e-4


def test_discriminator_gradients_match_finite_differences():
    dim = 6
    rng = np.random.default_rng(9)
    disc = discriminator_init(dim, rng, hidden=4)
    real = rng.uniform(0.1, 0.9, (3, dim))
    fake = rng.uniform(0.1, 0.9, (3, dim))

    def neg_value(_v):
        scores_r = np.clip(discriminate(disc, real), 1e-9, 1 - 1e-9)
        scores_f = np.clip(discriminate(disc, fake), 1e-9, 1 - 1e-9)
        return float(-np.mean(np.log(scores_r)) - np.mean(np.log(1 - scores_f)))

    _, grads = _discriminator_pass(disc, real, fake)
    for param, grad in zip(mlp_params(disc), grads):
        numeric = finite_diff_grad(neg_value, param)
        assert max_relative_error(grad, numeric) < 1e-4


def test_discriminator_ascent_non_decreasing_on_fixed_batch():
    dim = 8
    rng = np.random.default_rng(10)
    disc = discriminator_init(dim, rng)
    real = rng.uniform(0.5, 1.0, (16, dim))
    fake = rng.uniform(0.0, 0.5, (16, dim))
    vector = param_vector(disc)
    adam = adam_init(vector, learning_rate=0.001)
    grad = np.empty_like(vector)
    previous = -np.inf
    for _ in range(25):
        grad.fill(0.0)
        value, _ = _discriminator_pass(disc, real, fake, param_views(disc, grad))
        assert value >= previous - 1e-9
        previous = value
        adam_step(adam, vector, grad, 1)


# --- training loop ---


def test_train_cyclegan_smoke_and_history_schema():
    rng = np.random.default_rng(11)
    a = np.clip(rng.normal([0.7, 0.3, 0.3] * 16, 0.05, (64, 48)), 0, 1)
    b = np.clip(rng.normal([0.3, 0.3, 0.7] * 16, 0.05, (64, 48)), 0, 1)
    config = CycleGanConfig(epochs=3, batch=16, seed=0)
    f, g, d_a, d_b, history = train_cyclegan(a, b, config)
    assert len(history) == 3 * 4
    row = history[0]
    assert list(row) == [
        "epoch",
        "batch",
        "l_identity",
        "l_gan_f",
        "l_gan_g",
        "l_cycle",
        "l_total_gen",
        "l_disc_a",
        "l_disc_b",
    ]
    assert row["l_identity"] >= 0 and row["l_cycle"] >= 0
    assert row["l_gan_f"] <= 0 and row["l_gan_g"] <= 0


def test_train_cyclegan_empty_domain():
    with pytest.raises(ValueError):
        train_cyclegan(np.zeros((0, 48)), np.zeros((4, 48)), CycleGanConfig(epochs=1))


def test_train_cyclegan_deterministic():
    rng = np.random.default_rng(12)
    a = rng.uniform(0, 1, (32, 12))
    b = rng.uniform(0, 1, (32, 12))
    config = CycleGanConfig(epochs=2, batch=8, seed=3)
    f1, _, _, _, h1 = train_cyclegan(a, b, config)
    f2, _, _, _, h2 = train_cyclegan(a, b, config)
    assert h1 == h2
    for l1, l2 in zip(f1, f2):
        assert np.array_equal(l1.weights, l2.weights)


def test_train_cyclegan_rejects_zero_batch():
    a = np.full((4, 12), 0.5)
    with pytest.raises(ValueError, match="batch"):
        train_cyclegan(a, a, CycleGanConfig(epochs=1, batch=0))
