"""Finite-difference audit of every hand-written backward pass.

Each check builds a small random instance, computes analytic gradients, and
compares them against central differences.  Reported numbers are the worst
relative error over all checked parameters (1e-6 absolute floor).
"""

import numpy as np

from . import classifier, cyclegan, mcae, stanosa
from .numerics import (
    ACTIVATIONS,
    autoencoder_init,
    conv2d_backward,
    conv2d_forward,
    dense_backward,
    dense_forward,
    dense_init,
    finite_diff_grad,
    max_relative_error,
    mlp_forward,
    mlp_params,
)


def _check_params(loss, pairs):
    worst = 0.0
    for param, analytic in pairs:
        numeric = finite_diff_grad(lambda _v: loss(), param)
        worst = max(worst, max_relative_error(analytic, numeric))
    return worst


def check_dense(activation, seed):
    rng = np.random.default_rng(seed)
    layer = dense_init(5, 4, activation, rng)
    x = rng.normal(size=(3, 5))
    weight = rng.normal(size=(3, 4))

    def loss():
        return float((dense_forward(layer, x) * weight).sum())

    grads, dx = dense_backward(layer, x, weight, dense_forward(layer, x))
    worst = _check_params(loss, zip((layer.weights, layer.bias), grads))
    numeric = finite_diff_grad(lambda _v: loss(), x)
    return max(worst, max_relative_error(dx, numeric))


def check_conv2d(activation, seed):
    rng = np.random.default_rng(seed)
    layer = dense_init(2 * 9, 3, activation, rng)  # a 3x3 convolution of 2 channels
    x = rng.normal(size=(2, 4, 4, 2))
    weight = rng.normal(size=(2, 4, 4, 3))

    def loss():
        return float((conv2d_forward(layer, x)[0] * weight).sum())

    out, rows = conv2d_forward(layer, x)
    grads, dx = conv2d_backward(layer, rows, weight, out)
    worst = _check_params(loss, zip((layer.weights, layer.bias), grads))
    numeric = finite_diff_grad(lambda _v: loss(), x)
    return max(worst, max_relative_error(dx, numeric))


def check_mcae_combined(seed):
    rng = np.random.default_rng(seed)
    model = mcae.mcae_init(
        ["A", "B", "C"], seed=seed, input_dim=192, hidden_dim=8, feature_dim=4
    )
    patches = rng.uniform(-0.9, 0.9, size=(3, 3, 192))
    anchor = mlp_forward(model.encoders["A"], patches[0])
    model.kmeans = mcae.kmeans_fit(anchor + 0.05 * rng.normal(size=anchor.shape),
                                   k=2, seed=seed)
    labels = mcae.kmeans_assign(model.kmeans, anchor)
    _, _, grads = mcae.combined_loss_and_grads(model, patches, labels=labels)

    def loss():
        return mcae.combined_loss_and_grads(model, patches, labels=labels)[0]

    worst = 0.0
    for param, analytic in zip(mcae.mcae_params(model), grads):
        # subsample large weight matrices; check small ones exhaustively
        idx = (
            np.linspace(0, param.size - 1, 20, dtype=int)
            if param.size > 64
            else np.arange(param.size)
        )
        numeric = finite_diff_grad(lambda _v: loss(), param, indices=idx)
        worst = max(
            worst,
            max_relative_error(analytic.reshape(-1)[idx], numeric.reshape(-1)[idx]),
        )
    return worst


def check_stanosa_reconstruction(seed):
    rng = np.random.default_rng(seed)
    encoder, decoder = autoencoder_init(rng, 6, 5, 3)
    layers = encoder + decoder
    rows = rng.normal(size=(4, 6))

    def loss():
        return stanosa.reconstruction_loss_and_grads(layers, rows)[0]

    _, grads = stanosa.reconstruction_loss_and_grads(layers, rows)
    return _check_params(loss, list(zip(mlp_params(layers), grads)))


def check_cyclegan_generators(seed):
    rng = np.random.default_rng(seed)
    dim = 6
    f = cyclegan.generator_init(dim, rng, hidden=5)
    g = cyclegan.generator_init(dim, rng, hidden=5)
    d_a = cyclegan.discriminator_init(dim, rng, hidden=4)
    d_b = cyclegan.discriminator_init(dim, rng, hidden=4)
    a = rng.uniform(0.1, 0.9, (2, dim))
    b = rng.uniform(0.1, 0.9, (2, dim))

    def loss():
        l_id = cyclegan.identity_loss(f, g, a, b)
        l_cyc = cyclegan.cycle_loss(f, g, a, b)
        sb = np.clip(cyclegan.discriminate(d_b, mlp_forward(f, a)), 1e-9, 1 - 1e-9)
        sa = np.clip(cyclegan.discriminate(d_a, mlp_forward(g, b)), 1e-9, 1 - 1e-9)
        adv = float(-np.mean(np.log(sb)) - np.mean(np.log(sa)))
        return cyclegan.LAMBDA1 * l_id + cyclegan.LAMBDA2 * l_cyc + adv

    _, grads = cyclegan._generator_pass(f, g, d_a, d_b, a, b)
    pairs = list(zip(mlp_params(f + g), grads))
    return _check_params(loss, pairs)


def check_cyclegan_discriminator(seed):
    rng = np.random.default_rng(seed)
    dim = 6
    disc = cyclegan.discriminator_init(dim, rng, hidden=4)
    real = rng.uniform(0.1, 0.9, (3, dim))
    fake = rng.uniform(0.1, 0.9, (3, dim))

    def loss():  # the pass ascends its value, so its gradients descend the negation
        return -cyclegan._discriminator_pass(disc, real, fake)[0]

    _, grads = cyclegan._discriminator_pass(disc, real, fake)
    return _check_params(loss, list(zip(mlp_params(disc), grads)))


def check_classifier_head(seed):
    rng = np.random.default_rng(seed)
    head = classifier.head_init(3, seed=seed, in_channels=4, hidden=5)
    x = rng.normal(size=(2, 3, 3, 4))
    labels = np.array([0, 2])

    def loss():
        logits, _ = classifier._head_forward(head, x)
        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        return float(-np.log(probs[np.arange(2), labels]).mean())

    logits, caches = classifier._head_forward(head, x)
    _, dlogits = classifier._cross_entropy_batch(logits, labels)
    grads = classifier._head_backward(head, caches, dlogits)
    return _check_params(loss, list(zip(classifier.head_params(head), grads)))


def run_grad_checks(seed=0):
    """All checks as (name, max relative error) pairs."""
    results = []
    for activation in ACTIVATIONS:
        results.append((f"dense/{activation}", check_dense(activation, seed)))
    for activation in ("linear", "leaky_relu", "tanh"):
        results.append((f"conv2d/{activation}", check_conv2d(activation, seed)))
    results.append(("mcae/combined_loss", check_mcae_combined(seed)))
    results.append(("stanosa/reconstruction", check_stanosa_reconstruction(seed)))
    results.append(("cyclegan/generator_objective", check_cyclegan_generators(seed)))
    results.append(("cyclegan/discriminator_objective", check_cyclegan_discriminator(seed)))
    results.append(("classifier/head", check_classifier_head(seed)))
    return results
