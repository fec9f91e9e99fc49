"""Toy-scale cycle-consistent adversarial training over flattened patches.

Two MLP generators map between colour domains A and B; two MLP
discriminators score domain membership in (0, 1).  Each network is a plain
DenseLayer list, run with ``numerics.mlp_forward``.  The objective combines
log-likelihood GAN terms for both directions with weighted identity and
cycle-consistency l1 penalties:

    total = gan(F) + gan(G) + LAMBDA1 * identity + LAMBDA2 * cycle

Training alternates a four-step generator pass (identity, cross-domain GAN
scoring, cycle-back, weighted sum + Adam) with a discriminator ascent pass.
Generators descend the non-saturating loss -log D(fake) (Goodfellow et al.,
"Generative Adversarial Nets", 2014), as in Zhu et al., "Unpaired
Image-to-Image Translation using Cycle-Consistent Adversarial Networks"
(2017).
"""

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .numerics import (
    adam_init,
    adam_step,
    dense_init,
    derive_seed,
    minibatches,
    mlp_backward,
    mlp_forward,
    param_vector,
    param_views,
)

PROB_CLAMP = 1e-9  # keeps the log terms bounded
# Zhu et al.'s weights: cycle weight lambda, identity weight 0.5 * lambda, Adam at 2e-4
LAMBDA1 = 5.0  # identity weight
LAMBDA2 = 10.0  # cycle weight
LR = 0.0002


def generator_init(dim, rng, hidden=64):
    """A generator's DenseLayer list, d -> d: tanh hidden layer, sigmoid output."""
    return [dense_init(dim, hidden, "tanh", rng), dense_init(hidden, dim, "sigmoid", rng)]


def discriminator_init(dim, rng, hidden=32):
    """A discriminator's DenseLayer list, d -> 1: leaky-relu hidden layer, sigmoid score."""
    return [dense_init(dim, hidden, "leaky_relu", rng), dense_init(hidden, 1, "sigmoid", rng)]


def discriminate(layers, batch):
    """A discriminator's score per row of ``batch``, shape (batch,)."""
    return mlp_forward(layers, batch)[:, 0]


def _clamp(scores):
    return np.minimum(np.maximum(scores, PROB_CLAMP), 1.0 - PROB_CLAMP)


def _mean(values):
    # np.mean of a 1-d array, bit for bit, without its per-call overhead
    return np.add.reduce(values) / values.shape[0]


def gan_loss(d_real_scores, d_fake_scores):
    """mean log D(real) + mean log(1 - D(fake)), scores clamped before logs."""
    real = np.asarray(d_real_scores, dtype=np.float64).reshape(-1)
    fake = np.asarray(d_fake_scores, dtype=np.float64).reshape(-1)
    for scores in (real, fake):
        if scores.size == 0:
            raise ValueError("empty score batch")
        if np.minimum.reduce(scores) < 0.0 or np.maximum.reduce(scores) > 1.0:
            raise ValueError("scores must lie in [0, 1]")
    return float(_mean(np.log(_clamp(real))) + _mean(np.log(1.0 - _clamp(fake))))


def _l1(diff):
    # per-sample sum over elements, then mean over the batch
    return float(_mean(np.add.reduce(np.abs(diff), axis=1)))


def _l1_upstream(diff, weight, n):
    """weight * sign(diff) / n, the weighted l1's gradient, bit for bit, written over ``diff``."""
    np.sign(diff, out=diff)
    diff *= weight
    diff /= n
    return diff


def identity_loss(f, g, batch_a, batch_b):
    """l1 penalty for mapping each domain 'back to itself'."""
    a = np.asarray(batch_a, dtype=np.float64)
    b = np.asarray(batch_b, dtype=np.float64)
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("empty batch")
    return _l1(mlp_forward(g, a) - a) + _l1(mlp_forward(f, b) - b)


def cycle_loss(f, g, batch_a, batch_b):
    """l1 penalty on round trips G(F(a)) vs a and F(G(b)) vs b."""
    a = np.asarray(batch_a, dtype=np.float64)
    b = np.asarray(batch_b, dtype=np.float64)
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("empty batch")
    return (_l1(mlp_forward(g, mlp_forward(f, a)) - a)
            + _l1(mlp_forward(f, mlp_forward(g, b)) - b))


def full_objective(losses):
    """gan_f + gan_g + LAMBDA1 * identity + LAMBDA2 * cycle."""
    return (
        losses["gan_f"]
        + losses["gan_g"]
        + LAMBDA1 * losses["identity"]
        + LAMBDA2 * losses["cycle"]
    )


@dataclass
class CycleGanConfig:
    epochs: int = 200
    batch: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.batch < 1:
            raise ValueError(f"batch must be at least 1, got {self.batch}")


def _dlog_scores(scores, n):
    """d/ds of -mean(log s); zero where the clamp binds."""
    # where the clamp does not bind, the clamped score is the score itself
    inside = (scores > PROB_CLAMP) & (scores < 1.0 - PROB_CLAMP)
    return np.divide(-1.0, n * scores, out=np.zeros_like(scores), where=inside)


def _dlog_one_minus(scores, n):
    """d/ds of mean(log(1 - s)); zero where the clamp binds."""
    inside = (scores > PROB_CLAMP) & (scores < 1.0 - PROB_CLAMP)
    return np.divide(-1.0, n * (1.0 - scores), out=np.zeros_like(scores), where=inside)


def _generator_pass(f, g, d_a, d_b, a, b, grads=None):
    """Steps 1-4 for one minibatch: losses, and gradients for F and G.

    Steps 1-3 run once per direction: F maps a towards B, scored by D_B and
    cycled back through G; then G maps b towards A, scored by D_A and cycled
    back through F.  Step 4 then runs for F, then for G.  The gradients are
    added into ``grads``, aligned with ``mlp_params(f + g)`` (by default views
    of a new zeroed vector), and returned with the losses.
    """
    if grads is None:
        grads = param_views(f + g)
    f_grads, g_grads = grads[:2 * len(f)], grads[2 * len(f):]
    l_identity = l_cycle = 0.0
    l_gan, folds = [], []
    for gen, back, disc, src, tgt, gen_grads, back_grads in (
        (f, g, d_b, a, b, f_grads, g_grads),
        (g, f, d_a, b, a, g_grads, f_grads),
    ):
        n = src.shape[0]
        # step 1: identity -- the returning generator maps the source onto itself
        caches = []
        same = mlp_forward(back, src, caches)
        diff = same - src
        l_identity += _l1(diff)
        mlp_backward(back, caches, _l1_upstream(diff, LAMBDA1, n), back_grads, input_grad=False)

        # step 2: cross-domain mapping, scored by the target discriminator
        gen_caches, disc_caches = [], []
        fake = mlp_forward(gen, src, gen_caches)
        fake_scores = mlp_forward(disc, fake, disc_caches)
        l_gan.append(gan_loss(discriminate(disc, tgt), fake_scores[:, 0]))
        d_fake = mlp_backward(disc, disc_caches, _dlog_scores(fake_scores, n))

        # step 3: cycle back to the source domain
        caches = []
        rec = mlp_forward(back, fake, caches)
        diff = rec - src
        l_cycle += _l1(diff)
        d_cyc = mlp_backward(back, caches, _l1_upstream(diff, LAMBDA2, n), back_grads)
        folds.append((gen, gen_caches, d_fake + d_cyc, gen_grads))

    # step 4: weighted sum -- fold the adversarial and cycle paths back
    # through each generator
    for gen, caches, upstream, gen_grads in folds:
        mlp_backward(gen, caches, upstream, gen_grads, input_grad=False)

    losses = {"identity": l_identity, "gan_f": l_gan[0], "gan_g": l_gan[1], "cycle": l_cycle}
    return losses, grads


def _discriminator_pass(disc, real, fake, grads=None):
    """Gradient-ascent gradients on mean log D(real) + mean log(1 - D(fake)), added into
    ``grads``, aligned with ``mlp_params(disc)`` (by default views of a new zeroed vector)."""
    if grads is None:
        grads = param_views(disc)
    caches = []
    real_scores = mlp_forward(disc, real, caches)
    mlp_backward(
        disc, caches, _dlog_scores(real_scores, real.shape[0]), grads, input_grad=False
    )
    caches = []
    fake_scores = mlp_forward(disc, fake, caches)
    mlp_backward(
        disc, caches, -_dlog_one_minus(fake_scores, fake.shape[0]), grads,
        input_grad=False,
    )
    value = gan_loss(real_scores[:, 0], fake_scores[:, 0])
    return value, grads


def train_cyclegan(domain_a, domain_b, config):
    """Alternating optimisation; returns (F, G, D_A, D_B, loss history).

    F, G, D_A and D_B are DenseLayer lists.  History rows carry, per batch:
    identity, the two GAN losses, cycle, the weighted generator total, then
    both discriminator losses.
    """
    a_all = np.asarray(domain_a, dtype=np.float64)
    b_all = np.asarray(domain_b, dtype=np.float64)
    if a_all.shape[0] == 0 or b_all.shape[0] == 0:
        raise ValueError("both domains must be non-empty")
    dim = a_all.shape[1]
    rng = np.random.default_rng(derive_seed(config.seed, "cyclegan-init"))
    f = generator_init(dim, rng)
    g = generator_init(dim, rng)
    d_a = discriminator_init(dim, rng)
    d_b = discriminator_init(dim, rng)

    # one parameter vector per optimiser, and one gradient vector beside each
    gen, disc = param_vector(f + g), param_vector(d_a + d_b)
    gen_grad, disc_grad = np.zeros_like(gen), np.zeros_like(disc)
    gen_grads = param_views(f + g, gen_grad)
    disc_grads = param_views(d_a + d_b, disc_grad)
    da_grads, db_grads = disc_grads[:2 * len(d_a)], disc_grads[2 * len(d_a):]
    gen_adam, disc_adam = adam_init(gen, LR), adam_init(disc, LR)

    batch = min(config.batch, a_all.shape[0], b_all.shape[0])
    steps = min(a_all.shape[0], b_all.shape[0]) // batch
    history = []
    for epoch in range(1, config.epochs + 1):
        pairs = zip(
            minibatches(a_all.shape[0], batch, config.seed, f"shuffle-a-{epoch}"),
            minibatches(b_all.shape[0], batch, config.seed, f"shuffle-b-{epoch}"),
        )
        for step, (idx_a, idx_b) in enumerate(islice(pairs, steps)):
            a, b = a_all[idx_a], b_all[idx_b]

            gen_grad.fill(0.0)
            losses, _ = _generator_pass(f, g, d_a, d_b, a, b, gen_grads)
            adam_step(gen_adam, gen, gen_grad, epoch)

            fake_b = mlp_forward(f, a)
            fake_a = mlp_forward(g, b)
            disc_grad.fill(0.0)
            l_disc_b, _ = _discriminator_pass(d_b, b, fake_b, db_grads)
            l_disc_a, _ = _discriminator_pass(d_a, a, fake_a, da_grads)
            adam_step(disc_adam, disc, disc_grad, epoch)

            history.append(
                {
                    "epoch": epoch,
                    "batch": step,
                    "l_identity": losses["identity"],
                    "l_gan_f": losses["gan_f"],
                    "l_gan_g": losses["gan_g"],
                    "l_cycle": losses["cycle"],
                    "l_total_gen": full_objective(losses),
                    "l_disc_a": l_disc_a,
                    "l_disc_b": l_disc_b,
                }
            )
    return f, g, d_a, d_b, history
