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
    mlp_params,
    zero_grads,
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
    return np.clip(scores, PROB_CLAMP, 1.0 - PROB_CLAMP)


def gan_loss(d_real_scores, d_fake_scores):
    """mean log D(real) + mean log(1 - D(fake)), scores clamped before logs."""
    real = np.asarray(d_real_scores, dtype=np.float64).reshape(-1)
    fake = np.asarray(d_fake_scores, dtype=np.float64).reshape(-1)
    for scores in (real, fake):
        if scores.size == 0:
            raise ValueError("empty score batch")
        if scores.min() < 0.0 or scores.max() > 1.0:
            raise ValueError("scores must lie in [0, 1]")
    return float(np.mean(np.log(_clamp(real))) + np.mean(np.log(1.0 - _clamp(fake))))


def _l1(diff):
    # per-sample sum over elements, then mean over the batch
    return float(np.abs(diff).sum(axis=1).mean())


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
    inside = (scores > PROB_CLAMP) & (scores < 1.0 - PROB_CLAMP)
    return np.where(inside, -1.0 / (n * _clamp(scores)), 0.0)


def _dlog_one_minus(scores, n):
    """d/ds of mean(log(1 - s)); zero where the clamp binds."""
    inside = (scores > PROB_CLAMP) & (scores < 1.0 - PROB_CLAMP)
    return np.where(inside, -1.0 / (n * (1.0 - _clamp(scores))), 0.0)


def _generator_pass(f, g, d_a, d_b, a, b):
    """Steps 1-4 for one minibatch: losses, and gradients for F and G.

    Steps 1-3 run once per direction: F maps a towards B, scored by D_B and
    cycled back through G; then G maps b towards A, scored by D_A and cycled
    back through F.  Step 4 then runs for F, then for G.
    """
    f_grads = zero_grads(mlp_params(f))
    g_grads = zero_grads(mlp_params(g))
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
        l_identity += _l1(same - src)
        mlp_backward(back, caches, LAMBDA1 * np.sign(same - src) / n,
                     back_grads, input_grad=False)

        # step 2: cross-domain mapping, scored by the target discriminator
        gen_caches, disc_caches = [], []
        fake = mlp_forward(gen, src, gen_caches)
        fake_scores = mlp_forward(disc, fake, disc_caches)
        l_gan.append(gan_loss(discriminate(disc, tgt), fake_scores[:, 0]))
        d_fake = mlp_backward(disc, disc_caches, _dlog_scores(fake_scores, n))

        # step 3: cycle back to the source domain
        caches = []
        rec = mlp_forward(back, fake, caches)
        l_cycle += _l1(rec - src)
        d_cyc = mlp_backward(back, caches, LAMBDA2 * np.sign(rec - src) / n,
                             back_grads)
        folds.append((gen, gen_caches, d_fake + d_cyc, gen_grads))

    # step 4: weighted sum -- fold the adversarial and cycle paths back
    # through each generator
    for gen, caches, upstream, grads in folds:
        mlp_backward(gen, caches, upstream, grads, input_grad=False)

    losses = {"identity": l_identity, "gan_f": l_gan[0], "gan_g": l_gan[1], "cycle": l_cycle}
    return losses, f_grads, g_grads


def _discriminator_pass(disc, real, fake):
    """Gradient-ascent gradients on mean log D(real) + mean log(1 - D(fake))."""
    grads = zero_grads(mlp_params(disc))
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

    gen_params = mlp_params(f) + mlp_params(g)
    disc_params = mlp_params(d_a) + mlp_params(d_b)
    gen_adam = adam_init(gen_params, LR)
    disc_adam = adam_init(disc_params, LR)

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

            losses, f_grads, g_grads = _generator_pass(f, g, d_a, d_b, a, b)
            adam_step(gen_adam, gen_params, f_grads + g_grads, epoch)

            fake_b = mlp_forward(f, a)
            fake_a = mlp_forward(g, b)
            l_disc_b, db_grads = _discriminator_pass(d_b, b, fake_b)
            l_disc_a, da_grads = _discriminator_pass(d_a, a, fake_a)
            adam_step(disc_adam, disc_params, da_grads + db_grads, epoch)

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
