"""Pinned bits of tiny runs of every trainer.

Each test trains for a few steps at small shapes and hashes the trained
parameters with the loss log.  The digests were taken from the trainers as
they stood before their optimisers held one parameter vector (per-array
Adam, per-layer float32 copies), so a refactor of the training step that
moves a single bit fails here, not only in the ``scripts/digest.py`` diff.

The bits are those of this platform's numpy and BLAS kernels: a different
BLAS kernel sums a dot product in another order.  ``KERNELS`` is the sha256 of
the kernels these runs go through, at their dtypes; on a platform whose
kernels differ the pins cannot hold, and the tests say so by skipping.  There
the digest diff of two commits on one machine is the check.
"""

import hashlib
import json

import numpy as np
import pytest

from staininv import classifier, cyclegan, mcae, stanosa
from staininv.numerics import mlp_params, param_checksum

KERNELS = "9a7fcd60772762a8ff7b2e645e560c4e51fb5f0d693d3c70dc3c38657ce47d45"

PINS = {
    "cyclegan": "cbcfe5270f23de3fa036cb515ee59865f855a5ec90094d30f90c739843edcbe7",
    "mcae": "b2e7e677c3382dd256fcecb8bca245f5bbaca51e0093526ffc533402ab159d85",
    "stanosa": "4d4170ec0819e1f7ffdab0874f3e28636c0e80e440bb130bc81ed554bc2832c1",
    "classifier": "5ba8cf2e38bf6b7efc4d90f4442edc645263f9bc76cacea89376bfb2b58ce6d2",
}


def kernel_digest():
    """sha256 of the BLAS, LAPACK and elementwise kernels the pinned runs use."""
    rng = np.random.default_rng(0)
    digest = hashlib.sha256()
    for dtype in (np.float32, np.float64):
        a = rng.normal(size=(37, 192)).astype(dtype)
        b = rng.normal(size=(20, 192)).astype(dtype)
        outputs = [a @ b.T, a.T @ a[:, :20], np.tanh(a), np.exp(a), np.log(np.abs(a)),
                   np.sqrt(np.abs(a)), a.sum(axis=0), np.mean(a * a, dtype=np.float64)]
        for out in outputs:
            digest.update(np.ascontiguousarray(out).tobytes())
    cov = np.cov(rng.normal(size=(300, 192)), rowvar=False)
    for out in np.linalg.eigh(cov):
        digest.update(out.tobytes())
    return digest.hexdigest()


def _digest(params, log):
    text = json.dumps(log, sort_keys=True, default=float)
    return hashlib.sha256((param_checksum(params) + text).encode()).hexdigest()


def run_cyclegan():
    rng = np.random.default_rng(41)
    a, b = rng.uniform(0.2, 0.9, (48, 12)), rng.uniform(0.1, 0.7, (40, 12))
    f, g, d_a, d_b, history = cyclegan.train_cyclegan(
        a, b, cyclegan.CycleGanConfig(epochs=4, batch=16, seed=42))
    return _digest(mlp_params(f + g + d_a + d_b), history)


def run_mcae():
    rng = np.random.default_rng(43)
    store = rng.integers(0, 256, (3, 10, 4, 192), dtype=np.uint8)
    model = mcae.mcae_init(["A", "B", "C"], seed=44, hidden_dim=16, feature_dim=4)
    config = mcae.McaeTrainConfig(epochs=3, lr=0.003, batch=4, k=3, kmeans_sample=30, seed=45)
    model, log = mcae.train_mcae(model, store, config)
    return _digest(mcae.mcae_params(model) + [model.kmeans.centroids], log)


def run_stanosa():
    rng = np.random.default_rng(46)
    patches = rng.integers(0, 256, (90, 192), dtype=np.uint8)
    model = stanosa.stanosa_init(seed=47, hidden_dim=16, feature_dim=4)
    config = stanosa.StanosaTrainConfig(epochs=3, lr=0.003, batch=32, seed=48)
    model, log = stanosa.train_stanosa(model, patches, config)
    return _digest(mlp_params(model.encoder + model.decoder) + [model.zca.matrix], log)


def run_classifier():
    extractor = mcae.feature_extractor(
        mcae.mcae_init(["A", "B"], seed=49, hidden_dim=16, feature_dim=4), "A")
    data = classifier.generate_labeled_set(6, size=16, seed=50)
    train, val, _ = classifier.split_labeled(data, seed=51)
    head = classifier.head_init(3, seed=52, in_channels=4, hidden=5)
    config = classifier.ClassifierTrainConfig(epochs=3, lr=0.01, batch=4, seed=53)
    head, log = classifier.train_classifier(extractor, head, train, val, config)
    return _digest(classifier.head_params(head), log)


RUNS = {"cyclegan": run_cyclegan, "mcae": run_mcae, "stanosa": run_stanosa,
        "classifier": run_classifier}


@pytest.mark.parametrize("trainer", sorted(RUNS))
def test_tiny_training_run_keeps_its_pinned_bits(trainer):
    if kernel_digest() != KERNELS:
        pytest.skip("numpy or BLAS kernels differ from those the pins were taken on")
    assert RUNS[trainer]() == PINS[trainer]


if __name__ == "__main__":  # print the kernel digest and each run's digest
    print("KERNELS", kernel_digest())
    for name, run in RUNS.items():
        print(name, run())
