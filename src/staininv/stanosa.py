"""Single-domain auto-encoder baseline with GCN + ZCA preprocessing.

The auto-encoder is one channel of the multi-channel model
(``numerics.autoencoder_init``); the only training signal is patch
reconstruction, and cross-domain normalisation is left entirely to the
preprocessing (global contrast normalisation followed by a whitening
transform fitted on the training domain).

Training computes in float32 on float64 master weights, as the MCAE does
(see ``numerics``): the masters are one vector with a float32 mirror,
preprocessing is float64, each minibatch of whitened rows is cast to
float32 when it is drawn, and the logged loss is summed in float64.
"""

from dataclasses import dataclass

import numpy as np

from . import persist
from .dataset import ZcaTransform, gcn, zca_apply, zca_fit
from .numerics import (
    FeatureExtractor,
    autoencoder_init,
    derive_seed,
    fit,
    layers_on,
    mlp_backward,
    mlp_forward,
    param_vector,
    param_views,
)


@dataclass
class StanosaModel:
    zca: ZcaTransform | None
    encoder: list  # [DenseLayer, DenseLayer], identical shape to one MCAE channel
    decoder: list


def stanosa_init(seed, input_dim=192, hidden_dim=100, feature_dim=10):
    rng = np.random.default_rng(derive_seed(seed, "stanosa-init"))
    encoder, decoder = autoencoder_init(rng, input_dim, hidden_dim, feature_dim)
    return StanosaModel(zca=None, encoder=encoder, decoder=decoder)


def stanosa_preprocess(patch, zca):
    """Global contrast normalisation, then whitening, in that order.

    ``patch`` is left unchanged: the whitened rows overwrite the new GCN
    output, so a matrix costs one float64 array of its size, not two.
    """
    if zca is None:
        raise ValueError("ZCA transform not fitted")
    normalised = gcn(patch)
    return zca_apply(zca, normalised, out=normalised)


ZCA_SAMPLE = 100000  # most training patches the whitening transform is fitted on


@dataclass
class StanosaTrainConfig:
    epochs: int = 300
    lr: float = 0.0002
    batch: int = 256  # patch vectors per minibatch
    seed: int = 0


def reconstruction_loss_and_grads(layers, rows, grads=None):
    """The mean squared error of the auto-encoder's sigmoid output against whitened ``rows``
    mapped affinely to [0, 1] and clipped, and its gradients in ``mlp_params(layers)``
    order, added into ``grads`` (by default views of a new zeroed vector).  It computes in
    the dtype of ``layers`` and ``rows``; the loss is summed in float64."""
    caches = []
    recon = mlp_forward(layers, rows, caches)
    diff = recon - np.clip((rows + 1.0) / 2.0, 0.0, 1.0)
    loss = float(np.mean(diff * diff, dtype=np.float64))
    if grads is None:
        grads = param_views(layers)
    mlp_backward(layers, caches, 2.0 * diff / diff.size, grads, input_grad=False)
    return loss, grads


def train_stanosa(model, patches, config):
    """Reconstruction-only training on raw byte-valued patch vectors (M, 192).

    ``patches`` may be uint8, as ``extract_patches`` returns them, or any real
    dtype holding the same values: the model and log are the same.  Fits the
    whitening transform on up to ``ZCA_SAMPLE`` randomly chosen training
    patches if the model does not carry one yet.  The decoder's sigmoid
    output is matched against the whitened input mapped affinely to [0, 1]
    and clipped, one minibatch at a time.  The model's parameters become views
    of one float64 vector, which Adam updates; each step computes on its
    float32 mirror, refreshed by one copy, into views of one zeroed gradient.
    """
    patches = np.asarray(patches)
    if patches.ndim != 2 or patches.shape[0] == 0:
        raise ValueError("expected a non-empty (patches, dims) matrix")
    if model.zca is None:
        rng = np.random.default_rng(derive_seed(config.seed, "zca-sample"))
        n = min(ZCA_SAMPLE, patches.shape[0])
        chosen = rng.choice(patches.shape[0], size=n, replace=False)
        model.zca = zca_fit(gcn(patches[chosen]), overwrite_input=True)

    x = stanosa_preprocess(patches, model.zca)
    layers = model.encoder + model.decoder
    vector = param_vector(layers)
    mirror = vector.astype(np.float32)
    fast = layers_on(layers, mirror)
    grad = np.zeros_like(mirror)
    grads = param_views(fast, grad)

    def step(idx):
        np.copyto(mirror, vector)
        grad.fill(0.0)
        loss, _ = reconstruction_loss_and_grads(fast, x[idx].astype(np.float32), grads)
        return {"reconstruction": loss}, grad

    log = fit(vector, config.lr, x.shape[0], config.batch, config.epochs,
              config.seed, "shuffle", step)
    return model, log


def feature_extractor(model):
    """The frozen encoder with the baseline's GCN + ZCA preprocessing."""
    zca = model.zca
    if zca is None:
        raise ValueError("ZCA transform not fitted")
    return FeatureExtractor(
        model.encoder, lambda raw: stanosa_preprocess(raw, zca), [zca.mean, zca.matrix]
    )


def save_stanosa(model, path):
    """Write a trained model.  A model without its whitening transform is refused with a
    ValueError and nothing is written: ``load_stanosa`` could not read the file back."""
    if model.zca is None:
        raise ValueError("ZCA transform not fitted: only a trained baseline can be saved")
    zca = {
        "mean": model.zca.mean.tolist(),
        "matrix": model.zca.matrix.tolist(),
        "epsilon": model.zca.epsilon,
    }
    layers = persist.autoencoder_records(model.encoder, model.decoder)
    persist.dump_json({"format": "stanosa-v1", "layers": layers, "zca": zca}, path)


def load_stanosa(path):
    return persist.read_model(path, {"stanosa-v1": stanosa_from_doc})


def stanosa_from_doc(doc):
    """Rebuild a trained model from a parsed stanosa-v1 document, checking its shapes.

    The document must carry the whitening transform, with a finite ``epsilon``:
    every reader of a model file encodes through it.
    """
    stacks = persist.autoencoder_stacks(doc["layers"])
    if not stacks:
        raise ValueError("no layers")
    encoder, decoder = stacks[None]
    zca = persist.checked(doc["zca"], dict, "zca (the whitening transform of a trained model)")
    n_in = encoder[0].n_in
    transform = ZcaTransform(
        mean=persist.float_array(zca["mean"], "zca mean", (n_in,)),
        matrix=persist.float_array(zca["matrix"], "zca matrix", (n_in, n_in)),
        epsilon=persist.checked(zca["epsilon"], float, "zca epsilon"),
    )
    return StanosaModel(zca=transform, encoder=encoder, decoder=decoder)
