"""The multi-channel auto-encoder: per-domain auto-encoders trained jointly.

One encoder/decoder pair per domain, trained on aligned patch groups with
three per-element-mean losses summed without weights:

  reconstruction  mean squared error between each decoder output and its
                  input patch rescaled to the decoder's (0, 1) range;
  feature         mean squared difference between every non-anchor domain's
                  features and the first (anchor) domain's features for
                  spatially corresponding patches;
  cluster         mean squared distance of every domain's features to the
                  centroid of the anchor feature's K-Means pseudo-label.

Pseudo-labels come from K-Means fitted on anchor-domain features before the
first gradient step and refitted at the end of every epoch.

Training computes in float32 on float64 master weights (see ``numerics``):
the masters are one vector, every step runs forward and backward on its
float32 mirror and a float32 minibatch looked up from the byte patches in
``PM1_FLOAT32``, and Adam updates the vector.  The K-Means refits encode in
float32 and fit in float64; losses are accumulated and logged in float64.
Saved models and the feature extractors are float64, so a model encodes
exactly like its saved file.
"""

from dataclasses import dataclass

import numpy as np

from . import persist
from .dataset import scale_to_pm1
from .numerics import (
    FeatureExtractor,
    autoencoder_init,
    derive_seed,
    fit,
    layers_on,
    mlp_backward,
    mlp_forward,
    mlp_params,
    param_vector,
    param_views,
)

# each byte's value in [-1, 1] as float32, v / 127.5 - 1.0 rounded once: the
# training minibatches and K-Means samples are looked up here, with no float64 copy
PM1_FLOAT32 = (np.arange(256) / 127.5 - 1.0).astype(np.float32)


@dataclass
class KMeansState:
    centroids: np.ndarray  # (k, dim)

    @property
    def k(self):
        return self.centroids.shape[0]


def _pairwise_sq_dists(vectors, centroids, vectors_sq=None):
    """Squared distances (samples, k); ``vectors_sq`` is the rows' squared norms if known."""
    if vectors_sq is None:
        vectors_sq = (vectors * vectors).sum(axis=1)
    sq = vectors_sq[:, None] + (centroids * centroids).sum(axis=1)
    cross = vectors @ centroids.T
    cross *= 2.0  # exact, so equal to (2.0 * vectors) @ centroids.T bit for bit
    sq -= cross
    return np.maximum(sq, 0.0, out=sq)


def _update_centroids(x, x_sq, labels, centroids):
    """Move each centroid to its members' mean, in place; reseed empty clusters.

    For samples of two or more dims this equals, bit for bit, updating
    j = 0..k-1 in turn to ``x[labels == j].mean(axis=0)``: ``np.bincount``
    sums each cluster's rows from 0.0 in row order, as that mean does along
    axis 0, and an empty cluster is reseeded on the point farthest from the
    centroids as they stand at its turn, those before it already updated.
    """
    k = centroids.shape[0]
    counts = np.bincount(labels, minlength=k)[:, None]
    sums = np.stack([np.bincount(labels, col, k) for col in x.T], axis=1)
    done = 0
    for j in np.flatnonzero(counts[:, 0] == 0):
        centroids[done:j] = sums[done:j] / counts[done:j]
        # every point's nearest-centroid distance can only shrink
        farthest = _pairwise_sq_dists(x, centroids, x_sq).min(axis=1).argmax()
        centroids[j] = x[farthest]
        done = j + 1
    centroids[done:] = sums[done:] / counts[done:]


def kmeans_fit(vectors, k, max_iters=100, seed=0):
    """Lloyd's algorithm with k-means++ seeding and farthest-point repair."""
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected a (samples, dims) matrix")
    m = x.shape[0]
    if k < 1:
        raise ValueError("k must be at least 1")
    if m < k:
        raise ValueError(f"need at least k={k} vectors, got {m}")
    rng = np.random.default_rng(seed)
    x_sq = (x * x).sum(axis=1)

    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(m)]
    for i in range(1, k):
        d2 = _pairwise_sq_dists(x, centroids[:i], x_sq).min(axis=1)
        total = d2.sum()
        if total <= 0.0:
            centroids[i] = x[rng.integers(m)]
        else:
            centroids[i] = x[rng.choice(m, p=d2 / total)]

    labels = None
    for _ in range(max_iters):
        d2 = _pairwise_sq_dists(x, centroids, x_sq)
        new_labels = d2.argmin(axis=1)  # ties resolve to the lowest index
        _update_centroids(x, x_sq, new_labels, centroids)
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
    return KMeansState(centroids=centroids)


def kmeans_assign(state, vectors):
    """Nearest-centroid index per row of a (samples, dims) matrix (ties to the lowest index)."""
    x = np.asarray(vectors, dtype=np.float64)
    return _pairwise_sq_dists(x, state.centroids).argmin(axis=1)


def kmeans_objective(state, vectors):
    """Sum of squared distances to the nearest centroid."""
    x = np.asarray(vectors, dtype=np.float64)
    return float(_pairwise_sq_dists(x, state.centroids).min(axis=1).sum())


@dataclass
class McaeModel:
    """Per-domain encoder/decoder stacks plus shared K-Means state."""

    domain_ids: list
    encoders: dict  # domain_id -> [DenseLayer, DenseLayer]
    decoders: dict
    kmeans: KMeansState | None = None

    @property
    def input_dim(self):
        return self.encoders[self.domain_ids[0]][0].n_in

    @property
    def feature_dim(self):
        return self.encoders[self.domain_ids[0]][-1].n_out


def mcae_init(domain_ids, seed, input_dim=192, hidden_dim=100, feature_dim=10):
    """Fresh model: tanh encoder 192-100-10, tanh/sigmoid decoder 10-100-192."""
    if len(domain_ids) < 2:
        raise ValueError("need at least two domains")
    rng = np.random.default_rng(derive_seed(seed, "mcae-init"))
    encoders, decoders = {}, {}
    for domain in domain_ids:
        encoders[domain], decoders[domain] = autoencoder_init(
            rng, input_dim, hidden_dim, feature_dim
        )
    return McaeModel(domain_ids=list(domain_ids), encoders=encoders, decoders=decoders)


def feature_loss(z):
    """Per-element mean squared difference of non-anchor domains to domain 0."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 3:
        raise ValueError("expected features of shape (domains, patches, dims)")
    if z.shape[0] < 2:
        raise ValueError("feature loss needs at least two domains")
    if z.shape[1] == 0:
        raise ValueError("no patches")
    return float(np.mean((z[1:] - z[0]) ** 2))


def cluster_loss(z, state, labels):
    """Per-element mean squared distance to the anchor pseudo-label centroid."""
    z = np.asarray(z, dtype=np.float64)
    labels = np.asarray(labels)
    if z.ndim != 3:
        raise ValueError("expected features of shape (domains, patches, dims)")
    if labels.shape != (z.shape[1],):
        raise ValueError("need one label per patch")
    if labels.size and (labels.min() < 0 or labels.max() >= state.k):
        raise IndexError(f"label out of range for k={state.k}")
    mu = state.centroids[labels]  # (patches, dims)
    return float(np.mean((z - mu[None]) ** 2))


def _layers(model):
    """The model's layers in ``mcae_params`` order: per domain, its encoder then decoder."""
    return [layer for d in model.domain_ids for layer in model.encoders[d] + model.decoders[d]]


def mcae_params(model):
    """Stable flat parameter list across all domains (encoders then decoders)."""
    return mlp_params(_layers(model))


def _model_on(model, vector):
    """A model shaped like ``model`` whose parameters are views of ``vector``, in
    ``mcae_params`` order, sharing its K-Means state."""
    layers = iter(layers_on(_layers(model), vector))
    encoders, decoders = {}, {}
    for d in model.domain_ids:
        encoders[d] = [next(layers) for _ in model.encoders[d]]
        decoders[d] = [next(layers) for _ in model.decoders[d]]
    return McaeModel(model.domain_ids, encoders, decoders, model.kmeans)


def combined_loss_and_grads(model, patches, labels=None, grads=None):
    """Total loss, per-term breakdown and analytic gradients for every parameter.

    ``patches`` has shape (domains, patches, input_dim) with values in
    [-1, 1], ordered like ``model.domain_ids``; they are cast to the dtype of
    the model's weights, in which everything is computed, gradients included.
    The loss values are float64.  Labels default to the current K-Means
    assignment of the anchor domain's features.  The gradients are added into
    ``grads``, a list aligned with ``mcae_params(model)`` (by default views of
    a new zeroed vector), which is returned.
    """
    dtype = model.encoders[model.domain_ids[0]][0].weights.dtype
    patches = np.asarray(patches, dtype=dtype)
    if model.kmeans is None:
        raise ValueError("K-Means state not fitted")
    n_dom, n_patch, n_in = patches.shape
    features, caches = [], []
    diff = np.empty(patches.shape, dtype)  # reconstruction minus target, per domain
    for i, domain in enumerate(model.domain_ids):
        enc_caches, dec_caches = [], []
        features.append(mlp_forward(model.encoders[domain], patches[i], enc_caches))
        recon = mlp_forward(model.decoders[domain], features[-1], dec_caches)
        caches.append((enc_caches, dec_caches))
        np.add(patches[i], 1.0, out=diff[i])
        diff[i] /= 2.0  # the target, in the decoder's (0, 1) range
        np.subtract(recon, diff[i], out=diff[i])
    z = np.stack(features)
    if labels is None:
        labels = kmeans_assign(model.kmeans, z[0])
    # the mean squared error of target and reconstruction: the squares of -diff are those of diff
    rec = float(np.mean(np.square(diff), dtype=np.float64))
    feat = feature_loss(z)
    clu = cluster_loss(z, model.kmeans, labels)
    breakdown = {"reconstruction": rec, "feature": feat, "cluster": clu}

    n_feat = z.shape[2]
    mu = model.kmeans.centroids[np.asarray(labels)].astype(z.dtype, copy=False)
    rec_scale = 2.0 / (n_dom * n_patch * n_in)
    feat_scale = 2.0 / ((n_dom - 1) * n_patch * n_feat)
    clu_scale = 2.0 / (n_dom * n_patch * n_feat)

    if grads is None:
        grads = param_views(_layers(model))
    anchor_pull = (z[0] * (n_dom - 1) - z[1:].sum(axis=0)) * feat_scale
    start = 0
    for i, domain in enumerate(model.domain_ids):
        encoder, decoder = model.encoders[domain], model.decoders[domain]
        enc_caches, dec_caches = caches[i]
        middle = start + 2 * len(encoder)  # the domain's encoder, then decoder gradients
        enc_grads, dec_grads = grads[start:middle], grads[middle:middle + 2 * len(decoder)]
        start = middle + 2 * len(decoder)
        d_recon = diff[i]
        d_recon *= rec_scale
        dz = mlp_backward(decoder, dec_caches, d_recon, dec_grads)
        dz = dz + (anchor_pull if i == 0 else (z[i] - z[0]) * feat_scale)
        dz += (z[i] - mu) * clu_scale
        mlp_backward(encoder, enc_caches, dz, enc_grads, input_grad=False)
    return rec + feat + clu, breakdown, grads


@dataclass
class McaeTrainConfig:
    epochs: int = 300
    lr: float = 0.0002
    batch: int = 64  # triplets per minibatch
    k: int = 10
    kmeans_sample: int = 10000
    seed: int = 0


def _refit_kmeans(model, encoder, anchor_patches, config, epoch):
    """Refit ``model.kmeans`` on a sample of the anchor domain's byte patches as
    ``encoder`` (the anchor encoder's float32 mirror, in training) encodes them."""
    flat = anchor_patches.reshape(-1, anchor_patches.shape[-1])
    rng = np.random.default_rng(derive_seed(config.seed, f"kmeans-sample-{epoch}"))
    n = min(config.kmeans_sample, flat.shape[0])
    rows = flat[rng.choice(flat.shape[0], size=n, replace=False)]
    features = mlp_forward(encoder, PM1_FLOAT32[rows])
    model.kmeans = kmeans_fit(
        features, config.k, seed=derive_seed(config.seed, f"kmeans-{epoch}")
    )


def train_mcae(model, store, config):
    """Joint training loop on a ``dataset.patch_store`` array ordered like
    ``model.domain_ids``; returns the model and a per-epoch loss log.

    The model's parameters become views of one float64 vector (see
    ``numerics.param_vector``), which Adam updates; each step computes on its
    float32 mirror, refreshed by one copy, and adds its gradients into views
    of one zeroed float32 vector.
    """
    n_dom, n_trip, n_sub, n_in = store.shape
    if n_trip == 0:
        raise ValueError("empty training dataset")
    vector = param_vector(_layers(model))
    mirror = vector.astype(np.float32)
    fast = _model_on(model, mirror)
    grad = np.zeros_like(mirror)
    grads = param_views(_layers(fast), grad)

    def step(idx):
        np.copyto(mirror, vector)
        grad.fill(0.0)
        fast.kmeans = model.kmeans
        batch = PM1_FLOAT32[store[:, idx]].reshape(n_dom, len(idx) * n_sub, n_in)
        _, breakdown, _ = combined_loss_and_grads(fast, batch, grads=grads)
        return breakdown, grad

    def refit(epoch):
        np.copyto(mirror, vector)
        _refit_kmeans(model, fast.encoders[model.domain_ids[0]], store[0], config, epoch)

    refit(0)  # before the first step
    log = fit(vector, config.lr, n_trip, config.batch, config.epochs, config.seed,
              "shuffle", step, end_epoch=refit)
    return model, log


# --- feature extraction and persistence ---


def feature_extractor(model, domain_id):
    """The frozen encoder of one domain, with the model's [-1, 1] preprocessing."""
    return FeatureExtractor(model.encoders[domain_id], scale_to_pm1)


def save_mcae(model, path):
    layers = []
    for d in model.domain_ids:
        layers += persist.autoencoder_records(model.encoders[d], model.decoders[d], domain=d)
    kmeans = None
    if model.kmeans is not None:
        kmeans = {"k": model.kmeans.k, "centroids": model.kmeans.centroids.tolist()}
    persist.dump_json(
        {"format": "mcae-v1", "domains": list(model.domain_ids), "layers": layers,
         "kmeans": kmeans},
        path,
    )


def load_mcae(path):
    return persist.read_model(path, {"mcae-v1": mcae_from_doc})


def mcae_from_doc(doc):
    """Rebuild a model from a parsed mcae-v1 document, checking its shapes."""
    domains = list(doc["domains"])
    stacks = persist.autoencoder_stacks(doc["layers"], "domain")
    if len(domains) < 2 or sorted(map(str, stacks)) != sorted(map(str, domains)):
        raise ValueError(f"layers must cover exactly the domains {domains}, at least two")
    shapes = [[layer.weights.shape for layer in sum(stacks[d], [])] for d in domains]
    if shapes.count(shapes[0]) != len(shapes):
        raise ValueError("every domain must have the same layer shapes")
    model = McaeModel(
        domains, {d: stacks[d][0] for d in domains}, {d: stacks[d][1] for d in domains}
    )
    if doc.get("kmeans") is not None:
        centroids = doc["kmeans"]["centroids"]
        shape = (None, model.feature_dim)
        model.kmeans = KMeansState(persist.float_array(centroids, "kmeans centroids", shape))
    return model
