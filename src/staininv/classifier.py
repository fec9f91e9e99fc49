"""Frozen-extractor tissue classification: patch-grid features + conv head.

An image is cut into non-overlapping 8x8 patches, each patch is encoded by
a frozen feature extractor (with its model-specific preprocessing), and the
resulting (h, w, features) grid is classified by two same-padded 3x3
convolutions (leaky-relu after each, including the last) followed by global
average pooling down to one logit per class.  Each convolution is a
``DenseLayer`` applied to every grid cell's 3x3 neighbourhood
(``numerics.conv2d_forward``).
"""

import os
from dataclasses import dataclass

import numpy as np

from . import persist
from .dataset import (
    BlobTexture, Image, extract_patches, listed_value, load_listed_images, mapped_array,
    paint_textures, read_listing, save_ppm, split_order,
)
from .numerics import (
    DenseLayer,
    conv2d_backward,
    conv2d_forward,
    derive_seed,
    fit,
    glorot_uniform,
    mlp_params,
    param_checksum,
    param_vector,
    param_views,
)


def featurize(extractor, image):
    """Encode an image into its (grid_h, grid_w, feature_dim) patch grid."""
    pixels = image.pixels if isinstance(image, Image) else np.asarray(image)
    h, w = pixels.shape[:2]
    if h % 8 or w % 8:
        raise ValueError(f"image dims {h}x{w} must be divisible by 8")
    patches = extract_patches(pixels, stride=8)
    features = extractor.encode_patches(patches)
    return features.reshape(h // 8, w // 8, features.shape[1])


@dataclass
class ClassifierHead:
    conv1: DenseLayer  # 9 * feature_dim -> hidden, a 3x3 convolution
    conv2: DenseLayer  # 9 * hidden -> n_classes

    @property
    def n_classes(self):
        return self.conv2.n_out


def head_init(n_classes, seed, in_channels=10, hidden=32):
    """Glorot-uniform 3x3 convolutions (fan over the 9 taps), zero bias, leaky-relu."""
    rng = np.random.default_rng(derive_seed(seed, "head-init"))

    def conv(n_in, n_out):
        weights = glorot_uniform(n_out, n_in, rng, receptive=9)
        return DenseLayer(weights, np.zeros(n_out), "leaky_relu")

    return ClassifierHead(conv1=conv(in_channels, hidden), conv2=conv(hidden, n_classes))


def head_params(head):
    return mlp_params([head.conv1, head.conv2])


def _head_forward(head, x):
    """x: (batch, h, w, channels) -> logits (batch, n_classes), with caches."""
    a1, rows1 = conv2d_forward(head.conv1, x)
    a2, rows2 = conv2d_forward(head.conv2, a1)
    return a2.mean(axis=(1, 2)), (rows1, a1, rows2, a2)


def _head_backward(head, caches, dlogits):
    rows1, a1, rows2, a2 = caches
    h, w = a2.shape[1:3]
    da2 = np.broadcast_to(dlogits[:, None, None, :] / (h * w), a2.shape)
    g2, da1 = conv2d_backward(head.conv2, rows2, da2, a2)
    g1, _ = conv2d_backward(head.conv1, rows1, da1, a1, inputs=False)
    return g1 + g2


def _cross_entropy_batch(logits, labels):
    shifted = logits - logits.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    probs = exps / exps.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    losses = -np.log(probs[np.arange(n), labels])
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    return float(losses.mean()), dlogits / n


@dataclass
class LabeledImageSet:
    images: list
    labels: np.ndarray
    class_names: list

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.images) != self.labels.shape[0]:
            raise ValueError("one label per image required")
        if self.labels.size and not 0 <= self.labels.min() <= self.labels.max() < len(
            self.class_names
        ):
            raise ValueError("label outside the class set")

    def __len__(self):
        return len(self.images)


#: the labelled set's classes, each a texture with its own colour statistics
CLASS_TEXTURES = {
    name: BlobTexture(background=background, wash=None, count=(3, 9), radius=(0.08, 0.22),
                      colours=colours, opacity=0.8, noise=3.0, bounds=(2, 253))
    for name, background, colours in [
        ("eosin_rich", ((205, 240), (140, 175), (140, 175)), ((150, 200), (50, 100), (60, 110))),
        ("haematoxylin_rich", ((150, 185), (130, 165), (200, 240)),
         ((60, 100), (40, 80), (140, 190))),
        ("counterstain", ((190, 225), (195, 235), (140, 175)), ((90, 140), (130, 180), (60, 110))),
    ]
}


def generate_labeled_set(n_per_class, size=32, seed=0):
    """``n_per_class`` images of each of the ``CLASS_TEXTURES``, as the rows of one
    ``dataset.mapped_array``."""
    block = mapped_array((len(CLASS_TEXTURES) * n_per_class, size, size, 3), np.uint8)
    for label, texture in enumerate(CLASS_TEXTURES.values()):
        paint_textures(block[label * n_per_class : (label + 1) * n_per_class], texture,
                       (derive_seed(seed, f"labeled-{label}-{i}") for i in range(n_per_class)))
    return LabeledImageSet(images=[Image(pixels) for pixels in block],
                           labels=np.repeat(np.arange(len(CLASS_TEXTURES)), n_per_class),
                           class_names=list(CLASS_TEXTURES))


def split_labeled(dataset, seed=0):
    """Deterministic 75/5/20 train/validation/test split."""
    return tuple(
        LabeledImageSet(
            images=[dataset.images[i] for i in idx],
            labels=dataset.labels[idx],
            class_names=list(dataset.class_names),
        )
        for idx in split_order(len(dataset), [0.75, 0.05], seed)
    )


def save_labeled_set(dataset, directory):
    """Write the images to one multi-image PPM file, ``images.ppm``, plus a ``labels.json``
    naming it and holding one item, the image's label, per image in order."""
    os.makedirs(directory, exist_ok=True)
    save_ppm(dataset.images, os.path.join(directory, "images.ppm"))
    persist.write_json(os.path.join(directory, "labels.json"), {
        "classes": list(dataset.class_names), "path": "images.ppm",
        "items": [{"label": int(label)} for label in dataset.labels],
    })


def load_labeled_set(directory):
    """Read a set written by ``save_labeled_set``.

    A UsageError names the file when ``labels.json`` is missing or malformed
    (it needs ``classes``, a non-empty list of distinct names, ``path``, naming
    the image file, and a non-empty ``items`` list, each with a ``label`` in
    the class set), or the image file fails ``load_listed_images``.
    """
    listing, doc, classes = read_listing(directory, "labels.json", "classes")
    path = os.path.join(directory, listed_value(doc, "path", str, listing))
    items = listed_value(doc, "items", list, listing)
    if not items:
        raise persist.UsageError(f"malformed dataset listing {listing}: 'items' is empty")
    labels = [listed_value(item, "label", int, listing, f"item {i}")
              for i, item in enumerate(items)]
    [images] = load_listed_images(listing, [path], len(items))
    try:
        return LabeledImageSet(images=[Image(pixels) for pixels in images], labels=labels,
                               class_names=list(classes))
    except (ValueError, OverflowError) as exc:  # a label outside the classes or int64
        raise persist.UsageError(f"malformed dataset listing {listing}: {exc}") from None


@dataclass
class ClassifierTrainConfig:
    epochs: int = 100
    lr: float = 0.0002
    batch: int = 32
    seed: int = 0


def extractor_checksum(extractor):
    return param_checksum(extractor.param_arrays())


def _feature_batch(extractor, dataset):
    return np.stack([featurize(extractor, image) for image in dataset.images])


def _accuracy(head, features, labels):
    logits, _ = _head_forward(head, features)
    return float(np.mean(logits.argmax(axis=1) == labels))


def train_classifier(extractor, head, train_set, val_set, config):
    """Train the head on frozen features; the extractor is never touched.

    Features are computed once up front (the extractor is frozen), and the
    extractor parameter checksum is verified unchanged after training.
    Returns the head and a ``numerics.fit`` log: per epoch the mean ``loss``
    and, with a validation split, ``val_accuracy``.  The head's parameters
    become views of one vector, which Adam updates.
    """
    if len(train_set) == 0:
        raise ValueError("empty training set")
    checksum_before = extractor_checksum(extractor)
    x_train = _feature_batch(extractor, train_set)
    y_train = train_set.labels
    x_val = _feature_batch(extractor, val_set) if len(val_set) else None

    # the head's parameters as one vector for Adam, each step's gradients in one beside it
    vector = param_vector([head.conv1, head.conv2])
    grad = np.empty_like(vector)
    grads = param_views([head.conv1, head.conv2], grad)

    def step(idx):
        logits, caches = _head_forward(head, x_train[idx])
        loss, dlogits = _cross_entropy_batch(logits, y_train[idx])
        for view, value in zip(grads, _head_backward(head, caches, dlogits)):
            np.copyto(view, value)
        return {"loss": loss}, grad

    def end_epoch(epoch):
        if x_val is not None:
            return {"val_accuracy": _accuracy(head, x_val, val_set.labels)}

    log = fit(vector, config.lr, x_train.shape[0], config.batch, config.epochs,
              config.seed, "clf-shuffle", step, end_epoch)
    if extractor_checksum(extractor) != checksum_before:
        raise RuntimeError("frozen extractor parameters changed during training")
    return head, log


def evaluate_classifier(extractor, head, test_set):
    """Predicted labels for a labeled set; returns (true, predicted)."""
    features = _feature_batch(extractor, test_set)
    logits, _ = _head_forward(head, features)
    return test_set.labels.copy(), logits.argmax(axis=1)


def save_head(head, path):
    persist.dump_json(
        {
            "format": "clf-head-v2",
            "conv1": persist.layer_record(head.conv1),
            "conv2": persist.layer_record(head.conv2),
        },
        path,
    )


def load_head(path):
    return persist.read_model(path, {"clf-head-v2": head_from_doc})


def head_from_doc(doc):
    """Rebuild a head from a parsed clf-head-v2 document, checking its shapes: conv2
    reads the 3x3 neighbourhoods of conv1's outputs."""
    conv1, conv2 = (persist.layer_from_record(doc[key]) for key in ("conv1", "conv2"))
    if conv2.n_in != 9 * conv1.n_out:
        raise ValueError(f"classifier head: conv2 takes {conv2.n_in} inputs, not the "
                         f"9 x {conv1.n_out} of conv1's 3x3 neighbourhoods")
    return ClassifierHead(conv1=conv1, conv2=conv2)
