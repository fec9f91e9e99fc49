"""Frozen-extractor tissue classification: patch-grid features + conv head.

An image is cut into non-overlapping 8x8 patches, each patch is encoded by
a frozen feature extractor (with its model-specific preprocessing), and the
resulting feature grid is classified by two same-padded 3x3 convolutions
(leaky-relu after each, including the last) followed by global average
pooling down to one logit per class.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from . import persist
from .dataset import (
    Image, extract_patches, listed_names, listed_value, load_listed_image, paint_blobs,
    save_image,
)
from .numerics import (
    conv2d_backward,
    conv2d_forward,
    conv2d_init,
    derive_seed,
    fit,
    param_checksum,
)


def featurize(extractor, image):
    """Encode an image into its (grid_h, grid_w, feature_dim) patch grid."""
    pixels = image.pixels if isinstance(image, Image) else np.asarray(image)
    h, w = pixels.shape[:2]
    if h % 8 or w % 8:
        raise ValueError(f"image dims {h}x{w} must be divisible by 8")
    patches = extract_patches(pixels, size=8, stride=8)
    features = extractor.encode_patches(patches)
    return features.reshape(h // 8, w // 8, features.shape[1])


@dataclass
class ClassifierHead:
    conv1: object  # Conv2dLayer feature_dim -> hidden, 3x3, same padding
    conv2: object  # Conv2dLayer hidden -> n_classes

    @property
    def n_classes(self):
        return self.conv2.kernels.shape[0]


def head_init(n_classes, seed, in_channels=10, hidden=32):
    rng = np.random.default_rng(derive_seed(seed, "head-init"))
    return ClassifierHead(
        conv1=conv2d_init(in_channels, hidden, 3, rng, activation="leaky_relu"),
        conv2=conv2d_init(hidden, n_classes, 3, rng, activation="leaky_relu"),
    )


def head_params(head):
    return [head.conv1.kernels, head.conv1.bias, head.conv2.kernels, head.conv2.bias]


def _head_forward(head, x):
    """x: (batch, channels, h, w) -> logits (batch, n_classes), with caches."""
    a1, cols1 = conv2d_forward(head.conv1, x)
    a2, cols2 = conv2d_forward(head.conv2, a1)
    return a2.mean(axis=(2, 3)), (x, cols1, a1, cols2, a2)


def _head_backward(head, caches, dlogits):
    x, cols1, a1, cols2, a2 = caches
    h, w = a2.shape[2:]
    da2 = np.broadcast_to(dlogits[:, :, None, None] / (h * w), a2.shape)
    g2, da1 = conv2d_backward(head.conv2, a1, da2, a2, cols2)
    g1, _ = conv2d_backward(head.conv1, x, da1, a1, cols1)
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


def generate_labeled_set(n_per_class, size=32, seed=0):
    """Three synthetic texture classes with distinct colour statistics."""
    palettes = [
        # (background ranges, blob ranges) per class: reddish / purple / green-tan
        (((205, 240), (140, 175), (140, 175)), ((150, 200), (50, 100), (60, 110))),
        (((150, 185), (130, 165), (200, 240)), ((60, 100), (40, 80), (140, 190))),
        (((190, 225), (195, 235), (140, 175)), ((90, 140), (130, 180), (60, 110))),
    ]
    class_names = ["eosin_rich", "haematoxylin_rich", "counterstain"]
    images, labels = [], []
    for label, (bg, blob) in enumerate(palettes):
        for i in range(n_per_class):
            rng = np.random.default_rng(derive_seed(seed, f"labeled-{label}-{i}"))
            base = np.empty((size, size, 3))
            for ch in range(3):
                base[..., ch] = rng.uniform(*bg[ch])
            base = paint_blobs(base, rng, (3, 9), (0.08, 0.22), blob, 0.8)
            base += rng.normal(0.0, 3.0, size=base.shape)
            images.append(Image(np.clip(np.rint(base), 2, 253).astype(np.uint8)))
            labels.append(label)
    return LabeledImageSet(images=images, labels=np.array(labels), class_names=class_names)


def split_labeled(dataset, seed=0):
    """Deterministic 75/5/20 train/validation/test split."""
    n = len(dataset)
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(round(n * 0.75))
    n_val = int(round(n * 0.05))
    slices = (
        order[:n_train],
        order[n_train : n_train + n_val],
        order[n_train + n_val :],
    )
    return tuple(
        LabeledImageSet(
            images=[dataset.images[i] for i in idx],
            labels=dataset.labels[idx],
            class_names=list(dataset.class_names),
        )
        for idx in slices
    )


def save_labeled_set(dataset, directory):
    os.makedirs(directory, exist_ok=True)
    items = []
    for i, (image, label) in enumerate(zip(dataset.images, dataset.labels)):
        name = f"image_{i:05d}.ppm"
        save_image(image, os.path.join(directory, name))
        items.append({"path": name, "label": int(label)})
    with open(os.path.join(directory, "labels.json"), "w") as fh:
        json.dump({"classes": list(dataset.class_names), "items": items}, fh, indent=2)
        fh.write("\n")


def load_labeled_set(directory):
    """Read a set written by ``save_labeled_set``.

    A UsageError names the file when ``labels.json`` is missing or malformed
    (it needs ``classes``, a non-empty list of distinct names, and a non-empty
    ``items`` list, each with a ``path`` and a ``label`` in the class set), or
    an image it lists fails ``load_listed_image`` or differs in size from the
    first.
    """
    listing = os.path.join(directory, "labels.json")
    doc = persist.read_json_object(listing, "dataset listing")
    classes = listed_names(doc, "classes", listing)
    items = listed_value(doc, "items", list, listing)
    if not items:
        raise persist.UsageError(f"malformed dataset listing {listing}: 'items' is empty")
    images, labels = [], []
    for i, item in enumerate(items):
        name = listed_value(item, "path", str, listing, f"item {i}")
        labels.append(listed_value(item, "label", int, listing, f"item {i}"))
        path = os.path.join(directory, name)
        image = load_listed_image(path)
        if not images:
            first_path, first = path, image
        elif image.pixels.shape != first.pixels.shape:
            raise persist.UsageError(
                f"malformed dataset listing {listing}: {path} is {image.width}x{image.height} "
                f"but {first_path} is {first.width}x{first.height}"
            )
        images.append(image)
    try:
        return LabeledImageSet(images=images, labels=labels, class_names=list(classes))
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
    maps = [
        featurize(extractor, image).transpose(2, 0, 1) for image in dataset.images
    ]
    return np.stack(maps)


def _accuracy(head, features, labels):
    logits, _ = _head_forward(head, features)
    return float(np.mean(logits.argmax(axis=1) == labels))


def train_classifier(extractor, head, train_set, val_set, config):
    """Train the head on frozen features; the extractor is never touched.

    Features are computed once up front (the extractor is frozen), and the
    extractor parameter checksum is verified unchanged after training.
    Returns the head and a ``numerics.fit`` log: per epoch the mean ``loss``
    and, with a validation split, ``val_accuracy``.
    """
    if len(train_set) == 0:
        raise ValueError("empty training set")
    checksum_before = extractor_checksum(extractor)
    x_train = _feature_batch(extractor, train_set)
    y_train = train_set.labels
    x_val = _feature_batch(extractor, val_set) if len(val_set) else None

    def step(idx):
        logits, caches = _head_forward(head, x_train[idx])
        loss, dlogits = _cross_entropy_batch(logits, y_train[idx])
        return {"loss": loss}, _head_backward(head, caches, dlogits)

    def end_epoch(epoch):
        if x_val is not None:
            return {"val_accuracy": _accuracy(head, x_val, val_set.labels)}

    log = fit(head_params(head), config.lr, x_train.shape[0], config.batch, config.epochs,
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
            "format": "clf-head-v1",
            "pooling": "avg",
            "conv1": persist.layer_record(head.conv1),
            "conv2": persist.layer_record(head.conv2),
        },
        path,
    )


def load_head(path):
    return persist.read_model(path, {"clf-head-v1": head_from_doc})


def head_from_doc(doc):
    """Rebuild a head from a parsed clf-head-v1 document, checking its shapes.

    The document's ``pooling`` must be ``"avg"``, the one pooling the head has.
    """
    if doc["pooling"] != "avg":
        raise ValueError(f"pooling must be 'avg', got {doc['pooling']!r}")
    conv1, conv2 = persist.layer_chain(
        [doc["conv1"], doc["conv2"]], "conv2d", "classifier head"
    )
    return ClassifierHead(conv1=conv1, conv2=conv2)
