import json

import numpy as np
import pytest

from staininv.classifier import (
    ClassifierTrainConfig,
    _cross_entropy_batch,
    _head_backward,
    _head_forward,
    evaluate_classifier,
    extractor_checksum,
    featurize,
    generate_labeled_set,
    head_init,
    head_params,
    load_head,
    load_labeled_set,
    save_head,
    save_labeled_set,
    split_labeled,
    train_classifier,
)
from staininv.dataset import Image
from staininv.mcae import feature_extractor, mcae_init
from staininv.numerics import DenseLayer, finite_diff_grad, max_relative_error


def _extractor(seed=0):
    return feature_extractor(mcae_init(["A", "B"], seed=seed), "A")


def _image(rng, size=32):
    return Image(rng.integers(0, 256, size=(size, size, 3), dtype=np.uint8))


# --- featurize ---


def test_featurize_grid_shapes():
    ext = _extractor()
    rng = np.random.default_rng(0)
    assert featurize(ext, _image(rng, 224)).shape == (28, 28, 10)
    assert featurize(ext, _image(rng, 8)).shape == (1, 1, 10)
    assert featurize(ext, _image(rng, 32)).shape == (4, 4, 10)


def test_featurize_rejects_indivisible():
    with pytest.raises(ValueError):
        featurize(_extractor(), _image(np.random.default_rng(1), 30))


def test_featurize_range_and_determinism():
    ext = _extractor()
    img = _image(np.random.default_rng(2))
    grid = featurize(ext, img)
    assert np.all(np.abs(grid) < 1.0)
    assert np.array_equal(grid, featurize(ext, img))


# --- head forward ---


def _kernels(layer):
    """A head layer's weights as (out, in, 3, 3) kernels: its inputs are channel-major."""
    return layer.weights.reshape(layer.n_out, -1, 3, 3)


def test_zero_head_gives_zero_logits():
    head = head_init(3, seed=0)
    head.conv1.weights[:] = 0.0
    head.conv2.weights[:] = 0.0
    features = np.random.default_rng(3).normal(size=(4, 4, 10))
    logits = _head_forward(head, features[None])[0][0]
    assert np.array_equal(logits, np.zeros(3))


def test_classify_single_location_closed_form():
    # on a 1x1 grid every 3x3 tap except the centre lands on zero padding,
    # so pooling is the identity and the logits have a closed form
    head = head_init(3, seed=1)
    x = np.random.default_rng(4).normal(size=10)

    def leaky(v):
        return np.where(v >= 0, v, 0.01 * v)

    hidden = leaky(_kernels(head.conv1)[:, :, 1, 1] @ x + head.conv1.bias)
    expected = leaky(_kernels(head.conv2)[:, :, 1, 1] @ hidden + head.conv2.bias)
    logits = _head_forward(head, x[None, None, None, :])[0][0]
    assert np.allclose(logits, expected, atol=1e-12)


def test_classify_constant_field_pooling_matches_brute_force():
    # constant feature field: recompute the pooled logits with explicit
    # loops over positions and kernel taps (zero padding included)
    head = head_init(2, seed=7, in_channels=3, hidden=4)
    c = np.random.default_rng(8).normal(size=3)
    size = 5
    field = np.tile(c, (size, size, 1))

    def conv_at(layer, grid, i, j):
        kernels = _kernels(layer)
        acc = layer.bias.copy()
        for di in range(3):
            for dj in range(3):
                ii, jj = i + di - 1, j + dj - 1
                if 0 <= ii < grid.shape[0] and 0 <= jj < grid.shape[1]:
                    acc += kernels[:, :, di, dj] @ grid[ii, jj]
        return np.where(acc >= 0, acc, 0.01 * acc)

    hidden = np.stack(
        [[conv_at(head.conv1, field, i, j) for j in range(size)] for i in range(size)]
    )
    out = np.stack(
        [[conv_at(head.conv2, hidden, i, j) for j in range(size)] for i in range(size)]
    )
    expected = out.mean(axis=(0, 1))
    logits = _head_forward(head, field[None])[0][0]
    assert np.allclose(logits, expected, atol=1e-12)


def test_classify_channel_mismatch():
    with pytest.raises(ValueError):
        _head_forward(head_init(3, seed=0), np.zeros((1, 4, 4, 7)))


def test_cross_entropy_values():
    def cross_entropy(logits, label):
        return _cross_entropy_batch(logits[None], np.array([label]))[0]

    assert cross_entropy(np.zeros(5), 2) == pytest.approx(np.log(5.0), rel=1e-12)
    assert cross_entropy(np.array([10.0, 0.0]), 0) == pytest.approx(
        4.5398899216870535e-05, rel=1e-9
    )
    shifted = cross_entropy(np.array([3.0, 1.0, 0.5]) + 7.0, 1)
    assert shifted == pytest.approx(cross_entropy(np.array([3.0, 1.0, 0.5]), 1), rel=1e-12)


def test_head_gradient_matches_finite_differences():
    head = head_init(3, seed=2, in_channels=4, hidden=5)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 3, 3, 4))
    labels = np.array([0, 2])

    def loss(_v):
        logits, _ = _head_forward(head, x)
        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        return float(-np.log(probs[np.arange(2), labels]).mean())

    logits, caches = _head_forward(head, x)
    _, dlogits = _cross_entropy_batch(logits, labels)
    grads = _head_backward(head, caches, dlogits)
    for param, grad in zip(head_params(head), grads):
        numeric = finite_diff_grad(loss, param)
        assert max_relative_error(grad, numeric) < 1e-4


# --- labeled sets ---


def test_labeled_set_generation_and_split_counts():
    ds = generate_labeled_set(n_per_class=20, size=16, seed=0)
    assert len(ds) == 60 and len(ds.class_names) == 3
    train, val, test = split_labeled(ds, seed=1)
    assert (len(train), len(val), len(test)) == (45, 3, 12)
    assert len(train) + len(val) + len(test) == len(ds)


def test_labeled_set_split_100k_style_counts():
    # count arithmetic only, mirrors the standard 75-5-20 protocol
    ds = generate_labeled_set(n_per_class=100, size=8, seed=2)
    train, val, test = split_labeled(ds, seed=0)
    assert (len(train), len(val), len(test)) == (225, 15, 60)


def test_labeled_set_manifest_roundtrip(tmp_path):
    ds = generate_labeled_set(n_per_class=3, size=8, seed=3)
    save_labeled_set(ds, tmp_path / "labeled")
    back = load_labeled_set(tmp_path / "labeled")
    assert back.class_names == ds.class_names
    assert np.array_equal(back.labels, ds.labels)
    assert all(
        np.array_equal(a.pixels, b.pixels) for a, b in zip(ds.images, back.images)
    )


def test_labels_json_is_a_sorted_key_result_document(tmp_path):
    save_labeled_set(generate_labeled_set(n_per_class=1, size=8, seed=3), tmp_path)
    text = (tmp_path / "labels.json").read_text()
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert list(doc) == ["classes", "items", "path"]
    assert doc["path"] == "images.ppm" and doc["items"] == [{"label": 0}, {"label": 1},
                                                            {"label": 2}]


def test_labeled_set_validation():
    from staininv.classifier import LabeledImageSet

    img = Image(np.zeros((8, 8, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        LabeledImageSet(images=[img], labels=np.array([3]), class_names=["a", "b"])
    with pytest.raises(ValueError):
        LabeledImageSet(images=[img], labels=np.array([-1]), class_names=["a", "b"])


# --- training ---


def test_train_classifier_freezes_encoder_and_learns():
    ext = _extractor(seed=4)
    ds = generate_labeled_set(n_per_class=25, size=32, seed=4)
    train, val, test = split_labeled(ds, seed=2)
    before = extractor_checksum(ext)
    head = head_init(3, seed=5)
    config = ClassifierTrainConfig(epochs=25, lr=0.01, batch=16, seed=0)
    head, log = train_classifier(ext, head, train, val, config)
    assert extractor_checksum(ext) == before
    assert len(log) == config.epochs
    assert max(entry["val_accuracy"] for entry in log) >= 0.9
    y_true, y_pred = evaluate_classifier(ext, head, test)
    assert float(np.mean(y_true == y_pred)) >= 0.8


def test_train_classifier_empty_set():
    from staininv.classifier import LabeledImageSet

    empty = LabeledImageSet(images=[], labels=np.array([], dtype=np.int64),
                            class_names=["a"])
    with pytest.raises(ValueError):
        train_classifier(_extractor(), head_init(1, seed=0), empty, empty,
                         ClassifierTrainConfig(epochs=1))


def test_head_persistence_roundtrip(tmp_path):
    head = head_init(4, seed=6)
    save_head(head, tmp_path / "head.json")
    back = load_head(tmp_path / "head.json")
    assert np.array_equal(back.conv1.weights, head.conv1.weights)
    assert np.array_equal(back.conv2.weights, head.conv2.weights)
    doc = json.loads((tmp_path / "head.json").read_text())
    assert doc["format"] == "clf-head-v2" and set(doc) == {"format", "conv1", "conv2"}
    assert back.conv2.activation == "leaky_relu"


def test_train_classifier_rejects_zero_batch():
    ds = generate_labeled_set(n_per_class=2, size=16, seed=1)
    with pytest.raises(ValueError, match="batch"):
        train_classifier(_extractor(), head_init(3, seed=0), ds, ds,
                         ClassifierTrainConfig(epochs=1, batch=0))


def test_load_head_rejects_wrong_conv2_width_naming_file(tmp_path):
    from staininv.persist import UsageError, layer_record

    # conv2 reads 9 taps of each of conv1's 32 outputs; one of 32 inputs is a dense
    # layer on the grid cell alone, no 3x3 convolution
    path = tmp_path / "head.json"
    save_head(head_init(3, seed=1), path)
    doc = json.loads(path.read_text())
    doc["conv2"] = layer_record(DenseLayer(np.zeros((3, 32)), np.zeros(3), "leaky_relu"))
    path.write_text(json.dumps(doc))
    with pytest.raises(UsageError, match=f"{path}.*conv2 takes 32 inputs, not the 9 x 32"):
        load_head(path)
