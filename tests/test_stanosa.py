import json
import tracemalloc

import numpy as np
import pytest

from staininv import dataset, stanosa
from staininv.dataset import extract_patches, gcn, generate_base_images, zca_apply, zca_fit
from staininv.mcae import mcae_init
from staininv.stanosa import (
    StanosaTrainConfig,
    feature_extractor,
    load_stanosa,
    save_stanosa,
    stanosa_init,
    stanosa_preprocess,
    train_stanosa,
)


def _patches(seed, n_images=30, size=32):
    imgs = generate_base_images(n_images, size, seed=seed)
    return np.concatenate([extract_patches(im, 8, 8) for im in imgs])


def test_architecture_matches_one_mcae_channel():
    model = stanosa_init(seed=0)
    mcae = mcae_init(["A", "B"], seed=0)
    for ours, theirs in zip(model.encoder + model.decoder,
                            mcae.encoders["A"] + mcae.decoders["A"]):
        assert ours.weights.shape == theirs.weights.shape
        assert ours.activation == theirs.activation


def test_preprocess_requires_fitted_zca():
    with pytest.raises(ValueError):
        stanosa_preprocess(np.zeros(192), None)


def test_preprocess_constant_patch():
    data = _patches(1)[:500]
    zca = zca_fit(gcn(data))
    out = stanosa_preprocess(np.full(192, 120.0), zca)
    # constant patches become all-zero after GCN, so only -mean remains
    assert np.allclose(out, zca_apply(zca, np.zeros(192)), atol=1e-12)


def test_preprocess_shift_scale_invariance():
    data = _patches(2)[:500]
    zca = zca_fit(gcn(data))
    x = data[7]
    assert np.allclose(
        stanosa_preprocess(3.0 * x + 11.0, zca), stanosa_preprocess(x, zca), atol=1e-6
    )


def test_preprocess_whitens_fitting_population():
    data = _patches(3)[:2000]
    fit_pop = gcn(data)
    zca = zca_fit(fit_pop)
    white = stanosa_preprocess(data, zca)
    cov = white.T @ white / white.shape[0]
    off = cov - np.diag(np.diag(cov))
    # the GCN'd population has one exactly-null direction (zero patch mean),
    # so identity holds only up to epsilon leakage along it
    assert np.abs(off).max() < 0.02
    assert np.all(np.diag(cov) > 0.9) and np.all(np.diag(cov) < 1.01)


def test_preprocess_deterministic():
    data = _patches(4)[:300]
    zca = zca_fit(gcn(data))
    assert np.array_equal(
        stanosa_preprocess(data[:10], zca), stanosa_preprocess(data[:10], zca)
    )


def test_train_loss_decreases_single_term_log():
    data = _patches(5, n_images=12, size=16)
    config = StanosaTrainConfig(epochs=10, lr=0.002, batch=64, seed=0)
    model, log = train_stanosa(stanosa_init(seed=1), data, config)
    assert len(log) == config.epochs
    assert log[-1]["losses"]["reconstruction"] < log[0]["losses"]["reconstruction"]
    assert all(set(entry["losses"]) == {"reconstruction"} for entry in log)
    assert model.zca is not None


def test_train_rejects_empty():
    with pytest.raises(ValueError):
        train_stanosa(stanosa_init(seed=0), np.zeros((0, 192)), StanosaTrainConfig())


def test_train_deterministic_bitwise(tmp_path):
    data = _patches(6, n_images=8, size=16)
    config = StanosaTrainConfig(epochs=2, batch=64, seed=5)
    m1, _ = train_stanosa(stanosa_init(seed=2), data, config)
    m2, _ = train_stanosa(stanosa_init(seed=2), data, config)
    p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
    save_stanosa(m1, p1)
    save_stanosa(m2, p2)
    assert p1.read_bytes() == p2.read_bytes()

    back = load_stanosa(p1)
    assert np.array_equal(back.zca.matrix, m1.zca.matrix)
    for l1, l2 in zip(m1.encoder + m1.decoder, back.encoder + back.decoder):
        assert np.array_equal(l1.weights, l2.weights)


def test_train_on_bytes_equals_train_on_their_float64_cast(tmp_path, monkeypatch):
    # more rows than one GCN/whitening block, so the blocked path runs, and more than the
    # ZCA sample, so the whitening transform is fitted on a random subset
    monkeypatch.setattr(stanosa, "ZCA_SAMPLE", 3000)
    data = _patches(8, n_images=70, size=64)
    assert data.dtype == np.uint8 and data.shape[0] > dataset._ROW_BLOCK
    config = StanosaTrainConfig(epochs=1, batch=1000, seed=6)
    runs = []
    for patches in (data, data.astype(np.float64)):
        model, log = train_stanosa(stanosa_init(seed=5), patches, config)
        path = tmp_path / f"{patches.dtype}.json"
        save_stanosa(model, path)
        runs.append((path.read_bytes(), json.dumps(log)))
    assert runs[0] == runs[1]


def _traced_peak(fn):
    """Peak bytes allocated while ``fn()`` runs; numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _tall_bytes():
    """A uint8 patch matrix of more than three GCN/whitening blocks, and its float64 size."""
    rows = 3 * dataset._ROW_BLOCK + 5
    data = np.random.default_rng(31).integers(0, 256, size=(rows, 192), dtype=np.uint8)
    return data, rows * 192 * 8


def test_preprocess_holds_one_full_size_float64_matrix():
    # the GCN output is whitened in place: one float64 matrix plus block-sized
    # temporaries, where a second full-size matrix would make it 2.5
    data, float64_bytes = _tall_bytes()
    zca = zca_fit(gcn(data[:2000]))
    before = data.copy()
    assert _traced_peak(lambda: stanosa_preprocess(data, zca)) < 2.0 * float64_bytes
    assert np.array_equal(data, before)


def test_train_holds_one_full_size_float64_matrix_at_a_time():
    # the ZCA fit centres its GCN sample in place, and that sample is gone before
    # the whole matrix is preprocessed
    data, float64_bytes = _tall_bytes()
    assert data.shape[0] < stanosa.ZCA_SAMPLE  # the sample is every row
    config = StanosaTrainConfig(epochs=0, seed=2)
    peak = _traced_peak(lambda: train_stanosa(stanosa_init(seed=1), data, config))
    assert peak < 2.2 * float64_bytes


def test_feature_extractor_shapes():
    data = _patches(7, n_images=8, size=16)
    model, _ = train_stanosa(
        stanosa_init(seed=3), data, StanosaTrainConfig(epochs=1, seed=1)
    )
    ext = feature_extractor(model)
    feats = ext.encode_patches(data[:6])
    assert feats.shape == (6, 10)
    with pytest.raises(ValueError):
        feature_extractor(stanosa_init(seed=4))


def test_train_rejects_zero_batch():
    data = _patches(7, n_images=4, size=16)
    with pytest.raises(ValueError, match="batch"):
        train_stanosa(stanosa_init(seed=0), data, StanosaTrainConfig(epochs=1, batch=0))


def test_load_stanosa_rejects_mismatched_zca_naming_file(tmp_path):
    from staininv.persist import UsageError

    data = _patches(8, n_images=4, size=16)
    model, _ = train_stanosa(stanosa_init(seed=1), data, StanosaTrainConfig(epochs=1))
    path = tmp_path / "s.json"
    save_stanosa(model, path)
    doc = json.loads(path.read_text())
    doc["zca"]["mean"].pop()
    path.write_text(json.dumps(doc))
    with pytest.raises(UsageError, match=str(path)):
        load_stanosa(path)
