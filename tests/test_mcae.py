import json
import mmap
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from staininv.dataset import (
    Image, StainPerturbation, TripletDataset, extract_patches, generate_base_images,
    patch_store, scale_to_pm1, synth_triplets,
)
from staininv.mcae import (
    PM1_FLOAT32,
    KMeansState,
    McaeTrainConfig,
    cluster_loss,
    combined_loss_and_grads,
    feature_extractor,
    feature_loss,
    kmeans_assign,
    kmeans_fit,
    kmeans_objective,
    load_mcae,
    mcae_init,
    mcae_params,
    reconstruction_loss,
    save_mcae,
    train_mcae,
)
from staininv.mcae import (
    _layers, _model_on, _pairwise_sq_dists, _refit_kmeans, _update_centroids,
)
from staininv.numerics import (
    finite_diff_grad, layers_on, max_relative_error, mlp_forward, param_vector,
)


# --- kmeans ---


def test_kmeans_k1_centroid_is_mean():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(50, 4))
    state = kmeans_fit(x, k=1, seed=0)
    assert np.allclose(state.centroids[0], x.mean(axis=0), atol=1e-12)


def test_kmeans_two_blobs():
    rng = np.random.default_rng(1)
    blob_a = 10.0 * np.eye(5)[0] + 0.1 * rng.normal(size=(40, 5))
    blob_b = -10.0 * np.eye(5)[0] + 0.1 * rng.normal(size=(40, 5))
    state = kmeans_fit(np.vstack([blob_a, blob_b]), k=2, seed=1)
    found = sorted(state.centroids[:, 0])
    assert abs(found[0] - (-10.0)) < 0.2 and abs(found[1] - 10.0) < 0.2


def test_kmeans_insufficient_data():
    with pytest.raises(ValueError):
        kmeans_fit(np.zeros((2, 3)), k=5)


def test_kmeans_assign_ties_to_lowest_index():
    state = KMeansState(centroids=np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert kmeans_assign(state, np.array([[0.0, 0.0]]))[0] == 0


def test_kmeans_empty_cluster_repair_non_increasing():
    # two far points plus a pile at the origin; k=3 forces an empty cluster
    # whenever two seeds land in the pile
    x = np.vstack([np.zeros((10, 2)), [[100.0, 0.0]], [[0.0, 100.0]]])
    for seed in range(10):
        state = kmeans_fit(x, k=3, seed=seed)
        assert kmeans_objective(state, x) < 1e-6  # optimum separates all three


def _loop_update(x, labels, centroids):
    # the per-cluster update, one cluster after another
    for j in range(centroids.shape[0]):
        members = labels == j
        if members.any():
            centroids[j] = x[members].mean(axis=0)
        else:
            centroids[j] = x[_pairwise_sq_dists(x, centroids).min(axis=1).argmax()]


@pytest.mark.parametrize("seed", range(6))
def test_update_centroids_matches_the_loop_formula_bit_for_bit(seed):
    rng = np.random.default_rng(40 + seed)
    x = np.tanh(rng.normal(size=(500, 10)))
    x[:40] = -0.0  # a signed-zero pile
    centroids = x[rng.choice(500, 6, replace=False)]
    labels = _pairwise_sq_dists(x, centroids).argmin(axis=1)
    labels[labels == 2] = 4  # force an empty cluster between full ones
    if seed % 2:
        labels[labels == 5] = 0  # and one at the end
    sq = (x * x).sum(axis=1)[:, None] + (centroids * centroids).sum(axis=1)
    sq -= 2.0 * x @ centroids.T  # reference: the doubling applied to x, before the matmul
    assert np.maximum(sq, 0.0).tobytes() == _pairwise_sq_dists(x, centroids).tobytes()
    expected = centroids.copy()
    _loop_update(x, labels, expected)
    got = centroids.copy()
    _update_centroids(x, (x * x).sum(axis=1), labels, got)
    assert got.tobytes() == expected.tobytes()


def test_kmeans_objective_non_increasing_across_iterations():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(60, 3))
    # re-run Lloyd manually to observe the objective trajectory
    state = kmeans_fit(x, k=4, max_iters=1, seed=3)
    previous = kmeans_objective(state, x)
    for _ in range(10):
        labels = kmeans_assign(state, x)
        for j in range(4):
            members = labels == j
            if members.any():
                state.centroids[j] = x[members].mean(axis=0)
        value = kmeans_objective(state, x)
        assert value <= previous + 1e-9
        previous = value


def test_kmeans_deterministic():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(100, 6))
    a = kmeans_fit(x, k=5, seed=7)
    b = kmeans_fit(x, k=5, seed=7)
    assert np.array_equal(a.centroids, b.centroids)


# --- model basics ---


def test_encode_decode_shapes_and_ranges():
    model = mcae_init(["A", "B", "C"], seed=0)
    rng = np.random.default_rng(5)
    patch = rng.uniform(-1, 1, size=(1, 192))
    z = mlp_forward(model.encoders["A"], patch)
    assert z.shape == (1, 10)
    assert np.all(np.abs(z) < 1.0)
    out = mlp_forward(model.decoders["A"], z)
    assert out.shape == (1, 192)
    assert np.all(out > 0.0) and np.all(out < 1.0)


def test_encode_unknown_domain():
    model = mcae_init(["A", "B"], seed=0)
    with pytest.raises(KeyError):
        feature_extractor(model, "Z")


def test_zero_model_outputs():
    model = mcae_init(["A", "B"], seed=0)
    for layer in model.encoders["A"] + model.decoders["A"]:
        layer.weights[:] = 0.0
        layer.bias[:] = 0.0
    patch = np.random.default_rng(6).uniform(-1, 1, (1, 192))
    assert np.all(mlp_forward(model.encoders["A"], patch) == 0.0)
    assert np.all(mlp_forward(model.decoders["A"], np.zeros((1, 10))) == 0.5)


def test_encode_empty_batch():
    model = mcae_init(["A", "B"], seed=0)
    features = feature_extractor(model, "A").encode_patches(np.zeros((0, 192), np.uint8))
    assert features.shape == (0, model.feature_dim)


def test_encode_deterministic():
    model = mcae_init(["A", "B"], seed=0)
    patch = np.random.default_rng(7).integers(0, 256, (1, 192), dtype=np.uint8)
    extractor = feature_extractor(model, "A")
    assert np.array_equal(extractor.encode_patches(patch), extractor.encode_patches(patch))


# --- losses ---


def test_reconstruction_loss_values():
    assert reconstruction_loss(np.zeros((1, 4)), np.zeros((1, 4))) == 0.0
    assert reconstruction_loss(np.zeros((1, 192)), np.full((1, 192), 0.5)) == 0.25
    row = np.random.default_rng(8).uniform(size=(1, 192))
    doubled = np.vstack([row, row])
    assert reconstruction_loss(np.zeros((2, 192)), doubled) == pytest.approx(
        reconstruction_loss(np.zeros((1, 192)), row), rel=1e-15
    )
    with pytest.raises(ValueError):
        reconstruction_loss(np.zeros((1, 4)), np.zeros((2, 4)))


def test_feature_loss_values():
    z = np.zeros((3, 1, 10))
    assert feature_loss(z) == 0.0
    z[1] = 1.0  # domain B off by one everywhere, C equal to A
    assert feature_loss(z) == pytest.approx(0.5, rel=1e-15)


def test_feature_loss_patch_permutation_invariant():
    rng = np.random.default_rng(9)
    z = rng.normal(size=(3, 7, 10))
    perm = rng.permutation(7)
    assert feature_loss(z[:, perm]) == pytest.approx(feature_loss(z), rel=1e-12)


def test_feature_loss_errors():
    with pytest.raises(ValueError):
        feature_loss(np.zeros((1, 4, 10)))
    with pytest.raises(ValueError):
        feature_loss(np.zeros((3, 0, 10)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_property_feature_loss_zero_iff_equal(seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(3, 4, 5))
    z[1] = z[0]
    z[2] = z[0]
    assert feature_loss(z) == 0.0
    z[2, 1, 3] += 1e-6
    assert feature_loss(z) > 0.0


def test_cluster_loss_values():
    state = KMeansState(centroids=np.zeros((2, 10)))
    z = np.zeros((3, 1, 10))
    labels = np.array([0])
    assert cluster_loss(z, state, labels) == 0.0
    z[1, 0, 0] = 1.0  # one domain at unit squared distance
    assert cluster_loss(z, state, labels) == pytest.approx(1.0 / 30.0, rel=1e-15)


def test_cluster_loss_relabeling_invariant():
    rng = np.random.default_rng(10)
    centroids = rng.normal(size=(4, 10))
    z = rng.normal(size=(3, 6, 10))
    labels = rng.integers(0, 4, size=6)
    base = cluster_loss(z, KMeansState(centroids=centroids), labels)
    perm = np.array([2, 3, 1, 0])
    swapped = cluster_loss(
        z, KMeansState(centroids=centroids[perm]), np.argsort(perm)[labels]
    )
    assert swapped == pytest.approx(base, rel=1e-12)


def test_cluster_loss_label_out_of_range():
    state = KMeansState(centroids=np.zeros((2, 10)))
    with pytest.raises(IndexError):
        cluster_loss(np.zeros((3, 1, 10)), state, np.array([5]))


def test_combined_loss_zero_at_fabricated_fixed_point():
    # zeroed model on zero inputs: features sit at the centroid and coincide
    # across domains, and decode(0) == 0.5 matches the rescaled target of 0
    model = mcae_init(["A", "B"], seed=1, input_dim=12, hidden_dim=6, feature_dim=4)
    for domain in model.domain_ids:
        for layer in model.encoders[domain] + model.decoders[domain]:
            layer.weights[:] = 0.0
            layer.bias[:] = 0.0
    patches = np.zeros((2, 3, 12))
    model.kmeans = KMeansState(centroids=np.zeros((1, 4)))
    total, breakdown, _ = combined_loss_and_grads(model, patches)
    assert total == 0.0
    assert set(breakdown) == {"reconstruction", "feature", "cluster"}


def test_combined_loss_is_sum_of_terms():
    model = mcae_init(["A", "B", "C"], seed=2, input_dim=12, hidden_dim=5, feature_dim=4)
    rng = np.random.default_rng(11)
    patches = rng.uniform(-1, 1, size=(3, 6, 12))
    model.kmeans = kmeans_fit(mlp_forward(model.encoders["A"], patches[0]), k=2, seed=0)
    total, breakdown, _ = combined_loss_and_grads(model, patches)
    assert total == pytest.approx(sum(breakdown.values()), abs=1e-12)


def test_combined_loss_gradient_matches_finite_differences():
    model = mcae_init(["A", "B", "C"], seed=3, input_dim=192, hidden_dim=8, feature_dim=4)
    rng = np.random.default_rng(12)
    patches = rng.uniform(-0.9, 0.9, size=(3, 4, 192))
    model.kmeans = kmeans_fit(
        mlp_forward(model.encoders["A"], patches[0]) + 0.05 * rng.normal(size=(4, 4)), k=2, seed=0
    )
    labels = kmeans_assign(model.kmeans, mlp_forward(model.encoders["A"], patches[0]))
    _, _, grads = combined_loss_and_grads(model, patches, labels=labels)
    params = mcae_params(model)

    def loss(_v):
        return combined_loss_and_grads(model, patches, labels=labels)[0]

    # spot-check a representative subset: every parameter of domain A's
    # encoder / decoder biases, plus full weight checks on small layers
    for param, analytic in zip(params, grads):
        if param.size > 200:
            # check a slice to keep runtime modest
            flat = param.reshape(-1)
            aflat = analytic.reshape(-1)
            idx = np.linspace(0, flat.size - 1, 25, dtype=int)
            for i in idx:
                orig = flat[i]
                h = 1e-5
                flat[i] = orig + h
                fp = loss(None)
                flat[i] = orig - h
                fm = loss(None)
                flat[i] = orig
                numeric = (fp - fm) / (2 * h)
                assert max_relative_error(aflat[i], numeric) < 1e-4
        else:
            numeric = finite_diff_grad(loss, param)
            assert max_relative_error(analytic, numeric) < 1e-4


def test_pm1_table_is_the_float32_scaling_of_every_byte():
    expected = scale_to_pm1(np.arange(256, dtype=np.uint8)).astype(np.float32)
    assert PM1_FLOAT32.dtype == np.float32 and PM1_FLOAT32.tobytes() == expected.tobytes()
    store = np.random.default_rng(13).integers(0, 256, (3, 5, 4, 192), dtype=np.uint8)
    assert PM1_FLOAT32[store].tobytes() == scale_to_pm1(store).astype(np.float32).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_combined_reconstruction_term_is_the_reference_loss_bit_for_bit(dtype):
    model = mcae_init(["A", "B", "C"], seed=4, input_dim=192, hidden_dim=8, feature_dim=4)
    if dtype == np.float32:
        model = _model_on(model, param_vector(_layers(model)).astype(np.float32))
    patches = np.random.default_rng(14).uniform(-1.0, 1.0, size=(3, 9, 192)).astype(dtype)
    model.kmeans = kmeans_fit(mlp_forward(model.encoders["A"], patches[0]), k=2, seed=0)
    _, breakdown, _ = combined_loss_and_grads(model, patches)
    recons = [mlp_forward(model.decoders[d], mlp_forward(model.encoders[d], patches[i]))
              for i, d in enumerate(model.domain_ids)]
    assert breakdown["reconstruction"] == reconstruction_loss((patches + 1.0) / 2.0,
                                                              np.stack(recons))


def test_float32_gradients_agree_with_float64():
    model = mcae_init(["A", "B", "C"], seed=3, input_dim=192, hidden_dim=8, feature_dim=4)
    rng = np.random.default_rng(12)
    patches = rng.uniform(-0.9, 0.9, size=(3, 16, 192))
    model.kmeans = kmeans_fit(
        mlp_forward(model.encoders["A"], patches[0]) + 0.05 * rng.normal(size=(16, 4)), k=2, seed=0
    )
    labels = kmeans_assign(model.kmeans, mlp_forward(model.encoders["A"], patches[0]))
    total64, _, grads64 = combined_loss_and_grads(model, patches, labels=labels)
    mirror = param_vector(_layers(model)).astype(np.float32)
    total32, breakdown, grads32 = combined_loss_and_grads(
        _model_on(model, mirror), patches.astype(np.float32), labels=labels
    )
    assert all(type(v) is float for v in [total32, *breakdown.values()])
    assert total32 == pytest.approx(total64, rel=1e-6)
    for g32, g64 in zip(grads32, grads64):
        assert g32.dtype == np.float32 and g64.dtype == np.float64
        # relative to the gradient's scale: single elements may cancel to ~0
        assert np.abs(g32 - g64).max() <= 1e-4 * np.abs(g64).max()


# --- training ---


def _tiny_dataset(seed, n=12, size=16):
    base = generate_base_images(n, size, seed=seed)
    perts = {
        "B": StainPerturbation(rotation=0.35, offset=(0.03, 0.02)),
        "C": StainPerturbation(rotation=-0.3, scale=(1.1, 0.9)),
    }
    return synth_triplets(base, perts, seed=seed)


def test_train_epoch_zero_fits_kmeans_without_stepping():
    ds = _tiny_dataset(20)
    model = mcae_init(ds.domain_ids, seed=4)
    before = [p.copy() for p in mcae_params(model)]
    model, log = train_mcae(model, patch_store(ds, ds.domain_ids, 8),
                            McaeTrainConfig(epochs=0, k=3, seed=0))
    assert model.kmeans is not None and log == []
    assert all(np.array_equal(a, b) for a, b in zip(before, mcae_params(model)))


def test_train_keeps_float64_master_parameters():
    ds = _tiny_dataset(24)
    model = mcae_init(ds.domain_ids, seed=4)
    model, _ = train_mcae(model, patch_store(ds, ds.domain_ids, 8),
                          McaeTrainConfig(epochs=1, batch=4, k=3, seed=0))
    assert all(p.dtype == np.float64 for p in mcae_params(model))
    assert model.kmeans.centroids.dtype == np.float64


def test_train_loss_decreases_and_log_length():
    ds = _tiny_dataset(21)
    config = McaeTrainConfig(epochs=8, lr=0.002, batch=4, k=3, seed=1)
    model, log = train_mcae(mcae_init(ds.domain_ids, seed=5), patch_store(ds, ds.domain_ids, 8),
                            config)
    assert len(log) == config.epochs
    assert log[-1]["total"] < log[0]["total"]
    assert set(log[0]["losses"]) == {"reconstruction", "feature", "cluster"}


def test_train_deterministic_and_persistence_roundtrip(tmp_path):
    ds = _tiny_dataset(22)
    config = McaeTrainConfig(epochs=2, batch=4, k=3, seed=2)
    store = patch_store(ds, ds.domain_ids, 8)
    model1, _ = train_mcae(mcae_init(ds.domain_ids, seed=6), store, config)
    model2, _ = train_mcae(mcae_init(ds.domain_ids, seed=6), store, config)
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    save_mcae(model1, p1)
    save_mcae(model2, p2)
    assert p1.read_bytes() == p2.read_bytes()

    back = load_mcae(p1)
    for d in model1.domain_ids:
        for l1, l2 in zip(model1.encoders[d] + model1.decoders[d],
                          back.encoders[d] + back.decoders[d]):
            assert np.array_equal(l1.weights, l2.weights)
            assert np.array_equal(l1.bias, l2.bias)
    assert np.array_equal(model1.kmeans.centroids, back.kmeans.centroids)


def test_train_keeps_the_patch_store_in_bytes():
    # data prep holds the uint8 store and Adam's two moment copies of the
    # parameters; a float64 store alone would be eight times the uint8 one
    rng = np.random.default_rng(26)
    n, batch = 100, 4
    ds = TripletDataset(["A", "B", "C"], [
        {d: Image(rng.integers(0, 256, (32, 32, 3), dtype=np.uint8)) for d in "ABC"}
        for _ in range(n)
    ])
    model = mcae_init(ds.domain_ids, seed=7)
    store_bytes = 3 * n * 49 * 192  # stride 4 on 32 px: 7 x 7 sub-patches
    moment_bytes = 2 * sum(p.nbytes for p in mcae_params(model))
    config = McaeTrainConfig(epochs=0, batch=batch, k=3, kmeans_sample=60, seed=3)
    tracemalloc.start()
    try:
        train_mcae(model, patch_store(ds, ds.domain_ids, 4), config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one_batch = 8 * store_bytes * batch // n  # float64
    assert peak < store_bytes + moment_bytes + one_batch


def test_train_empty_dataset():
    no_triplets = np.empty((3, 0, 4, 192), np.uint8)
    with pytest.raises(ValueError, match="empty"):
        train_mcae(mcae_init(["A", "B", "C"], seed=0), no_triplets, McaeTrainConfig(epochs=1))


def test_patch_store_holds_each_images_8px_patches_in_domain_order():
    ds = _tiny_dataset(27, n=3)
    store = patch_store(ds, ["C", "A"], 4)
    assert store.dtype == np.uint8 and store.shape == (2, 3, 9, 192)  # 16 px at stride 4
    for d, domain in enumerate(["C", "A"]):
        for t, triplet in enumerate(ds.triplets):
            assert np.array_equal(store[d, t], extract_patches(triplet[domain], 4))


def test_patch_store_lives_in_its_own_mapping_released_with_it():
    # not in malloc's heap, whose mmap threshold a freed store would raise
    store = patch_store(_tiny_dataset(27, n=3), ["C", "A"], 4)
    mapping = store.base.base.obj  # reshaped array -> np.frombuffer array -> memoryview
    assert isinstance(mapping, mmap.mmap) and len(mapping) == store.nbytes
    released = weakref.ref(mapping)
    del mapping, store
    assert released() is None


def test_refit_peaks_below_the_float64_size_of_its_sample():
    # the sample is scaled to float32 a block at a time; a float64 copy of the
    # whole sample (let alone two) would break the bound.  A narrow encoder keeps
    # the forward pass's own activations (float32, hidden-width rows) well inside it.
    rng = np.random.default_rng(29)
    anchor = rng.integers(0, 256, (400, 49, 192), dtype=np.uint8)
    model = mcae_init(["A", "B"], seed=1, hidden_dim=32)
    config = McaeTrainConfig(k=10, kmeans_sample=10000, seed=4)
    encoder = model.encoders["A"]
    encoder = layers_on(encoder, param_vector(encoder).astype(np.float32))
    tracemalloc.start()
    try:
        _refit_kmeans(model, encoder, anchor, config, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.kmeans.k == 10
    assert peak < 8 * config.kmeans_sample * 192


def test_trained_model_beats_untrained_on_feature_loss():
    ds = _tiny_dataset(24, n=16)
    config = McaeTrainConfig(epochs=15, lr=0.003, batch=4, k=3, seed=3)
    trained, _ = train_mcae(mcae_init(ds.domain_ids, seed=7), patch_store(ds, ds.domain_ids, 8),
                            config)
    untrained = mcae_init(ds.domain_ids, seed=7)

    holdout = _tiny_dataset(25, n=6)

    def mean_feature_loss(model):
        values = []
        for triplet in holdout.triplets:
            z = np.stack(
                [
                    feature_extractor(model, d).encode_patches(extract_patches(triplet[d], 8))
                    for d in holdout.domain_ids
                ]
            )
            values.append(feature_loss(z))
        return np.mean(values)

    assert mean_feature_loss(trained) < mean_feature_loss(untrained)


def test_feature_extractor_checksum_and_encoding():
    model = mcae_init(["A", "B"], seed=8)
    ext = feature_extractor(model, "B")
    raw = np.random.default_rng(13).integers(0, 256, size=(5, 192)).astype(float)
    feats = ext.encode_patches(raw)
    assert feats.shape == (5, 10)
    assert np.all(np.abs(feats) < 1.0)


def test_train_rejects_zero_batch():
    ds = _tiny_dataset(25, n=4)
    config = McaeTrainConfig(epochs=1, batch=0, k=3, kmeans_sample=50)
    with pytest.raises(ValueError, match="batch"):
        train_mcae(mcae_init(ds.domain_ids, seed=0), patch_store(ds, ds.domain_ids, 8), config)


def _shrink_rows(record, n_out):
    """Cut a layer record down to its first n_out output units."""
    n_in = record["shape"][1]
    record["shape"] = [n_out, n_in]
    record["weights"] = record["weights"][: n_out * n_in]
    record["bias"] = record["bias"][:n_out]


@pytest.mark.parametrize("fault", ["kmeans-dim", "unequal-domains", "missing-domain"])
def test_load_mcae_rejects_inconsistent_model_naming_file(tmp_path, fault):
    from staininv.persist import UsageError

    model = mcae_init(["A", "B"], seed=1)
    model.kmeans = KMeansState(centroids=np.zeros((3, model.feature_dim)))
    path = tmp_path / "model.json"
    save_mcae(model, path)
    assert load_mcae(path).kmeans.centroids.shape == (3, 10)
    doc = json.loads(path.read_text())
    if fault == "kmeans-dim":
        doc["kmeans"]["centroids"] = [row[:-1] for row in doc["kmeans"]["centroids"]]
    elif fault == "unequal-domains":
        last_b = [r for r in doc["layers"] if r["domain"] == "B"][-1]
        _shrink_rows(last_b, last_b["shape"][0] - 1)
    else:
        doc["domains"].append("C")
    path.write_text(json.dumps(doc))
    with pytest.raises(UsageError, match=str(path)):
        load_mcae(path)
