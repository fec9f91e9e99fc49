import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from staininv.dataset import Image, StainPerturbation, generate_base_images, synth_triplets
from staininv.mcae import feature_extractor, mcae_init
from staininv.metrics import (
    classification_report,
    cxcy_sample,
    density_ssim_table,
    domain_pairs,
    nfmse,
    nfmse_per_triplet,
    normalize_feature_map,
    REFERENCE_DENSITY_SSIM,
    REFERENCE_NFMSE,
    REFERENCE_TISSUE_CLASSIFICATION,
)


# --- normalisation ---


def test_normalize_constant_channel_is_zero():
    z = np.full((4, 4, 2), 3.0)
    out = normalize_feature_map(z)
    assert np.all(out == 0.0)


def test_normalize_two_value_channel():
    z = np.zeros((1, 2, 1))
    z[0, 1, 0] = 2.0
    out = normalize_feature_map(z)
    assert np.allclose(out.reshape(-1), [-1.0, 1.0], atol=1e-7)


def test_normalize_output_statistics():
    rng = np.random.default_rng(0)
    z = rng.normal(3.0, 2.5, size=(20, 30, 5))
    out = normalize_feature_map(z)
    means = out.mean(axis=(0, 1))
    stds = out.std(axis=(0, 1))
    assert np.abs(means).max() < 1e-9
    assert np.abs(stds - 1.0).max() < 1e-6


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=-5.0, max_value=5.0),
)
def test_property_normalize_affine_invariance(seed, a, b):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(6, 7, 3))
    base = normalize_feature_map(z)
    scaled = normalize_feature_map(a * z + b)
    assert np.abs(scaled - base).max() < 1e-6


# --- nfmse ---


def test_nfmse_identical_zero_and_symmetry():
    rng = np.random.default_rng(1)
    za = normalize_feature_map(rng.normal(size=(8, 8, 4)))
    zb = normalize_feature_map(rng.normal(size=(8, 8, 4)))
    assert nfmse(za, za) == 0.0
    assert nfmse(za, zb) == nfmse(zb, za)
    assert nfmse(za, zb) >= 0.0


def test_nfmse_shape_mismatch():
    rng = np.random.default_rng(2)
    za = normalize_feature_map(rng.normal(size=(4, 4, 2)))
    zb = normalize_feature_map(rng.normal(size=(4, 5, 2)))
    with pytest.raises(ValueError):
        nfmse(za, zb)


def test_nfmse_independent_standard_normals_near_two():
    rng = np.random.default_rng(3)
    za = normalize_feature_map(rng.normal(size=(100, 100, 10)))
    zb = normalize_feature_map(rng.normal(size=(100, 100, 10)))
    assert nfmse(za, zb) == pytest.approx(2.0, abs=0.05)


def test_nfmse_negation_gives_four_times_mean_square():
    rng = np.random.default_rng(4)
    z = rng.normal(size=(10, 10, 3))
    za = normalize_feature_map(z)
    zb = normalize_feature_map(-z)
    expected = 4.0 * float(np.mean(za**2))
    assert nfmse(za, zb) == pytest.approx(expected, rel=1e-12)
    assert nfmse(za, zb) == pytest.approx(4.0, rel=1e-6)


def test_reference_values_documented():
    assert REFERENCE_NFMSE["mcae"][("A", "B")] == 0.15819
    assert REFERENCE_NFMSE["stanosa"][("A", "B")] == 0.97128
    assert REFERENCE_DENSITY_SSIM[("A", "C")] == (0.852628, 0.047245)
    assert REFERENCE_TISSUE_CLASSIFICATION["mcae"]["weighted_f1"] == 0.80
    assert REFERENCE_TISSUE_CLASSIFICATION["stanosa"]["weighted_f1"] == 0.75


# --- per-triplet nfmse ---


class _SharedExtractor:
    """Domain-blind linear features: identical inputs give identical maps."""

    feature_dim = 10

    def encode_patches(self, raw):
        return np.asarray(raw, dtype=np.float64)[:, :10] / 255.0

    def param_arrays(self):
        return []


def test_nfmse_per_triplet_identity_transforms_give_zero():
    base = generate_base_images(3, 16, seed=5)
    ds = synth_triplets(base, {"B": StainPerturbation(), "C": StainPerturbation()}, seed=5)
    shared = _SharedExtractor()
    rows, summary = nfmse_per_triplet({d: shared for d in ds.domain_ids}, ds)
    assert len(rows) == 3 * 3  # three pairs per triplet
    assert all(value == 0.0 for _, _, value in rows)
    assert summary["A-B"]["mean"] == 0.0


def test_nfmse_per_triplet_uses_domain_encoders():
    base = generate_base_images(2, 16, seed=6)
    ds = synth_triplets(base, {"B": StainPerturbation(rotation=0.4)}, seed=6)
    model = mcae_init(ds.domain_ids, seed=0)
    extractors = {d: feature_extractor(model, d) for d in ds.domain_ids}
    rows, summary = nfmse_per_triplet(extractors, ds)
    assert len(rows) == 2
    assert all(pair == "A-B" for _, pair, _ in rows)
    assert summary["A-B"]["mean"] > 0.0
    assert len(summary["A-B"]["histogram"]["counts"]) == 20


def test_nfmse_per_triplet_empty_dataset():
    from staininv.dataset import TripletDataset

    with pytest.raises(ValueError):
        nfmse_per_triplet({}, TripletDataset(domain_ids=["A"], triplets=[]))


# --- cxcy sampling ---


def test_cxcy_grey_image_gives_zero_rows():
    grey = Image(np.full((8, 8, 3), 100, dtype=np.uint8))
    rows, excluded = cxcy_sample([grey], n_pixels=10, seed=0, tag="grey")
    assert excluded == 0
    assert rows == [(0.0, 0.0, "grey")] * 10


def test_cxcy_excludes_background():
    white = Image(np.full((4, 4, 3), 255, dtype=np.uint8))
    with pytest.warns(UserWarning, match="background"):
        rows, excluded = cxcy_sample([white], n_pixels=16, seed=0, tag="w")
    assert rows == [] and excluded == 16


def test_cxcy_deterministic_and_counted():
    imgs = generate_base_images(2, 16, seed=7)
    rows1, ex1 = cxcy_sample(imgs, n_pixels=50, seed=9, tag="A")
    rows2, ex2 = cxcy_sample(imgs, n_pixels=50, seed=9, tag="A")
    assert rows1 == rows2
    assert len(rows1) + ex1 == 50


def test_cxcy_rejects_zero_request():
    with pytest.raises(ValueError):
        cxcy_sample([], n_pixels=0, seed=0, tag="x")
    with pytest.raises(ValueError, match="no images"):
        cxcy_sample([], n_pixels=1, seed=0, tag="x")


def test_cxcy_holds_the_pool_planes_not_every_image_plane():
    # the pool's c_x and c_y are two float64 planes of every pixel; keeping each
    # image's four HSD planes and then concatenating them peaked above five
    rng = np.random.default_rng(27)
    images = [Image(rng.integers(0, 256, size=(32, 32, 3), dtype=np.uint8)) for _ in range(500)]
    plane_bytes = 500 * 32 * 32 * 8
    tracemalloc.start()
    try:
        cxcy_sample(images, n_pixels=1000, seed=0, tag="A")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * plane_bytes


# --- density ssim table ---


def test_density_ssim_identity_dataset_all_ones():
    base = generate_base_images(2, 16, seed=8)
    ds = synth_triplets(base, {"B": StainPerturbation(), "C": StainPerturbation()}, seed=8)
    table = density_ssim_table(ds)
    assert [row["pair"] for row in table] == ["A-B", "A-C", "B-C"]
    assert all(row["mean"] == 1.0 and row["std"] == 0.0 for row in table)


def test_density_ssim_chromatic_only_high():
    base = generate_base_images(3, 24, seed=9)
    perts = {
        "B": StainPerturbation(rotation=0.3, offset=(0.02, -0.02)),
        "C": StainPerturbation(rotation=-0.25, scale=(1.08, 0.94)),
    }
    ds = synth_triplets(base, perts, seed=9)
    table = density_ssim_table(ds)
    assert all(row["mean"] >= 0.999 for row in table)


def test_density_gain_lowers_ssim():
    base = generate_base_images(3, 24, seed=10)
    flat = density_ssim_table(
        synth_triplets(base, {"B": StainPerturbation(rotation=0.2)}, seed=10)
    )
    gained = density_ssim_table(
        synth_triplets(
            base, {"B": StainPerturbation(rotation=0.2, density_gain=1.3)}, seed=10
        )
    )
    assert gained[0]["mean"] < flat[0]["mean"]


# --- classification report ---


def test_report_perfect_predictions():
    report = classification_report([0, 1, 2, 1], [0, 1, 2, 1], ["a", "b", "c"])
    assert report.accuracy == 1.0
    assert np.all(report.precision == 1.0) and np.all(report.recall == 1.0)
    assert report.weighted_f1 == 1.0
    assert report.support.tolist() == [1, 2, 1]


def test_report_hand_confusion_matrix():
    # class 0: TP=1, FP=1, FN=0 -> precision 0.5, recall 1.0, f1 = 2/3
    report = classification_report([0, 1], [0, 0], ["x", "y"])
    assert report.precision[0] == pytest.approx(0.5)
    assert report.recall[0] == pytest.approx(1.0)
    assert report.f1[0] == pytest.approx(2.0 / 3.0)
    assert report.precision[1] == 0.0 and report.recall[1] == 0.0 and report.f1[1] == 0.0
    assert report.accuracy == 0.5


def test_report_weighted_average_identity():
    rng = np.random.default_rng(11)
    y_true = rng.integers(0, 4, size=200)
    y_pred = rng.integers(0, 4, size=200)
    report = classification_report(y_true, y_pred, list("abcd"))
    expected = float(np.sum(report.support * report.f1) / np.sum(report.support))
    assert report.weighted_f1 == pytest.approx(expected, abs=1e-15)


def test_report_errors():
    with pytest.raises(ValueError):
        classification_report([0, 1], [0], ["a", "b"])
    with pytest.raises(ValueError):
        classification_report([0, 5], [0, 1], ["a", "b"])


def test_domain_pairs_order():
    assert domain_pairs(["A", "B", "C"]) == [("A", "B"), ("A", "C"), ("B", "C")]
