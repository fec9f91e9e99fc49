"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  The desk-scale training comparison (criterion 5) builds a
module-scoped fixture that criterion 8 reuses, so the whole suite stays
inside its runtime budgets.
"""

import filecmp
import os
import time

import numpy as np
import pytest

from staininv import classifier, cyclegan, dataset, mcae, metrics, stanosa
from staininv.cli import _toy_colour_domains, main
from staininv.colour import hsd_forward, hsd_inverse_clamped
from staininv.gradcheck import run_grad_checks
from staininv.metrics import (
    nfmse,
    nfmse_per_triplet,
    normalize_feature_map,
)
from staininv.numerics import mlp_forward

GRAD_TOL = 1e-4
HSD_TOL = 1e-12
ZCA_OFFDIAG_TOL = 1e-6
NFMSE_STAT_TOL = 0.05
AFFINE_TOL = 1e-6
RATIO_BOUND = 0.7
DENSITY_SSIM_FLOOR = 0.999
CYCLE_SHRINK = 0.5
VAL_ACCURACY_FLOOR = 0.9


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


# ---------------------------------------------------------------- fixture


def run_desk(seed):
    """2,000 chromatic-only 32x32 triplets; 50-epoch MCAE and baseline.

    Criterion 5 is ``run_desk(2024)``; ``scripts/seed_sweep.py`` runs it at
    other seeds.
    """
    timings = {}
    t0 = time.perf_counter()
    base = dataset.generate_base_images(2000, 32, seed=seed)
    ds = dataset.synth_triplets(base, dataset.PERTURBATIONS, seed=seed)
    train, test = dataset.split(ds, seed=seed)
    timings["synth"] = time.perf_counter() - t0

    t1 = time.perf_counter()
    model = mcae.mcae_init(ds.domain_ids, seed=seed)
    model, mcae_log = mcae.train_mcae(
        model,
        dataset.patch_store(train, ds.domain_ids, 8),
        mcae.McaeTrainConfig(epochs=50, lr=0.001, batch=32, k=10, seed=seed),
    )
    timings["mcae"] = time.perf_counter() - t1

    t2 = time.perf_counter()
    patches = dataset.patch_store(train, ["A"], 8).reshape(-1, 192)
    baseline = stanosa.stanosa_init(seed=seed)
    baseline, stanosa_log = stanosa.train_stanosa(
        baseline,
        patches,
        stanosa.StanosaTrainConfig(epochs=50, lr=0.001, batch=256, seed=seed),
    )
    timings["stanosa"] = time.perf_counter() - t2

    t3 = time.perf_counter()
    mcae_ext = {d: mcae.feature_extractor(model, d) for d in ds.domain_ids}
    stanosa_ext = {d: stanosa.feature_extractor(baseline) for d in ds.domain_ids}
    _, mcae_summary = nfmse_per_triplet(mcae_ext, test)
    _, stanosa_summary = nfmse_per_triplet(stanosa_ext, test)
    timings["eval"] = time.perf_counter() - t3
    return {
        "dataset": ds,
        "test": test,
        "model": model,
        "baseline": baseline,
        "mcae_log": mcae_log,
        "stanosa_log": stanosa_log,
        "mcae_summary": mcae_summary,
        "stanosa_summary": stanosa_summary,
        "timings": timings,
    }


@pytest.fixture(scope="module")
def desk_run():
    return run_desk(2024)


# ---------------------------------------------------------------- criteria


def test_criterion_01_gradient_correctness():
    started = time.perf_counter()
    results = run_grad_checks(seed=0)
    elapsed = time.perf_counter() - started
    names = {name for name, _ in results}
    assert {"mcae/combined_loss", "cyclegan/generator_objective"} <= names
    for name, err in results:
        assert err < GRAD_TOL, f"{name}: {err:.3e}"
    assert elapsed < 30.0
    _report(1, f"{len(results)} checks, worst {max(e for _, e in results):.2e}, "
               f"{elapsed:.1f}s")


def test_criterion_02_hsd_roundtrip():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    od = rng.uniform(0.005, 4.0, size=(100000, 3))
    back, clamped = hsd_inverse_clamped(hsd_forward(od))
    worst = float(np.max(np.abs(back - od)))
    assert clamped == 0 and worst < HSD_TOL

    grey_values = rng.uniform(0.001, 4.0, size=100000)
    grey = np.stack([grey_values] * 3, axis=-1)
    planes = hsd_forward(grey)
    assert np.all(planes.c_x == 0.0) and np.all(planes.c_y == 0.0)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(2, f"max roundtrip error {worst:.2e}, grey chroma exact, {elapsed:.1f}s")


def test_criterion_03_zca_property():
    started = time.perf_counter()
    images = dataset.generate_base_images(80, 64, seed=11)
    patches = np.concatenate([dataset.extract_patches(im, 8) for im in images])
    patches = patches[:5000]
    transform = dataset.zca_fit(patches)
    white = dataset.zca_apply(transform, patches)
    cov = white.T @ white / white.shape[0]
    off = cov - np.diag(np.diag(cov))
    worst = float(np.abs(off).max())
    elapsed = time.perf_counter() - started
    assert worst < ZCA_OFFDIAG_TOL
    assert elapsed < 30.0
    _report(3, f"5000 patches, max off-diagonal {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_nfmse_analytics():
    rng = np.random.default_rng(13)
    za = normalize_feature_map(rng.normal(size=(100, 100, 10)))
    assert nfmse(za, za) == 0.0

    zb = normalize_feature_map(rng.normal(size=(100, 100, 10)))
    stat = nfmse(za, zb)
    assert abs(stat - 2.0) < NFMSE_STAT_TOL

    z = rng.normal(size=(9, 8, 5))
    scale = rng.uniform(0.2, 4.0, size=5)
    shift = rng.uniform(-3.0, 3.0, size=5)
    drift = float(
        np.abs(
            normalize_feature_map(scale * z + shift)
            - normalize_feature_map(z)
        ).max()
    )
    assert drift < AFFINE_TOL
    _report(4, f"self 0.0, independent normals {stat:.4f}, affine drift {drift:.1e}")


def test_criterion_05_mcae_beats_stanosa(desk_run):
    """MCAE cross-domain NFMSE below RATIO_BOUND times the baseline's on every pair.

    The fixture runs at seed 2024.  ``SEED_SWEEP.json`` (``scripts/seed_sweep.py``,
    the same fixture at seeds 2024-2033) shows the bound holding at 9 of those 10
    seeds: seed 2028 breaks it on A-C, at a ratio of 0.762.  So the claim rests on
    most seeds, not on every one.
    """
    ratios = {}
    for pair in ("A-B", "A-C", "B-C"):
        ours = desk_run["mcae_summary"][pair]["mean"]
        theirs = desk_run["stanosa_summary"][pair]["mean"]
        assert ours < theirs, f"{pair}: {ours:.4f} !< {theirs:.4f}"
        ratios[pair] = ours / theirs
        assert ratios[pair] < RATIO_BOUND, f"{pair}: ratio {ratios[pair]:.3f}"
    total = sum(desk_run["timings"].values())
    assert total < 600.0
    _report(
        5,
        "ratios "
        + ", ".join(f"{p}={r:.3f}" for p, r in ratios.items())
        + f", runtime {total:.0f}s",
    )


def test_criterion_06_density_preservation(desk_run):
    subset = dataset.TripletDataset(
        domain_ids=desk_run["dataset"].domain_ids,
        triplets=desk_run["dataset"].triplets[:100],
    )
    table = metrics.density_ssim_table(subset)
    for row in table:
        assert row["mean"] >= DENSITY_SSIM_FLOOR, row

    base = dataset.generate_base_images(50, 32, seed=17)
    chroma_only = dataset.StainPerturbation(rotation=0.4, offset=(0.02, -0.02))
    gained = dataset.StainPerturbation(
        rotation=0.4, offset=(0.02, -0.02), density_gain=1.3
    )
    flat_mean = metrics.density_ssim_table(
        dataset.synth_triplets(base, {"B": chroma_only}, seed=17)
    )[0]["mean"]
    gained_mean = metrics.density_ssim_table(
        dataset.synth_triplets(base, {"B": gained}, seed=17)
    )[0]["mean"]
    assert gained_mean < flat_mean
    _report(
        6,
        f"chromatic-only means {[round(r['mean'], 5) for r in table]}, "
        f"gain 1.3 drops SSIM {flat_mean:.4f} -> {gained_mean:.4f}",
    )


def test_criterion_07_cyclegan_toy_convergence():
    started = time.perf_counter()
    domain_a, domain_b = _toy_colour_domains(256, seed=99)
    config = cyclegan.CycleGanConfig(epochs=200, batch=32, seed=3)
    f, _, _, _, history = cyclegan.train_cyclegan(domain_a, domain_b, config)
    mapped = mlp_forward(f, domain_a).reshape(-1, 16, 3).mean(axis=(0, 1))
    mean_a = domain_a.reshape(-1, 16, 3).mean(axis=(0, 1))
    mean_b = domain_b.reshape(-1, 16, 3).mean(axis=(0, 1))
    dist_b = float(np.linalg.norm(mapped - mean_b))
    dist_a = float(np.linalg.norm(mapped - mean_a))
    assert dist_b < dist_a

    first = np.mean([h["l_cycle"] for h in history if h["epoch"] == 1])
    last = np.mean([h["l_cycle"] for h in history if h["epoch"] == config.epochs])
    assert last <= CYCLE_SHRINK * first
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _report(
        7,
        f"colour dist to B {dist_b:.4f} vs A {dist_a:.4f}, "
        f"cycle {first:.2f}->{last:.2f}, {elapsed:.0f}s",
    )


def test_criterion_08_classifier_experiment(desk_run):
    extractor = mcae.feature_extractor(desk_run["model"], "A")
    checksum_before = classifier.extractor_checksum(extractor)
    labeled = classifier.generate_labeled_set(n_per_class=60, size=32, seed=23)
    train, val, test = classifier.split_labeled(labeled, seed=23)
    head = classifier.head_init(3, seed=23, in_channels=extractor.feature_dim)
    head, log = classifier.train_classifier(
        extractor, head, train, val,
        classifier.ClassifierTrainConfig(epochs=30, lr=0.01, batch=16, seed=23),
    )
    best = max(entry["val_accuracy"] for entry in log)
    assert best >= VAL_ACCURACY_FLOOR
    assert classifier.extractor_checksum(extractor) == checksum_before

    # weighted-f1 arithmetic against a hand-computed confusion matrix:
    # true (0,0,1,1,2), predicted (0,1,1,1,2)
    report = metrics.classification_report([0, 0, 1, 1, 2], [0, 1, 1, 1, 2], "abc")
    # class 0: P=1, R=1/2, f1=2/3; class 1: P=2/3, R=1, f1=4/5; class 2: all 1
    expected = (2 * (2 / 3) + 2 * (4 / 5) + 1 * 1.0) / 5
    assert report.weighted_f1 == pytest.approx(expected, abs=1e-12)

    y_true, y_pred = classifier.evaluate_classifier(extractor, head, test)
    test_report = metrics.classification_report(y_true, y_pred, labeled.class_names)
    _report(
        8,
        f"val accuracy {best:.3f} in {len(log)} epochs, encoder frozen, "
        f"test weighted-f1 {test_report.weighted_f1:.3f}",
    )


def _run_cli(args):
    assert main(args) == 0, f"command failed: {args}"


def _tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name == "run_manifest.json":  # carries wall time by design
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_criterion_09_pipeline_determinism(tmp_path):
    stages = {}

    def synth(out):
        _run_cli(["synth", "--triplets", "8", "--size", "32", "--seed", "5",
                  "--out-dir", out])

    def train_mcae(out, ds):
        _run_cli(["train-mcae", "--dataset", ds, "--epochs", "2", "--batch", "4",
                  "--stride", "8", "--k", "3", "--seed", "5", "--out-dir", out])

    def train_stanosa(out, ds):
        _run_cli(["train-stanosa", "--dataset", ds, "--epochs", "2", "--seed", "5",
                  "--out-dir", out])

    for attempt in ("x", "y"):
        base = tmp_path / attempt
        ds = str(base / "ds")
        synth(ds)
        train_mcae(str(base / "mcae"), ds)
        train_stanosa(str(base / "stanosa"), ds)
        _run_cli(["eval-nfmse", "--dataset", ds,
                  "--model", str(base / "mcae" / "mcae_model.json"),
                  "--model", str(base / "stanosa" / "stanosa_model.json"),
                  "--seed", "5", "--out-dir", str(base / "nfmse")])
        _run_cli(["eval-hsd", "--dataset", ds, "--pixels", "100", "--seed", "5",
                  "--out-dir", str(base / "hsd")])
        _run_cli(["train-clf", "--model", str(base / "mcae" / "mcae_model.json"),
                  "--per-class", "6", "--epochs", "2", "--seed", "5",
                  "--out-dir", str(base / "clf")])
        _run_cli(["eval-clf", "--model", str(base / "mcae" / "mcae_model.json"),
                  "--head", str(base / "clf" / "clf_head.json"),
                  "--per-class", "6", "--seed", "5",
                  "--out-dir", str(base / "clf-eval")])
        _run_cli(["train-cyclegan-toy", "--epochs", "2", "--patches", "32",
                  "--seed", "5", "--out-dir", str(base / "gan")])
        _run_cli(["grad-check", "--seed", "5", "--out-dir", str(base / "gc")])
        stages[attempt] = _tree_bytes(base)

    assert stages["x"].keys() == stages["y"].keys()
    diffs = [k for k in stages["x"] if stages["x"][k] != stages["y"][k]]
    assert not diffs, f"non-deterministic artifacts: {diffs}"
    _report(9, f"{len(stages['x'])} artifacts bit-identical across reruns")


def test_criterion_10_kmeans_properties():
    rng = np.random.default_rng(31)
    for instance in range(100):
        x = rng.normal(size=(rng.integers(20, 60), rng.integers(2, 6)))
        k = int(rng.integers(1, 6))
        state = mcae.kmeans_fit(x, k=k, max_iters=1, seed=instance)
        previous = mcae.kmeans_objective(state, x)
        for _ in range(8):
            labels = mcae.kmeans_assign(state, x)
            for j in range(k):
                members = labels == j
                if members.any():
                    state.centroids[j] = x[members].mean(axis=0)
            value = mcae.kmeans_objective(state, x)
            assert value <= previous + 1e-9
            previous = value

    x = rng.normal(size=(200, 7))
    state = mcae.kmeans_fit(x, k=1, seed=0)
    drift = float(np.abs(state.centroids[0] - x.mean(axis=0)).max())
    assert drift < 1e-12
    _report(10, f"objective non-increasing on 100 instances, k=1 drift {drift:.1e}")
