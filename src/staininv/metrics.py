"""Feature-space and colour-space evaluation metrics.

NFMSE compares feature maps after per-channel standardisation, so models
with differently scaled feature spaces can be compared fairly: a map
Z (h, w, n) is normalised channel-wise to (Z - mu) / (sigma + eps) before
the plain mean-squared error is taken.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .classifier import featurize
from .colour import hsd_forward, rgb_to_od, ssim

NORMALIZE_EPSILON = 1e-8

#: Full-scale reference results for the three-domain comparison (not
#: reproducible at desk scale; kept for documentation and reporting).
REFERENCE_NFMSE = {
    "mcae": {("A", "B"): 0.15819, ("A", "C"): 0.03257, ("B", "C"): 0.13757},
    "stanosa": {("A", "B"): 0.97128, ("A", "C"): 0.63196, ("B", "C"): 0.82684},
}
REFERENCE_DENSITY_SSIM = {
    ("A", "B"): (0.818682, 0.119560),
    ("A", "C"): (0.852628, 0.047245),
    ("B", "C"): (0.865696, 0.055421),
}
REFERENCE_TISSUE_CLASSIFICATION = {
    "mcae": {"accuracy": 0.80, "weighted_f1": 0.80},
    "stanosa": {"accuracy": 0.75, "weighted_f1": 0.75},
}


def normalize_feature_map(z, epsilon=NORMALIZE_EPSILON):
    """Standardise each channel of an (h, w, n) map over its own pixels."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 3:
        raise ValueError("expected a feature map of shape (h, w, channels)")
    return (z - z.mean(axis=(0, 1))) / (z.std(axis=(0, 1)) + epsilon)


def nfmse(za, zb):
    """Mean squared difference between two normalised feature maps."""
    a = np.asarray(za)
    b = np.asarray(zb)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


def domain_pairs(domain_ids):
    return [
        (domain_ids[i], domain_ids[j])
        for i in range(len(domain_ids))
        for j in range(i + 1, len(domain_ids))
    ]


def nfmse_per_triplet(extractors_by_domain, test):
    """Per-triplet NFMSE for every domain pair.

    Each domain is encoded with its own extractor (the baseline passes the
    same extractor for every domain), features are arranged on the
    non-overlapping 8x8 patch grid, normalised, and compared pairwise.
    Returns (rows, summary) where rows are (triplet_id, pair, value).
    """
    if len(test) == 0:
        raise ValueError("empty dataset")
    pairs = domain_pairs(test.domain_ids)
    rows = []
    values = {pair: [] for pair in pairs}
    for i, triplet in enumerate(test.triplets):
        maps = {
            d: normalize_feature_map(featurize(extractors_by_domain[d], triplet[d]))
            for d in test.domain_ids
        }
        for pair in pairs:
            value = nfmse(maps[pair[0]], maps[pair[1]])
            rows.append((i, f"{pair[0]}-{pair[1]}", value))
            values[pair].append(value)
    summary = {}
    for pair, vals in values.items():
        arr = np.array(vals)
        hist, edges = np.histogram(arr, bins=20)
        summary[f"{pair[0]}-{pair[1]}"] = {
            "mean": float(arr.mean()),
            "std": float(arr.std()),
            "histogram": {
                "counts": [int(c) for c in hist],
                "edges": [float(e) for e in edges],
            },
        }
    return rows, summary


def cxcy_sample(images, n_pixels, seed, tag):
    """Uniformly sample chroma coordinates from an image pool.

    Background-flagged pixels are excluded; returns (rows, n_excluded) with
    rows of (c_x, c_y, tag).  Each image's planes are copied into the pool
    as soon as they are computed, so only the pool is full-size.
    """
    if n_pixels < 1:
        raise ValueError("n_pixels must be at least 1")
    if not images:
        raise ValueError("no images to sample")
    sizes = [img.height * img.width for img in images]
    c_x = np.empty(sum(sizes))
    c_y = np.empty(c_x.size)
    background = np.empty(c_x.size, dtype=bool)
    lo = 0
    for img, size in zip(images, sizes):
        hsd = hsd_forward(rgb_to_od(img.pixels))
        c_x[lo:lo + size] = hsd.c_x.reshape(-1)
        c_y[lo:lo + size] = hsd.c_y.reshape(-1)
        background[lo:lo + size] = hsd.background.reshape(-1)
        lo += size
    rng = np.random.default_rng(seed)
    n = min(n_pixels, c_x.size)
    chosen = rng.choice(c_x.size, size=n, replace=False)
    keep = chosen[~background[chosen]]
    n_excluded = n - keep.size
    if keep.size == 0:
        warnings.warn(f"all {n} sampled pixels were background", stacklevel=2)
    rows = [(float(c_x[i]), float(c_y[i]), tag) for i in keep]
    return rows, n_excluded


def density_ssim_table(dataset):
    """Mean and std of density-plane SSIM per domain pair.

    The dynamic range for each comparison is the maximum density observed
    over the pair (see ``colour.ssim``).
    """
    pairs = domain_pairs(dataset.domain_ids)
    scores = {pair: [] for pair in pairs}
    for triplet in dataset.triplets:
        density = {
            d: hsd_forward(rgb_to_od(triplet[d].pixels)).density
            for d in dataset.domain_ids
        }
        for pair in pairs:
            scores[pair].append(ssim(density[pair[0]], density[pair[1]]))
    return [
        {
            "pair": f"{pair[0]}-{pair[1]}",
            "mean": float(np.mean(vals)),
            "std": float(np.std(vals)),
        }
        for pair, vals in scores.items()
    ]


@dataclass
class ClassReport:
    class_names: list
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    support: np.ndarray
    accuracy: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float


def classification_report(true_labels, predicted_labels, class_names):
    """Per-class precision/recall/f1/support plus weighted averages."""
    y_true = np.asarray(true_labels)
    y_pred = np.asarray(predicted_labels)
    if y_true.shape != y_pred.shape:
        raise ValueError("label arrays must have equal length")
    n_classes = len(class_names)
    if y_true.size and (
        min(y_true.min(), y_pred.min()) < 0
        or max(y_true.max(), y_pred.max()) >= n_classes
    ):
        raise ValueError("labels outside the class set")
    precision = np.zeros(n_classes)
    recall = np.zeros(n_classes)
    f1 = np.zeros(n_classes)
    support = np.zeros(n_classes, dtype=np.int64)
    for c in range(n_classes):
        tp = int(np.sum((y_pred == c) & (y_true == c)))
        fp = int(np.sum((y_pred == c) & (y_true != c)))
        fn = int(np.sum((y_pred != c) & (y_true == c)))
        support[c] = tp + fn
        precision[c] = tp / (tp + fp) if tp + fp else 0.0
        recall[c] = tp / (tp + fn) if tp + fn else 0.0
        denom = precision[c] + recall[c]
        f1[c] = 2.0 * precision[c] * recall[c] / denom if denom else 0.0
    total = int(support.sum())
    weights = support / total if total else np.zeros(n_classes)
    return ClassReport(
        class_names=list(class_names),
        precision=precision,
        recall=recall,
        f1=f1,
        support=support,
        accuracy=float(np.mean(y_true == y_pred)) if y_true.size else 0.0,
        weighted_precision=float(weights @ precision),
        weighted_recall=float(weights @ recall),
        weighted_f1=float(weights @ f1),
    )


def report_table(report):
    """Header and rows: one per class, then the accuracy and weighted-average rows."""
    rows = [
        [name, report.precision[i], report.recall[i], report.f1[i], int(report.support[i])]
        for i, name in enumerate(report.class_names)
    ]
    total = int(report.support.sum())
    rows.append(["accuracy", "", "", report.accuracy, total])
    rows.append(
        ["weighted avg", report.weighted_precision, report.weighted_recall,
         report.weighted_f1, total]
    )
    return ["class", "precision", "recall", "f1", "support"], rows
