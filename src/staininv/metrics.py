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


def normalize_feature_map(z):
    """Standardise each channel of an (h, w, n) map over its own pixels."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 3:
        raise ValueError("expected a feature map of shape (h, w, channels)")
    # (z - z.mean(axis=(0, 1))) / (z.std(axis=(0, 1)) + NORMALIZE_EPSILON) bit for bit, in
    # np.std's steps and order, without the Python layers of np.mean and np.std
    count = z.shape[0] * z.shape[1]
    centred = z - np.add.reduce(z, axis=(0, 1)) / count
    std = np.add.reduce(centred * centred, axis=(0, 1))
    std /= count
    np.sqrt(std, out=std)
    std += NORMALIZE_EPSILON
    centred /= std
    return centred


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
    """Uniformly sample chroma coordinates from the pixels of ``images``.

    Background-flagged pixels are excluded; returns (rows, n_excluded) with
    rows of (c_x, c_y, tag).  The sample is drawn first, as pixel numbers in
    the images' order (the draw depends only on the pixel count), and each
    image's drawn pixels are gathered as soon as its planes are computed, so
    no plane of every pixel is held.  Every image goes through
    ``hsd_forward``, drawn from or not, so every image is checked.
    """
    if n_pixels < 1:
        raise ValueError("n_pixels must be at least 1")
    if not images:
        raise ValueError("no images to sample")
    sizes = [img.height * img.width for img in images]
    total = sum(sizes)
    n = min(n_pixels, total)
    chosen = np.random.default_rng(seed).choice(total, size=n, replace=False)
    order = np.argsort(chosen)  # the draws by pixel number: each image's are one run
    starts = np.cumsum([0, *sizes])
    edges = np.searchsorted(chosen[order], starts)
    c_x, c_y, background = np.empty(n), np.empty(n), np.empty(n, dtype=bool)
    for i, img in enumerate(images):
        hsd = hsd_forward(rgb_to_od(img.pixels))
        slots = order[edges[i]:edges[i + 1]]
        pixels = chosen[slots] - starts[i]
        c_x[slots] = hsd.c_x.reshape(-1)[pixels]
        c_y[slots] = hsd.c_y.reshape(-1)[pixels]
        background[slots] = hsd.background.reshape(-1)[pixels]
    keep = ~background
    n_excluded = n - int(keep.sum())
    if n_excluded == n:
        warnings.warn(f"all {n} sampled pixels were background", stacklevel=2)
    rows = [(float(x), float(y), tag) for x, y in zip(c_x[keep], c_y[keep])]
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
    # confusion[t, p]: how many items of true class t were predicted as p
    cells = (y_true.astype(np.int64) * n_classes + y_pred.astype(np.int64)).reshape(-1)
    confusion = np.bincount(cells, minlength=n_classes * n_classes).reshape(n_classes, -1)
    tp = np.diag(confusion)
    support = confusion.sum(axis=1)  # tp + fn
    predicted = confusion.sum(axis=0)  # tp + fp
    precision = np.divide(tp, predicted, out=np.zeros(n_classes), where=predicted > 0)
    recall = np.divide(tp, support, out=np.zeros(n_classes), where=support > 0)
    denom = precision + recall
    f1 = np.divide(2.0 * precision * recall, denom, out=np.zeros(n_classes), where=denom > 0)
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
